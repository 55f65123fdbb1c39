type job = { cost : int; k : unit -> unit }

(* A batch is [n] jobs of one cost whose continuations are [f 0 .. n-1].
   It holds one FIFO position through a shared [marker] job; the batch
   itself waits in [batches] until its last item has started, so queuing
   it costs no job record, closure or queue cell per item. *)
type batch = { b_cost : int; n : int; f : int -> unit; mutable next : int }

type t = {
  engine : Engine.t;
  workers : int;
  queue : job Queue.t;
  prio_queue : job Queue.t;
  batches : batch Queue.t;  (* one per [marker] in [queue], same order *)
  mutable batched : int;  (* batch items not yet started *)
  mutable busy : int;
  mutable busy_time : int;
  mutable completed : int;
}

let marker = { cost = -1; k = (fun () -> ()) }

let create engine ~workers =
  if workers < 1 then invalid_arg "Worker_pool.create: workers must be >= 1";
  { engine; workers; queue = Queue.create (); prio_queue = Queue.create ();
    batches = Queue.create (); batched = 0; busy = 0; busy_time = 0;
    completed = 0 }

let rec start t ~cost k =
  t.busy <- t.busy + 1;
  Engine.after t.engine cost (fun () ->
      t.busy <- t.busy - 1;
      t.busy_time <- t.busy_time + cost;
      t.completed <- t.completed + 1;
      k ();
      dispatch t)

and dispatch t =
  if t.busy < t.workers then begin
    match Queue.take_opt t.prio_queue with
    | Some job -> start t ~cost:job.cost job.k
    | None -> (
        match Queue.peek_opt t.queue with
        | None -> ()
        | Some job when job != marker ->
            ignore (Queue.take t.queue);
            start t ~cost:job.cost job.k
        | Some _ ->
            let b = Queue.peek t.batches in
            let i = b.next in
            b.next <- i + 1;
            t.batched <- t.batched - 1;
            if b.next = b.n then begin
              ignore (Queue.take t.queue);
              ignore (Queue.take t.batches)
            end;
            start t ~cost:b.b_cost (fun () -> b.f i))
  end

let check_cost cost =
  if cost < 0 then invalid_arg "Worker_pool.submit: negative cost"

let enqueue t q ~cost k =
  check_cost cost;
  Queue.add { cost; k } q;
  dispatch t

let submit t ~cost k = enqueue t t.queue ~cost k

let submit_priority t ~cost k = enqueue t t.prio_queue ~cost k

(* [n] single submits would each call [dispatch] once, and each call
   after the first busy-out is a no-op; so the same jobs start, in the
   same order. *)
let submit_batch t ~cost ~n f =
  check_cost cost;
  if n > 0 then begin
    Queue.add marker t.queue;
    Queue.add { b_cost = cost; n; f; next = 0 } t.batches;
    t.batched <- t.batched + n;
    let i = ref 0 in
    while !i < n && t.busy < t.workers do
      dispatch t;
      incr i
    done
  end

let workers t = t.workers

let queue_length t =
  Queue.length t.queue - Queue.length t.batches + t.batched
  + Queue.length t.prio_queue

let busy_workers t = t.busy

let busy_time t = t.busy_time

let jobs_completed t = t.completed
