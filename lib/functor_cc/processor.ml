(* One epoch's buffered handles, in install order. *)
type buf = { mutable items : Compute_engine.handle array; mutable len : int }

type t = {
  engine : Compute_engine.t;
  pool : Sim.Worker_pool.t;
  dispatch_cost_us : int;
  m_dispatched : int ref;
  buffers : (int, buf) Hashtbl.t;  (* epoch -> handles *)
  mutable dispatched : int;
  on_dispatch : (Compute_engine.handle -> unit) option;
}

let create ~engine ~pool ~dispatch_cost_us ~metrics ?on_dispatch () =
  { engine; pool; dispatch_cost_us;
    m_dispatched = Sim.Metrics.counter metrics "proc.dispatched";
    buffers = Hashtbl.create 8; dispatched = 0; on_dispatch }

let buffer t ~epoch h =
  match Hashtbl.find_opt t.buffers epoch with
  | None -> Hashtbl.add t.buffers epoch { items = Array.make 16 h; len = 1 }
  | Some b ->
      if b.len = Array.length b.items then begin
        let items = Array.make (2 * b.len) h in
        Array.blit b.items 0 items 0 b.len;
        b.items <- items
      end;
      b.items.(b.len) <- h;
      b.len <- b.len + 1

(* The buffers of epochs <= [upto_epoch], removed, epochs ascending. *)
let take_ready t ~upto_epoch =
  let ready =
    Hashtbl.fold
      (fun epoch b acc ->
        if epoch <= upto_epoch then (epoch, b) :: acc else acc)
      t.buffers []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.map
    (fun (epoch, b) ->
      Hashtbl.remove t.buffers epoch;
      b)
    ready

(* Each epoch's items go to the pool as one batch of [dispatch_cost_us]
   jobs in install order: the job sequence of one submit per item. *)
let release_with t ~upto_epoch job =
  List.iter
    (fun { items; len } ->
      t.dispatched <- t.dispatched + len;
      t.m_dispatched := !(t.m_dispatched) + len;
      (match t.on_dispatch with
      | Some f ->
          for i = 0 to len - 1 do
            f items.(i)
          done
      | None -> ());
      Sim.Worker_pool.submit_batch t.pool ~cost:t.dispatch_cost_us ~n:len
        (fun i -> job t.engine items.(i)))
    (take_ready t ~upto_epoch)

let release t ~upto_epoch = release_with t ~upto_epoch Compute_engine.compute

(* Demand-driven variant: the dispatch job issues a Get at the item's own
   version, so evaluation unfolds lazily down the read chain instead of
   scanning the whole key from the watermark. *)
let release_ondemand t ~upto_epoch =
  release_with t ~upto_epoch Compute_engine.demand

let drain t ~upto_epoch =
  Array.concat
    (List.map (fun { items; len } -> Array.sub items 0 len)
       (take_ready t ~upto_epoch))

let buffered t = Hashtbl.fold (fun _ b acc -> acc + b.len) t.buffers 0

let dispatched t = t.dispatched
