type mode = Read | Write

(* Each transaction keeps its entries, and each entry its key's queue, so
   promote and release reach a queue by handle and never hash a key
   again.  A queue is a singly-linked FIFO with a tail pointer: O(1)
   append. *)
type txn_state = {
  uid : int;
  mutable held : int;
  mutable entries : entry array;  (* one per key, in request order *)
  mutable notified : bool;
}

and entry = {
  owner : txn_state;
  mode : mode;
  queue : queue;
  mutable granted : bool;
  mutable next : entry option;
}

and queue = {
  key : string;
  mutable first : entry option;
  mutable last : entry option;
}

type t = {
  queues : queue Strtbl.t;
  txns : (int, txn_state) Hashtbl.t;
  on_ready : int -> unit;
}

let create ~on_ready =
  { queues = Strtbl.create 1024; txns = Hashtbl.create 256; on_ready }

let queue_of t key =
  match Strtbl.find_opt t.queues key with
  | Some q -> q
  | None ->
      let q = { key; first = None; last = None } in
      Strtbl.add t.queues key q;
      q

let append q e =
  let cell = Some e in
  (match q.last with None -> q.first <- cell | Some l -> l.next <- cell);
  q.last <- cell

let remove q e =
  let rec unlink prev = function
    | None -> ()
    | Some x when x == e ->
        (match prev with None -> q.first <- e.next | Some p -> p.next <- e.next);
        if Option.is_none e.next then q.last <- prev
    | Some x -> unlink (Some x) x.next
  in
  unlink None q.first

(* Grant the longest compatible prefix of the queue: either the single
   leading write, or every leading read up to the first write. *)
let promote t q =
  let newly = ref [] in
  let grant e =
    if not e.granted then begin
      e.granted <- true;
      newly := e :: !newly
    end
  in
  let rec grant_reads = function
    | Some ({ mode = Read; _ } as e) ->
        grant e;
        grant_reads e.next
    | Some { mode = Write; _ } | None -> ()
  in
  (match q.first with
  | Some ({ mode = Write; _ } as e) -> grant e
  | first -> grant_reads first);
  List.iter
    (fun e ->
      let st = e.owner in
      st.held <- st.held + 1;
      if st.held = Array.length st.entries && not st.notified then begin
        st.notified <- true;
        t.on_ready st.uid
      end)
    (List.rev !newly)

let coalesce keys =
  let tbl = Strtbl.create 16 in
  List.iter
    (fun (key, mode) ->
      match Strtbl.find_opt tbl key with
      | Some Write -> ()
      | Some Read -> if mode = Write then Strtbl.replace tbl key Write
      | None -> Strtbl.add tbl key mode)
    keys;
  Strtbl.fold (fun key mode acc -> (key, mode) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as tl) -> String.compare a b < 0 && strictly_sorted tl
  | [ _ ] | [] -> true

let request t ~uid ~keys =
  if Hashtbl.mem t.txns uid then
    invalid_arg "Lock_manager.request: duplicate uid";
  let keys = if strictly_sorted keys then keys else coalesce keys in
  let st = { uid; held = 0; entries = [||]; notified = false } in
  Hashtbl.add t.txns uid st;
  st.entries <-
    Array.of_list
      (List.map
         (fun (key, mode) ->
           { owner = st; mode; queue = queue_of t key; granted = false;
             next = None })
         keys);
  if keys = [] then begin
    st.notified <- true;
    t.on_ready uid
  end
  else
    Array.iter
      (fun e ->
        append e.queue e;
        promote t e.queue)
      st.entries

let release t ~uid =
  match Hashtbl.find_opt t.txns uid with
  | None -> invalid_arg "Lock_manager.release: unknown uid"
  | Some st ->
      Hashtbl.remove t.txns uid;
      Array.iter
        (fun e ->
          let q = e.queue in
          remove q e;
          if Option.is_none q.first then Strtbl.remove t.queues q.key
          else promote t q)
        st.entries

let fold_queue t key f acc =
  match Strtbl.find_opt t.queues key with
  | None -> acc
  | Some q ->
      let rec go acc = function
        | None -> acc
        | Some e -> go (f acc e) e.next
      in
      go acc q.first

let holders t key =
  List.rev
    (fold_queue t key (fun acc e -> if e.granted then e.owner.uid :: acc else acc) [])

let waiting t key = fold_queue t key (fun n _ -> n + 1) 0
