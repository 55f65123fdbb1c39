type shard = {
  partition : int;
  reads : string list;
  writes : string list;
}

type t = {
  shards : shard list;
  writes : (string * Kernel.Txn.op) list;
  version : int;
}

(* Merge two strictly name-sorted key lists into one lock list; a key in
   both is locked once, in write mode. *)
let rec merge_locks reads writes =
  match (reads, writes) with
  | [], ws -> List.map (fun k -> (k, Lock_manager.Write)) ws
  | rs, [] -> List.map (fun k -> (k, Lock_manager.Read)) rs
  | r :: rs, w :: ws ->
      let c = String.compare r w in
      if c < 0 then (r, Lock_manager.Read) :: merge_locks rs writes
      else if c > 0 then (w, Lock_manager.Write) :: merge_locks reads ws
      else (w, Lock_manager.Write) :: merge_locks rs ws

let of_txn ~partition_of ~version txn =
  let d = Kernel.Txn.static_form txn in
  let placed keys = List.map (fun k -> (partition_of k, k)) keys in
  let reads = placed (Kernel.Txn.read_set d)
  and writes = placed (Kernel.Txn.write_keys d) in
  (* Filtering keeps the sets' name order within each shard. *)
  let local p keys =
    List.filter_map (fun (q, k) -> if q = p then Some k else None) keys
  in
  let shards =
    List.sort_uniq Int.compare (List.map fst reads @ List.map fst writes)
    |> List.map (fun p ->
           { partition = p; reads = local p reads; writes = local p writes })
  in
  { shards; writes = d.Kernel.Txn.writes; version }

let shard txn p = List.find_opt (fun s -> s.partition = p) txn.shards
let locks s = merge_locks s.reads s.writes
let lock_count s = List.length s.reads + List.length s.writes

let execute registry txn ~reads =
  match
    Kernel.Apply.writes ~registry ~version:txn.version ~reads txn.writes
  with
  | Some writes -> writes
  | None -> []
