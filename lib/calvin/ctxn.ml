type t = {
  read_set : string list;
  write_set : string list;
  writes : (string * Kernel.Txn.op) list;
  version : int;
}

let of_txn ~version txn =
  let d = Kernel.Txn.static_form txn in
  { read_set = Kernel.Txn.read_set d;
    write_set = Kernel.Txn.write_keys d;
    writes = d.Kernel.Txn.writes;
    version }

let participants ~partition_of txn =
  List.map partition_of (txn.read_set @ txn.write_set)
  |> List.sort_uniq Int.compare

let execute registry txn ~reads =
  match
    Kernel.Apply.writes ~registry ~version:txn.version ~reads txn.writes
  with
  | Some writes -> writes
  | None -> []
