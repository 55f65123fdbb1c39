(* Quickstart: bring up a 2-server ALOHA-DB, write, transfer, read.

   Run with:  dune exec examples/quickstart.exe *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster

(* Submit a request and pump the simulation until its result arrives. *)
let await cluster ~fe request =
  let result = ref None in
  Cluster.submit cluster ~fe request (fun r -> result := Some r);
  let rec spin () =
    match !result with
    | Some r -> r
    | None ->
        Cluster.run_for cluster 5_000;
        spin ()
  in
  spin ()

let () =
  (* A 2-server deployment with default epoch length (25 ms). *)
  let cluster =
    Cluster.create { Cluster.default_options with n_servers = 2 }
  in
  Cluster.start cluster;

  (* 1. A blind multi-write (write-only transaction, pure ECC). *)
  (match
     await cluster ~fe:0
       (Txn.read_write
          [ ("acct:alice", Kernel.Txn.Put (Value.int 150));
            ("acct:bob", Kernel.Txn.Put (Value.int 100)) ])
   with
  | Txn.Committed { ts } ->
      Format.printf "initial deposit committed at %a@."
        Clocksync.Timestamp.pp ts
  | r -> Format.printf "unexpected: %a@." Txn.pp_result r);

  (* 2. A read-write transaction: two numeric functors, no locks taken,
     computed asynchronously after the epoch closes. *)
  (match
     await cluster ~fe:1
       (Txn.read_write
          [ ("acct:alice", Kernel.Txn.Subtr 50);
            ("acct:bob", Kernel.Txn.Add 50) ])
   with
  | Txn.Committed _ -> Format.printf "transfer committed@."
  | r -> Format.printf "unexpected: %a@." Txn.pp_result r);

  (* 3. A latest-version read-only transaction: assigned a timestamp in
     the current epoch and served as a historical read one epoch later. *)
  (match
     await cluster ~fe:0 (Txn.Read_only { keys = [ "acct:alice"; "acct:bob" ] })
   with
  | Txn.Values kvs ->
      List.iter
        (fun (k, v) ->
          match v with
          | Some v -> Format.printf "%s = %a@." k Value.pp v
          | None -> Format.printf "%s = ⊥@." k)
        kvs
  | r -> Format.printf "unexpected: %a@." Txn.pp_result r)
