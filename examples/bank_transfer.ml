(* The paper's Figure 5 walked through end to end: three consecutive
   transactions over two accounts, the third aborting on insufficient
   funds — no locks, no read-write conflicts, serializable.

   Run with:  dune exec examples/bank_transfer.exe *)

module Value = Functor_cc.Value
module Registry = Functor_cc.Registry
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster

(* The guarded transfer of Figure 5 (T3): both functors read account A and
   reach the same abort decision, so the transaction is atomic. *)
let guarded_transfer (ctx : Registry.ctx) =
  let amount = Value.to_int (Registry.arg ctx 0) in
  let delta = Value.to_int (Registry.arg ctx 1) in
  let a_balance =
    match Registry.read ctx "acct:A" with
    | Some v -> Value.to_int v
    | None -> 0
  in
  if a_balance < amount then Registry.Abort
  else begin
    let own =
      match Registry.read ctx ctx.Registry.key with
      | Some v -> Value.to_int v
      | None -> 0
    in
    Registry.Commit (Value.int (own + delta))
  end

let transfer amount =
  Txn.read_write
    [ ("acct:A",
       Kernel.Txn.Call
         { handler = "guarded_transfer"; read_set = [ "acct:A" ];
           args = [ Value.int amount; Value.int (-amount) ] });
      ("acct:B",
       Kernel.Txn.Call
         { handler = "guarded_transfer"; read_set = [ "acct:A"; "acct:B" ];
           args = [ Value.int amount; Value.int amount ] }) ]

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

let show cluster label =
  match await cluster ~fe:0 (Txn.Read_only { keys = [ "acct:A"; "acct:B" ] }) with
  | Txn.Values kvs ->
      let v k =
        match List.assoc k kvs with
        | Some v -> Value.to_string v
        | None -> "⊥"
      in
      Format.printf "%-28s A=%s B=%s@." label (v "acct:A") (v "acct:B")
  | r -> Format.printf "unexpected: %a@." Txn.pp_result r

let () =
  let registry = Registry.with_builtins () in
  Registry.register registry "guarded_transfer" guarded_transfer;
  let cluster =
    Cluster.create ~registry { Cluster.default_options with n_servers = 2 }
  in
  Cluster.start cluster;

  (* T1: multi-write $150 to A, $100 to B. *)
  ignore
    (await cluster ~fe:0
       (Txn.read_write
          [ ("acct:A", Kernel.Txn.Put (Value.int 150));
            ("acct:B", Kernel.Txn.Put (Value.int 100)) ]));
  show cluster "after T1 (deposit):";

  (* T2: transfer $100 from A to B, unconditionally (SUB/ADD functors). *)
  ignore
    (await cluster ~fe:1
       (Txn.read_write
          [ ("acct:A", Kernel.Txn.Subtr 100);
            ("acct:B", Kernel.Txn.Add 100) ]));
  show cluster "after T2 (transfer 100):";

  (* T3: transfer $100 from A to B only if A keeps a non-negative
     balance — A holds $50, so the functor computing phase aborts. *)
  (match await cluster ~fe:0 (transfer 100) with
  | Txn.Aborted { stage = `Compute; _ } ->
      Format.printf "T3 aborted in the computing phase (insufficient funds)@."
  | r -> Format.printf "unexpected: %a@." Txn.pp_result r);
  show cluster "after T3 (aborted):"
