(* Dependent transactions (§IV-E): an order counter assigns sequential
   ids during the functor computing phase, and the order rows — whose key
   names depend on the assigned id — are emitted as deferred writes of the
   determinate functor.  No two orders ever get the same id, with zero
   aborts, even under heavy contention on the counter.

   Run with:  dune exec examples/dependent_orders.exe *)

module Value = Functor_cc.Value
module Registry = Functor_cc.Registry
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster

(* Determinate functor on the counter key: reads the counter, emits the
   order row keyed by the id it just assigned. *)
let place_order (ctx : Registry.ctx) =
  let customer = Value.to_str (Registry.arg ctx 0) in
  match Registry.read ctx ctx.Registry.key with
  | None -> Registry.Abort
  | Some counter ->
      let id = Value.to_int counter in
      Registry.Commit_det
        ( Value.int (id + 1),
          [ (Printf.sprintf "order:%d:row" id,
             Registry.Dep_put (Value.str customer)) ] )

let () =
  let registry = Registry.with_builtins () in
  Registry.register registry "place_order" place_order;
  let cluster =
    Cluster.create ~registry { Cluster.default_options with n_servers = 3 }
  in
  Cluster.load cluster ~key:"order:counter" (Value.int 1);
  Cluster.start cluster;

  (* 60 concurrent order placements from all three frontends, all hitting
     the same counter key. *)
  let committed = ref 0 in
  let sim = Cluster.sim cluster in
  for i = 0 to 59 do
    Sim.Engine.schedule sim ~at:(1_000 + (i * 200)) (fun () ->
        Cluster.submit cluster ~fe:(i mod 3)
          (Txn.read_write
             [ ("order:counter",
                Kernel.Txn.Det
                  { handler = "place_order";
                    read_set = [ "order:counter" ];
                    args = [ Value.str (Printf.sprintf "customer-%d" i) ];
                    dependents = [] }) ])
          (function
            | Txn.Committed _ -> incr committed
            | r -> Format.printf "unexpected: %a@." Txn.pp_result r))
  done;
  Sim.Engine.run ~until:300_000 sim;
  Format.printf "committed: %d / 60 (no aborts despite a single hot key)@."
    !committed;

  (* Every id 1..60 was assigned exactly once. *)
  let read_row id =
    let result = ref None in
    Cluster.submit cluster ~fe:0
      (Txn.Read_at
         { keys = [ Printf.sprintf "order:%d:row" id ];
           version = Clocksync.Timestamp.to_int Clocksync.Timestamp.infinity })
      (fun r -> result := Some r);
    let rec spin () =
      match !result with
      | Some r -> r
      | None ->
          Cluster.run_for cluster 5_000;
          spin ()
    in
    spin ()
  in
  let assigned = ref 0 in
  for id = 1 to 60 do
    match read_row id with
    | Txn.Values [ (_, Some _) ] -> incr assigned
    | _ -> ()
  done;
  Format.printf "order ids assigned exactly once: %d / 60@." !assigned
