(* Calvin baseline: lock-manager unit tests plus whole-cluster runs. *)

module Value = Functor_cc.Value
module LM = Calvin.Lock_manager

(* ---- lock manager ---------------------------------------------------- *)

let test_lm_uncontended () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Write); ("b", LM.Read) ];
  Alcotest.(check (list int)) "granted immediately" [ 1 ] !ready

let test_lm_write_write_conflict () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Write) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Write) ];
  Alcotest.(check (list int)) "only first granted" [ 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "second granted on release" [ 2; 1 ] !ready

let test_lm_shared_reads () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:3 ~keys:[ ("a", LM.Write) ];
  Alcotest.(check (list int)) "reads share" [ 2; 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "write still blocked" [ 2; 1 ] !ready;
  LM.release lm ~uid:2;
  Alcotest.(check (list int)) "write granted last" [ 3; 2; 1 ] !ready

let test_lm_fifo_no_starvation () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read) ];
  LM.request lm ~uid:2 ~keys:[ ("a", LM.Write) ];
  (* A later read must NOT jump the queued write (deterministic order). *)
  LM.request lm ~uid:3 ~keys:[ ("a", LM.Read) ];
  Alcotest.(check (list int)) "read 3 waits behind write" [ 1 ] !ready;
  LM.release lm ~uid:1;
  Alcotest.(check (list int)) "write next" [ 2; 1 ] !ready;
  LM.release lm ~uid:2;
  Alcotest.(check (list int)) "read 3 last" [ 3; 2; 1 ] !ready

let test_lm_duplicate_keys_coalesce () =
  let ready = ref [] in
  let lm = LM.create ~on_ready:(fun uid -> ready := uid :: !ready) in
  LM.request lm ~uid:1 ~keys:[ ("a", LM.Read); ("a", LM.Write) ];
  Alcotest.(check (list int)) "granted once" [ 1 ] !ready;
  Alcotest.(check (list int)) "single holder" [ 1 ] (LM.holders lm "a");
  LM.release lm ~uid:1;
  Alcotest.(check int) "queue empty" 0 (LM.waiting lm "a")

(* ---- cluster ---------------------------------------------------------- *)

let mk_cluster ?(n = 2) () =
  let options = { Calvin.Cluster.default_options with n_servers = n } in
  let c = Calvin.Cluster.create options in
  Calvin.Cluster.start c;
  c

let incr_txn keys =
  Calvin.Ctxn.of_txn ~version:0
    (Kernel.Txn.make (List.map (fun k -> (k, Kernel.Txn.Add 1)) keys))

let test_calvin_single_partition () =
  let c = mk_cluster () in
  Calvin.Cluster.load c ~key:"k0" (Value.int 10);
  let fe = Calvin.Cluster.partition_of c "k0" in
  Calvin.Cluster.submit c ~fe (incr_txn [ "k0" ]);
  Calvin.Cluster.run_for c 100_000;
  let v = Calvin.Server.read_local (Calvin.Cluster.server c fe) "k0" in
  Alcotest.(check int) "incremented" 11
    (Value.to_int (Option.get v));
  Alcotest.(check int) "committed" 1
    (Sim.Metrics.get (Calvin.Cluster.metrics c) "calvin.committed")

let test_calvin_distributed () =
  let c = mk_cluster () in
  (* Find two keys on different partitions. *)
  let k0 = "alpha" in
  let p0 = Calvin.Cluster.partition_of c k0 in
  let rec find_other i =
    let k = Printf.sprintf "key%d" i in
    if Calvin.Cluster.partition_of c k <> p0 then k else find_other (i + 1)
  in
  let k1 = find_other 0 in
  let p1 = Calvin.Cluster.partition_of c k1 in
  Alcotest.(check bool) "keys on distinct partitions" true (p0 <> p1);
  Calvin.Cluster.load c ~key:k0 (Value.int 0);
  Calvin.Cluster.load c ~key:k1 (Value.int 100);
  Calvin.Cluster.submit c ~fe:0 (incr_txn [ k0; k1 ]);
  Calvin.Cluster.run_for c 200_000;
  let read p k = Calvin.Server.read_local (Calvin.Cluster.server c p) k in
  Alcotest.(check int) "k0" 1 (Value.to_int (Option.get (read p0 k0)));
  Alcotest.(check int) "k1" 101 (Value.to_int (Option.get (read p1 k1)));
  Alcotest.(check int) "committed" 1
    (Sim.Metrics.get (Calvin.Cluster.metrics c) "calvin.committed")

(* Determinism: conflicting increments from different origins must apply
   exactly once each, in some serial order — the final count tells. *)
let test_calvin_conflicting_increments () =
  let c = mk_cluster () in
  Calvin.Cluster.load c ~key:"hot" (Value.int 0);
  let p = Calvin.Cluster.partition_of c "hot" in
  for fe = 0 to 1 do
    for _ = 1 to 25 do
      Calvin.Cluster.submit c ~fe (incr_txn [ "hot" ])
    done
  done;
  Calvin.Cluster.run_for c 1_000_000;
  let v = Calvin.Server.read_local (Calvin.Cluster.server c p) "hot" in
  Alcotest.(check int) "all increments applied" 50
    (Value.to_int (Option.get v));
  Alcotest.(check int) "all committed" 50
    (Sim.Metrics.get (Calvin.Cluster.metrics c) "calvin.committed")

(* Replaying the same submissions yields an identical final state. *)
let test_calvin_deterministic_replay () =
  let run () =
    let c = mk_cluster () in
    List.iter
      (fun k -> Calvin.Cluster.load c ~key:k (Value.int 0))
      [ "a"; "b"; "c"; "d" ];
    Calvin.Cluster.submit c ~fe:0 (incr_txn [ "a"; "b" ]);
    Calvin.Cluster.submit c ~fe:1 (incr_txn [ "b"; "c" ]);
    Calvin.Cluster.submit c ~fe:0 (incr_txn [ "c"; "d" ]);
    Calvin.Cluster.run_for c 500_000;
    List.map
      (fun k ->
        let p = Calvin.Cluster.partition_of c k in
        Value.to_int
          (Option.get (Calvin.Server.read_local (Calvin.Cluster.server c p) k)))
      [ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check (list int)) "identical states" (run ()) (run ())

let suite =
  [ Alcotest.test_case "lm uncontended" `Quick test_lm_uncontended;
    Alcotest.test_case "lm write-write conflict" `Quick
      test_lm_write_write_conflict;
    Alcotest.test_case "lm shared reads" `Quick test_lm_shared_reads;
    Alcotest.test_case "lm fifo no starvation" `Quick
      test_lm_fifo_no_starvation;
    Alcotest.test_case "lm duplicate keys coalesce" `Quick
      test_lm_duplicate_keys_coalesce;
    Alcotest.test_case "single-partition txn" `Quick
      test_calvin_single_partition;
    Alcotest.test_case "distributed txn" `Quick test_calvin_distributed;
    Alcotest.test_case "conflicting increments" `Quick
      test_calvin_conflicting_increments;
    Alcotest.test_case "deterministic replay" `Quick
      test_calvin_deterministic_replay ]
