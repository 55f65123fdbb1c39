(* §III-A fault tolerance: write-ahead logging, checkpointing, and
   deterministic replay recovery of a crashed partition. *)

module Value = Functor_cc.Value
module Txn = Alohadb.Txn
module Cluster = Alohadb.Cluster
module Wal = Alohadb.Wal
module Recovery = Alohadb.Recovery

(* ---- WAL unit tests ------------------------------------------------------ *)

let ik = Mvstore.Key.intern

let entry key version =
  Wal.Log_install
    { key = ik key; version;
      spec = Alohadb.Message.fspec_value (Value.int version);
      txn_id = version; coordinator = 0; epoch = 1; fast = false }

let test_wal_flush_timing () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:500 () in
  Wal.append wal (entry "a" 1);
  Wal.append wal (entry "b" 2);
  Alcotest.(check int) "buffered, not durable" 0 (Wal.durable_count wal);
  Alcotest.(check int) "pending" 2 (Wal.pending_count wal);
  Sim.Engine.run ~until:500 sim;
  Alcotest.(check int) "durable after flush" 2 (Wal.durable_count wal);
  Alcotest.(check int) "nothing pending" 0 (Wal.pending_count wal)

let test_wal_order_preserved () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:100 () in
  for i = 1 to 5 do
    Wal.append wal (entry "k" i)
  done;
  Sim.Engine.run ~until:1_000 sim;
  let versions =
    List.filter_map
      (function
        | Wal.Log_install { version; _ } -> Some version
        | Wal.Log_abort _ | Wal.Log_epoch_closed _ -> None)
      (Wal.durable wal)
  in
  Alcotest.(check (list int)) "replay order = append order" [ 1; 2; 3; 4; 5 ]
    versions

let test_wal_checkpoint_truncates () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:100 () in
  for i = 1 to 6 do
    Wal.append wal (entry "k" i)
  done;
  Sim.Engine.run ~until:1_000 sim;
  Wal.checkpoint wal
    ~snapshot:[ (ik "k", 4, Alohadb.Message.fspec_value (Value.int 99)) ]
    ~retain_above:4;
  Alcotest.(check int) "suffix retained" 2 (Wal.durable_count wal);
  Alcotest.(check int) "snapshot stored" 1 (List.length (Wal.snapshot wal))

(* ---- end-to-end crash/recovery ------------------------------------------- *)

let durable_options n =
  { Cluster.default_options with
    n_servers = n;
    partitioner = `Prefix;
    config = { Alohadb.Config.default with durability = true } }

let registry_with_xfer () =
  let r = Functor_cc.Registry.with_builtins () in
  Functor_cc.Registry.register r "xfer_guard" (fun ctx ->
      let src = Value.to_str (Functor_cc.Registry.arg ctx 0) in
      let amount = Value.to_int (Functor_cc.Registry.arg ctx 1) in
      let delta = Value.to_int (Functor_cc.Registry.arg ctx 2) in
      let bal =
        match Functor_cc.Registry.read ctx src with
        | Some v -> Value.to_int v
        | None -> 0
      in
      if bal < amount then Functor_cc.Registry.Abort
      else
        let own =
          match Functor_cc.Registry.read ctx ctx.Functor_cc.Registry.key with
          | Some v -> Value.to_int v
          | None -> 0
        in
        Functor_cc.Registry.Commit (Value.int (own + delta)));
  r

let keys = List.init 8 (fun i -> Printf.sprintf "k:%d:a%d" (i mod 2) i)

let run_mixed_load c sim =
  let rng = Sim.Rng.create 77 in
  let resolved = ref 0 and submitted = ref 0 in
  for i = 0 to 79 do
    incr submitted;
    let src = List.nth keys (Sim.Rng.int rng 8) in
    let dst = List.nth keys (Sim.Rng.int rng 8) in
    Sim.Engine.schedule sim ~at:(1_000 + (i * 600)) (fun () ->
        let req =
          if String.equal src dst then
            Txn.read_write [ (src, Kernel.Txn.Add 1) ]
          else if i mod 3 = 0 then
            (* guarded transfer with cross-partition reads *)
            Txn.read_write
              [ (src,
                 Kernel.Txn.Call
                   { handler = "xfer_guard"; read_set = [ src ];
                     args = [ Value.str src; Value.int 5; Value.int (-5) ] });
                (dst,
                 Kernel.Txn.Call
                   { handler = "xfer_guard"; read_set = [ src; dst ];
                     args = [ Value.str src; Value.int 5; Value.int 5 ] }) ]
          else
            Txn.read_write [ (src, Kernel.Txn.Subtr 2); (dst, Kernel.Txn.Add 2) ]
        in
        Cluster.submit c ~fe:(i mod 2) req (fun _ -> incr resolved))
  done;
  Sim.Engine.run ~until:400_000 sim;
  Alcotest.(check int) "load resolved" !submitted !resolved

(* Read every key's latest value directly from an engine. *)
let engine_state engine =
  List.filter_map
    (fun key ->
      let got = ref None in
      Functor_cc.Compute_engine.get engine ~key:(ik key) ~version:max_int
        (fun v -> got := Some v);
      match !got with
      | Some (Some v) -> Some (key, Value.to_int v)
      | Some None -> None
      | None -> Alcotest.fail "read did not resolve")
    keys

(* A fresh engine for the crashed partition, with remote reads wired to
   the surviving server's live engine. *)
let fresh_engine ~survivor ~partition_of ~my_partition =
  let self = ref None in
  let callbacks =
    { Functor_cc.Compute_engine.is_local =
        (fun key -> partition_of key = my_partition);
      remote_get =
        (fun ~key ~version k ->
          Functor_cc.Compute_engine.get survivor ~key ~version k);
      send_push =
        (fun ~dst_key ~version ~src_key v ->
          match !self with
          | Some e when partition_of dst_key = my_partition ->
              Functor_cc.Compute_engine.deliver_push e ~key:dst_key ~version
                ~src_key v
          | Some _ | None -> ());
      send_dep_write =
        (fun ~key ~version final ->
          match !self with
          | Some e when partition_of key = my_partition ->
              Functor_cc.Compute_engine.deliver_dep_write e ~key ~version
                ~final
          | Some _ | None -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> 0) }
  in
  let e =
    Functor_cc.Compute_engine.create
      ~registry:(registry_with_xfer ())
      ~callbacks ~compute_cost_us:0 ~metrics:(Sim.Metrics.create ()) ()
  in
  self := Some e;
  e

let crash_and_recover ~checkpoint_midway () =
  let c = Cluster.create ~registry:(registry_with_xfer ()) (durable_options 2) in
  List.iter (fun k -> Cluster.load c ~key:k (Value.int 100)) keys;
  Cluster.start c;
  let sim = Cluster.sim c in
  if checkpoint_midway then
    Sim.Engine.schedule sim ~at:120_000 (fun () ->
        (* Quiesce: by 120 ms, all load of the first ~4 epochs has been
           computed; take the checkpoint then. *)
        Alohadb.Server.checkpoint_now (Cluster.server c 1));
  run_mixed_load c sim;
  (* Let the WAL flush everything before the crash. *)
  Sim.Engine.run ~until:(Sim.Engine.now sim + 10_000) sim;
  let victim = Cluster.server c 1 in
  let survivor = Alohadb.Server.engine (Cluster.server c 0) in
  let before = engine_state (Alohadb.Server.engine victim) in
  let wal =
    match Alohadb.Server.wal victim with
    | Some w -> w
    | None -> Alcotest.fail "durability not enabled"
  in
  Alcotest.(check int) "wal fully flushed" 0 (Wal.pending_count wal);
  (* Crash: partition 1's memory is gone; rebuild from its WAL. *)
  let recovered =
    fresh_engine ~survivor
      ~partition_of:(fun k -> Cluster.partition_of c (Mvstore.Key.name k))
      ~my_partition:1
  in
  (* Initial data is not logged (it predates the log); a real deployment
     reloads it from the loader or the first checkpoint. *)
  if not checkpoint_midway then
    List.iter
      (fun k ->
        if Cluster.partition_of c k = 1 then
          Functor_cc.Compute_engine.load_initial recovered ~key:(ik k)
            (Value.int 100))
      keys;
  let restored = Recovery.rebuild ~engine:recovered ~wal in
  Alcotest.(check bool) "something restored" true (restored > 0);
  Recovery.recompute recovered;
  Alcotest.(check int) "no pending after recompute" 0
    (Functor_cc.Compute_engine.pending_count recovered);
  (* The recovered partition's state equals the pre-crash state. *)
  List.iter
    (fun (key, v_before) ->
      if Cluster.partition_of c key = 1 then begin
        let got = ref None in
        Functor_cc.Compute_engine.get recovered ~key:(ik key) ~version:max_int
          (fun v -> got := Some v);
        match !got with
        | Some (Some v) ->
            Alcotest.(check int)
              (Printf.sprintf "recovered %s" key)
              v_before (Value.to_int v)
        | Some None -> Alcotest.failf "%s lost" key
        | None -> Alcotest.fail "read did not resolve"
      end)
    before

let test_recovery_replay () = crash_and_recover ~checkpoint_midway:false ()

let test_recovery_with_checkpoint () =
  crash_and_recover ~checkpoint_midway:true ()

let test_unflushed_tail_lost () =
  let sim = Sim.Engine.create () in
  let wal = Wal.create sim ~flush_latency_us:1_000 () in
  Wal.append wal (entry "a" 1);
  Sim.Engine.run ~until:1_000 sim;
  Wal.append wal (entry "a" 2);
  (* Crash 100 µs later: the second entry never reached the device. *)
  Sim.Engine.run ~until:1_100 sim;
  Alcotest.(check int) "only the flushed prefix survives" 1
    (Wal.durable_count wal)

let suite =
  [ Alcotest.test_case "wal flush timing" `Quick test_wal_flush_timing;
    Alcotest.test_case "wal order" `Quick test_wal_order_preserved;
    Alcotest.test_case "wal checkpoint" `Quick test_wal_checkpoint_truncates;
    Alcotest.test_case "recovery by replay" `Quick test_recovery_replay;
    Alcotest.test_case "recovery with checkpoint" `Quick
      test_recovery_with_checkpoint;
    Alcotest.test_case "unflushed tail lost" `Quick test_unflushed_tail_lost ]
