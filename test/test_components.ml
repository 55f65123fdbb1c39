(* Focused unit tests for smaller components: the processor's per-epoch
   buffering, the FE's functor transforms, and recipient-set derivation. *)

module Value = Functor_cc.Value
module Funct = Functor_cc.Funct
module Ftype = Functor_cc.Ftype
module Txn = Alohadb.Txn
module Message = Alohadb.Message

let ik = Mvstore.Key.intern
let names = List.map Mvstore.Key.name

(* ---- processor ------------------------------------------------------- *)

let mk_proc () =
  let sim = Sim.Engine.create () in
  let callbacks =
    { Functor_cc.Compute_engine.is_local = (fun _ -> true);
      remote_get = (fun ~key:_ ~version:_ k -> k None);
      send_push = (fun ~dst_key:_ ~version:_ ~src_key:_ _ -> ());
      send_dep_write = (fun ~key:_ ~version:_ _ -> ());
      notify_final = (fun ~key:_ ~version:_ ~pending:_ ~final:_ -> ());
      exec = (fun ~cost:_ k -> k ());
      now = (fun () -> Sim.Engine.now sim) }
  in
  let engine =
    Functor_cc.Compute_engine.create
      ~registry:(Functor_cc.Registry.with_builtins ())
      ~callbacks ~compute_cost_us:0 ~metrics:(Sim.Metrics.create ()) ()
  in
  let pool = Sim.Worker_pool.create sim ~workers:2 in
  let proc =
    Functor_cc.Processor.create ~engine ~pool ~dispatch_cost_us:1
      ~metrics:(Sim.Metrics.create ()) ()
  in
  (sim, engine, proc)

let test_processor_release_by_epoch () =
  let sim, engine, proc = mk_proc () in
  Functor_cc.Compute_engine.load_initial engine ~key:(ik "k") (Value.int 0);
  let install version =
    match
      Functor_cc.Compute_engine.install engine ~key:(ik "k") ~version ~lo:0
        ~hi:max_int
        (Funct.mk_pending ~ftype:Ftype.Add
           ~farg:(Funct.farg_args [ Value.int 1 ])
           ~txn_id:version ~coordinator:0)
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "install failed"
  in
  let h1 = install 1 in
  let h2 = install 2 in
  Functor_cc.Processor.buffer proc ~epoch:1 h1;
  Functor_cc.Processor.buffer proc ~epoch:2 h2;
  Alcotest.(check int) "both buffered" 2 (Functor_cc.Processor.buffered proc);
  (* Closing epoch 1 must not release epoch 2's metadata. *)
  Functor_cc.Processor.release proc ~upto_epoch:1;
  Alcotest.(check int) "one still buffered" 1
    (Functor_cc.Processor.buffered proc);
  Sim.Engine.run sim;
  Alcotest.(check int) "epoch-1 item dispatched" 1
    (Functor_cc.Processor.dispatched proc);
  Functor_cc.Processor.release proc ~upto_epoch:2;
  Sim.Engine.run sim;
  Alcotest.(check int) "all dispatched" 2
    (Functor_cc.Processor.dispatched proc);
  (* Both functors computed through the pool. *)
  Alcotest.(check int) "computed" 0
    (Functor_cc.Compute_engine.pending_count engine)

(* ---- transaction -> functor transforms -------------------------------- *)

let test_fspec_of_op_shapes () =
  let spec =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[ ik "r" ] (Kernel.Txn.Add 5)
  in
  Alcotest.(check bool) "ADD ftype" true
    (Ftype.equal spec.Message.ftype Ftype.Add);
  Alcotest.(check (list string)) "recipients carried" [ "r" ]
    (names spec.Message.farg.Funct.recipients);
  let call =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[] ~pushed_reads:[ ik "a" ]
      (Kernel.Txn.Call { handler = "h"; read_set = [ "a"; "b" ]; args = [] })
  in
  Alcotest.(check (list string)) "read set" [ "a"; "b" ]
    (names call.Message.farg.Funct.read_set);
  Alcotest.(check (list string)) "pushed reads" [ "a" ]
    (names call.Message.farg.Funct.pushed_reads);
  let det =
    Message.fspec_of_op ~key:(ik "k") ~recipients:[]
      (Kernel.Txn.Det
         { handler = "h"; read_set = [ "k" ]; args = []; dependents = [ "d" ] })
  in
  Alcotest.(check (list string)) "dependents" [ "d" ]
    (names det.Message.farg.Funct.dependents)

let test_functor_of_fspec_final_forms () =
  let v = Message.functor_of_fspec (Message.fspec_value (Value.int 9))
      ~txn_id:1 ~coordinator:0
  in
  (match v.Funct.state with
  | Funct.Final (Funct.Committed x) ->
      Alcotest.(check int) "value payload" 9 (Value.to_int x)
  | _ -> Alcotest.fail "VALUE should be final");
  let d = Message.functor_of_fspec Message.fspec_delete ~txn_id:1 ~coordinator:0 in
  (match d.Funct.state with
  | Funct.Final Funct.Deleted_v -> ()
  | _ -> Alcotest.fail "DELETE should be a tombstone");
  let marker =
    Message.functor_of_fspec (Message.fspec_dep_marker ~det_key:(ik "a"))
      ~txn_id:1 ~coordinator:0
  in
  match marker.Funct.state with
  | Funct.Pending p ->
      Alcotest.(check bool) "marker carries det key" true
        (Ftype.equal p.Funct.ftype (Ftype.Dep_marker (ik "a")))
  | Funct.Final _ -> Alcotest.fail "marker must be pending"

(* ---- recipient derivation --------------------------------------------- *)

let test_recipients_for () =
  let writes =
    [ ("a", Kernel.Txn.Add 1);
      ("b",
       Kernel.Txn.Call { handler = "h"; read_set = [ "a"; "b" ]; args = [] });
      ("c",
       Kernel.Txn.Call { handler = "h"; read_set = [ "a" ]; args = [] }) ]
  in
  (* Functors for b and c read a, so a's functor should push to them. *)
  Alcotest.(check (list string)) "a's recipients" [ "b"; "c" ]
    (List.sort compare (Txn.recipients_for writes "a"));
  Alcotest.(check (list string)) "b has none" []
    (Txn.recipients_for writes "b");
  (* Numeric self-reads don't make a key its own recipient. *)
  Alcotest.(check bool) "no self recipient" true
    (not (List.mem "a" (Txn.recipients_for writes "a")))

let test_write_keys_includes_dependents () =
  let d =
    Kernel.Txn.desc
      [ ("det",
         Kernel.Txn.Det
           { handler = "h"; read_set = [ "det" ]; args = [];
             dependents = [ "dep1"; "dep2" ] });
        ("x", Kernel.Txn.Put Value.unit) ]
  in
  Alcotest.(check (list string)) "write keys with dependents"
    [ "dep1"; "dep2"; "det"; "x" ]
    (Kernel.Txn.write_keys d)

(* ---- Kernel.Apply on a native write list ------------------------------ *)

module KTxn = Kernel.Txn

let apply_registry () =
  let r = Functor_cc.Registry.create () in
  (* Sum of the read set plus the first argument. *)
  Functor_cc.Registry.register r "sum" (fun ctx ->
      let total =
        List.fold_left
          (fun acc (_, v) ->
            acc + match v with Some v -> Value.to_int v | None -> 0)
          (Value.to_int (Functor_cc.Registry.arg ctx 0))
          ctx.Functor_cc.Registry.reads
      in
      Functor_cc.Registry.Commit (Value.int total));
  (* Own value is the handler version; writes the first dependent, skips
     the second. *)
  Functor_cc.Registry.register r "det" (fun ctx ->
      Functor_cc.Registry.Commit_det
        ( Value.int ctx.Functor_cc.Registry.version,
          [ ("dep1", Functor_cc.Registry.Dep_put (Value.str "set"));
            ("dep2", Functor_cc.Registry.Dep_skip) ] ));
  Functor_cc.Registry.register r "no" (fun _ -> Functor_cc.Registry.Abort);
  r

let apply_reads =
  [ ("a", Some (Value.int 5)); ("b", None); ("c", Some (Value.int 7)) ]

let test_apply_writes () =
  let registry = apply_registry () in
  let ops =
    [ ("p", KTxn.Put (Value.str "x"));
      ("a", KTxn.Add 3);
      ("b", KTxn.Add 4) (* absent: counts as 0 *);
      ("s", KTxn.Call { handler = "sum"; read_set = [ "a"; "c" ];
                        args = [ Value.int 100 ] });
      ("d", KTxn.Det { handler = "det"; read_set = [ "a" ]; args = [];
                       dependents = [ "dep1"; "dep2" ] }) ]
  in
  let show ws =
    List.map (fun (k, v) -> k ^ "=" ^ Value.to_string v) ws
  in
  match
    Kernel.Apply.writes ~registry ~version:42 ~reads:apply_reads ops
  with
  | None -> Alcotest.fail "unexpected abort"
  | Some ws ->
      Alcotest.(check (list string)) "writes in op order, Dep_skip dropped"
        (show
           [ ("p", Value.str "x"); ("a", Value.int 8); ("b", Value.int 4);
             ("s", Value.int 112); ("d", Value.int 42);
             ("dep1", Value.str "set") ])
        (show ws)

let test_apply_abort () =
  let registry = apply_registry () in
  let ops handler =
    [ ("a", KTxn.Add 1);
      ("x", KTxn.Call { handler; read_set = [ "a" ]; args = [] }) ]
  in
  let result h =
    Kernel.Apply.writes ~registry ~version:1 ~reads:apply_reads (ops h)
  in
  Alcotest.(check bool) "aborting handler gives None" true
    (result "no" = None);
  Alcotest.(check bool) "unregistered handler gives None" true
    (result "missing" = None)

(* ---- value wire-size model -------------------------------------------- *)

let test_value_size () =
  Alcotest.(check bool) "tuple bigger than parts" true
    (Value.size_bytes (Value.tup [ Value.int 1; Value.str "abc" ])
     > Value.size_bytes (Value.int 1));
  Alcotest.(check int) "string size" 7 (Value.size_bytes (Value.str "abc"))

let suite =
  [ Alcotest.test_case "processor epoch buffering" `Quick
      test_processor_release_by_epoch;
    Alcotest.test_case "fspec shapes" `Quick test_fspec_of_op_shapes;
    Alcotest.test_case "fspec final forms" `Quick
      test_functor_of_fspec_final_forms;
    Alcotest.test_case "recipients_for" `Quick test_recipients_for;
    Alcotest.test_case "write_keys dependents" `Quick
      test_write_keys_includes_dependents;
    Alcotest.test_case "value size" `Quick test_value_size;
    Alcotest.test_case "apply native write list" `Quick test_apply_writes;
    Alcotest.test_case "apply handler abort" `Quick test_apply_abort ]
