(* Cross-engine equivalence: the same seeded YCSB-style increment history
   fed through the shared kernel client loop to every registered ENGINE
   adapter (ALOHA-DB, Calvin, 2PL/2PC) must leave identical per-key
   totals — increments commute, so any serializable engine reaches the
   same state.  Also a model-based qcheck test for Calvin's lock manager. *)

module Value = Functor_cc.Value

let n = 2
let keys = List.init 12 (fun i -> Printf.sprintf "c:%d:%d" (i mod n) i)

(* A deterministic batch of increment transactions: (key indices, delta). *)
let batch =
  let rng = Sim.Rng.create 123 in
  List.init 60 (fun _ ->
      let k1 = Sim.Rng.int rng 12 in
      let k2 = Sim.Rng.int rng 12 in
      let delta = 1 + Sim.Rng.int rng 9 in
      ((k1, k2), delta))

let expected_totals () =
  let totals = Array.make 12 0 in
  List.iter
    (fun ((k1, k2), delta) ->
      totals.(k1) <- totals.(k1) + delta;
      if k2 <> k1 then totals.(k2) <- totals.(k2) + delta)
    batch;
  totals

let txn_keys (k1, k2) =
  List.sort_uniq compare [ List.nth keys k1; List.nth keys k2 ]

(* One scripted submission per batch entry, alternating frontends.  The
   warmup window ends before the first arrival, so the committed counter
   covers the whole history. *)
let run_engine ?compute (Kernel.Intf.Pack (module E)) =
  let c = E.create (Kernel.Params.make ?compute ~n_servers:n ()) in
  List.iter (fun k -> E.load c k (Value.int 0)) keys;
  E.start c;
  let remaining = ref batch in
  let gen ~fe:_ =
    match !remaining with
    | [] -> Alcotest.fail (E.name ^ ": generator exhausted")
    | (ks, delta) :: tl ->
        remaining := tl;
        Kernel.Txn.make
          (List.map (fun k -> (k, Kernel.Txn.Add delta)) (txn_keys ks))
  in
  let arrivals = List.mapi (fun i _ -> (1_000 + (i * 400), i mod n)) batch in
  let r =
    Kernel.Run.run
      (module E)
      ~cluster:c ~gen
      ~arrival:(Kernel.Arrivals.Scripted { arrivals })
      ~warmup_us:500 ~measure_us:3_000_000 ()
  in
  Alcotest.(check int)
    (E.name ^ " committed all")
    (List.length batch) r.Kernel.Result.committed;
  Alcotest.(check int) (E.name ^ " aborted none") 0 (Kernel.Result.abort_count r);
  let totals =
    List.map
      (fun k ->
        match E.read_committed c k with Some v -> Value.to_int v | None -> 0)
      keys
  in
  E.stop c;
  (totals, r)

let engines =
  [ Kernel.Intf.Pack (module Alohadb.Engine);
    Kernel.Intf.Pack (module Calvin.Engine);
    Kernel.Intf.Pack (module Twopl.Engine) ]

let test_three_engines_agree () =
  let expected = Array.to_list (expected_totals ()) in
  List.iter
    (fun (Kernel.Intf.Pack (module E) as engine) ->
      Alcotest.(check (list int))
        (E.name ^ " = oracle") expected (fst (run_engine engine)))
    engines

(* Compute-mode equivalence: the same scripted history through ALOHA's
   three functor-computing strategies must be indistinguishable in the
   simulation — identical committed state AND identical throughput.  All
   three modes submit one dispatch job per buffered item at the same
   simulated cost; only the host-side work per job differs, so any tps
   divergence means a mode leaked real work into simulated time. *)
let test_compute_modes_agree () =
  let expected = Array.to_list (expected_totals ()) in
  let aloha = Kernel.Intf.Pack (module Alohadb.Engine) in
  let runs =
    List.map
      (fun mode -> (mode, run_engine ~compute:mode aloha))
      [ "ondemand"; "pool"; "planned" ]
  in
  let _, (_, r0) = List.hd runs in
  List.iter
    (fun (mode, (totals, r)) ->
      Alcotest.(check (list int)) (mode ^ " totals = oracle") expected totals;
      Alcotest.(check (float 0.0))
        (mode ^ " tps matches ondemand")
        r0.Kernel.Result.throughput_tps r.Kernel.Result.throughput_tps)
    runs

(* ---- Calvin vs 2PL on TPC-C ---------------------------------------------- *)

(* A scripted NewOrder history on 2 servers, every transaction touching a
   remote warehouse's stock, so shards span both partitions and carry
   read sets and handlers.  Arrivals are spaced so that each transaction
   finishes before the next one starts: both engines then apply the same
   serial order (stock updates do not commute), and 2PL never waits long
   enough to time out.  Every district, stock and order key must end with
   the same value under both engines. *)
let test_tpcc_calvin_twopl_agree () =
  let n = 2 and count = 40 in
  let cfg =
    { (Workload.Tpcc.default_cfg ~n_servers:n ~warehouses_per_host:1) with
      districts = 2; customers = 10; items = 20 }
  in
  let run (Kernel.Intf.Pack (module E)) =
    let c = E.create (Kernel.Params.make ~n_servers:n ()) in
    Workload.Tpcc.Neworder.register cfg ~register:(E.register c);
    Workload.Tpcc.Neworder.load cfg ~n_servers:n ~put:(E.load c);
    E.start c;
    let arrivals = List.init count (fun i -> (1_000 + (i * 150_000), i mod n)) in
    let r =
      Kernel.Run.run
        (module E)
        ~cluster:c
        ~gen:(Workload.Tpcc.Neworder.generator cfg ~n_servers:n ~seed:5)
        ~arrival:(Kernel.Arrivals.Scripted { arrivals })
        ~warmup_us:500 ~measure_us:(count * 150_000) ()
    in
    Alcotest.(check int) (E.name ^ " committed all") count r.Kernel.Result.committed;
    Alcotest.(check int) (E.name ^ " aborted none") 0 (Kernel.Result.abort_count r);
    Alcotest.(check int) (E.name ^ " no lock timeouts") 0
      (Option.value ~default:0
         (List.assoc_opt "lock timeouts" r.Kernel.Result.counters));
    let keys =
      List.concat_map
        (fun w ->
          List.init cfg.items (fun i -> Workload.Tpcc.stock_key ~w i)
          @ List.concat_map
              (fun d ->
                Workload.Tpcc.dnoid_key ~w ~d
                :: List.concat_map
                     (fun o ->
                       Workload.Tpcc.order_key ~w ~d ~o
                       :: Workload.Tpcc.neworder_key ~w ~d ~o
                       :: List.init cfg.ol_max (fun n ->
                              Workload.Tpcc.orderline_key ~w ~d ~o ~n))
                     (List.init (count + 1) Fun.id))
              (List.init cfg.districts Fun.id))
        (List.init cfg.warehouses Fun.id)
    in
    let state = List.map (fun k -> (k, E.read_committed c k)) keys in
    E.stop c;
    state
  in
  let calvin = run (Kernel.Intf.Pack (module Calvin.Engine)) in
  let twopl = run (Kernel.Intf.Pack (module Twopl.Engine)) in
  let written = List.filter (fun (_, v) -> Option.is_some v) calvin in
  Alcotest.(check bool) "orders were written" true
    (List.length written > List.length calvin / 10);
  List.iter2
    (fun (k, a) (_, b) ->
      if not (Option.equal Value.equal a b) then
        Alcotest.failf "%s: calvin and 2pl differ" k)
    calvin twopl

(* ---- model-based lock manager check -------------------------------------- *)

(* Random request/release sequences; invariants checked after each step:
   no write lock shared, readers never coexist with a writer, and every
   transaction eventually becomes ready once conflicts drain.  A request
   names 1-4 keys, either raw (unsorted, with duplicates: the coalescing
   path) or strictly name-sorted (the lock manager's fast path). *)
let prop_lock_manager_safety =
  let module LM = Calvin.Lock_manager in
  let coalesced keys =
    List.sort_uniq compare (List.map fst keys)
    |> List.map (fun k ->
           (k, if List.mem (k, LM.Write) keys then LM.Write else LM.Read))
  in
  let step_gen =
    QCheck2.Gen.(
      let* uid = int_range 1 8 in
      let* release = int_range 0 2 in
      let* raw =
        list_size (int_range 1 4)
          (pair
             (map (Printf.sprintf "k%d") (int_range 0 3))
             (map (fun w -> if w then LM.Write else LM.Read) bool))
      in
      let* sorted = bool in
      return (uid, release = 0, if sorted then coalesced raw else raw))
  in
  QCheck2.Test.make ~name:"lock manager safety + liveness" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) step_gen)
    (fun steps ->
      let ready = Hashtbl.create 8 in
      let lm = LM.create ~on_ready:(fun uid -> Hashtbl.replace ready uid ()) in
      let live = Hashtbl.create 8 in
      let ok = ref true in
      let check_key key =
        let holders = LM.holders lm key in
        (* at most one writer, and a writer excludes everyone else *)
        let writers =
          List.filter
            (fun uid ->
              match Hashtbl.find_opt live uid with
              | Some keys -> List.mem (key, LM.Write) keys
              | None -> false)
            holders
        in
        if List.length writers > 1 then ok := false;
        if writers <> [] && List.length holders > 1 then ok := false
      in
      List.iter
        (fun (uid, release, keys) ->
          match Hashtbl.find_opt live uid with
          | None when not release ->
              Hashtbl.replace live uid keys;
              LM.request lm ~uid ~keys;
              List.iter (fun (key, _) -> check_key key) keys
          | Some held when release ->
              Hashtbl.remove live uid;
              Hashtbl.remove ready uid;
              LM.release lm ~uid;
              List.iter (fun (key, _) -> check_key key) held
          | Some _ | None -> ())
        steps;
      (* liveness: release everything still live; everyone must have become
         ready at some point before or during drain *)
      Hashtbl.iter (fun uid _ -> LM.release lm ~uid) live;
      !ok)

let suite =
  [ Alcotest.test_case "three engines agree" `Slow test_three_engines_agree;
    Alcotest.test_case "compute modes agree" `Slow test_compute_modes_agree;
    Alcotest.test_case "calvin = 2pl on tpcc neworder" `Slow
      test_tpcc_calvin_twopl_agree;
    QCheck_alcotest.to_alcotest prop_lock_manager_safety ]
