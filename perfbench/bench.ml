(* Host-time benchmark of four paper workloads, with per-layer attribution
   measured from outside the program.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   A run repeats one fixed simulation -- set-up, warm-up, measure window --
   while the next repetition still fits in [--seconds] of host time, times
   extra set-ups between repetitions, and reports medians.  The first
   repetition also drains after the window and runs the output checks.  A
   seed fixes the simulated outcome, so every repetition must reproduce it
   exactly; only host times vary.  With [--trace 1] untraced and traced
   repetitions alternate.  The traced ones time calls into the libraries'
   public functions from this file (engine create/register/load/start/
   submit, the workload generator and handlers, [Sim.Engine.run], the
   network trace hook) and read the GC's pauses from the stdlib
   [Runtime_events] ring.  Counts and allocation come from the untraced
   repetitions, which tracing does not perturb.

   The last line of standard output is one JSON object with every metric
   (value [null] where the metric's layer does not run on the workload);
   the lines before it print the same metrics for a reader, each with its
   unit and clock ([host] or [sim]). *)

let n_servers = 4
let epoch_us = 25_000

(* The window runs in 1 ms slices so that the traced run can drain the
   runtime-events ring between them.  Slicing does not change the
   simulation: events fire in (time, insertion) order either way. *)
let slice_us = 1_000

(* After the window no new transaction is issued; in-flight ones get this
   much simulated time to answer before they count as failed. *)
let drain_limit_us = 500_000

(* Set-ups timed on their own after each repetition but the first, so
   that [setup_s] is a median of three samples per repetition. *)
let extra_setups_per_rep = 2

(* Spans kept for the Chrome trace, the first to start; later ones are
   still timed and counted, only not written out.  Keeping by start order
   keeps the parent of every kept span. *)
let span_cap = 100_000

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let secs ns = float_of_int ns /. 1e9

(* ---- engines ------------------------------------------------------------ *)

type engine =
  | Engine : {
      m : (module Kernel.Intf.ENGINE with type cluster = 'c);
      layer : string;
      set_trace :
        'c -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit;
      drop_stats : 'c -> Net.Network.drop_stats;
      store : ('c -> int * int) option;
          (** live versions and keys summed over the servers' tables *)
      facet : Kernel.Txn.t -> Kernel.Txn.desc;
          (** the facet the engine executes; Calvin's is lazy and forced by
              its [submit], so it must only be read after submission *)
    }
      -> engine

let aloha_store c =
  let versions = ref 0 and keys = ref 0 in
  for i = 0 to Alohadb.Cluster.n_servers c - 1 do
    let table =
      Functor_cc.Compute_engine.table
        (Alohadb.Server.engine (Alohadb.Cluster.server c i))
    in
    versions := !versions + Mvstore.Table.record_count table;
    keys := !keys + Mvstore.Table.key_count table
  done;
  (!versions, !keys)

let aloha =
  Engine
    { m = (module Alohadb.Engine);
      layer = "alohadb";
      set_trace = Alohadb.Engine.set_trace;
      drop_stats = Alohadb.Engine.drop_stats;
      store = Some aloha_store;
      facet = Kernel.Txn.functor_form }

let calvin =
  Engine
    { m = (module Calvin.Engine);
      layer = "calvin";
      set_trace = Calvin.Engine.set_trace;
      drop_stats = Calvin.Engine.drop_stats;
      store = None;
      facet = Kernel.Txn.static_form }

(* ---- workloads ---------------------------------------------------------- *)

(* The keys whose final value the drain check verifies: each must have
   advanced from its loaded value by exactly the credit of the
   acknowledged transactions that wrote it (an ADD's delta; 1 for any
   other op, i.e. one NewOrder per district counter). *)
type check = Ycsb_adds of Workload.Ycsb.cfg | District_orders of Workload.Tpcc.cfg

(* An abort the workload asks for: a NewOrder naming an item outside the
   catalog fails its stock precondition (TPC-C's 1% rollbacks).  Any
   other abort is a give-up and counts as failed. *)
let intended_abort = function
  | Ycsb_adds _ -> fun (_ : Kernel.Txn.desc) -> false
  | District_orders cfg ->
      let catalog = Hashtbl.create (cfg.warehouses * cfg.items) in
      for w = 0 to cfg.warehouses - 1 do
        for i = 0 to cfg.items - 1 do
          Hashtbl.replace catalog (Workload.Tpcc.stock_key ~w i) ()
        done
      done;
      fun d ->
        List.exists (fun k -> not (Hashtbl.mem catalog k)) d.precondition_keys

let checked_keys = function
  | Ycsb_adds cfg ->
      List.concat_map
        (fun p ->
          List.init cfg.Workload.Ycsb.keys_per_partition (fun i ->
              Workload.Ycsb.key ~partition:p i))
        (List.init n_servers Fun.id)
  | District_orders cfg ->
      List.concat_map
        (fun w ->
          List.init cfg.Workload.Tpcc.districts (fun d ->
              Workload.Tpcc.dnoid_key ~w ~d))
        (List.init cfg.Workload.Tpcc.warehouses Fun.id)

type spec =
  | Spec : {
      name : string;
      engine : engine;
      compute : string option;
      wl : (module Kernel.Intf.WORKLOAD with type cfg = 'k);
      cfg : 'k;
      check : check;
      intended : Kernel.Txn.desc -> bool;
      arrival : Kernel.Arrivals.t;
      warmup_us : int;
      measure_us : int;
    }
      -> spec

(* Why each workload is here is recorded in BENCHMARK.json and
   perfbench/predictions.json. *)
let specs =
  let ycsb ci = Workload.Ycsb.cfg_of_contention_index ~keys_per_partition:50_000 ci in
  let tpcc = Workload.Tpcc.default_cfg ~n_servers ~warehouses_per_host:10 in
  let tpcc_intended = intended_abort (District_orders tpcc) in
  [ (let cfg = ycsb 0.01 in
     Spec
       { name = "ycsb"; engine = aloha; compute = Some "pool";
         wl = (module Workload.Ycsb.Workload); cfg; check = Ycsb_adds cfg;
         intended = intended_abort (Ycsb_adds cfg);
         arrival = Closed { clients_per_fe = 2_000 };
         warmup_us = 50_000; measure_us = 50_000 });
    (let cfg = ycsb 0.1 in
     Spec
       { name = "ycsb-hot-planned"; engine = aloha; compute = Some "planned";
         wl = (module Workload.Ycsb.Workload); cfg; check = Ycsb_adds cfg;
         intended = intended_abort (Ycsb_adds cfg);
         arrival = Closed { clients_per_fe = 2_000 };
         warmup_us = 50_000; measure_us = 50_000 });
    Spec
      { name = "tpcc"; engine = aloha; compute = Some "pool";
        wl = (module Workload.Tpcc.Neworder); cfg = tpcc;
        check = District_orders tpcc; intended = tpcc_intended;
        arrival = Open_poisson { rate_per_fe = 20_000.0 };
        warmup_us = 50_000; measure_us = 100_000 };
    Spec
      { name = "tpcc-calvin"; engine = calvin; compute = None;
        wl = (module Workload.Tpcc.Neworder); cfg = tpcc;
        check = District_orders tpcc; intended = tpcc_intended;
        arrival = Closed { clients_per_fe = 500 };
        warmup_us = 300_000; measure_us = 400_000 } ]

(* ---- spans -------------------------------------------------------------- *)

module Tr = struct
  type frame = {
    name : string;
    id : int;
    parent : int;
    txn : int;
    t0 : int;
    keep : bool;  (** written to the Chrome trace *)
    mutable child_ns : int;
  }

  type span = frame * int (* end, ns *)
  type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

  type t = {
    mutable stack : frame list;
    mutable next_id : int;
    mutable kept : span list;
    mutable n_kept : int;
    mutable n_dropped : int;
    aggs : (string, agg) Hashtbl.t;
    mutable msgs : int;
    mutable agenda_peak : int;
    mutable pause_ns : int;
  }

  let create () =
    { stack = []; next_id = 0; kept = []; n_kept = 0; n_dropped = 0;
      aggs = Hashtbl.create 16; msgs = 0; agenda_peak = 0; pause_ns = 0 }

  let agg t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total_ns = 0; self_ns = 0 } in
        Hashtbl.add t.aggs name a;
        a

  let enter t name ~txn =
    let parent = match t.stack with f :: _ -> f.id | [] -> 0 in
    t.next_id <- t.next_id + 1;
    let keep = t.n_kept < span_cap in
    if keep then t.n_kept <- t.n_kept + 1;
    t.stack <-
      { name; id = t.next_id; parent; txn; t0 = now_ns (); keep; child_ns = 0 }
      :: t.stack

  let leave t =
    match t.stack with
    | [] -> invalid_arg "Tr.leave: no open span"
    | f :: rest ->
        let t1 = now_ns () in
        let dur = t1 - f.t0 in
        t.stack <- rest;
        (match rest with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
        let a = agg t f.name in
        a.calls <- a.calls + 1;
        a.total_ns <- a.total_ns + dur;
        a.self_ns <- a.self_ns + dur - f.child_ns;
        if f.keep then t.kept <- (f, t1) :: t.kept
        else t.n_dropped <- t.n_dropped + 1

  let span t name ?(txn = 0) f =
    enter t name ~txn;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e

  (* Per-layer totals and the written trace cover the measure window
     only; no span is open when it starts. *)
  let start_window t =
    Hashtbl.reset t.aggs;
    t.kept <- [];
    t.n_kept <- 0;
    t.n_dropped <- 0

  let calls t name = match Hashtbl.find_opt t.aggs name with Some a -> a.calls | None -> 0
  let total_ns t name = match Hashtbl.find_opt t.aggs name with Some a -> a.total_ns | None -> 0
  let self_ns t name = match Hashtbl.find_opt t.aggs name with Some a -> a.self_ns | None -> 0

  (* Chrome trace_events JSON (opens in Perfetto / chrome://tracing).  A
     span's parent and transaction id travel in its [args]; spans of one
     transaction share [txn]. *)
  let write_chrome t ~path ~meta =
    let oc = open_out path in
    let base = List.fold_left (fun m ((f : frame), _) -> min m f.t0) max_int t.kept in
    Printf.fprintf oc "{\"displayTimeUnit\":\"ns\",\"otherData\":{%s},\"traceEvents\":[\n" meta;
    List.iteri
      (fun i ((f : frame), t1) ->
        Printf.fprintf oc
          "%s{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"txn\":%d}}\n"
          (if i = 0 then "" else ",")
          f.name
          (float_of_int (f.t0 - base) /. 1e3)
          (float_of_int (t1 - f.t0) /. 1e3)
          f.id f.parent f.txn)
      (List.rev t.kept);
    output_string oc "]}\n";
    close_out oc
end

(* GC pauses from the runtime's own event ring: the host time spent inside
   outermost runtime phases, which on a single domain is time the mutator
   was stopped for collection. *)
module Pauses = struct
  let depth = ref 0
  let began = ref 0L
  let total = ref 0L
  let lost = ref 0

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun _ ts _ ->
           if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
           incr depth)
         ~runtime_end:(fun _ ts _ ->
           if !depth > 0 then begin
             decr depth;
             if !depth = 0 then
               total :=
                 Int64.add !total
                   (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began)
           end)
         ~lost_events:(fun _ n -> lost := !lost + n)
         ())

  let cursor = ref None

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  (* Total pause ns seen so far. *)
  let poll () =
    (match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
    | None -> ());
    Int64.to_int !total
end

(* ---- one repetition ------------------------------------------------------ *)

type rep = {
  traced : Tr.t option;
  setup_s : float;
  load_s : float;
  window_ns : int;
  committed : int;  (** in the window, as the engine's metrics count it *)
  sim_tps : float;
  lat_p50_us : int;
  lat_p99_us : int;
  lat_n : int;
  hist_p50_us : int;
  hist_p99_us : int;  (** the same percentiles from the program's histogram *)
  stages : (string * Kernel.Result.stage_stat) list;
  counters : (string * int) list;  (** [Sim.Metrics.counters] at window end *)
  plan_build_us : float;  (** sum of the window's [plan.build_us] samples *)
  plan_strata_p50 : int;
  events : int;  (** simulation events fired in the window *)
  submitted : int;
      (** these three cover warm-up, window and drain when the repetition
          verifies; otherwise they stop at the window's end *)
  ok : int;
  logic_aborts : int;
  at_window_end : int * int * int * int;
      (** submitted, ok, logic aborts, give-ups when the window closed *)
  drops : int;
  store : (int * int) option;  (** live versions, keys at window end *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  failures : string list;  (** output checks that did not hold *)
  phases : (string * float) list;  (** host seconds per phase, for the log *)
}

let counter r key = try List.assoc key r.counters with Not_found -> 0

let params (Spec s) =
  Kernel.Params.make ~epoch_us ?compute:s.compute ~runtime:"sim" ~n_servers ()

(* A set-up on its own, untraced, for more [setup_s] samples than the
   repetitions give: host ns from engine create to start. *)
let time_setup (Spec s) =
  let (Engine eng) = s.engine in
  let (module E) = eng.m in
  let (module W) = s.wl in
  Gc.full_major ();
  let t0 = now_ns () in
  let c = E.create (params (Spec s)) in
  W.register s.cfg ~register:(E.register c);
  W.load s.cfg ~n_servers ~put:(E.load c);
  E.start c;
  let dt = now_ns () - t0 in
  E.stop c;
  dt

(* [verify]: drain after the window and check the final state.  Only the
   first repetition of a run does; later ones stop at the window's end and
   must reproduce its simulated outcome up to there. *)
let run_rep (Spec s) ~seed ~traced ~verify =
  let (Engine eng) = s.engine in
  let (module E) = eng.m in
  let (module W) = s.wl in
  let span name ?txn f =
    match traced with Some t -> Tr.span t name ?txn f | None -> f ()
  in
  let layer_fn fn = eng.layer ^ "." ^ fn in
  let params = params (Spec s) in
  (* Handlers are wrapped at registration so that the traced run can time
     every call the engine makes into them. *)
  let register c name h =
    match traced with
    | None -> E.register c name h
    | Some t -> E.register c name (fun ctx -> Tr.span t "functor_cc.handler" (fun () -> h ctx))
  in
  let t0 = now_ns () in
  let c, load_ns =
    span "bench.setup" (fun () ->
        let c = span (layer_fn "create") (fun () -> E.create params) in
        span "workload.register" (fun () ->
            W.register s.cfg ~register:(register c));
        let l0 = now_ns () in
        span "workload.load" (fun () ->
            W.load s.cfg ~n_servers ~put:(E.load c));
        let load_ns = now_ns () - l0 in
        span (layer_fn "start") (fun () -> E.start c);
        (c, load_ns))
  in
  let setup_ns = now_ns () - t0 in
  let gen = W.generator s.cfg ~n_servers ~seed in
  let sim = E.sim c and metrics = E.metrics c in
  (* Output-check state: loaded values of the checked keys, and the credit
     owed to each by acknowledged transactions. *)
  let initial = Hashtbl.create 1024 in
  if verify then
    List.iter
      (fun k ->
        match E.read_committed c k with
        | Some v -> Hashtbl.replace initial k (Functor_cc.Value.to_int v)
        | None -> ())
      (checked_keys s.check);
  let credit = Hashtbl.create 1024 in
  let submitted = ref 0 and ok = ref 0 and logic_aborts = ref 0
  and giveups = ref 0 and stopped = ref false in
  (* Commit latencies (sim us, submit to acknowledgement) of the window's
     commits, exact rather than bucketed like the program's histogram. *)
  let in_window = ref false and lats = ref [] in
  let on_reply txn ~submitted_at (reply : Kernel.Txn.reply) =
    match reply with
    | Ok ->
        incr ok;
        if !in_window then lats := (Sim.Engine.now sim - submitted_at) :: !lats;
        List.iter
          (fun (k, op) ->
            if Hashtbl.mem initial k then
              let d = match op with Kernel.Txn.Add d -> d | _ -> 1 in
              Hashtbl.replace credit k
                (d + Option.value ~default:0 (Hashtbl.find_opt credit k)))
          (eng.facet txn).writes
    | Aborted _ ->
        if s.intended (eng.facet txn) then incr logic_aborts else incr giveups
  in
  let submit =
    match traced with
    | None ->
        fun ~fe ~done_k ->
          if not !stopped then begin
            incr submitted;
            let submitted_at = Sim.Engine.now sim in
            let txn = gen ~fe in
            E.submit c ~fe txn ~k:(fun r ->
                on_reply txn ~submitted_at r;
                done_k ())
          end
    | Some t ->
        fun ~fe ~done_k ->
          if not !stopped then begin
            incr submitted;
            let id = !submitted and submitted_at = Sim.Engine.now sim in
            if !in_window then
              t.agenda_peak <- max t.agenda_peak (Sim.Engine.pending sim);
            let txn = Tr.span t "workload.gen" ~txn:id (fun () -> gen ~fe) in
            Tr.span t (layer_fn "submit") ~txn:id (fun () ->
                E.submit c ~fe txn ~k:(fun r ->
                    Tr.span t "bench.reply" ~txn:id (fun () ->
                        on_reply txn ~submitted_at r);
                    done_k ()))
          end
  in
  Kernel.Arrivals.install ~sim ~rng:(Sim.Rng.create seed)
    ~n_fes:(E.n_servers c) ~arrival:s.arrival ~submit;
  (match traced with
  | None -> ()
  | Some t ->
      eng.set_trace c (fun ~src:_ ~dst:_ ->
          if !in_window then begin
            t.msgs <- t.msgs + 1;
            t.agenda_peak <- max t.agenda_peak (Sim.Engine.pending sim)
          end));
  let run_until until =
    match traced with
    | None ->
        while Sim.Engine.now sim < until do
          Sim.Engine.run ~until:(min until (Sim.Engine.now sim + slice_us)) sim
        done
    | Some t ->
        while Sim.Engine.now sim < until do
          Tr.span t "Sim.Engine.run" (fun () ->
              Sim.Engine.run ~until:(min until (Sim.Engine.now sim + slice_us)) sim);
          ignore (Pauses.poll ())
        done
  in
  let warm0 = now_ns () in
  run_until s.warmup_us;
  let warmup_ns = now_ns () - warm0 in
  Sim.Metrics.reset metrics;
  in_window := true;
  Option.iter Tr.start_window traced;
  let pause0 = Pauses.poll () in
  let gc0 = Gc.quick_stat () in
  let ev0 = Sim.Engine.events_fired sim in
  let cpu0 = Sys.time () in
  let w0 = now_ns () in
  span "bench.window" (fun () -> run_until (s.warmup_us + s.measure_us));
  let window_ns = now_ns () - w0 in
  let window_cpu = Sys.time () -. cpu0 in
  let events = Sim.Engine.events_fired sim - ev0 in
  let gc1 = Gc.quick_stat () in
  in_window := false;
  Option.iter (fun (t : Tr.t) -> t.pause_ns <- Pauses.poll () - pause0) traced;
  let res =
    Kernel.Result.extract ~metrics ~measure_us:s.measure_us
      ~committed_key:E.committed_key ~latency_key:E.latency_key
      ~abort_keys:E.abort_keys ~counter_keys:E.counter_keys
      ~stage_keys:E.stage_keys
  in
  let lat_sorted = Array.of_list !lats in
  Array.sort compare lat_sorted;
  let lat_n = Array.length lat_sorted in
  (* Nearest rank. *)
  let lat_pct p =
    if lat_n = 0 then 0
    else lat_sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int lat_n)) - 1))
  in
  let plan_build_us, plan_strata_p50 =
    let h key = Sim.Metrics.latency metrics key in
    ( (match h "plan.build_us" with
      | Some h -> Sim.Stats.Histogram.mean h *. float_of_int (Sim.Stats.Histogram.count h)
      | None -> 0.0),
      match h "plan.strata" with
      | Some h -> Sim.Stats.Histogram.percentile h 50.0
      | None -> 0 )
  in
  let counters = Sim.Metrics.counters metrics in
  let store = Option.map (fun f -> f c) eng.store in
  let at_window_end = (!submitted, !ok, !logic_aborts, !giveups) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* Drain: stop issuing and let every in-flight transaction answer. *)
  stopped := true;
  let drain0 = now_ns () in
  if verify then begin
    let drain_end = Sim.Engine.now sim + drain_limit_us in
    while !ok + !logic_aborts + !giveups < !submitted && Sim.Engine.now sim < drain_end do
      Sim.Engine.run ~until:(Sim.Engine.now sim + slice_us) sim
    done
  end;
  let check0 = now_ns () in
  if verify then begin
    let wrong = ref 0 and first_wrong = ref "" in
    Hashtbl.iter
      (fun k init ->
        let want = init + Option.value ~default:0 (Hashtbl.find_opt credit k) in
        let got = Option.map Functor_cc.Value.to_int (E.read_committed c k) in
        if got <> Some want then begin
          if !wrong = 0 then
            first_wrong :=
              Printf.sprintf "%s = %s, want %d" k
                (match got with Some v -> string_of_int v | None -> "absent")
                want;
          incr wrong
        end)
      initial;
    if Hashtbl.length initial = 0 then fail "no checked key was loaded";
    if !wrong > 0 then
      fail "%d of %d checked keys disagree with the acknowledged writes (first: %s)"
        !wrong (Hashtbl.length initial) !first_wrong
  end;
  if lat_n < 1_000 then
    fail "only %d latency samples in the window; p99 needs at least 1000" lat_n;
  let check_ns = now_ns () - check0 in
  E.stop c;
  let ds = eng.drop_stats c in
  { traced; setup_s = secs setup_ns; load_s = secs load_ns; window_ns;
    committed = res.committed; sim_tps = res.throughput_tps;
    lat_p50_us = lat_pct 0.50; lat_p99_us = lat_pct 0.99; lat_n;
    hist_p50_us = res.lat_p50_us; hist_p99_us = res.lat_p99_us;
    stages = res.stage_stats; counters; plan_build_us; plan_strata_p50;
    events; submitted = !submitted; ok = !ok; logic_aborts = !logic_aborts;
    at_window_end;
    drops = ds.injected + ds.partitioned + ds.crashed + ds.unregistered;
    store;
    minor_words = gc1.minor_words -. gc0.minor_words;
    promoted_words = gc1.promoted_words -. gc0.promoted_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    failures = List.rev !failures;
    phases =
      List.map (fun (n, ns) -> (n, secs ns))
        [ ("setup", setup_ns); ("warm-up", warmup_ns); ("window", window_ns);
          ("drain", check0 - drain0); ("check", check_ns) ]
      @ [ ("window-cpu", window_cpu) ] }

(* ---- metrics -------------------------------------------------------------- *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The simulated outcome every repetition of one seed must reproduce. *)
let sim_outcome r =
  (r.committed, r.sim_tps, r.lat_p50_us, r.lat_p99_us, r.lat_n, r.events, r.at_window_end)

type metric = {
  name : string;
  unit_ : string;
  clock : string;  (** "host", "sim" or "-" for pure counts and ratios *)
  value : float option;  (** [None]: the metric's layer does not run here *)
  note : string;
}

let metric ?(note = "") name unit_ clock value = { name; unit_; clock; value; note }

let ratio a b = if b = 0.0 then None else Some (a /. b)
let fi = float_of_int

let cps r = fi r.committed /. secs r.window_ns

(* [first] is the process's first repetition: it fixes the simulated
   outcome and the peak heap (top_heap_words only grows, so it is read
   while the process has run nothing else).  Its host times are left out
   of the medians, which are taken over [untraced], the later untraced
   repetitions: the first pays for growing the heap and interning every
   key, which later ones reuse. *)
let end_to_end ~first ~peak_words ~extra_setups untraced =
  let r = first in
  let sub = fi r.submitted and ok = fi r.ok and logic = fi r.logic_aborts in
  let setups = List.map (fun r -> r.setup_s) untraced @ extra_setups in
  [ metric "committed_per_wall_s" "txn/s" "host"
      (Some (median (List.map cps untraced)))
      ~note:(Printf.sprintf "median of %d reps" (List.length untraced));
    metric "setup_s" "s" "host" (Some (median setups))
      ~note:(Printf.sprintf "median of %d set-ups" (List.length setups));
    metric "peak_heap_mb" "MB" "host"
      (Some (fi (peak_words * (Sys.word_size / 8)) /. 1048576.0))
      ~note:"top heap after the first rep";
    metric "sim_tps" "txn/s" "sim" (Some r.sim_tps)
      ~note:(Printf.sprintf "committed=%d" r.committed);
    metric "sim_lat_p50_us" "us" "sim" (Some (fi r.lat_p50_us))
      ~note:(Printf.sprintf "samples=%d; program histogram %d" r.lat_n r.hist_p50_us);
    metric "sim_lat_p99_us" "us" "sim" (Some (fi r.lat_p99_us))
      ~note:(Printf.sprintf "samples=%d; program histogram %d" r.lat_n r.hist_p99_us);
    metric "commit_frac" "ratio" "-" (ratio ok sub);
    metric "answered_frac" "ratio" "-" (ratio (ok +. logic) sub)
      ~note:"1 - fail_frac";
    metric "fail_frac" "ratio" "-" (ratio (sub -. ok -. logic) sub)
      ~note:"give-ups, drops, no reply after drain";
    metric "abort_frac" "ratio" "-" (ratio logic sub) ~note:"logic aborts" ]

let stage r label pct =
  match List.assoc_opt label r.stages with
  | Some (st : Kernel.Result.stage_stat) ->
      Some (fi (if pct = 50 then st.p50_us else st.p99_us))
  | None -> Some 0.0

let per_layer (Spec s) ~first untraced traced =
  let (Engine eng) = s.engine in
  let u = first and t = List.hd traced in
  let tr r = Option.get r.traced in
  let committed = fi u.committed in
  let med_u f = Some (median (List.map f untraced)) in
  let med_t f = Some (median (List.map (fun r -> f (tr r)) traced)) in
  let per_call name = med_t (fun t -> fi (Tr.total_ns t name) /. fi (max 1 (Tr.calls t name))) in
  let aloha = eng.layer = "alohadb" and calvin = eng.layer = "calvin" in
  let only cond v = if cond then v else None in
  let c key = fi (counter u key) in
  let epochs = c "em.epochs_closed" in
  [ metric "sim.events_per_txn" "count" "sim" (ratio (fi u.events) committed);
    metric "sim.ns_per_event" "ns" "host"
      (med_u (fun r -> fi r.window_ns /. fi r.events));
    metric "sim.agenda_peak" "count" "sim" (Some (fi (tr t).agenda_peak));
    metric "sim.residual_s" "s" "host"
      (med_t (fun t -> secs (Tr.self_ns t "Sim.Engine.run")));
    metric "net.msgs_per_txn" "count" "sim" (ratio (fi (tr t).msgs) committed);
    metric "net.drops" "count" "sim" (Some (fi u.drops));
    metric "workload.gen_ns" "ns" "host" (per_call "workload.gen");
    metric "alohadb.submit_ns" "ns" "host" (only aloha (per_call "alohadb.submit"));
    metric "alohadb.install_p50_us" "us" "sim" (only aloha (stage u "functor installing" 50));
    metric "alohadb.install_p99_us" "us" "sim" (only aloha (stage u "functor installing" 99));
    metric "alohadb.wait_p50_us" "us" "sim" (only aloha (stage u "wait for processing" 50));
    metric "alohadb.wait_p99_us" "us" "sim" (only aloha (stage u "wait for processing" 99));
    metric "alohadb.processing_p50_us" "us" "sim" (only aloha (stage u "processing" 50));
    metric "alohadb.processing_p99_us" "us" "sim" (only aloha (stage u "processing" 99));
    metric "alohadb.load_s" "s" "host" (only aloha (med_u (fun r -> r.load_s)));
    metric "calvin.submit_ns" "ns" "host" (only calvin (per_call "calvin.submit"));
    metric "calvin.sequencing_p50_us" "us" "sim" (only calvin (stage u "sequencing" 50));
    metric "calvin.sequencing_p99_us" "us" "sim" (only calvin (stage u "sequencing" 99));
    metric "calvin.lockread_p50_us" "us" "sim" (only calvin (stage u "locking and read" 50));
    metric "calvin.lockread_p99_us" "us" "sim" (only calvin (stage u "locking and read" 99));
    metric "calvin.load_s" "s" "host" (only calvin (med_u (fun r -> r.load_s)));
    metric "functor_cc.plan_build_s" "s" "host"
      (med_u (fun r -> r.plan_build_us /. 1e6))
      ~note:"the program's own plan.build_us (Sys.time)";
    metric "functor_cc.plan_nodes_per_epoch" "count" "sim"
      (only aloha (ratio (c "plan.nodes") epochs));
    metric "functor_cc.plan_strata_p50" "count" "sim" (Some (fi u.plan_strata_p50));
    metric "functor_cc.handler_ns" "ns" "host"
      (med_t (fun t -> fi (Tr.total_ns t "functor_cc.handler") /. committed))
      ~note:"per committed txn";
    metric "functor_cc.handler_calls_per_txn" "count" "sim"
      (ratio (fi (Tr.calls (tr t) "functor_cc.handler")) committed);
    metric "functor_cc.computed_per_txn" "count" "sim"
      (only aloha (ratio (c "fcc.computed") committed));
    metric "functor_cc.dispatch_per_computed" "ratio" "sim"
      (only aloha (ratio (c "proc.dispatched") (c "fcc.computed")));
    metric "functor_cc.push_hit_ratio" "ratio" "sim"
      (only aloha (ratio (c "fcc.push_hits") (c "fcc.push_hits" +. c "fcc.remote_reads")));
    metric "mvstore.versions_live_per_txn" "count" "sim"
      (Option.bind u.store (fun (v, _) ->
           let _, ok, _, _ = u.at_window_end in
           ratio (fi v) (fi ok)));
    metric "mvstore.keys" "count" "sim" (Option.map (fun (_, k) -> fi k) u.store);
    metric "epoch.epochs" "count" "sim" (only aloha (Some epochs));
    metric "epoch.stretch" "ratio" "sim"
      (only aloha (ratio (fi s.measure_us) (epochs *. fi epoch_us)));
    metric "gc.minor_words_per_txn" "words" "host"
      (med_u (fun r -> r.minor_words /. fi r.committed));
    metric "gc.promoted_words_per_txn" "words" "host"
      (med_u (fun r -> r.promoted_words /. fi r.committed));
    metric "gc.major_collections" "count" "host"
      (med_u (fun r -> fi r.major_collections));
    metric "gc.pause_s" "s" "host" (med_t (fun t -> secs t.pause_ns))
      ~note:"runtime_events, traced window";
    metric "bench.trace_overhead_frac" "ratio" "host"
      (Some (1.0 -. (median (List.map cps traced) /. median (List.map cps untraced)))) ]

(* ---- output --------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number = function
  | None -> "null"
  | Some v when Float.is_integer v && Float.abs v < 1e15 -> Printf.sprintf "%.1f" v
  | Some v -> Printf.sprintf "%.17g" v

let print_metric m =
  Printf.printf "  %-34s %18s  %-6s %-5s %s\n" m.name
    (match m.value with
    | None -> "n/a"
    | Some v when Float.is_integer v -> Printf.sprintf "%.0f" v
    | Some v -> Printf.sprintf "%.6g" v)
    m.unit_ m.clock m.note

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  ycsb | ycsb-hot-planned | tpcc | tpcc-calvin");
      ("--seed", Arg.Set_int seed, "N  workload seed (generator and arrivals)");
      ("--seconds", Arg.Set_float seconds, "S  host seconds to spend repeating the run");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer metrics from traced repetitions");
      ("--out", Arg.Set_string out, "DIR  where the traced run writes its Chrome trace") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  let spec =
    match List.find_opt (fun (Spec s) -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let (Spec s) = spec in
  let tracing = !trace = 1 in
  if tracing then Pauses.start ();
  Printf.printf
    "perfbench workload=%s seed=%d trace=%d host: cores=%d ocaml=%s word=%d\n%!"
    s.name !seed !trace (Domain.recommended_domain_count ()) Sys.ocaml_version
    Sys.word_size;
  let started = Unix.gettimeofday () in
  (* Repetition 0 is untraced and only warms the process (see
     [end_to_end]); with --trace 1 traced and untraced ones alternate
     after it. *)
  let peak_words = ref 0 in
  let extra_setups = ref [] in
  let rec loop i acc =
    let traced = if tracing && i mod 2 = 1 then Some (Tr.create ()) else None in
    Gc.full_major ();
    let r0 = Unix.gettimeofday () in
    let r = run_rep spec ~seed:!seed ~traced ~verify:(i = 0) in
    let rep_s = Unix.gettimeofday () -. r0 in
    if i = 0 then peak_words := (Gc.quick_stat ()).top_heap_words;
    Printf.printf "  rep %d%s: %.0f committed txn/s host; host s: %s, total %.2f%s\n%!"
      i
      (match traced with
      | Some _ -> " (traced)"
      | None -> if i = 0 then " (warms the process)" else "")
      (cps r)
      (String.concat " "
         (List.map (fun (n, v) -> Printf.sprintf "%s %.3f" n v) r.phases))
      rep_s
      (if r.failures = [] then "" else "; CHECK FAILED");
    if i > 0 then
      for _ = 1 to extra_setups_per_rep do
        extra_setups := secs (time_setup spec) :: !extra_setups
      done;
    let acc = r :: acc in
    let elapsed = Unix.gettimeofday () -. started in
    let min_reps = if tracing then 3 else 2 in
    if i + 1 < min_reps || elapsed +. (elapsed /. fi (i + 1)) <= !seconds then
      loop (i + 1) acc
    else List.rev acc
  in
  let reps = loop 0 [] in
  let extra_setups = !extra_setups in
  Printf.printf "  set-ups on their own, host s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") extra_setups));
  let first = List.hd reps in
  let later = List.tl reps in
  let untraced = List.filter (fun r -> r.traced = None) later in
  let traced = List.filter (fun r -> r.traced <> None) later in
  let failures =
    List.concat_map (fun r -> r.failures) reps
    @
    let o = sim_outcome first in
    if List.for_all (fun r -> sim_outcome r = o) reps then []
    else [ "repetitions of one seed disagree on the simulated outcome (committed, sim_tps, latencies, events)" ]
  in
  let metrics =
    end_to_end ~first ~peak_words:!peak_words ~extra_setups untraced
    @ if tracing then per_layer spec ~first untraced traced else []
  in
  Printf.printf "metrics (%s, seed %d):\n" s.name !seed;
  List.iter print_metric metrics;
  (match traced with
  | [] -> ()
  | r :: _ ->
      let t = Option.get r.traced in
      if !out <> "" then begin
        let path = Filename.concat !out (Printf.sprintf "trace-%s-seed%d.json" s.name !seed) in
        Tr.write_chrome t ~path
          ~meta:(Printf.sprintf "\"workload\":%s,\"seed\":%d,\"spans_dropped\":%d"
                   (json_string s.name) !seed t.n_dropped);
        Printf.printf "trace: %d spans written to %s (%d beyond the cap not written)\n"
          t.n_kept path t.n_dropped
      end);
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let attempted = first.submitted in
  let failed = first.submitted - first.ok - first.logic_aborts in
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"trace\":%d,\"host\":{\"cores\":%d,\"ocaml\":%s},\"reps\":%d,\"correct\":%b,\"failures\":[%s],\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (json_string s.name) !seed !trace (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (List.length reps) (failures = [])
    (String.concat "," (List.map json_string failures))
    attempted failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s,\"clock\":%s}"
              (json_string m.name) (json_number m.value) (json_string m.unit_)
              (json_string m.clock))
          metrics));
  exit (if failures = [] then 0 else 1)
