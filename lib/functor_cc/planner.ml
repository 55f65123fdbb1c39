module Key = Mvstore.Key

type t = {
  engine : Compute_engine.t;
  pool : Sim.Worker_pool.t;
  dispatch_cost_us : int;
  is_local : Key.t -> bool;
  send_plan_sub :
    key:Key.t -> version:int -> dst_key:Key.t -> dst_version:int -> unit;
  now : unit -> int;
  on_dispatch : (key:Key.t -> version:int -> unit) option;
  on_evaluated : (elapsed_us:int -> unit) option;
  m_plans : int ref;
  m_nodes : int ref;
  m_edges : int ref;
  m_subs_sent : int ref;
  metrics : Sim.Metrics.t;
  mutable plans : int;
}

type stats = {
  nodes : int;
  edges : int;
  strata : int;
  critical_path : int;
  subs_sent : int;
}

let create ~engine ~pool ~dispatch_cost_us ~metrics
    ?(is_local = fun _ -> true)
    ?(send_plan_sub = fun ~key:_ ~version:_ ~dst_key:_ ~dst_version:_ -> ())
    ?(now = fun () -> 0) ?on_dispatch ?on_evaluated () =
  let c = Sim.Metrics.counter metrics in
  { engine; pool; dispatch_cost_us; is_local; send_plan_sub; now;
    on_dispatch; on_evaluated;
    m_plans = c "plan.plans";
    m_nodes = c "plan.nodes";
    m_edges = c "plan.edges";
    m_subs_sent = c "plan.subs_sent";
    metrics; plans = 0 }

let plans t = t.plans

(* Kahn levels over the adjacency/indegree arrays.  Edges strictly
   increase version, so the graph is a DAG and the peeling consumes every
   node; the level count is the length (in nodes) of the longest chain. *)
let stratify ~n ~succs ~indeg =
  let indeg = Array.copy indeg in
  let frontier = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then frontier := i :: !frontier
  done;
  let levels = ref 0 in
  let consumed = ref 0 in
  while !frontier <> [] do
    incr levels;
    let next = ref [] in
    List.iter
      (fun i ->
        incr consumed;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then next := j :: !next)
          succs.(i))
      !frontier;
    frontier := !next
  done;
  assert (!consumed = n);
  !levels

let run t ~items =
  let build_t0 = Sys.time () in
  let sim_t0 = t.now () in
  let items_a = Array.of_list items in
  let n_items = Array.length items_a in
  (* 1. Prepare: bind each still-pending item to its chain + record.
     Already-final items (blind VALUE/DELETE writes, raced computations)
     carry no node but still get a dispatch job below, so the job
     sequence seen by the simulator matches the pool processor's.
     Commutative-heavy epochs put dozens of versions of the same hot key
     in one plan, so the table is probed once per distinct key and the
     chain handle reused across its items. *)
  let table = Compute_engine.table t.engine in
  let chains : (int, Funct.t Mvstore.Chain.t option) Hashtbl.t =
    Hashtbl.create 64
  in
  let chain_for key =
    let kid = Key.id key in
    match Hashtbl.find_opt chains kid with
    | Some c -> c
    | None ->
        let c = Mvstore.Table.chain table key in
        Hashtbl.add chains kid c;
        c
  in
  let entries =
    Array.map
      (fun ({ Processor.key; version } as item) ->
        match chain_for key with
        | None -> (item, None)
        | Some chain ->
            (item, Compute_engine.prepare_in ~chain ~key ~version))
      items_a
  in
  let n = Array.fold_left (fun acc (_, o) -> if o = None then acc else acc + 1) 0 entries in
  let nodes =
    let a = ref [||] and i = ref 0 in
    Array.iter
      (fun (_, o) ->
        match o with
        | None -> ()
        | Some node ->
            if !i = 0 then a := Array.make n node;
            !a.(!i) <- node;
            incr i)
      entries;
    !a
  in
  (* 2. Writer buckets: key id -> version-ascending (version, node index)
     array.  Nodes are appended in plan order; installs arrive mostly in
     version order, so buckets are usually born sorted and the sort is
     skipped. *)
  let buckets : (int, (int * int) list ref * bool ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun i node ->
      let kid = Key.id (Compute_engine.prepared_key node) in
      let ver = Compute_engine.prepared_version node in
      match Hashtbl.find_opt buckets kid with
      | Some (r, sorted) ->
          (match !r with
          | (prev, _) :: _ -> if ver < prev then sorted := false
          | [] -> ());
          r := (ver, i) :: !r
      | None -> Hashtbl.add buckets kid (ref [ (ver, i) ], ref true))
    nodes;
  let frozen : (int, (int * int) array) Hashtbl.t =
    Hashtbl.create (Hashtbl.length buckets)
  in
  Hashtbl.iter
    (fun kid (r, sorted) ->
      let a = Array.of_list !r in
      let len = Array.length a in
      if !sorted then
        (* reverse the prepend order in place: ascending versions *)
        for i = 0 to (len / 2) - 1 do
          let tmp = a.(i) in
          a.(i) <- a.(len - 1 - i);
          a.(len - 1 - i) <- tmp
        done
      else
        Array.sort
          (fun (v1, _) (v2, _) ->
            if (v1 : int) < v2 then -1 else if v1 > v2 then 1 else 0)
          a;
      Hashtbl.add frozen kid a)
    buckets;
  (* Largest plan version <= bound for a key, if any. *)
  let producer_le kid ~bound =
    match Hashtbl.find_opt frozen kid with
    | None -> None
    | Some a ->
        let lo = ref 0 and hi = ref (Array.length a - 1) and ans = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if fst a.(mid) <= bound then begin
            ans := mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        if !ans < 0 then None else Some a.(!ans)
  in
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let edges = ref 0 in
  let subs = ref 0 in
  let add_edge src dst =
    succs.(src) <- dst :: succs.(src);
    indeg.(dst) <- indeg.(dst) + 1;
    incr edges
  in
  (* 3a. Intra-key edges: each functor depends on the plan's next-lower
     version of its own key — exactly the previous element of its
     version-ascending bucket, so no lookup is needed.  Built-ins really
     do read own-key at version - 1; for user functors the edge is
     conservative (the watermark publishes in version order even though
     their records may finalise out of it). *)
  Hashtbl.iter
    (fun _kid a ->
      for k = 1 to Array.length a - 1 do
        add_edge (snd a.(k - 1)) (snd a.(k))
      done)
    frozen;
  (* 3b. Read→write edges for explicit read sets. *)
  Array.iteri
    (fun i node ->
      let p = Compute_engine.prepared_pending node in
      match p.Funct.farg.Funct.read_set with
      | [] -> ()
      | read_set ->
          let key = Compute_engine.prepared_key node in
          let ver = Compute_engine.prepared_version node in
          let pushed = p.Funct.farg.Funct.pushed_reads in
          List.iter
            (fun rk ->
              if t.is_local rk then (
                match producer_le (Key.id rk) ~bound:(ver - 1) with
                | Some (_, j) -> add_edge j i
                | None -> ())
              else if not (List.exists (Key.equal rk) pushed) then begin
                (* Cross-partition read: subscribe to the owner's value at
                   the bound version; the reply rides the §IV-B push
                   path. *)
                incr subs;
                t.send_plan_sub ~key:rk ~version:(ver - 1) ~dst_key:key
                  ~dst_version:ver
              end)
            read_set)
    nodes;
  let strata = if n = 0 then 0 else stratify ~n ~succs ~indeg in
  let critical_path = if strata = 0 then 0 else strata - 1 in
  let build_us =
    int_of_float (Float.max 0. ((Sys.time () -. build_t0) *. 1e6))
  in
  let stats =
    { nodes = n; edges = !edges; strata; critical_path; subs_sent = !subs }
  in
  if n > 0 then begin
    t.plans <- t.plans + 1;
    incr t.m_plans;
    t.m_nodes := !(t.m_nodes) + n;
    t.m_edges := !(t.m_edges) + !edges;
    t.m_subs_sent := !(t.m_subs_sent) + !subs;
    Sim.Metrics.record_latency t.metrics "plan.build_us" build_us;
    Sim.Metrics.record_latency t.metrics "plan.strata" strata;
    Sim.Metrics.record_latency t.metrics "plan.critical_path" critical_path;
    (* Completion tracking: one waiter per node, host-side only, so the
       evaluation histogram costs the simulation nothing. *)
    let remaining = ref n in
    Array.iter
      (fun node ->
        Funct.add_waiter (Compute_engine.prepared_pending node) (fun _ ->
            decr remaining;
            if !remaining = 0 then begin
              let elapsed_us = t.now () - sim_t0 in
              Sim.Metrics.record_latency t.metrics "plan.evaluate_us"
                elapsed_us;
              match t.on_evaluated with
              | Some f -> f ~elapsed_us
              | None -> ()
            end))
      nodes
  end;
  (* 3. Dispatch one job per *item* in install order — identical job
     sequence (count, order, cost) to the pool processor, so the
     simulated timeline is mode-invariant; only the per-job host work
     differs.  Items without a node were already final and dispatch as
     no-ops, exactly like the pool's empty rescan. *)
  if n_items > 0 then
    Array.iter
      (fun ({ Processor.key; version }, node) ->
        (match t.on_dispatch with
        | Some f -> f ~key ~version
        | None -> ());
        Sim.Worker_pool.submit t.pool ~cost:t.dispatch_cost_us (fun () ->
            match node with
            | Some node -> Compute_engine.compute_prepared t.engine node
            | None -> ()))
      entries;
  stats
