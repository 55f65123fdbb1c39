module Key = Mvstore.Key

type t = {
  engine : Compute_engine.t;
  pool : Sim.Worker_pool.t;
  dispatch_cost_us : int;
  is_local : Key.t -> bool;
  send_plan_sub :
    key:Key.t -> version:int -> dst_key:Key.t -> dst_version:int -> unit;
  now : unit -> int;
  on_dispatch : (Compute_engine.handle -> unit) option;
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

(* The leveling pass's state for one key: the latest plan version seen
   so far, its level, and the level of the key's plan node before it
   (0: none).  Levels start at 1. *)
type slot = { mutable latest : int; mutable level : int; mutable below : int }

module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k  (* key ids are dense *)
end)

(* The read set of a node (a still-pending record). *)
let read_set (h : Compute_engine.handle) =
  match h.record.Funct.state with
  | Funct.Pending p -> p.Funct.farg.Funct.read_set
  | Funct.Final _ -> []

let run t ~items =
  let build_t0 = Sys.time () in
  let sim_t0 = t.now () in
  let n_items = Array.length items in
  (* 1. Nodes: the items still pending, in install order.  Already-final
     items (blind VALUE/DELETE writes, raced computations) carry no node
     but still get a dispatch job below, so the job sequence seen by the
     simulator matches the pool processor's. *)
  let is_node (h : Compute_engine.handle) = not (Funct.is_final h.record) in
  let n =
    Array.fold_left (fun acc h -> if is_node h then acc + 1 else acc) 0 items
  in
  let nodes = if n = 0 then [||] else Array.make n items.(0) in
  let filled = ref 0 in
  Array.iter
    (fun h ->
      if is_node h then begin
        nodes.(!filled) <- h;
        incr filled
      end)
    items;
  (* Cross-partition reads, in install order: subscribe to the owner's
     value at the bound version; the reply rides the §IV-B push path. *)
  let subs = ref 0 in
  Array.iter
    (fun (h : Compute_engine.handle) ->
      match h.record.Funct.state with
      | Funct.Pending { Funct.farg = { read_set; pushed_reads; _ }; _ } ->
          List.iter
            (fun rk ->
              if not (t.is_local rk || List.exists (Key.equal rk) pushed_reads)
              then begin
                incr subs;
                t.send_plan_sub ~key:rk ~version:(h.version - 1)
                  ~dst_key:h.key ~dst_version:h.version
              end)
            read_set
      | Funct.Final _ -> ())
    nodes;
  (* 2. Levels in one pass over the nodes in ascending version order.
     Every edge goes from a lower version to a higher one, so this order
     is topological and a node's level is final when it is reached:
     - intra-key edge: from the plan's next-lower version of its own key
       (built-ins read own-key at version - 1; for user functors the edge
       is conservative — the watermark publishes in version order even
       though their records may finalise out of it);
     - read→write edge: a local read-set key [rk] read at [v - 1] depends
       on the plan node writing [rk] at the largest version <= [v - 1];
       that is the slot's latest node, or the one below it when the
       latest shares version [v] (a sibling write of the same
       transaction). *)
  let sorted = ref true in
  for i = 1 to n - 1 do
    if nodes.(i).version < nodes.(i - 1).version then sorted := false
  done;
  if not !sorted then
    Array.stable_sort
      (fun (a : Compute_engine.handle) (b : Compute_engine.handle) ->
        Int.compare a.version b.version)
      nodes;
  let slots = Slots.create 64 in
  let edges = ref 0 in
  let strata = ref 0 in
  Array.iter
    (fun (h : Compute_engine.handle) ->
      let v = h.version in
      let level = ref 1 in
      let dep l =
        incr edges;
        if l + 1 > !level then level := l + 1
      in
      let own = Slots.find_opt slots (Key.id h.key) in
      (match own with Some s -> dep s.level | None -> ());
      List.iter
        (fun rk ->
          if t.is_local rk then
            match Slots.find_opt slots (Key.id rk) with
            | Some s ->
                let l = if s.latest < v then s.level else s.below in
                if l > 0 then dep l
            | None -> ())
        (read_set h);
      (match own with
      | Some s ->
          s.below <- s.level;
          s.level <- !level;
          s.latest <- v
      | None ->
          Slots.add slots (Key.id h.key)
            { latest = v; level = !level; below = 0 });
      if !level > !strata then strata := !level)
    nodes;
  let strata = !strata in
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
    (* Completion tracking: one shared waiter on every node, host-side
       only, so the evaluation histogram costs the simulation nothing. *)
    let remaining = ref n in
    let on_final _ =
      decr remaining;
      if !remaining = 0 then begin
        let elapsed_us = t.now () - sim_t0 in
        Sim.Metrics.record_latency t.metrics "plan.evaluate_us" elapsed_us;
        match t.on_evaluated with
        | Some f -> f ~elapsed_us
        | None -> ()
      end
    in
    Array.iter
      (fun (h : Compute_engine.handle) ->
        match h.record.Funct.state with
        | Funct.Pending p -> Funct.add_waiter p on_final
        | Funct.Final _ -> ())
      nodes
  end;
  (* 3. Dispatch one job per *item* in install order — identical job
     sequence (count, order, cost) to the pool processor, so the
     simulated timeline is mode-invariant; only the per-job host work
     differs.  Items that were already final dispatch as no-ops, exactly
     like the pool's empty rescan. *)
  (match t.on_dispatch with
  | Some f -> Array.iter f items
  | None -> ());
  Sim.Worker_pool.submit_batch t.pool ~cost:t.dispatch_cost_us ~n:n_items
    (fun i -> Compute_engine.evaluate t.engine items.(i));
  stats
