(** Per-epoch dependency-graph planner for the functor-computing phase
    (the [planned] compute mode).

    At epoch close the planner takes the epoch's buffered install
    handles ({!Compute_engine.handle}); each still-pending one is a plan
    node.  The plan's dependency graph is:

    - {e intra-key edges}: a functor depends on the plan's next-lower
      version of its own key (built-ins implicitly read their own key at
      version - 1; for user functors the edge is conservative — their
      records can finalise out of version order, but the key's watermark
      publishes in version order, so the edge keeps strata an upper
      bound on the evaluation waves);
    - {e read→write edges}: a user functor reading key [k] at version
      [v - 1] depends on the plan node writing [k] at the largest version
      <= [v - 1], when that producer is local and in the plan.

    Reads are always of strictly lower versions, so edges strictly
    increase version and the graph is a DAG.  The planner levels it in
    one pass over the nodes in ascending version order (a topological
    order) purely for statistics — strata count and critical-path length
    — and then dispatches one worker-pool job per item {e in the original
    install order}, each evaluating its record directly through
    {!Compute_engine.evaluate}: no watermark-to-version chain rescan per
    evaluation.

    For read-set keys owned by another partition (and not already covered
    by a §IV-B pushed read), the planner emits a {e plan subscription}
    through [send_plan_sub]: the owner evaluates the producing functor and
    pushes the value back, landing in the same per-record push buffer the
    §IV-B optimisation uses.  The consumer's gather still races its own
    remote read against the push, so a lost subscription or push costs a
    round trip but can never wedge the plan.

    On-demand reads may beat the planner to any node; the engine's
    at-most-once discipline ([Installed] → [Computing]) makes the race
    benign in either direction. *)

type t

type stats = {
  nodes : int;  (** still-pending functors in the plan *)
  edges : int;  (** dependency edges (intra-key + read→write) *)
  strata : int;
      (** levels (longest dependency chain, in nodes): independent waves
          of evaluation *)
  critical_path : int;
      (** edges on the longest dependency chain ([strata - 1] for a
          non-empty plan) *)
  subs_sent : int;  (** cross-partition plan subscriptions issued *)
}

val create :
  engine:Compute_engine.t ->
  pool:Sim.Worker_pool.t ->
  dispatch_cost_us:int ->
  metrics:Sim.Metrics.t ->
  ?is_local:(Mvstore.Key.t -> bool) ->
  ?send_plan_sub:
    (key:Mvstore.Key.t -> version:int -> dst_key:Mvstore.Key.t ->
     dst_version:int -> unit) ->
  ?now:(unit -> int) ->
  ?on_dispatch:(Compute_engine.handle -> unit) ->
  ?on_evaluated:(elapsed_us:int -> unit) ->
  unit -> t
(** [is_local] defaults to treating every key as local (single-partition
    and unit-test setups); [send_plan_sub] defaults to a no-op, in which
    case remote read-set values arrive through gather's ordinary
    push/remote-read race.  [now] (simulated time) feeds the
    plan-evaluation histogram; [on_dispatch] observes each node leaving
    the plan for the pool (lifecycle tracing); [on_evaluated] fires once
    when the last node of a plan finalises. *)

val run : t -> items:Compute_engine.handle array -> stats
(** Build and dispatch one plan over [items] (an epoch's drained buffer,
    in install order).  Already-final items are no plan node and
    dispatch as no-ops.  Records [plan.*] metrics; returns the plan's
    statistics. *)

val plans : t -> int
(** Number of non-empty plans built since creation. *)
