(** The backend's asynchronous functor processor (§IV-D).

    While an epoch is open, installs only buffer their
    {!Compute_engine.handle}s, tagged with the installing transaction's
    epoch.  When an epoch closes ({!release}), each handle buffered for it
    is dispatched to the server's worker pool, which evaluates the key's
    uncomputed functors in ascending version order through
    {!Compute_engine.compute}.  An epoch's dispatch jobs enter the pool as
    one {!Sim.Worker_pool.submit_batch}: one job per item, install order,
    [dispatch_cost_us] each.  On-demand reads may beat the processor to a
    functor; the engine's at-most-once discipline makes that race
    benign. *)

type t

val create :
  engine:Compute_engine.t ->
  pool:Sim.Worker_pool.t ->
  dispatch_cost_us:int ->
  metrics:Sim.Metrics.t ->
  ?on_dispatch:(Compute_engine.handle -> unit) ->
  unit -> t
(** [on_dispatch] observes each item as it leaves the buffer for the
    worker pool (lifecycle tracing); absent on untraced runs. *)

val buffer : t -> epoch:int -> Compute_engine.handle -> unit
(** Buffer a functor installed in the given (open) epoch. *)

val release : t -> upto_epoch:int -> unit
(** Epochs <= [upto_epoch] closed: enqueue their buffered items for
    asynchronous processing. *)

val release_ondemand : t -> upto_epoch:int -> unit
(** Like {!release}, but each dispatch job issues a [Get] at the item's
    own version instead of a watermark-to-version rescan: evaluation is
    demand-driven down the read chain (the [ondemand] compute mode). *)

val drain : t -> upto_epoch:int -> Compute_engine.handle array
(** Remove and return the buffered items of epochs <= [upto_epoch], in
    release order (epochs ascending, items in install order within an
    epoch) without dispatching them — the planner's entry point. *)

val buffered : t -> int
(** Items awaiting release (test helper). *)

val dispatched : t -> int
(** Total items handed to the pool since creation. *)
