(** The functor computing engine — Algorithm 1 of the paper, adapted to an
    asynchronous (continuation-passing) execution model.

    One engine instance lives in each backend (BE) and owns that
    partition's {!Mvstore.Table}.  The engine implements:

    - [get] — Algorithm 1's [Get]: latest version not exceeding the bound;
      triggers on-demand computation of pending functors, skips ABORTED
      versions downwards, returns [None] for DELETED keys;
    - [compute_key] — Algorithm 1's [Compute]: evaluate all pending
      functors of a key from the watermark up to a version, ascending,
      advancing the value watermark as finals accumulate;
    - the §IV-B recipient-set optimisation (proactive value pushes);
    - the §IV-E dependent-key mechanism (determinate functors whose
      deferred writes resolve [Dep_marker] placeholders);
    - in-epoch aborts (the coordinator's second-round rollback).

    Cross-partition effects (remote reads, pushes, deferred writes,
    completion notifications) are delegated to callbacks supplied by the
    surrounding server, which routes them over the simulated network.
    Because every read is of a strictly lower version and version-0 initial
    data is final, the recursion always terminates.

    Keys are interned ({!Mvstore.Key.t}).  Internally the chain handle is
    threaded through the whole per-key computation, so a Get that
    triggers computation performs exactly one table probe; finalisation
    and watermark refresh perform none, and evaluation from an install
    {!handle} performs none at all. *)

type t

type callbacks = {
  is_local : Mvstore.Key.t -> bool;
      (** does this partition own the key? *)
  remote_get :
    key:Mvstore.Key.t -> version:int -> (Value.t option -> unit) -> unit;
      (** read a non-local key (latest version <= [version]) *)
  send_push :
    dst_key:Mvstore.Key.t -> version:int -> src_key:Mvstore.Key.t ->
    Value.t option -> unit;
      (** deliver a recipient-set push to the partition owning [dst_key] *)
  send_dep_write :
    key:Mvstore.Key.t -> version:int -> Funct.final -> unit;
      (** deliver a deferred (dependent-key) write to the key's partition *)
  notify_final :
    key:Mvstore.Key.t -> version:int -> pending:Funct.pending ->
    final:Funct.final -> unit;
      (** a pending functor reached its final state (drives coordinator
          completion tracking and stage metrics) *)
  exec : cost:int -> (unit -> unit) -> unit;
      (** charge [cost] µs of CPU, then continue — wired to the server's
          worker pool *)
  now : unit -> int;
      (** current simulated time, for stage-timing bookkeeping *)
}

val create :
  registry:Registry.t ->
  callbacks:callbacks ->
  compute_cost_us:int ->
  metrics:Sim.Metrics.t ->
  unit -> t

val table : t -> Funct.t Mvstore.Table.t

val load_initial : t -> key:Mvstore.Key.t -> Value.t -> unit
(** Install initial data at version 0 (final, below every timestamp). *)

(** An installed record bound to its key's chain.  [install] hands it
    out, the processor buffers it, and pool dispatch, on-demand dispatch
    and the planner evaluate from it with no table probe.  Valid only for
    the engine instance that produced it. *)
type handle = {
  key : Mvstore.Key.t;
  version : int;
  chain : Funct.t Mvstore.Chain.t;
  record : Funct.t;
}

val install :
  t -> key:Mvstore.Key.t -> version:int -> lo:int -> hi:int -> Funct.t ->
  (handle, Mvstore.Table.put_error) result
(** The write-only-phase [Put]: version must lie in [lo, hi]. *)

val get :
  t -> key:Mvstore.Key.t -> version:int -> (Value.t option -> unit) -> unit

val compute_key : t -> key:Mvstore.Key.t -> version:int -> unit

val compute : t -> handle -> unit
(** {!compute_key} at the handle's key and version, from its chain: every
    uncomputed functor from the watermark up to the version, ascending
    (the [pool] compute mode's dispatch job). *)

val demand : t -> handle -> unit
(** A [Get] at the handle's own version with the value discarded:
    evaluation unfolds down the read chain (the [ondemand] mode). *)

val evaluate : t -> handle -> unit
(** Evaluate the handle's own record only (a planner node).  A no-op if
    it is final or already computing — at-most-once either way. *)

val merge_delta : t -> key:Mvstore.Key.t -> version:int -> unit
(** Fold a coordination-free fast-path delta (a commutative built-in
    installed outside any epoch batch) into its chain: evaluate the
    pending record at (key, version) now, pulling earlier own-key
    versions on demand.  Idempotent and at-most-once — a no-op when the
    record is absent, already final, or already computing (an on-demand
    read may have folded it first).  Counted as [fcc.fastpath_merges]. *)

val deliver_push :
  t -> key:Mvstore.Key.t -> version:int -> src_key:Mvstore.Key.t ->
  Value.t option -> unit

val deliver_dep_write :
  t -> key:Mvstore.Key.t -> version:int -> final:Funct.final -> unit

val abort_version : t -> key:Mvstore.Key.t -> version:int -> unit
(** Coordinator-initiated in-epoch abort of the functor at (key, version).
    A no-op when the version is absent or already final. *)

val watermark : t -> key:Mvstore.Key.t -> int
(** The key's value watermark (-1 when the key is unknown). *)

val gc : t -> before:int -> int
(** Reclaim historical versions: for every key, drop records older than
    [min before watermark], keeping the newest final at or below the
    horizon as the base value for reads at or above it.  Reads strictly
    below the horizon may observe the key as absent — GC shortens the
    historical-read window.  Returns records reclaimed.  Safe at any
    time: only immutable (sub-watermark) history is touched. *)

val pending_count : t -> int
(** Number of records still pending across the partition (test helper;
    O(table size)). *)
