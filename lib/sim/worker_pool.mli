(** Model of a node's CPU: a pool of [workers] identical cores serving a
    FIFO queue of jobs, each with an explicit service time.

    Everything a simulated server "computes" — RPC handling, functor
    evaluation, lock-manager work — is submitted here with a cost in
    simulated microseconds, so CPU contention emerges naturally: when all
    workers are busy, jobs queue, and measured latency grows.

    A pool with [workers = 1] models a serial bottleneck (e.g. Calvin's
    single-threaded lock manager). *)

type t

val create : Engine.t -> workers:int -> t
(** [create engine ~workers] with [workers >= 1]. *)

val submit : t -> cost:int -> (unit -> unit) -> unit
(** [submit t ~cost done_] enqueues a job taking [cost] (>= 0) simulated
    microseconds of one worker's time, then calls [done_] at completion. *)

val submit_priority : t -> cost:int -> (unit -> unit) -> unit
(** Like {!submit} but the job jumps ahead of the normal FIFO queue (used
    for latency-critical control messages, e.g. epoch switches). *)

val submit_batch : t -> cost:int -> n:int -> (int -> unit) -> unit
(** [submit_batch t ~cost ~n f] is [submit t ~cost (fun () -> f i)] for
    [i = 0 .. n-1] in turn: the same jobs start at the same times, in the
    same FIFO order.  The batch takes one queue entry instead of [n]
    closures, jobs and queue cells.  [n <= 0] submits nothing. *)

val workers : t -> int

val queue_length : t -> int
(** Jobs waiting (excluding the ones in service). *)

val busy_workers : t -> int

val busy_time : t -> int
(** Cumulative busy worker-microseconds, for utilisation accounting. *)

val jobs_completed : t -> int
