(** Calvin's deterministic lock table.

    Lock requests arrive in the global transaction order (the scheduler
    guarantees this) and are queued per key; grants follow strict FIFO with
    the usual shared-read / exclusive-write compatibility.  Because every
    scheduler requests locks in the same order, the protocol is
    deadlock-free by construction.

    This module is the pure state machine; the {e single-threaded-ness} of
    Calvin's lock manager — the bottleneck the paper identifies — is
    modelled by the server, which funnels every [request]/[release] through
    a one-worker pool. *)

type mode =
  | Read
  | Write

type t

val create : on_ready:(int -> unit) -> t
(** [on_ready uid] fires when transaction [uid] holds every lock it
    requested.  It may fire from inside [request] (uncontended case) or
    from inside another transaction's [release]. *)

val request : t -> uid:int -> keys:(string * mode) list -> unit
(** Enqueue all lock requests for a transaction, in key-name order.
    Duplicate keys are coalesced (write mode wins); a strictly name-sorted
    list (e.g. {!Ctxn.locks}) is taken as it is.  The
    transaction keeps a handle on each key's queue, so {!release} does no
    key lookups.  A transaction with an empty key list is ready
    immediately. *)

val release : t -> uid:int -> unit
(** Drop all locks of [uid] (granted or still queued) and promote
    waiters.  Unknown uids raise [Invalid_argument]. *)

val holders : t -> string -> int list
(** Uids currently granted on the key (test helper). *)

val waiting : t -> string -> int
(** Queue length (granted + waiting entries) for the key. *)
