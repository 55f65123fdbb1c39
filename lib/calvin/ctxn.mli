(** Calvin's transaction model (Thomson et al., SIGMOD 2012).

    Like ALOHA-DB, Calvin requires one-shot transactions with read and
    write sets known up front.  A transaction carries the static facet's
    write list ({!Kernel.Txn.desc}) by reference; after the deterministic
    locking phase every participating partition interprets the {e same}
    write list on the {e same} full read-set values (redundant execution)
    with {!Kernel.Apply} and applies only the writes belonging to its own
    partition.

    Which partition owns each key is worked out once, when the
    transaction is lowered: it carries one {!shard} per participant
    partition, and every server (and the 2PL coordinator) reads its own
    shard instead of filtering the read and write sets again.

    Execution is deterministic and — matching the open-source Calvin
    implementation the paper compares against — cannot abort. *)

type shard = {
  partition : int;
  reads : string list;  (** the partition's read keys, in key-name order *)
  writes : string list;  (** the partition's write keys, in key-name order *)
}

type t = {
  shards : shard list;
      (** one per participant partition, by ascending partition *)
  writes : (string * Kernel.Txn.op) list;
      (** the static write list, shared with the description it came from *)
  version : int;  (** handler-context version (per-cluster sequence) *)
}

val of_txn :
  partition_of:(string -> int) -> version:int -> Kernel.Txn.t -> t
(** Lower a neutral transaction from its static facet (forcing it): the
    read and write sets derived from the facet's write list are split
    into per-partition shards. *)

val shard : t -> int -> shard option
(** The shard of a partition; [None] if it does not participate. *)

val locks : shard -> (string * Lock_manager.mode) list
(** [reads] and [writes] merged into one strictly name-sorted lock list
    (a key in both is locked once, in write mode): the fast path of
    {!Lock_manager.request}.  A linear merge, no hashing; only the
    partition that takes the locks builds it, when it takes them, so the
    list is not kept for the transaction's lifetime. *)

val lock_count : shard -> int
(** Local reads plus local writes: the count the simulated lock-manager
    cost is charged on (a key both read and written counts twice). *)

val execute :
  Functor_cc.Registry.t ->
  t ->
  reads:(string * Functor_cc.Value.t option) list ->
  (string * Functor_cc.Value.t) list
(** Interpret the write list against the full read-set values; the full
    write map out.  A handler that aborts (or is unregistered) degrades to
    writing nothing, since deterministic execution cannot abort. *)
