(** Wire protocol for the conventional two-phase-locking / two-phase-commit
    baseline (the "transaction-level concurrency control" the paper's
    introduction and related work position ALOHA-DB against).

    Flow per transaction: the coordinator asks every participant to lock
    and read its local fragment; participants either grant (after queueing)
    or report a timeout; on success the coordinator executes the stored
    procedure and drives two-phase commit (prepare with the writes, then
    commit), or aborts and releases. *)

type txn_ref = int
(** Coordinator-local transaction id, unique cluster-wide by embedding the
    coordinator id in the low bits. *)

type req =
  | Lock_and_read of {
      uid : txn_ref;
      shard : Calvin.Ctxn.shard;  (** the participant's local fragment *)
    }
  | Prepare of { uid : txn_ref; writes : (string * Functor_cc.Value.t) list }
  | Commit of { uid : txn_ref }
  | Release of { uid : txn_ref }
      (** abort: drop locks (and any prepared writes) *)

type resp =
  | Locked of { values : (string * Functor_cc.Value.t option) list }
  | Lock_timeout
  | Prepared
  | Done

type rpc = (req, resp) Net.Rpc.t
