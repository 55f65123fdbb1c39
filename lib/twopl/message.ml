type txn_ref = int

type req =
  | Lock_and_read of { uid : txn_ref; shard : Calvin.Ctxn.shard }
  | Prepare of { uid : txn_ref; writes : (string * Functor_cc.Value.t) list }
  | Commit of { uid : txn_ref }
  | Release of { uid : txn_ref }

type resp =
  | Locked of { values : (string * Functor_cc.Value.t option) list }
  | Lock_timeout
  | Prepared
  | Done

type rpc = (req, resp) Net.Rpc.t
