type fspec = {
  ftype : Functor_cc.Ftype.t;
  farg : Functor_cc.Funct.farg;
}

type install = {
  txn_id : int;
  epoch : int;
  ts : int;
  lo : int;
  hi : int;
  writes : (Mvstore.Key.t * fspec) list;
  preconditions : Mvstore.Key.t list;
  fast : bool;
}

type req =
  | Install of install
  | Abort_txn of { ts : int; keys : Mvstore.Key.t list }
  | Get_req of { key : Mvstore.Key.t; version : int }

type resp =
  | Install_ack of { ok : bool }
  | Abort_ack
  | Get_resp of Functor_cc.Value.t option

type oneway =
  | Push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
  | Dep_write of {
      key : Mvstore.Key.t;
      version : int;
      final : Functor_cc.Funct.final;
    }
  | Batch_done of {
      txn_id : int;
      partition : int;
      functors : int;
      max_retrieved_at : int;
      aborted : bool;
    }
  | Batch_done_ack of { txn_id : int; partition : int }
  | Plan_sub of {
      key : Mvstore.Key.t;
      version : int;
      dst_key : Mvstore.Key.t;
      dst_version : int;
    }
  | Plan_push of {
      key : Mvstore.Key.t;
      version : int;
      src_key : Mvstore.Key.t;
      value : Functor_cc.Value.t option;
    }
  | Wal_ship of { partition : int; term : int; seq : int; entry : ship_entry }
  | Ship_ack of { partition : int; term : int; seq : int }

and ship_entry =
  | Ship_install of {
      key : Mvstore.Key.t;
      version : int;
      spec : fspec;
      txn_id : int;
      coordinator : int;
      epoch : int;
      fast : bool;
    }
  | Ship_abort of { key : Mvstore.Key.t; version : int }
  | Ship_epoch_closed of int

type wire =
  | Req of req
  | One of oneway

type rpc = (wire, resp) Net.Rpc.t

let functor_of_fspec spec ~txn_id ~coordinator =
  match spec.ftype with
  | Functor_cc.Ftype.Value -> (
      match spec.farg.Functor_cc.Funct.args with
      | [ v ] -> Functor_cc.Funct.mk_value v
      | _ -> invalid_arg "functor_of_fspec: VALUE expects one argument")
  | Functor_cc.Ftype.Deleted ->
      Functor_cc.Funct.mk_final Functor_cc.Funct.Deleted_v
  | Functor_cc.Ftype.Aborted ->
      Functor_cc.Funct.mk_final Functor_cc.Funct.Aborted_v
  | Functor_cc.Ftype.Add | Functor_cc.Ftype.Subtr | Functor_cc.Ftype.Max
  | Functor_cc.Ftype.Min | Functor_cc.Ftype.User _
  | Functor_cc.Ftype.Dep_marker _ ->
      Functor_cc.Funct.mk_pending ~ftype:spec.ftype ~farg:spec.farg ~txn_id
        ~coordinator

let fspec_value v =
  { ftype = Functor_cc.Ftype.Value;
    farg = Functor_cc.Funct.farg_args [ v ] }

let fspec_delete =
  { ftype = Functor_cc.Ftype.Deleted; farg = Functor_cc.Funct.farg_empty }

let fspec_of_op ~key:_ ~recipients ?(pushed_reads = []) op =
  let with_recipients farg =
    { farg with Functor_cc.Funct.recipients; pushed_reads }
  in
  match op with
  | Kernel.Txn.Put v -> fspec_value v
  | Kernel.Txn.Delete -> fspec_delete
  | Kernel.Txn.Add n ->
      { ftype = Functor_cc.Ftype.Add;
        farg =
          with_recipients
            (Functor_cc.Funct.farg_args [ Functor_cc.Value.int n ]) }
  | Kernel.Txn.Subtr n ->
      { ftype = Functor_cc.Ftype.Subtr;
        farg =
          with_recipients
            (Functor_cc.Funct.farg_args [ Functor_cc.Value.int n ]) }
  | Kernel.Txn.Max n ->
      { ftype = Functor_cc.Ftype.Max;
        farg =
          with_recipients
            (Functor_cc.Funct.farg_args [ Functor_cc.Value.int n ]) }
  | Kernel.Txn.Min n ->
      { ftype = Functor_cc.Ftype.Min;
        farg =
          with_recipients
            (Functor_cc.Funct.farg_args [ Functor_cc.Value.int n ]) }
  | Kernel.Txn.Call { handler; read_set; args } ->
      { ftype = Functor_cc.Ftype.User handler;
        farg =
          { Functor_cc.Funct.read_set = List.map Mvstore.Key.intern read_set;
            args; recipients; dependents = []; pushed_reads } }
  | Kernel.Txn.Det { handler; read_set; args; dependents } ->
      { ftype = Functor_cc.Ftype.User handler;
        farg =
          { Functor_cc.Funct.read_set = List.map Mvstore.Key.intern read_set;
            args; recipients;
            dependents = List.map Mvstore.Key.intern dependents;
            pushed_reads } }

let fspec_dep_marker ~det_key =
  { ftype = Functor_cc.Ftype.Dep_marker det_key;
    farg = Functor_cc.Funct.farg_empty }
