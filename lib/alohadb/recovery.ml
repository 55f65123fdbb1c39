module Funct = Functor_cc.Funct

let final_to_fspec = function
  | Funct.Committed v -> Some (Message.fspec_value v)
  | Funct.Deleted_v -> Some Message.fspec_delete
  | Funct.Aborted_v -> None

let snapshot_of_engine engine =
  let table = Functor_cc.Compute_engine.table engine in
  Mvstore.Table.fold_chains table ~init:[] ~f:(fun key chain acc ->
      (* Latest committed/deleted final; skip aborted versions the same
         way reads do. *)
      let best =
        Mvstore.Chain.fold chain ~init:None ~f:(fun acc version record ->
            match record.Funct.state with
            | Funct.Final f -> (
                match final_to_fspec f with
                | Some spec -> Some (version, spec)
                | None -> acc)
            | Funct.Pending _ -> acc)
      in
      match best with
      | Some (version, spec) -> (key, version, spec) :: acc
      | None -> acc)

let max_final_version engine =
  List.fold_left
    (fun acc (_, version, _) -> max acc version)
    0
    (snapshot_of_engine engine)

let replay ~engine ~snapshot ~entries =
  let restored = ref 0 in
  (* 1. checkpoint snapshot *)
  List.iter
    (fun (key, version, spec) ->
      let record = Message.functor_of_fspec spec ~txn_id:0 ~coordinator:0 in
      match
        Functor_cc.Compute_engine.install engine ~key ~version ~lo:0
          ~hi:max_int record
      with
      | Ok _ -> incr restored
      | Error _ -> ())
    snapshot;
  (* 2. log replay, oldest first (install order) *)
  List.iter
    (fun entry ->
      match entry with
      | Wal.Log_install
          { key; version; spec; txn_id; coordinator; epoch = _; fast = _ }
        -> (
          (* Recipient-set pushes are not re-sent after a crash: replayed
             functors must fall back to explicit (remote) reads. *)
          let spec =
            { spec with
              Message.farg =
                { spec.Message.farg with Functor_cc.Funct.pushed_reads = [] }
            }
          in
          let record = Message.functor_of_fspec spec ~txn_id ~coordinator in
          match
            Functor_cc.Compute_engine.install engine ~key ~version ~lo:0
              ~hi:max_int record
          with
          | Ok _ -> incr restored
          | Error `Duplicate_version | Error `Version_out_of_window -> ())
      | Wal.Log_abort { key; version } ->
          Functor_cc.Compute_engine.abort_version engine ~key ~version
      | Wal.Log_epoch_closed _ -> ())
    entries;
  !restored

let rebuild ~engine ~wal =
  replay ~engine ~snapshot:(Wal.snapshot wal) ~entries:(Wal.durable wal)

let recompute engine =
  let table = Functor_cc.Compute_engine.table engine in
  Mvstore.Table.iter table ~f:(fun key chain ->
      match Mvstore.Chain.latest_version chain with
      | Some version ->
          Functor_cc.Compute_engine.compute_key engine ~key ~version
      | None -> ())
