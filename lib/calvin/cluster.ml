include Deploy.Make (struct
  include Server

  type config = Config.t
  type req = Message.wire
  type resp = unit

  let name = "calvin"
  let default_config = Config.default
  let default_partitioner = `Hash

  let create ~sim ~rpc ~node_id ~n_servers ~seed:_ ~partition_of ~registry
      ~config ~metrics ~obs =
    Server.create ~sim ~rpc ~addr:(Net.Address.of_int node_id) ~node_id
      ~n_servers ~partition_of ~addr_of_partition:Net.Address.of_int
      ~registry ~config ~metrics ?obs ()

  let gauges =
    [ ("gauge.lock_queue_depth", lock_queue_depth);
      ("gauge.inflight_txns", inflight_count) ]

  let config_of_params (params : Kernel.Params.t) =
    match params.epoch_us with
    | Some epoch_us -> { Config.default with Config.epoch_us }
    | None -> Config.default

  (* Calvin execution cannot abort, so there is no abort counter to
     report — an empty list is the truthful answer. *)
  let abort_keys = []
  let counter_keys = []

  let stage_keys =
    [ ("sequencing", "calvin.stage_seq_us");
      ("locking and read", "calvin.stage_lockread_us");
      ("processing", "calvin.stage_proc_us") ]
end)
