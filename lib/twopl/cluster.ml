include Calvin.Deploy.Make (struct
  include Server

  type config = Config.t
  type req = Message.req
  type resp = Message.resp

  let name = "twopl"
  let default_config = Config.default
  let default_partitioner = `Prefix

  let create ~sim ~rpc ~node_id ~n_servers:_ ~seed ~partition_of ~registry
      ~config ~metrics ~obs =
    Server.create ~sim ~rpc ~addr:(Net.Address.of_int node_id) ~node_id
      ~partition_of ~addr_of_partition:Net.Address.of_int ~registry ~config
      ~metrics ?obs ~seed ()

  let start (_ : t) = ()

  let gauges =
    [ ("gauge.lock_waits", lock_waits);
      ("gauge.prepared_txns", prepared_count) ]

  (* 2PL has no epochs; params.epoch_us is ignored. *)
  let config_of_params (_ : Kernel.Params.t) = Config.default
  let abort_keys = [ ("gave up", "twopl.given_up") ]

  let counter_keys =
    [ ("lock timeouts", "twopl.lock_timeouts"); ("restarts", "twopl.restarts") ]

  let stage_keys = []
end)
