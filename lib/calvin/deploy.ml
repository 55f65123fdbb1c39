(** One deployment of a lock-based engine, shared by Calvin and the
    2PL/2PC baseline: [n] servers on one simulated RPC plane, key
    partitioning, the observability wiring (fault hook, gauge probes),
    and the {!Kernel.Intf.ENGINE} adapter over it.

    An engine supplies only what differs ({!SERVER}): its server module
    and config, default partitioner, gauge probes, what [start] does,
    how {!Kernel.Params.t} maps to its config, and its metric keys.
    Transactions reach the servers as {!Ctxn.t}s built from the
    [static_form] facet. *)

module type SERVER = sig
  val name : string
  (** Engine name; its commit counter and end-to-end latency histogram
      are ["<name>.committed"] and ["<name>.lat_total_us"]. *)

  type t
  type config
  type req
  type resp

  val default_config : config
  val default_partitioner : [ `Hash | `Prefix ]

  val create :
    sim:Sim.Engine.t ->
    rpc:(req, resp) Net.Rpc.t ->
    node_id:int ->
    n_servers:int ->
    seed:int ->
    partition_of:(string -> int) ->
    registry:Functor_cc.Registry.t ->
    config:config ->
    metrics:Sim.Metrics.t ->
    obs:Obs.Ctl.t option ->
    t
  (** Server [node_id], at address [Net.Address.of_int node_id]; every
      partition [p] is served at [Net.Address.of_int p]. *)

  val start : t -> unit
  val submit : ?k:(unit -> unit) -> t -> Ctxn.t -> unit
  val load_initial : t -> key:string -> Functor_cc.Value.t -> unit
  val read_local : t -> string -> Functor_cc.Value.t option

  val gauges : (string * (t -> int)) list
  (** [(gauge name, per-server probe)]: each gauge is published as the
      sum over servers, in list order, then ["gauge.net_drops"]. *)

  val config_of_params : Kernel.Params.t -> config

  val abort_keys : (string * string) list
  val counter_keys : (string * string) list
  val stage_keys : (string * string) list
end

module type S = sig
  type server
  type config

  type options = {
    n_servers : int;
    config : config;
    latency : Net.Latency.t;
    partitioner : [ `Hash | `Prefix ];
    seed : int;
    faults : Net.Faults.t option;
        (** fault oracle for the RPC plane; neither Calvin's sequencer
            barrier nor 2PC tolerates message loss, so pair it with
            [Net.Faults.Reliable] transport.  [None] = fault-free. *)
    obs : Obs.Ctl.t option;
        (** observability handle: lifecycle tracing on every server plus
            the engine's gauges and network drops; [None] = untraced *)
  }

  val default_options : options

  type t

  val create : ?registry:Functor_cc.Registry.t -> options -> t
  (** [registry] holds the handlers that [Call]/[Det] ops name; it
      defaults to [Functor_cc.Registry.with_builtins ()]. *)

  val start : t -> unit
  (** Start every server, in node order. *)

  val set_trace :
    t -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
  (** Observe every send (chaos trace hashing). *)

  val drop_stats : t -> Net.Network.drop_stats
  val sim : t -> Sim.Engine.t
  val metrics : t -> Sim.Metrics.t
  val n_servers : t -> int
  val server : t -> int -> server
  val partition_of : t -> string -> int
  val load : t -> key:string -> Functor_cc.Value.t -> unit

  val submit : ?k:(unit -> unit) -> t -> fe:int -> Ctxn.t -> unit
  (** Accept a transaction at server [fe]; [k] fires when it completes
      (for 2PL: commits or is given up). *)

  val run_for : t -> int -> unit

  module Engine : sig
    include Kernel.Intf.ENGINE with type cluster = t

    val options_of : ?seed:int -> Kernel.Params.t -> options
    (** Prefix partitioning, the engine's config from the params. *)

    val set_trace :
      cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit

    val drop_stats : cluster -> Net.Network.drop_stats
  end
end

module Make (Srv : SERVER) :
  S with type server = Srv.t and type config = Srv.config = struct
  type server = Srv.t
  type config = Srv.config

  type options = {
    n_servers : int;
    config : config;
    latency : Net.Latency.t;
    partitioner : [ `Hash | `Prefix ];
    seed : int;
    faults : Net.Faults.t option;
    obs : Obs.Ctl.t option;
  }

  let default_options =
    { n_servers = 8;
      config = Srv.default_config;
      latency = Net.Latency.uniform ~base:80 ~jitter:40;
      partitioner = Srv.default_partitioner;
      seed = 42;
      faults = None;
      obs = None }

  type t = {
    sim : Sim.Engine.t;
    servers : Srv.t array;
    metrics : Sim.Metrics.t;
    partition_of : string -> int;
    rpc : (Srv.req, Srv.resp) Net.Rpc.t;
    registry : Functor_cc.Registry.t;
    mutable seq : int;  (* last handler-context version handed out *)
  }

  let create ?registry options =
    if options.n_servers <= 0 then
      invalid_arg (Srv.name ^ " cluster: n_servers");
    let registry =
      match registry with
      | Some r -> r
      | None -> Functor_cc.Registry.with_builtins ()
    in
    let sim = Sim.Engine.create () in
    let rng = Sim.Rng.create options.seed in
    let metrics = Sim.Metrics.create () in
    let rpc =
      Net.Rpc.create sim (Sim.Rng.split rng) ~latency:options.latency
        ?faults:options.faults ()
    in
    let n = options.n_servers in
    let part =
      match options.partitioner with
      | `Hash -> Net.Partitioner.hash ~partitions:n
      | `Prefix -> Net.Partitioner.by_prefix_int ~partitions:n
    in
    let partition_of key = Net.Partitioner.partition_of part key in
    let servers =
      Array.init n (fun i ->
          Srv.create ~sim ~rpc ~node_id:i ~n_servers:n ~seed:options.seed
            ~partition_of ~registry ~config:options.config ~metrics
            ~obs:options.obs)
    in
    (match options.obs with
    | None -> ()
    | Some ctl ->
        Net.Rpc.set_fault_hook rpc (fun ~now ~dst ~kind ->
            Obs.Ctl.note_fault ctl ~now ~node:(Net.Address.to_int dst) ~kind);
        let g = Obs.Ctl.gauges ctl in
        Obs.Gauges.bind_metrics g metrics;
        Obs.Gauges.add_probe g (fun () ->
            List.iter
              (fun (gauge, probe) ->
                let sum =
                  Array.fold_left (fun acc s -> acc + probe s) 0 servers
                in
                Sim.Metrics.set_gauge metrics gauge (float_of_int sum))
              Srv.gauges;
            let d = Net.Rpc.drop_stats rpc in
            Sim.Metrics.set_gauge metrics "gauge.net_drops"
              (float_of_int
                 (d.Net.Network.injected + d.partitioned + d.crashed
                + d.unregistered))));
    { sim; servers; metrics; partition_of; rpc; registry; seq = 0 }

  let start t = Array.iter Srv.start t.servers
  let set_trace t f = Net.Rpc.set_trace t.rpc f
  let drop_stats t = Net.Rpc.drop_stats t.rpc
  let sim t = t.sim
  let metrics t = t.metrics
  let n_servers t = Array.length t.servers
  let server t i = t.servers.(i)
  let partition_of t key = t.partition_of key

  let load t ~key value =
    Srv.load_initial t.servers.(t.partition_of key) ~key value

  let submit ?k t ~fe txn = Srv.submit ?k t.servers.(fe) txn

  let run_for t us = Sim.Engine.run ~until:(Sim.Engine.now t.sim + us) t.sim

  module Engine = struct
    let name = Srv.name

    type cluster = t

    let options_of ?seed (params : Kernel.Params.t) =
      { default_options with
        n_servers = params.n_servers;
        partitioner = `Prefix;
        seed = Option.value seed ~default:default_options.seed;
        faults = params.faults;
        obs = params.obs;
        config = Srv.config_of_params params }

    let create ?seed params = create (options_of ?seed params)
    let set_trace = set_trace
    let drop_stats = drop_stats
    let register t name h = Functor_cc.Registry.register t.registry name h
    let load t key v = load t ~key v
    let start = start
    let stop (_ : cluster) = ()
    let sim = sim
    let metrics = metrics
    let n_servers = n_servers

    (* Neither engine reports an abort through [k]: 2PL give-ups surface
       through its abort metric keys. *)
    let submit t ~fe txn ~k =
      t.seq <- t.seq + 1;
      submit t ~fe
        (Ctxn.of_txn ~partition_of:t.partition_of ~version:t.seq txn)
        ~k:(fun () -> k Kernel.Txn.Ok)

    let read_committed t key =
      Srv.read_local t.servers.(t.partition_of key) key

    let committed_key = Srv.name ^ ".committed"
    let latency_key = Srv.name ^ ".lat_total_us"
    let abort_keys = Srv.abort_keys
    let counter_keys = Srv.counter_keys
    let stage_keys = Srv.stage_keys
  end
end
