let name = "twopl"

type cluster = {
  c : Cluster.t;
  funreg : Functor_cc.Registry.t;
  seq : int ref;
}

let options_of ?seed (params : Kernel.Params.t) =
  (* 2PL has no epochs; params.epoch_us is ignored. *)
  let base = Cluster.default_options in
  { base with
    Cluster.n_servers = params.n_servers;
    partitioner = `Prefix;
    seed = (match seed with Some s -> s | None -> base.Cluster.seed);
    faults = params.faults;
    obs = params.obs }

let create ?seed params =
  let funreg = Functor_cc.Registry.with_builtins () in
  { c = Cluster.create ~registry:funreg (options_of ?seed params);
    funreg;
    seq = ref 0 }

let set_trace cl f = Cluster.set_trace cl.c f
let drop_stats cl = Cluster.drop_stats cl.c
let register cl name h = Functor_cc.Registry.register cl.funreg name h
let load cl key v = Cluster.load cl.c ~key v
let start (_ : cluster) = ()
let stop (_ : cluster) = ()
let sim cl = Cluster.sim cl.c
let metrics cl = Cluster.metrics cl.c
let n_servers cl = Cluster.n_servers cl.c

let submit cl ~fe txn ~k =
  incr cl.seq;
  (* The 2PL coordinator's callback fires on commit and on give-up alike;
     give-ups are reported through the abort metric keys. *)
  Cluster.submit cl.c ~fe
    (Calvin.Ctxn.of_txn ~version:!(cl.seq) txn)
    ~k:(fun () -> k Kernel.Txn.Ok)

let read_committed cl key =
  Server.read_local (Cluster.server cl.c (Cluster.partition_of cl.c key)) key

let committed_key = "twopl.committed"
let latency_key = "twopl.lat_total_us"
let abort_keys = [ ("gave up", "twopl.given_up") ]

let counter_keys =
  [ ("lock timeouts", "twopl.lock_timeouts"); ("restarts", "twopl.restarts") ]

let stage_keys = []
