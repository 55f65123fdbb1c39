let name = "calvin"

type cluster = {
  c : Cluster.t;
  funreg : Functor_cc.Registry.t;
  seq : int ref;  (* per-cluster version for handler contexts *)
}

let options_of ?seed (params : Kernel.Params.t) =
  let base = Cluster.default_options in
  { base with
    Cluster.n_servers = params.n_servers;
    partitioner = `Prefix;
    seed = (match seed with Some s -> s | None -> base.Cluster.seed);
    faults = params.faults;
    obs = params.obs;
    config =
      (match params.epoch_us with
      | Some epoch_us -> { Config.default with Config.epoch_us }
      | None -> Config.default) }

let create ?seed params =
  let funreg = Functor_cc.Registry.with_builtins () in
  { c = Cluster.create ~registry:funreg (options_of ?seed params);
    funreg;
    seq = ref 0 }

let set_trace cl f = Cluster.set_trace cl.c f
let drop_stats cl = Cluster.drop_stats cl.c
let register cl name h = Functor_cc.Registry.register cl.funreg name h
let load cl key v = Cluster.load cl.c ~key v
let start cl = Cluster.start cl.c
let stop (_ : cluster) = ()
let sim cl = Cluster.sim cl.c
let metrics cl = Cluster.metrics cl.c
let n_servers cl = Cluster.n_servers cl.c

let submit cl ~fe txn ~k =
  incr cl.seq;
  Cluster.submit cl.c ~fe
    (Ctxn.of_txn ~version:!(cl.seq) txn)
    ~k:(fun () -> k Kernel.Txn.Ok)

let read_committed cl key =
  Server.read_local (Cluster.server cl.c (Cluster.partition_of cl.c key)) key

let committed_key = "calvin.committed"
let latency_key = "calvin.lat_total_us"

(* Calvin execution cannot abort, so there is no abort counter to report —
   an empty list is the truthful answer (the old driver read
   never-incremented "calvin.aborted_*" counters). *)
let abort_keys = []
let counter_keys = []

let stage_keys =
  [ ("sequencing", "calvin.stage_seq_us");
    ("locking and read", "calvin.stage_lockread_us");
    ("processing", "calvin.stage_proc_us") ]
