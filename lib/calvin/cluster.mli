(** Assembly of a simulated Calvin deployment: [n] servers, each hosting a
    sequencer, a scheduler with its single-threaded lock manager, executor
    workers and one partition; no replication (fault tolerance disabled,
    as in the paper's comparison).  Built by {!Deploy.Make}; [start]
    starts every sequencer's epoch timer. *)

include Deploy.S with type server = Server.t and type config = Config.t
