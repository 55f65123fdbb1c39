(** Assembly of a 2PL/2PC deployment, built by {!Calvin.Deploy.Make}.
    Servers serve from creation, so [start] does nothing. *)

include Calvin.Deploy.S with type server = Server.t and type config = Config.t
