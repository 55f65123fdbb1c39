(** Hash tables keyed by string, with monomorphic [String.equal]
    comparison (the polymorphic [Hashtbl] compares keys with
    [compare]). *)

include Hashtbl.S with type key = string
