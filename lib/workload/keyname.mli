(** Memoised key names.

    Workload key names are pure functions of small integer ids.  A
    table builds each name once, on first use, and returns the same
    string afterwards, so generators and handlers stop formatting a name
    per access and the store shares the loaded key strings.

    Ids in [\[0, cap)] are cached in an array grown on demand up to the
    largest id asked for; ids outside that range are built on every call
    and never cached, so a table holds at most [cap] entries.  Tables are
    filled without locks: if two domains race, an entry can only be lost
    and rebuilt, never stored under the wrong id. *)

type 'a t

val create : cap:int -> (int -> 'a) -> 'a t
(** [create ~cap make]: [get t i] returns [make i]. *)

val get : 'a t -> int -> 'a

val create2 : cap1:int -> cap2:int -> (int -> int -> 'a) -> 'a t t
(** A two-level table over pairs of ids, each level bounded by its cap. *)

val get2 : 'a t t -> int -> int -> 'a
