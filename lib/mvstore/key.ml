(* Interned keys: one record per distinct key name for the whole process.
   Chains, functor read sets and network routing all address keys through
   [t], so the hot paths compare and hash dense ints instead of re-hashing
   sprintf-built strings.  The intern table only grows; sequential
   experiment runs reuse the records (and their ids) for recurring key
   names, which is exactly the behaviour a per-run table would give for a
   single run, without threading an interner through every constructor.

   Domain safety: the table is process-global mutable state, so [intern]
   takes a mutex and is safe to call from any domain.  The whole lookup
   is inside the critical section — not just the miss path — because a
   concurrent [Names.add] can resize the table out from under a
   lock-free [find_opt].  The simulation interns from one domain, so the
   lock is uncontended and costs a single lock/unlock — a few tens of
   nanoseconds on the install path; the interning regression test
   hammers it from 4 domains to keep the guarantee honest. *)

type t = {
  id : int;
  name : string;
  mutable memo_stamp : int;
  mutable memo : int;
      (* One generation-stamped memo slot per key.  Holders of a stamp
         (e.g. a cluster's partitioner) can cache an int per key — the
         partition id — without a side table.  Not synchronized: memoize
         from the simulation's domain only (see [memo_int]). *)
}

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let table : t Names.t = Names.create 65_536
let next_id = ref 0
let lock = Mutex.create ()

let intern name =
  Mutex.lock lock;
  let k =
    match Names.find_opt table name with
    | Some k -> k
    | None ->
        let k = { id = !next_id; name; memo_stamp = -1; memo = 0 } in
        incr next_id;
        Names.add table name k;
        k
  in
  Mutex.unlock lock;
  k

let id k = k.id
let name k = k.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash k = k.id
let interned_count () = !next_id

let next_stamp = ref 0

let new_stamp () =
  incr next_stamp;
  !next_stamp

(* Single-domain by design (cluster assembly and message routing run on
   the simulation's domain).  The write order still matters for crash
   robustness of that assumption: publish the memo value before the
   stamp, so a racing same-stamp reader can never observe the new stamp
   with the old value. *)
let memo_int k ~stamp ~f =
  if k.memo_stamp = stamp then k.memo
  else begin
    let v = f k.name in
    k.memo <- v;
    k.memo_stamp <- stamp;
    v
  end

let pp ppf k = Format.fprintf ppf "%s#%d" k.name k.id
