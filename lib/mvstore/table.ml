module H = Hashtbl.Make (struct
  type t = Key.t

  let equal = Key.equal
  let hash = Key.id
end)

type 'a t = { chains : 'a Chain.t H.t }

type put_error = [ `Duplicate_version | `Version_out_of_window ]

(* Small default: Hashtbl resizes itself, and a big initial bucket array
   is pure allocation cost for short-lived engines (recovery replicas,
   tests, benchmarks).  Bulk loaders that know their key count can pass
   [initial_capacity]. *)
let create ?(initial_capacity = 64) () =
  { chains = H.create initial_capacity }

let chain_of t key =
  match H.find_opt t.chains key with
  | Some c -> c
  | None ->
      let c = Chain.create () in
      H.add t.chains key c;
      c

let insert t ~key ~version payload =
  let c = chain_of t key in
  match Chain.insert c ~version payload with
  | Ok () -> Ok c
  | Error `Duplicate -> Error `Duplicate_version

let put_unchecked t ~key ~version payload =
  Result.map ignore (insert t ~key ~version payload)

let put t ~key ~version ~lo ~hi payload =
  if version < lo || version > hi then Error `Version_out_of_window
  else insert t ~key ~version payload

let chain t key = H.find_opt t.chains key

let find_le t ~key ~version =
  match H.find_opt t.chains key with
  | None -> None
  | Some c -> Chain.find_le c ~version

let update t ~key ~version payload =
  match H.find_opt t.chains key with
  | None -> false
  | Some c -> Chain.update c ~version payload

let iter t ~f = H.iter f t.chains

let fold_chains t ~init ~f = H.fold f t.chains init

let keys t = H.fold (fun k _ acc -> k :: acc) t.chains []

let key_count t = H.length t.chains

let record_count t = H.fold (fun _ c acc -> acc + Chain.length c) t.chains 0
