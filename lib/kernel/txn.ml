module Value = Functor_cc.Value

type op =
  | Put of Value.t
  | Delete
  | Add of int
  | Subtr of int
  | Max of int
  | Min of int
  | Call of {
      handler : string;
      read_set : string list;
      args : Value.t list;
    }
  | Det of {
      handler : string;
      read_set : string list;
      args : Value.t list;
      dependents : string list;
    }

type desc = {
  writes : (string * op) list;
  precondition_keys : string list;
}

type t = {
  functor_form : desc Lazy.t;
  static_form : desc Lazy.t;
}

type stage = [ `Install | `Compute ]

type reply =
  | Ok
  | Aborted of stage

let desc ?(precondition_keys = []) writes = { writes; precondition_keys }

let make ?precondition_keys writes =
  let d = Lazy.from_val (desc ?precondition_keys writes) in
  { functor_form = d; static_form = d }

let dual ~functor_form ~static_form = { functor_form; static_form }

let functor_form t = Lazy.force t.functor_form
let static_form t = Lazy.force t.static_form

let op_read_set key = function
  | Put _ | Delete -> []
  | Add _ | Subtr _ | Max _ | Min _ -> [ key ]
  | Call { read_set; _ } | Det { read_set; _ } -> read_set

let read_set d =
  List.concat_map (fun (key, op) -> op_read_set key op) d.writes
  |> List.sort_uniq String.compare

let write_keys d =
  List.concat_map
    (fun (key, op) ->
      match op with
      | Det { dependents; _ } -> key :: dependents
      | _ -> [ key ])
    d.writes
  |> List.sort_uniq String.compare
