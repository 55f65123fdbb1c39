type 'a t = {
  cap : int;
  make : int -> 'a;
  mutable slots : 'a option array;
}

let create ~cap make = { cap; make; slots = [||] }

let fill t i =
  let v = t.make i in
  let slots = t.slots in
  let len = Array.length slots in
  let slots =
    if i < len then slots
    else begin
      let a = Array.make (min t.cap (max (i + 1) (2 * len))) None in
      Array.blit slots 0 a 0 len;
      t.slots <- a;
      a
    end
  in
  slots.(i) <- Some v;
  v

let get t i =
  if i < 0 || i >= t.cap then t.make i
  else
    let slots = t.slots in
    if i < Array.length slots then
      match slots.(i) with Some v -> v | None -> fill t i
    else fill t i

let create2 ~cap1 ~cap2 make =
  create ~cap:cap1 (fun a -> create ~cap:cap2 (make a))

let get2 t a b = get (get t a) b
