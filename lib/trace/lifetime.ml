open Ids

type t = { vars : int array; locks : int array }

let never = -1

let create ~vars ~locks =
  { vars = Array.make (max vars 0) never; locks = Array.make (max locks 0) never }

let note lt i (e : Event.t) =
  match e.op with
  | Event.Read x | Event.Write x -> lt.vars.(Vid.to_int x) <- i
  | Event.Acquire l | Event.Release l -> lt.locks.(Lid.to_int l) <- i
  | Event.Fork _ | Event.Join _ | Event.Begin | Event.End -> ()

let of_trace tr =
  let lt = create ~vars:(Trace.vars tr) ~locks:(Trace.locks tr) in
  Trace.iteri (note lt) tr;
  lt

let last_var lt x =
  if x >= 0 && x < Array.length lt.vars then lt.vars.(x) else never

let last_lock lt l =
  if l >= 0 && l < Array.length lt.locks then lt.locks.(l) else never
