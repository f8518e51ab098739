open Traces

module type S = sig
  type t

  val name : string
  val create : threads:int -> locks:int -> vars:int -> t
  val feed_packed : t -> int -> Violation.t option
  val violation : t -> Violation.t option
  val processed : t -> int
end

type t = (module S)

let run_arena (module C : S) ~threads ~locks ~vars arena =
  let st = C.create ~threads ~locks ~vars in
  let cur = Packed.Cursor.of_arena arena in
  let rec go () =
    let w = Packed.Cursor.next cur in
    if w < 0 then None
    else match C.feed_packed st w with Some v -> Some v | None -> go ()
  in
  go ()

(* Packed one event at a time: an arena beside the trace would double
   its footprint for nothing. *)
let run (module C : S) tr =
  let threads = Trace.threads tr
  and locks = Trace.locks tr
  and vars = Trace.vars tr in
  if not (Packed.fits ~threads ~locks ~vars) then
    invalid_arg "Checker.run: id domains exceed the packed limit";
  let st = C.create ~threads ~locks ~vars in
  let n = Trace.length tr in
  let rec go i =
    if i >= n then None
    else
      match C.feed_packed st (Packed.of_event (Trace.get tr i)) with
      | Some v -> Some v
      | None -> go (i + 1)
  in
  go 0
