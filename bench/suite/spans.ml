(* In-memory span recorder for the traced pass.  Spans are kept until the
   benchmark ends and then written as Chrome trace-event JSON (one track
   per repetition), which Perfetto and chrome://tracing open directly. *)

external now : unit -> float = "suite_monotonic"

type span = {
  id : int;
  name : string;
  parent : int option;
  run : int;
  start : float;
  stop : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_run = ref 0
let origin = now ()

(* Add a span measured by the caller, as a child of the innermost open one. *)
let record name ~start ~stop =
  let id = !next_id in
  incr next_id;
  let parent = List.nth_opt !open_ids 0 in
  recorded := { id; name; parent; run = !current_run; start; stop } :: !recorded

(* [span name f] times [f ()] as a child of the innermost open span. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.nth_opt !open_ids 0 in
  open_ids := id :: !open_ids;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      open_ids := List.tl !open_ids;
      recorded := { id; name; parent; run = !current_run; start; stop } :: !recorded)

let duration s = s.stop -. s.start

(* Summed duration of the named spans of repetition [run]. *)
let total ~run name =
  List.fold_left
    (fun acc s -> if s.run = run && s.name = name then acc +. duration s else acc)
    0. !recorded

(* Chrome trace events, oldest first; timestamps in whole microseconds. *)
let to_json ~pid =
  let us t = Obs.Json.Num (Float.round (t *. 1e6)) in
  List.rev_map
    (fun s ->
      Obs.Json.Obj
        [
          ("name", Str s.name);
          ("cat", Str "suite");
          ("ph", Str "X");
          ("ts", us (s.start -. origin));
          ("dur", us (duration s));
          ("pid", Num (float_of_int pid));
          ("tid", Num (float_of_int s.run));
          ( "args",
            Obj
              [
                ("id", Num (float_of_int s.id));
                ( "parent",
                  match s.parent with
                  | Some p -> Num (float_of_int p)
                  | None -> Null );
                ("run", Num (float_of_int s.run));
              ] );
        ])
    !recorded
