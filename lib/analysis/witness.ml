(* Violation witness bundles.

   When a flight-recorded run ends in a violation at fed position [v],
   [emit] writes two files into the bundle directory:

   - [<name>.witness.json] — the diagnosis: the violating event and
     check site, a per-thread frontier at [v] (open-transaction depth,
     last fed position), and the slice's replay verdict;
   - [<name>.slice.bin] — the fed events [[p, v]] as a stand-alone
     version-1 binfmt trace, where [p] is the latest globally quiescent
     position (no thread inside a transaction) at or before [v].

   Nothing is kept while the run goes on: [emit] reads the words the
   checker was fed again from the run's own source (the mapped binary
   file, or the packed arena), in two passes over [[0, v]].  The first
   keeps each thread's depth and last position and finds [p]; the
   second streams [[p, v]] into the slice writer.  Position 0 is
   quiescent, so every violation gets a slice.

   The slice starts at a globally quiescent position, so a ⊥-seeded
   checker over it is exact (DESIGN.md §15/§16): because the recorded
   violation at [v] was the run's first, it is also the first in
   [[p, v]], and replaying the slice must report a violation at slice
   index [v - p] — same event, same site.  [emit] performs that replay
   on the just-written file (so the bytes on disk are what is
   validated) and records the outcome in the JSON; `rapid check` on the
   slice reproduces the same report, which the differential tests pin. *)

open Traces

type info = {
  slice_events : int;
  validated : bool;  (** replay ran and reproduced index + site *)
}

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_text path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* The whole input path with ['%'] and ['/'] percent-escaped: injective,
   so two inputs never share a bundle (a/t.std and b/t.std would by
   basename), and a plain file name is its own bundle name. *)
let bundle_name source =
  let b = Buffer.create (String.length source) in
  String.iter
    (function
      | '%' -> Buffer.add_string b "%25"
      | '/' -> Buffer.add_string b "%2F"
      | c -> Buffer.add_char b c)
    source;
  Buffer.contents b

let site_string site = Format.asprintf "%a" Aerodrome.Violation.pp_site site

let num i = Obs.Json.Num (float_of_int i)

exception Stop

(* [f i w] on the fed words at positions [0, upto]: [fed] hands the
   stream from its start, and is cut short after [upto]. *)
let iter_upto fed upto f =
  let i = ref 0 in
  try
    fed (fun w ->
        f !i w;
        if !i = upto then raise Stop;
        incr i)
  with Stop -> ()

(* Each thread's open-transaction depth and last position after [[0, v]],
   and the latest position [p <= v] before which no transaction is open,
   by the outermost begin/end rule of Opt's handlers. *)
let frontier ~threads fed v =
  let depth = Array.make threads 0 and last = Array.make threads (-1) in
  let open_threads = ref 0 and p = ref 0 in
  iter_upto fed v (fun i w ->
      if !open_threads = 0 then p := i;
      let t = Packed.tid w and op = Packed.opcode w in
      last.(t) <- i;
      if op = Packed.op_begin then begin
        if depth.(t) = 0 then incr open_threads;
        depth.(t) <- depth.(t) + 1
      end
      else if op = Packed.op_end && depth.(t) > 0 then begin
        depth.(t) <- depth.(t) - 1;
        if depth.(t) = 0 then decr open_threads
      end);
  (depth, last, !p)

(* Replay the slice file with a fresh checker under its own metric
   scope, so the replay's counters never leak into the recording run's
   ambient collection. *)
let replay_slice (module C : Aerodrome.Checker.S) path =
  let v, _discarded_metrics =
    Obs.Scope.collect (fun () ->
        let h = Binfmt.read_header path in
        let st =
          C.create ~threads:h.Binfmt.threads ~locks:h.Binfmt.locks
            ~vars:h.Binfmt.vars
        in
        ignore
          (Binfmt.fold_packed path ~init:() ~f:(fun () w ->
               ignore (C.feed_packed st w)));
        C.violation st)
  in
  v

let violation_matches ~(expected : Aerodrome.Violation.t) ~at
    (got : Aerodrome.Violation.t option) =
  match got with
  | None -> false
  | Some g ->
    g.Aerodrome.Violation.index = at
    && Event.equal g.Aerodrome.Violation.event expected.Aerodrome.Violation.event
    && g.Aerodrome.Violation.site = expected.Aerodrome.Violation.site

(* [fed f] hands [f] the words the checker was fed, in order, from the
   first; [emit] stops it past the violation. *)
let emit ~dir ~source ~checker ~threads ~locks ~vars ~fed
    ~(violation : Aerodrome.Violation.t) : (info, string) result =
  try
    ensure_dir dir;
    let name = bundle_name source in
    let json_path = Filename.concat dir (name ^ ".witness.json") in
    let slice_path = Filename.concat dir (name ^ ".slice.bin") in
    let v = violation.Aerodrome.Violation.index in
    let depth, last, p = frontier ~threads fed v in
    let events = v - p + 1 in
    (* write the slice first so validation exercises the on-disk bytes *)
    Binfmt.write_packed_slice slice_path ~threads ~locks ~vars ~events (fun f ->
        iter_upto fed v (fun i w -> if i >= p then f w));
    let expect_at = v - p in
    let replayed = replay_slice checker slice_path in
    let validated = violation_matches ~expected:violation ~at:expect_at replayed in
    let doc =
      Obs.Json.Obj
        [
          ("schema", Obs.Json.Str "aerodrome-witness/2");
          ("source", Obs.Json.Str source);
          ( "checker",
            let (module C : Aerodrome.Checker.S) = checker in
            Obs.Json.Str C.name );
          ( "violation",
            Obs.Json.Obj
              [
                ("index", num v);
                ( "event",
                  Obs.Json.Str (Event.to_string violation.Aerodrome.Violation.event) );
                ("site", Obs.Json.Str (site_string violation.Aerodrome.Violation.site));
              ] );
          ( "domains",
            Obs.Json.Obj
              [ ("threads", num threads); ("locks", num locks); ("vars", num vars) ]
          );
          ( "threads",
            Obs.Json.List
              (List.init threads (fun t ->
                   Obs.Json.Obj
                     [
                       ("tid", num t);
                       ("open_depth", num depth.(t));
                       ( "last_index",
                         if last.(t) < 0 then Obs.Json.Null else num last.(t) );
                     ])) );
          ( "window",
            Obs.Json.Obj
              [
                ("start", num p);
                ("events", num events);
                ("expected_violation_index", num expect_at);
                ( "replay",
                  Obs.Json.Obj
                    [
                      ( "verdict",
                        Obs.Json.Str
                          (match replayed with
                          | Some _ -> "violation"
                          | None -> "serializable") );
                      ( "index",
                        match replayed with
                        | Some r -> num r.Aerodrome.Violation.index
                        | None -> Obs.Json.Null );
                      ("matches", Obs.Json.Bool validated);
                    ] );
              ] );
          ("slice", Obs.Json.Str (Filename.basename slice_path));
        ]
    in
    write_text json_path (Obs.Json.to_string doc);
    Ok { slice_events = events; validated }
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  | Binfmt.Corrupt msg -> Error ("slice replay: " ^ msg)
