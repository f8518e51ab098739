(* Schema validator for the bench harness's --json output
   (schema "aerodrome-bench/11").  Exits 0 and prints "ok" when the file
   parses and carries the expected structure; prints a diagnostic and
   exits 1 otherwise.  Used by the cram test so the emitter cannot rot.

   Parsing is [Obs.Json] (the library superseded this file's private
   JSON reader); the schema checks below stay local to the bench. *)

open Obs.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field obj key =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> bad "missing field %S" key)
  | _ -> bad "expected an object around field %S" key

let as_num what = function Num f -> f | _ -> bad "%s: expected a number" what
let as_str what = function Str s -> s | _ -> bad "%s: expected a string" what
let as_list what = function List l -> l | _ -> bad "%s: expected an array" what

let check_sample ~where s =
  let name = as_str (where ^ ".name") (field s "name") in
  let seconds = as_num (where ^ ".seconds") (field s "seconds") in
  let fed = as_num (where ^ ".events_fed") (field s "events_fed") in
  let eps = as_num (where ^ ".events_per_sec") (field s "events_per_sec") in
  let verdict = as_str (where ^ ".verdict") (field s "verdict") in
  ignore (as_num (where ^ ".allocated_mwords") (field s "allocated_mwords"));
  ignore (as_num (where ^ ".top_heap_words") (field s "top_heap_words"));
  if name = "" then bad "%s: empty checker name" where;
  if seconds < 0. then bad "%s: negative seconds" where;
  if fed < 0. then bad "%s: negative events_fed" where;
  if eps < 0. then bad "%s: negative events_per_sec" where;
  match verdict with
  | "serializable" | "violation" | "timeout" -> ()
  | v -> bad "%s: unknown verdict %S" where v

let check_row ~where r =
  let name = as_str (where ^ ".name") (field r "name") in
  let events = as_num (where ^ ".events") (field r "events") in
  ignore (as_num (where ^ ".threads") (field r "threads"));
  ignore (as_num (where ^ ".locks") (field r "locks"));
  ignore (as_num (where ^ ".vars") (field r "vars"));
  let checkers = as_list (where ^ ".checkers") (field r "checkers") in
  if name = "" then bad "%s: empty row name" where;
  if events < 0. then bad "%s: negative events" where;
  if checkers = [] then bad "%s: no checker samples" where;
  List.iteri
    (fun i s -> check_sample ~where:(Printf.sprintf "%s.checkers[%d]" where i) s)
    checkers

let check_root j =
  let schema = as_str "schema" (field j "schema") in
  if schema <> "aerodrome-bench/11" then bad "unknown schema %S" schema;
  ignore (as_num "scale" (field j "scale"));
  ignore (as_num "timeout" (field j "timeout"));
  let tables = as_list "tables" (field j "tables") in
  let micro = as_list "micro" (field j "micro") in
  List.iteri
    (fun i t ->
      let where = Printf.sprintf "tables[%d]" i in
      ignore (as_num (where ^ ".table") (field t "table"));
      if as_num (where ^ ".wall_seconds") (field t "wall_seconds") < 0. then
        bad "%s: negative wall_seconds" where;
      let rows = as_list (where ^ ".rows") (field t "rows") in
      if rows = [] then bad "%s: empty rows" where;
      List.iteri
        (fun k r -> check_row ~where:(Printf.sprintf "%s.rows[%d]" where k) r)
        rows)
    tables;
  List.iteri
    (fun i r -> check_row ~where:(Printf.sprintf "micro[%d]" i) r)
    micro;
  if tables = [] && micro = [] then bad "no tables and no micro results"

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: validate_json FILE";
      exit 2
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match check_root (parse_exn contents) with
  | () -> print_endline "ok"
  | exception Bad msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  | exception Obs.Json.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
