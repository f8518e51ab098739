(* results.json: the metrics of one or more workloads with their spread and
   samples, plus the provenance of the run; and the comparison of two such
   files. *)

module J = Obs.Json

let schema = "aerodrome-suite/1"
let num f = J.Num f
let int n = J.Num (float_of_int n)
let strs l = J.List (List.map (fun s -> J.Str s) l)

let stats_json (s : Stats.t) unit =
  J.Obj
    [
      ("unit", Str unit);
      ("value", num s.value);
      ("median", num s.median);
      ("p25", num s.p25);
      ("p75", num s.p75);
      ("n", int s.n);
      ("samples", List (List.map num s.samples));
    ]

let metrics_json l =
  J.Obj (List.map (fun (name, s) -> (name, stats_json s (Metrics.unit_of name))) l)

let load_average () =
  match String.split_on_char ' ' (Child.read_file "/proc/loadavg") with
  | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
  | _ | (exception Sys_error _) -> []

(* HEAD of the checkout's git repository, "unknown" outside one. *)
let git_head () =
  let read p = String.trim (Child.read_file (Filename.concat ".git" p)) in
  match read "HEAD" with
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    try read r
    with Sys_error _ -> (
      let packed = String.split_on_char '\n' (read "packed-refs") in
      match
        List.find_opt (fun l -> String.ends_with ~suffix:(" " ^ r) l) packed
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | head -> head
  | exception Sys_error _ -> "unknown"

let provenance ~rapid ~seeds ~scale =
  let binary =
    match Child.resolve rapid with
    | Some p -> (
      match Unix.stat p with
      | st ->
        J.Obj
          [
            ("path", Str p);
            ("bytes", int st.st_size);
            ("mtime", num st.st_mtime);
          ]
      | exception Unix.Unix_error _ -> J.Obj [ ("path", Str p) ])
    | None -> J.Null
  in
  J.Obj
    [
      ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("git_head", Str (git_head ()));
      ("rapid", binary);
      ("seeds", J.List (List.map int seeds));
      ("scale", num scale);
    ]

let document ~provenance workloads =
  J.Obj
    [ ("schema", Str schema); ("provenance", provenance); ("workloads", List workloads) ]

let trace_document events = J.Obj [ ("traceEvents", List events) ]

let write path json =
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string json))
let read path = J.parse_exn (Child.read_file path)

(* --- reading back --- *)

let field key j = match J.member key j with Some v -> v | None -> J.Null
let to_num = function J.Num f -> f | _ -> nan
let to_str = function J.Str s -> s | _ -> ""
let to_list = function J.List l -> l | _ -> []
let to_obj = function J.Obj kvs -> kvs | _ -> []

let stats_of j : Stats.t =
  {
    value = to_num (field "value" j);
    median = to_num (field "median" j);
    p25 = to_num (field "p25" j);
    p75 = to_num (field "p75" j);
    n = int_of_float (to_num (field "n" j));
    samples = List.map to_num (to_list (field "samples" j));
  }

let workloads doc =
  List.map (fun w -> (to_str (field "name" w), w)) (to_list (field "workloads" doc))

let metric w section name =
  Option.map stats_of (J.member name (field section w))

(* --- trace.json --- *)

(* The spans of a single-workload trace file as process [pid], named
   [process] in the viewer. *)
let relabel ~pid ~process doc =
  let pid = num (float_of_int pid) in
  let name = J.Obj [ ("name", Str process) ] in
  J.Obj [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", pid); ("args", name) ]
  :: List.map
       (fun ev ->
         J.Obj (List.map (fun (k, v) -> (k, if k = "pid" then pid else v)) (to_obj ev)))
       (to_list (field "traceEvents" doc))

(* Every span's parent must be a span of the same process; the result is
   the number of root spans (one per traced pass). *)
let check_trace path =
  match read path with
  | exception (J.Parse_error msg | Sys_error msg) -> Error msg
  | doc ->
    let events = to_list (field "traceEvents" doc) in
    let spans = List.filter (fun e -> field "ph" e = Str "X") events in
    let pid e = to_num (field "pid" e) and args e = field "args" e in
    let ids = Hashtbl.create 1024 in
    List.iter (fun e -> Hashtbl.replace ids (pid e, to_num (field "id" (args e))) ()) spans;
    let roots = List.filter (fun e -> field "parent" (args e) = Null) spans in
    let dangling =
      List.filter
        (fun e ->
          match field "parent" (args e) with
          | Null -> false
          | Num p -> not (Hashtbl.mem ids (pid e, p))
          | _ -> true)
        spans
    in
    if spans = [] then Error "no spans"
    else if dangling <> [] then
      Error (Printf.sprintf "%d spans with an unknown parent" (List.length dangling))
    else Ok (List.length roots)

(* --- comparison --- *)

type verdict = Better | Worse | Within | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* How much worse [b] is than [a], as a share of [a]'s value. *)
let worsening (spec : Metrics.spec) (a : Stats.t) (b : Stats.t) =
  let d = (b.value -. a.value) /. Float.abs a.value in
  match spec.better with Lower -> d | Higher -> -.d

(* A change is resolved only when the spread of both sides is within the
   bound, unless every run of [b] beats every run of [a]. *)
let judge (spec : Metrics.spec) ~bound (a : Stats.t) (b : Stats.t) =
  let w = worsening spec a b in
  if Float.max (Stats.spread a) (Stats.spread b) > bound then
    let beats x y = match spec.better with Lower -> x < y | Higher -> x > y in
    let pick keep (s : Stats.t) =
      List.fold_left (fun acc x -> if keep x acc then x else acc) s.value s.samples
    in
    if beats (pick (fun x acc -> beats acc x) b) (pick beats a) then Better else Unresolved
  else if w > bound then Worse
  else if w < -.bound then Better
  else Within

let bounds_of path =
  List.filter_map
    (fun m ->
      match (J.member "name" m, J.member "bound" m) with
      | Some (Str n), Some (Num b) -> Some (n, b)
      | _ -> None)
    (to_list (field "end_to_end" (read path)))

(* The on-path layer time that grew most from [a] to [b], in seconds. *)
let culprit a b =
  let path = List.map to_str (to_list (field "path" b)) @ [ "cli.overhead_s" ] in
  List.fold_left
    (fun best name ->
      match (metric a "layers" name, metric b "layers" name) with
      | Some x, Some y ->
        let d = y.value -. x.value in
        (match best with
        | Some (_, bd, _) when bd >= d -> best
        | _ -> Some (name, d, d /. x.value))
      | _ -> best)
    None path

let compare ~bounds a_path b_path =
  let bounds = bounds_of bounds in
  let a = workloads (read a_path) and b = workloads (read b_path) in
  let worse = ref false in
  let row = Printf.printf "%-15s %-12s %-26s %-26s %7s  %s\n" in
  row "workload" "metric" "A value [p25, p75]" "B value [p25, p75]" "change" "verdict";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name b with
      | None -> Printf.printf "%-15s only in %s\n" name a_path
      | Some wb ->
        List.iter
          (fun (spec : Metrics.spec) ->
            match (metric wa "metrics" spec.name, metric wb "metrics" spec.name) with
            | Some x, Some y ->
              let verdict =
                if spec.name = Metrics.fail_frac.name then
                  if y.value > 0. then Worse else Within
                else
                  match List.assoc_opt spec.name bounds with
                  | Some bound -> judge spec ~bound x y
                  | None -> Unresolved
              in
              if verdict = Worse then worse := true;
              let show (s : Stats.t) =
                Printf.sprintf "%.4g [%.4g, %.4g]" s.value s.p25 s.p75
              in
              let change =
                if x.value = 0. then "-"
                else
                  Printf.sprintf "%+.1f%%" (100. *. (y.value -. x.value) /. Float.abs x.value)
              in
              row name spec.name (show x) (show y) change (verdict_name verdict);
              if verdict = Worse && spec.name = "wall_s" then (
                match culprit wa wb with
                | Some (layer, d, rel) ->
                  Printf.printf "%-15s %-12s layer that moved most: %s %+.4gs (%+.1f%%)\n"
                    name "" layer d (100. *. rel)
                | None -> ())
            | _ -> ())
          (Metrics.end_to_end @ [ Metrics.fail_frac ]))
    a;
  !worse
