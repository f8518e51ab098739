(* The five trace shapes the benchmark checks, and the oracle each run is
   checked against.  Each shape stresses a different layer of `rapid
   check`; README.md gives the measurements behind the choice. *)

type format = Binary | Text

type t = {
  name : string;
  why : string;
  input : string;  (** the generated input, for the reader *)
  format : format;
  events : int;  (** target trace length at scale 1 *)
  jobs : int;  (** `rapid check --jobs` *)
  prefilter : bool;  (** `rapid check --prefilter` *)
  generate : seed:int64 -> events:int -> Traces.Trace.t;
}

let independent ~seed ~events ~threads ~locks ?(locked_fraction = 0.5)
    ?(plan = Workloads.Generator.Atomic) shape =
  Workloads.Generator.generate
    {
      Workloads.Generator.default with
      seed;
      threads;
      locks;
      vars = max 256 (events / 3);
      events;
      shape;
      plan;
      locked_fraction;
    }

let shared ~seed ~events =
  independent ~seed ~events ~threads:16 ~locks:16 ~locked_fraction:0.9
    Workloads.Generator.Independent

let shared_input =
  "Generator Independent, 16 threads, 16 locks, locked_fraction 0.9, binfmt v3"

let all =
  [
    {
      name = "mixed-filtered";
      why =
        "about 70% of events can be dropped, so decode, prefilter and Opt all \
         take real shares; the only workload where the prefilter runs";
      input = "Corpus.mixed ~threads:8, binfmt v3";
      format = Binary;
      events = 16_000_000;
      jobs = 1;
      prefilter = true;
      generate =
        (fun ~seed ~events ->
          Workloads.Corpus.mixed ~seed ~threads:8 ~events_total:events ());
    };
    {
      name = "shared-seq";
      why =
        "with the filter off Opt's per-event loop is most of the wall time: \
         the sequential packed path users get by default on one core";
      input = shared_input;
      format = Binary;
      events = 8_000_000;
      jobs = 1;
      prefilter = false;
      generate = shared;
    };
    {
      name = "shared-par";
      why =
        "the same file on the default work-stealing path, where cuts are cheap \
         and repair is tiny; paired with shared-seq it shows when parallelism pays";
      input = shared_input;
      format = Binary;
      events = 8_000_000;
      jobs = 2;
      prefilter = false;
      generate = shared;
    };
    {
      name = "anchored-par";
      why =
        "long anchor transactions straddle every cut, so planning and repair \
         dominate: the opposite regime on the same layers as shared-par";
      input = "Generator Anchored, 16 threads, 4 locks, binfmt v3";
      format = Binary;
      events = 2_500_000;
      jobs = 2;
      prefilter = false;
      generate =
        (fun ~seed ~events ->
          independent ~seed ~events ~threads:16 ~locks:4
            Workloads.Generator.Anchored);
    };
    {
      name = "text-violation";
      why =
        "RoadRunner text goes through the two-pass parser and the checker \
         freezes at the violation; the only report with a violation index";
      input = "Generator Independent, 8 threads, 4 locks, Violate_at 0.7, .std";
      format = Text;
      events = 2_500_000;
      jobs = 1;
      prefilter = false;
      generate =
        (fun ~seed ~events ->
          independent ~seed ~events ~threads:8 ~locks:4
            ~plan:(Workloads.Generator.Violate_at 0.7)
            Workloads.Generator.Independent);
    };
  ]

(* Whether `rapid check --jobs N` cuts the trace over a work-stealing
   scheduler: only a binary trace long enough to be worth cutting. *)
let stealing w ~events =
  w.jobs > 1 && w.format = Binary && Analysis.Runner.steal_worthwhile ~shards:0 ~events

(* The layer time metrics on the blocking path of `rapid check`: their sum
   over runner.wall_s is trace.coverage. *)
let path w ~events =
  match w.format with
  | Text -> [ "parser.intern_s"; "parser.fold_s"; "opt.feed_s" ]
  | Binary when stealing w ~events -> [ "binfmt.decode_s"; "shard.wall_s" ]
  | Binary ->
    [ "binfmt.footer_s"; "binfmt.decode_s" ]
    @ (if w.prefilter then [ "prefilter.filter_s" ] else [])
    @ [ "opt.feed_s" ]

let find name = List.find_opt (fun w -> w.name = name) all

let flags w =
  [ "--jobs"; string_of_int w.jobs ] @ if w.prefilter then [ "--prefilter" ] else []

(* What `rapid check` must print and exit with, derived from the generated
   trace by the seed (pre-epoch) Opt checker — a copy that does not share
   code with the checker under test. *)
type expected = {
  violation : int option;  (** 0-based index into the events fed *)
  fed : int;  (** events the checker is fed: all, or those the filter keeps *)
}

let expected w tr =
  let fed =
    if w.prefilter then fst (Traces.Prefilter.run_trace `Exact tr) else tr
  in
  {
    violation =
      Option.map
        (fun (v : Aerodrome.Violation.t) -> v.index)
        (Aerodrome.Checker.run (module Reference.Reference_opt) fed);
    fed = Traces.Trace.length fed;
  }

let exit_code e = if e.violation = None then 0 else 1

(* The report line `rapid check` prints for one file, timing masked. *)
let report e =
  Printf.sprintf "aerodrome: %s in <time> (%d events)"
    (match e.violation with
    | None -> "serializable"
    | Some i -> Printf.sprintf "violation @%d" (i + 1))
    e.fed

let mask_time line =
  let rec go = function
    | "in" :: _ :: rest -> "in" :: "<time>" :: go rest
    | w :: rest -> w :: go rest
    | [] -> []
  in
  String.concat " " (go (String.split_on_char ' ' line))
