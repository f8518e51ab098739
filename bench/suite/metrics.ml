(* Every metric the suite prints.  BENCHMARK.json lists the same names. *)

type better = Lower | Higher

(* Which number of a run's samples is reported.  [Best] (the fastest run)
   is for the timings of `rapid check`: the host this benchmark was built
   on slows every process on it by up to half for seconds to minutes at a
   time, which moves a median by as much but leaves the best run of a
   15-second window nearly alone (README.md has the numbers). *)
type stat = Median | Best

type spec = { name : string; unit : string; better : better; stat : stat }

let m ?(stat = Median) name unit better = { name; unit; better; stat }

(* Measured on the `rapid check` child with no tracing. *)
let end_to_end =
  [
    m ~stat:Best "wall_s" "s" Lower;
    m ~stat:Best "input_mev_s" "MeV/s" Higher;
    m ~stat:Best "cpu_s" "s" Lower;
    m "peak_rss_mb" "MiB" Lower;
    m "setup_s" "s" Lower;
  ]

(* Share of attempted runs whose exit code or report differed from the
   oracle.  Printed and recorded, but not an end-to-end metric of
   BENCHMARK.json, whose metrics must never read 0. *)
let fail_frac = m "fail_frac" "ratio" Lower

(* From the traced pass; README.md says which end-to-end metric each
   should move, on which workload. *)
let layers =
  [
    m "runner.wall_s" "s" Lower;
    m "cli.overhead_s" "s" Lower;
    m "binfmt.decode_s" "s" Lower;
    m "binfmt.decode_mev_s" "MeV/s" Higher;
    m "binfmt.alloc_words_per_event" "words/event" Lower;
    m "binfmt.footer_s" "s" Lower;
    m "parser.intern_s" "s" Lower;
    m "parser.fold_s" "s" Lower;
    m "parser.mev_s" "MeV/s" Higher;
    m "prefilter.filter_s" "s" Lower;
    m "prefilter.ns_per_event" "ns" Lower;
    m "prefilter.kept_ratio" "ratio" Lower;
    m "opt.feed_s" "s" Lower;
    m "opt.ns_per_event" "ns" Lower;
    m "opt.events_fed" "count" Lower;
    m "opt.alloc_words_per_event" "words/event" Lower;
    m "opt.state_words_peak" "words" Lower;
    m "merge.plan_s" "s" Lower;
    m "merge.seamed_cuts" "count" Lower;
    m "merge.tainted_events" "count" Lower;
    m "merge.repair_window_events" "count" Lower;
    m "shard.wall_s" "s" Lower;
    m "shard.chunks" "count" Higher;
    m "shard.chunk_s_sum" "s" Lower;
    m "shard.chunk_s_max" "s" Lower;
    m "shard.repaired_events" "count" Lower;
    m "shard.repair_fraction" "ratio" Lower;
    m "shard.speedup_vs_seq" "ratio" Higher;
    m "deque.steals" "count" Higher;
    m "deque.failed_steals" "count" Lower;
    m "deque.utilization_min" "ratio" Higher;
    m "deque.idle_s" "s" Lower;
    m "trace.coverage" "ratio" Higher;
  ]

(* Also from the traced pass, but printed and recorded only: the stealing
   executor's final assembly takes a few microseconds, under the
   resolution of the clock the shard layer reads, so it would read the
   same on every run. *)
let recorded_layers = [ m "shard.assemble_s" "s" Lower ]

let find name =
  List.find_opt (fun s -> s.name = name)
    ((fail_frac :: end_to_end) @ layers @ recorded_layers)

let unit_of name = match find name with Some m -> m.unit | None -> ""

let summarize name samples =
  let pick =
    match find name with
    | Some { stat = Best; better = Lower; _ } -> List.fold_left Float.min infinity
    | Some { stat = Best; better = Higher; _ } -> List.fold_left Float.max neg_infinity
    | _ -> Stats.median
  in
  Stats.of_samples ~pick samples
