(* Metainfo, runner and report tests. *)

open Traces

let check = Alcotest.check

(* --- Metainfo --- *)

let test_metainfo_rho4 () =
  let m = Analysis.Metainfo.analyze Workloads.Scenarios.rho4 in
  check Alcotest.int "events" 12 m.events;
  check Alcotest.int "reads" 3 m.reads;
  check Alcotest.int "writes" 3 m.writes;
  check Alcotest.int "transactions" 3 m.transactions;
  check Alcotest.int "threads" 3 m.threads;
  check Alcotest.int "vars" 3 m.variables;
  check Alcotest.int "locks" 0 m.locks;
  check Alcotest.int "unary" 0 m.unary_events

let test_metainfo_nested () =
  let m = Analysis.Metainfo.analyze Workloads.Scenarios.nested_ignored in
  check Alcotest.int "outermost transactions" 2 m.transactions;
  check Alcotest.int "nested begins" 1 m.nested_begins;
  check Alcotest.int "max nesting" 2 m.max_nesting

let test_metainfo_sync () =
  let m = Analysis.Metainfo.analyze Workloads.Scenarios.fork_join_serial in
  check Alcotest.int "forks" 2 m.forks;
  check Alcotest.int "joins" 2 m.joins;
  check Alcotest.int "unary (forks+joins)" 4 m.unary_events;
  let m2 = Analysis.Metainfo.analyze Workloads.Scenarios.lock_serial in
  check Alcotest.int "acquires" 2 m2.acquires;
  check Alcotest.int "releases" 2 m2.releases;
  check Alcotest.int "locks" 1 m2.locks

let prop_metainfo_consistent =
  QCheck.Test.make ~name:"metainfo agrees with the transaction decomposition"
    ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:3 ~max_len:80 ())
    (fun tr ->
      let m = Analysis.Metainfo.analyze tr in
      m.transactions = Transactions.count_blocks tr
      && m.events = Trace.length tr
      && m.begins = m.ends (* complete traces close every block *)
      && m.acquires = m.releases)

(* --- Runner --- *)

let slow_checker : Aerodrome.Checker.t =
  (module struct
    type t = unit

    let name = "sleeper"
    let create ~threads:_ ~locks:_ ~vars:_ = ()

    let feed_packed () _ =
      ignore (Unix.select [] [] [] 0.002);
      None

    let violation () = None
    let processed () = 0
  end)

let test_runner_verdicts () =
  let r = Analysis.Runner.run (module Aerodrome.Opt) Workloads.Scenarios.rho2 in
  check Alcotest.bool "violating" true (Analysis.Runner.violating r);
  check Alcotest.string "name" "aerodrome" r.checker;
  let r2 = Analysis.Runner.run (module Aerodrome.Opt) Workloads.Scenarios.rho1 in
  check Alcotest.bool "serializable" false (Analysis.Runner.violating r2);
  check Alcotest.int "all events" 10 r2.events_fed

let test_runner_timeout () =
  (* A deliberately slow checker on a trace long enough to cross the
     4096-event timeout check boundary. *)
  let tr =
    Trace.of_events (List.init 10_000 (fun i -> Event.read 0 (i mod 3)))
  in
  let r = Analysis.Runner.run ~timeout:0.005 slow_checker tr in
  check Alcotest.bool "timed out" true (r.outcome = Analysis.Runner.Timed_out);
  check Alcotest.bool "partial progress" true
    (r.events_fed > 0 && r.events_fed < 10_000)

let test_speedup () =
  let mk outcome seconds =
    {
      Analysis.Runner.checker = "x";
      outcome;
      seconds;
      events_fed = 0;
      metrics = Obs.Snapshot.empty;
    }
  in
  let fin = mk (Analysis.Runner.Verdict None) in
  check (Alcotest.option (Alcotest.float 0.001)) "ratio" (Some 4.0)
    (Analysis.Runner.speedup ~baseline:(fin 8.0) (fin 2.0));
  check (Alcotest.option (Alcotest.float 0.001)) "both TO" None
    (Analysis.Runner.speedup
       ~baseline:(mk Analysis.Runner.Timed_out 5.0)
       (mk Analysis.Runner.Timed_out 5.0))

(* --- Report --- *)

let test_humanize () =
  check Alcotest.string "zero" "0" (Analysis.Report.humanize 0);
  check Alcotest.string "small" "640" (Analysis.Report.humanize 640);
  check Alcotest.string "1000 stays plain" "1000" (Analysis.Report.humanize 1000);
  check Alcotest.string "9999" "9999" (Analysis.Report.humanize 9999);
  check Alcotest.string "first K" "10K" (Analysis.Report.humanize 10_000);
  check Alcotest.string "K" "22.6K" (Analysis.Report.humanize 22_600);
  check Alcotest.string "round K" "280K" (Analysis.Report.humanize 280_000);
  check Alcotest.string "exact M" "1M" (Analysis.Report.humanize 1_000_000);
  check Alcotest.string "M" "1.2M" (Analysis.Report.humanize 1_200_000);
  check Alcotest.string "exact B" "1B" (Analysis.Report.humanize 1_000_000_000);
  check Alcotest.string "B" "2.4B" (Analysis.Report.humanize 2_400_000_000);
  (* negative counts never reach the unit branches *)
  check Alcotest.string "negative" "-5" (Analysis.Report.humanize (-5))

let test_time_string () =
  check Alcotest.string "TO" "TO" (Analysis.Report.time_string (Analysis.Report.Timeout 5.0));
  check Alcotest.string "TO ignores budget" "TO"
    (Analysis.Report.time_string (Analysis.Report.Timeout 0.0));
  check Alcotest.string "ms" "250ms" (Analysis.Report.time_string (Analysis.Report.Time 0.25));
  check Alcotest.string "just under 1s" "999ms"
    (Analysis.Report.time_string (Analysis.Report.Time 0.999));
  check Alcotest.string "exact 1s" "1.00s"
    (Analysis.Report.time_string (Analysis.Report.Time 1.0));
  check Alcotest.string "s" "1.50s" (Analysis.Report.time_string (Analysis.Report.Time 1.5));
  check Alcotest.string "tiny" "<1ms" (Analysis.Report.time_string (Analysis.Report.Time 0.0001));
  check Alcotest.string "zero" "<1ms" (Analysis.Report.time_string (Analysis.Report.Time 0.0))

let sample_row velodrome aerodrome =
  {
    Analysis.Report.name = "x";
    events = 10;
    threads = 2;
    locks = 1;
    variables = 3;
    transactions = 4;
    atomic = true;
    velodrome;
    aerodrome;
    paper = None;
  }

let test_speedup_string () =
  let open Analysis.Report in
  check Alcotest.string "ratio" "4.00"
    (speedup_string (sample_row (Time 8.0) (Time 2.0)));
  check Alcotest.string "baseline TO" "> 100"
    (speedup_string (sample_row (Timeout 5.0) (Time 0.05)));
  check Alcotest.string "both TO" "-"
    (speedup_string (sample_row (Timeout 5.0) (Timeout 5.0)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_render_smoke () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Report.render_table ppf ~title:"T"
    [ sample_row (Analysis.Report.Time 1.0) (Analysis.Report.Time 0.5) ];
  Analysis.Report.render_comparison ppf ~title:"C"
    [ sample_row (Analysis.Report.Timeout 5.0) (Analysis.Report.Time 0.5) ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check Alcotest.bool "has header" true
    (String.length s > 0
    && String.starts_with ~prefix:"T" s
    && contains s "Velodrome" && contains s "Paper speedup");
  let buf2 = Buffer.create 256 in
  let ppf2 = Format.formatter_of_buffer buf2 in
  Analysis.Report.render_markdown ppf2 ~title:"M"
    [ sample_row (Analysis.Report.Time 1.0) (Analysis.Report.Time 0.5) ];
  Format.pp_print_flush ppf2 ();
  let md = Buffer.contents buf2 in
  check Alcotest.bool "markdown shape" true
    (String.starts_with ~prefix:"## M" md && contains md "| --- |"
    && contains md "| x |")

let suite =
  ( "analysis",
    [
      Alcotest.test_case "metainfo rho4" `Quick test_metainfo_rho4;
      Alcotest.test_case "metainfo nesting" `Quick test_metainfo_nested;
      Alcotest.test_case "metainfo sync" `Quick test_metainfo_sync;
      Alcotest.test_case "runner verdicts" `Quick test_runner_verdicts;
      Alcotest.test_case "runner timeout" `Quick test_runner_timeout;
      Alcotest.test_case "speedup" `Quick test_speedup;
      Alcotest.test_case "humanize" `Quick test_humanize;
      Alcotest.test_case "time strings" `Quick test_time_string;
      Alcotest.test_case "speedup strings" `Quick test_speedup_string;
      Alcotest.test_case "render" `Quick test_render_smoke;
    ]
    @ Helpers.qcheck_tests [ prop_metainfo_consistent ] )
