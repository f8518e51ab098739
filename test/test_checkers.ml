(* Differential and behavioural tests of the online checkers.

   The oracle is the offline pairwise-conflict reference (Definition 1).
   On complete traces — all transactions closed — Theorem 3 makes every
   AeroDrome variant's verdict coincide with the oracle's; Velodrome
   coincides unconditionally. *)

open Traces

let check = Alcotest.check

(* --- scenario verdicts across every checker --- *)

let test_scenarios_all_checkers () =
  List.iter
    (fun (name, tr, expected) ->
      let expected = expected = `Violating in
      check Alcotest.bool ("reference/" ^ name) expected
        (Helpers.reference_violating tr);
      List.iter
        (fun (cname, checker) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s" cname name)
            expected (Helpers.verdict checker tr))
        Helpers.online_checkers)
    Workloads.Scenarios.all

(* --- the three Algorithm 3 pseudocode deviations (regressions) --- *)

let test_faithful_unary_false_positive () =
  let tr = Workloads.Scenarios.unary_flush_false_positive in
  check Alcotest.bool "serializable per oracle" false (Helpers.reference_violating tr);
  check Alcotest.bool "fixed checker agrees" false
    (Helpers.verdict (module Aerodrome.Opt) tr);
  check Alcotest.bool "printed pseudocode reports spuriously" true
    (Helpers.verdict Aerodrome.Opt.faithful_checker tr)

let test_faithful_gc_miss () =
  let tr = Workloads.Scenarios.gc_clock_equality_miss in
  check Alcotest.bool "violating per oracle" true (Helpers.reference_violating tr);
  check Alcotest.bool "fixed checker detects" true
    (Helpers.verdict (module Aerodrome.Opt) tr);
  check Alcotest.bool "printed pseudocode misses" false
    (Helpers.verdict Aerodrome.Opt.faithful_checker tr)

let test_faithful_transitive_miss () =
  let tr = Workloads.Scenarios.transitive_update_miss in
  check Alcotest.bool "violating per oracle" true (Helpers.reference_violating tr);
  check Alcotest.bool "fixed checker detects" true
    (Helpers.verdict (module Aerodrome.Opt) tr);
  check Alcotest.bool "basic detects" true
    (Helpers.verdict (module Aerodrome.Basic) tr);
  check Alcotest.bool "printed pseudocode misses" false
    (Helpers.verdict Aerodrome.Opt.faithful_checker tr)

(* --- freeze-at-first-violation semantics --- *)

let test_freeze () =
  List.iter
    (fun (name, (module C : Aerodrome.Checker.S)) ->
      let tr = Workloads.Scenarios.rho2 in
      let st = C.create ~threads:2 ~locks:0 ~vars:2 in
      let first = ref None in
      Trace.iter
        (fun e ->
          match (C.feed_packed st (Packed.of_event e), !first) with
          | Some v, None -> first := Some v
          | Some v, Some v0 ->
            check Alcotest.bool (name ^ ": same violation") true
              (Aerodrome.Violation.same_event v v0)
          | None, Some _ -> Alcotest.failf "%s: violation forgotten" name
          | None, None -> ())
        tr;
      check Alcotest.bool (name ^ ": found") true (Option.is_some !first);
      check Alcotest.bool (name ^ ": stored") true (Option.is_some (C.violation st)))
    Helpers.online_checkers

let test_processed_counts () =
  let tr = Workloads.Scenarios.rho1 in
  let (module C : Aerodrome.Checker.S) = (module Aerodrome.Opt) in
  let st = C.create ~threads:3 ~locks:0 ~vars:3 in
  Trace.iter (fun e -> ignore (C.feed_packed st (Packed.of_event e))) tr;
  check Alcotest.int "all processed" (Trace.length tr) (C.processed st);
  (* frozen checkers stop counting *)
  let st2 = C.create ~threads:2 ~locks:0 ~vars:2 in
  Trace.iter (fun e -> ignore (C.feed_packed st2 (Packed.of_event e))) Workloads.Scenarios.rho2;
  check Alcotest.int "frozen at violation" 6 (C.processed st2)

(* --- differential properties on random complete traces --- *)

let verdicts_agree tr =
  let expected = Helpers.reference_violating tr in
  List.for_all
    (fun (_, checker) -> Helpers.verdict checker tr = expected)
    Helpers.online_checkers

let prop_verdict_agreement =
  QCheck.Test.make ~name:"all checkers agree with the oracle (complete traces)"
    ~count:400
    (Helpers.arb_trace ~threads:3 ~locks:2 ~vars:3 ~max_len:50 ())
    verdicts_agree

let prop_verdict_agreement_forkful =
  QCheck.Test.make ~name:"agreement with forks and joins" ~count:300
    (Helpers.arb_trace ~threads:5 ~locks:1 ~vars:2 ~max_len:80 ())
    verdicts_agree

let prop_verdict_agreement_locky =
  QCheck.Test.make ~name:"agreement on lock-heavy traces" ~count:300
    (Helpers.arb_trace ~threads:3 ~locks:3 ~vars:1 ~max_len:70 ())
    verdicts_agree

let prop_basic_reduced_same_index =
  QCheck.Test.make ~name:"Algorithm 1 and 2 report the same event" ~count:300
    (Helpers.arb_trace ~threads:3 ~locks:2 ~vars:3 ~max_len:60 ())
    (fun tr ->
      Helpers.violation_index (module Aerodrome.Basic) tr
      = Helpers.violation_index (module Aerodrome.Reduced) tr)

let prop_opt_fast_slow_same_index =
  QCheck.Test.make ~name:"epoch shortcut does not change the detection point"
    ~count:300
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:3 ~max_len:60 ())
    (fun tr ->
      Helpers.violation_index (module Aerodrome.Opt) tr
      = Helpers.violation_index Aerodrome.Opt.slow_checker tr)

(* Soundness on incomplete traces: a checker may miss (Theorem 3 only
   promises witnesses with at most one active transaction) but must never
   report a violation on a serializable prefix. *)
let prop_no_false_positives_on_prefixes =
  QCheck.Test.make ~name:"no false positives on incomplete traces" ~count:300
    (Helpers.arb_trace ~threads:3 ~locks:2 ~vars:3 ~max_len:50 ~complete:false ())
    (fun tr ->
      List.for_all
        (fun (_, checker) ->
          (not (Helpers.verdict checker tr)) || Helpers.reference_violating tr)
        Helpers.online_checkers)

(* Monotonicity: the prefix up to (and including) the reported event is
   already violating per the oracle, and the prefix just before it is where
   the checker saw no problem. *)
let prop_detection_point_is_violating =
  QCheck.Test.make ~name:"the reported prefix is violating per the oracle"
    ~count:200
    (Helpers.arb_trace ~threads:3 ~locks:2 ~vars:3 ~max_len:50 ())
    (fun tr ->
      match Helpers.violation_index (module Aerodrome.Opt) tr with
      | None -> true
      | Some i -> Helpers.reference_violating (Trace.prefix tr (i + 1)))

let suite =
  ( "checkers",
    [
      Alcotest.test_case "scenario verdicts" `Quick test_scenarios_all_checkers;
      Alcotest.test_case "deviation: unary flush false positive" `Quick
        test_faithful_unary_false_positive;
      Alcotest.test_case "deviation: GC clock-equality miss" `Quick
        test_faithful_gc_miss;
      Alcotest.test_case "deviation: transitive update-set miss" `Quick
        test_faithful_transitive_miss;
      Alcotest.test_case "freeze at first violation" `Quick test_freeze;
      Alcotest.test_case "processed counts" `Quick test_processed_counts;
    ]
    @ Helpers.qcheck_tests
        [
          prop_verdict_agreement;
          prop_verdict_agreement_forkful;
          prop_verdict_agreement_locky;
          prop_basic_reduced_same_index;
          prop_opt_fast_slow_same_index;
          prop_no_false_positives_on_prefixes;
          prop_detection_point_is_violating;
        ] )
