(* The paper's running examples: verdicts for every checker, detection
   points, and step-by-step clock evolutions of Figures 5, 6 and 7. *)

open Traces
module VT = Vclock.Vtime

let check = Alcotest.check
let vt = Helpers.vtime

let expect_violation_at checker tr index name =
  match Aerodrome.Checker.run checker tr with
  | None -> Alcotest.failf "%s: expected a violation" name
  | Some v ->
    check Alcotest.int (name ^ ": index") index (v.Aerodrome.Violation.index + 1)

let expect_serializable checker tr name =
  match Aerodrome.Checker.run checker tr with
  | None -> ()
  | Some v ->
    Alcotest.failf "%s: unexpected violation at %d" name
      (v.Aerodrome.Violation.index + 1)

let test_rho1 () =
  List.iter
    (fun (name, checker) ->
      expect_serializable checker Workloads.Scenarios.rho1 ("rho1/" ^ name))
    Helpers.online_checkers

let test_rho2 () =
  (* Every algorithm detects rho2 exactly at e6, the r(y) of t1. *)
  List.iter
    (fun (name, checker) ->
      expect_violation_at checker Workloads.Scenarios.rho2 6 ("rho2/" ^ name))
    Helpers.online_checkers

let test_rho3 () =
  (* Algorithm 1 and 2 detect rho3 at the end event e7 (Section 4.2);
     the optimized variant and Velodrome see the cycle one event earlier,
     at e6, through the live clock of the still-open transaction. *)
  expect_violation_at (module Aerodrome.Basic) Workloads.Scenarios.rho3 7 "rho3/basic";
  expect_violation_at (module Aerodrome.Reduced) Workloads.Scenarios.rho3 7 "rho3/reduced";
  expect_violation_at (module Aerodrome.Opt) Workloads.Scenarios.rho3 6 "rho3/opt";
  expect_violation_at (module Velodrome.Online) Workloads.Scenarios.rho3 6 "rho3/velodrome"

let test_rho4 () =
  List.iter
    (fun (name, checker) ->
      expect_violation_at checker Workloads.Scenarios.rho4 11 ("rho4/" ^ name))
    Helpers.online_checkers

let test_rho1_transactions () =
  (* T3 ⋖ T1 ⋖ T2 in the reference transaction graph; serial order exists. *)
  let g = Velodrome.Reference.transaction_graph Workloads.Scenarios.rho1 in
  check Alcotest.bool "acyclic" true (Digraphs.Scc.is_acyclic g);
  (* txn ids in discovery order: T1 = 0, T2 = 1, T3 = 2 *)
  check Alcotest.bool "T1 before T2" true (Digraphs.Digraph.mem_edge g 0 1);
  check Alcotest.bool "T3 before T1" true (Digraphs.Digraph.mem_edge g 2 0)

(* Figure 5: AeroDrome's clocks on rho2, replayed on Algorithm 1. *)
let test_figure5_clocks () =
  let tr = Workloads.Scenarios.rho2 in
  let st = Aerodrome.Basic.create ~threads:2 ~locks:0 ~vars:2 in
  let feed i = Aerodrome.Basic.feed_packed st (Packed.of_event (Trace.get tr (i - 1))) in
  let t1 = 0 and t2 = 1 and x = 0 and y = 1 in
  ignore (feed 1);
  check vt "C_t1 after e1" (VT.of_list [ 2; 0 ]) (Aerodrome.Basic.thread_clock st t1);
  ignore (feed 2);
  check vt "C_t2 after e2" (VT.of_list [ 0; 2 ]) (Aerodrome.Basic.thread_clock st t2);
  check vt "C⊲_t1" (VT.of_list [ 2; 0 ]) (Aerodrome.Basic.begin_clock st t1);
  check vt "C⊲_t2" (VT.of_list [ 0; 2 ]) (Aerodrome.Basic.begin_clock st t2);
  ignore (feed 3);
  check vt "W_x after e3" (VT.of_list [ 2; 0 ]) (Aerodrome.Basic.write_clock st x);
  ignore (feed 4);
  check vt "C_t2 after e4" (VT.of_list [ 2; 2 ]) (Aerodrome.Basic.thread_clock st t2);
  ignore (feed 5);
  check vt "W_y after e5" (VT.of_list [ 2; 2 ]) (Aerodrome.Basic.write_clock st y);
  match feed 6 with
  | Some v ->
    check Alcotest.bool "site is read-vs-write" true
      (v.Aerodrome.Violation.site = Aerodrome.Violation.At_read)
  | None -> Alcotest.fail "expected violation at e6"

(* Figure 6: rho3 — no violation before e7, then detected at the end. *)
let test_figure6_clocks () =
  let tr = Workloads.Scenarios.rho3 in
  let st = Aerodrome.Basic.create ~threads:2 ~locks:0 ~vars:2 in
  let feed i = Aerodrome.Basic.feed_packed st (Packed.of_event (Trace.get tr (i - 1))) in
  let t1 = 0 and t2 = 1 and x = 0 and y = 1 in
  for i = 1 to 4 do
    check Alcotest.bool "no early violation" true (feed i = None)
  done;
  check vt "W_x" (VT.of_list [ 2; 0 ]) (Aerodrome.Basic.write_clock st x);
  check vt "W_y" (VT.of_list [ 0; 2 ]) (Aerodrome.Basic.write_clock st y);
  check Alcotest.bool "e5 passes" true (feed 5 = None);
  check vt "C_t1 after e5" (VT.of_list [ 2; 2 ]) (Aerodrome.Basic.thread_clock st t1);
  check Alcotest.bool "e6 passes" true (feed 6 = None);
  check vt "C_t2 after e6" (VT.of_list [ 2; 2 ]) (Aerodrome.Basic.thread_clock st t2);
  match feed 7 with
  | Some v ->
    check Alcotest.bool "detected at end vs t2" true
      (v.Aerodrome.Violation.site = Aerodrome.Violation.At_end (Ids.Tid.of_int t2))
  | None -> Alcotest.fail "expected violation at e7"

(* Figure 7: rho4 — the end event of T2 propagates into W_y, so T3 later
   inherits T1's knowledge through y. *)
let test_figure7_clocks () =
  let tr = Workloads.Scenarios.rho4 in
  let st = Aerodrome.Basic.create ~threads:3 ~locks:0 ~vars:3 in
  let feed i = Aerodrome.Basic.feed_packed st (Packed.of_event (Trace.get tr (i - 1))) in
  let t2 = 1 and t3 = 2 and y = 1 and z = 2 in
  for i = 1 to 5 do
    ignore (feed i)
  done;
  check vt "C_t2 after e5" (VT.of_list [ 2; 2; 0 ]) (Aerodrome.Basic.thread_clock st t2);
  check vt "W_y before e6" (VT.of_list [ 0; 2; 0 ]) (Aerodrome.Basic.write_clock st y);
  ignore (feed 6);
  (* end of T2: W_y is ordered after C⊲_t2, so it absorbs C_t2 *)
  check vt "W_y after e6" (VT.of_list [ 2; 2; 0 ]) (Aerodrome.Basic.write_clock st y);
  ignore (feed 7);
  check vt "C_t3 after e7" (VT.of_list [ 0; 0; 2 ]) (Aerodrome.Basic.thread_clock st t3);
  ignore (feed 8);
  check vt "C_t3 after e8" (VT.of_list [ 2; 2; 2 ]) (Aerodrome.Basic.thread_clock st t3);
  ignore (feed 9);
  check vt "W_z after e9" (VT.of_list [ 2; 2; 2 ]) (Aerodrome.Basic.write_clock st z);
  ignore (feed 10);
  match feed 11 with
  | Some v ->
    check Alcotest.int "violation at e11" 11 (v.Aerodrome.Violation.index + 1)
  | None -> Alcotest.fail "expected violation at e11"

(* Example 5's prefix observations, via the reference oracle: σ6 of rho3 is
   still serializable (both transactions active), the full trace is not. *)
let test_example5_prefixes () =
  let tr = Workloads.Scenarios.rho3 in
  check Alcotest.bool "sigma6 serializable as a graph?" false
    (Velodrome.Reference.is_serializable (Trace.prefix tr 6));
  (* the cycle already exists in the prefix; AeroDrome however may only
     report it once a transaction completes (Theorem 3) *)
  check Alcotest.bool "basic reports nothing on sigma6" true
    (Aerodrome.Checker.run (module Aerodrome.Basic) (Trace.prefix tr 6) = None);
  check Alcotest.bool "basic reports on sigma7" false
    (Aerodrome.Checker.run (module Aerodrome.Basic) (Trace.prefix tr 7) = None)

let suite =
  ( "paper-traces",
    [
      Alcotest.test_case "rho1 serializable" `Quick test_rho1;
      Alcotest.test_case "rho2 violation at e6" `Quick test_rho2;
      Alcotest.test_case "rho3 violation at end" `Quick test_rho3;
      Alcotest.test_case "rho4 violation at e11" `Quick test_rho4;
      Alcotest.test_case "rho1 transaction graph" `Quick test_rho1_transactions;
      Alcotest.test_case "figure 5 clock evolution" `Quick test_figure5_clocks;
      Alcotest.test_case "figure 6 clock evolution" `Quick test_figure6_clocks;
      Alcotest.test_case "figure 7 clock evolution" `Quick test_figure7_clocks;
      Alcotest.test_case "example 5 prefixes" `Quick test_example5_prefixes;
    ] )
