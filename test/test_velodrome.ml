(* Velodrome-specific behaviour: the transaction graph, garbage collection
   and the witness cycles it reports. *)

open Traces

let check = Alcotest.check

let test_witness_cycle_is_reported () =
  match Aerodrome.Checker.run (module Velodrome.Online) Workloads.Scenarios.rho4 with
  | Some { site = Aerodrome.Violation.Graph_cycle cycle; _ } ->
    check Alcotest.bool "nonempty" true (cycle <> []);
    check Alcotest.int "three transactions" 3 (List.length cycle)
  | Some _ -> Alcotest.fail "expected a graph-cycle witness"
  | None -> Alcotest.fail "expected a violation"

let test_gc_vs_nogc_agree () =
  List.iter
    (fun (name, tr, expected) ->
      let expected = expected = `Violating in
      check Alcotest.bool ("gc/" ^ name) expected
        (Helpers.verdict (module Velodrome.Online) tr);
      check Alcotest.bool ("nogc/" ^ name) expected
        (Helpers.verdict Velodrome.Online.no_gc_checker tr))
    Workloads.Scenarios.all

let run_introspect tr =
  let st = Velodrome.Online.create ~threads:(Trace.threads tr)
      ~locks:(Trace.locks tr) ~vars:(Trace.vars tr) in
  Trace.iter (fun e -> ignore (Velodrome.Online.feed_packed st (Packed.of_event e))) tr;
  st

let test_unary_chains_collapse () =
  (* A long same-thread run of unary events: GC deletes each node as soon
     as it completes, so the graph never grows. *)
  let tr =
    Trace.of_events (List.init 500 (fun i -> Event.write 0 (i mod 3)))
  in
  let st = run_introspect tr in
  check Alcotest.int "transactions created" 500
    (Velodrome.Online.transactions_created st);
  check Alcotest.bool "graph stays tiny" true (Velodrome.Online.peak_nodes st <= 3);
  check Alcotest.int "graph empty at the end" 0 (Velodrome.Online.live_nodes st)

let test_gc_disabled_retains () =
  let tr =
    Trace.of_events (List.init 100 (fun i -> Event.write 0 (i mod 3)))
  in
  let st =
    Velodrome.Online.create_with ~garbage_collect:false ~threads:1 ~locks:0
      ~vars:3 ()
  in
  Trace.iter (fun e -> ignore (Velodrome.Online.feed_packed st (Packed.of_event e))) tr;
  check Alcotest.int "all nodes retained" 100 (Velodrome.Online.live_nodes st)

let test_anchored_shape_defeats_gc () =
  (* The anchored workload pins the graph: completed transactions keep an
     incoming edge from a live anchor, so the graph grows with the trace. *)
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 4_000;
        threads = 6;
        vars = 2_000;
        shape = Workloads.Generator.Anchored;
      }
  in
  let st = run_introspect tr in
  check Alcotest.bool "graph grows into the hundreds" true
    (Velodrome.Online.peak_nodes st > 100)

let test_serial_chain_collapses () =
  (* strict token passing: every completed block's predecessor chain is
     eventually reclaimed, so the graph stays tiny *)
  let st = run_introspect Workloads.Scenarios.serial_chain in
  check Alcotest.bool "chain graph stays small" true
    (Velodrome.Online.peak_nodes st <= 6)

let test_independent_shape_collapses () =
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 4_000; threads = 6; vars = 2_000 }
  in
  let st = run_introspect tr in
  check Alcotest.bool "graph stays small" true
    (Velodrome.Online.peak_nodes st < 64)

let test_edge_counter () =
  (* With GC, T3 is collected before T1 reads z, so the T3 -> T1 edge is
     skipped (a collected transaction cannot be on a cycle); without GC
     both inter-transaction edges are recorded. *)
  let st = run_introspect Workloads.Scenarios.rho1 in
  check Alcotest.int "edges with gc" 1 (Velodrome.Online.edges_added st);
  check Alcotest.int "three block txns" 3 (Velodrome.Online.transactions_created st);
  let st' =
    Velodrome.Online.create_with ~garbage_collect:false ~threads:3 ~locks:0
      ~vars:3 ()
  in
  Trace.iter
    (fun e -> ignore (Velodrome.Online.feed_packed st' (Packed.of_event e)))
    Workloads.Scenarios.rho1;
  check Alcotest.int "edges without gc" 2 (Velodrome.Online.edges_added st')

(* The reference oracle vs a by-hand graph. *)
let test_reference_graph_rho2 () =
  let g = Velodrome.Reference.transaction_graph Workloads.Scenarios.rho2 in
  check Alcotest.int "two nodes" 2 (Digraphs.Digraph.num_nodes g);
  check Alcotest.bool "T0 -> T1" true (Digraphs.Digraph.mem_edge g 0 1);
  check Alcotest.bool "T1 -> T0" true (Digraphs.Digraph.mem_edge g 1 0);
  match Velodrome.Reference.check Workloads.Scenarios.rho2 with
  | Velodrome.Reference.Violation { witness } ->
    check Alcotest.int "witness length" 2 (List.length witness)
  | Velodrome.Reference.Serializable -> Alcotest.fail "expected violation"

let prop_gc_equals_nogc =
  QCheck.Test.make ~name:"garbage collection never changes the verdict"
    ~count:300
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:3 ~max_len:70 ~complete:false ())
    (fun tr ->
      Helpers.verdict (module Velodrome.Online) tr
      = Helpers.verdict Velodrome.Online.no_gc_checker tr)

let prop_velodrome_equals_reference_any_trace =
  QCheck.Test.make
    ~name:"online velodrome = offline oracle, even on incomplete traces"
    ~count:300
    (Helpers.arb_trace ~threads:3 ~locks:2 ~vars:3 ~max_len:60 ~complete:false ())
    (fun tr ->
      Helpers.verdict (module Velodrome.Online) tr = Helpers.reference_violating tr)

let suite =
  ( "velodrome",
    [
      Alcotest.test_case "witness cycle" `Quick test_witness_cycle_is_reported;
      Alcotest.test_case "gc/nogc verdicts" `Quick test_gc_vs_nogc_agree;
      Alcotest.test_case "unary chains collapse" `Quick test_unary_chains_collapse;
      Alcotest.test_case "gc disabled retains" `Quick test_gc_disabled_retains;
      Alcotest.test_case "anchored defeats gc" `Quick test_anchored_shape_defeats_gc;
      Alcotest.test_case "independent collapses" `Quick test_independent_shape_collapses;
      Alcotest.test_case "serial chain collapses" `Quick test_serial_chain_collapses;
      Alcotest.test_case "counters" `Quick test_edge_counter;
      Alcotest.test_case "reference graph rho2" `Quick test_reference_graph_rho2;
    ]
    @ Helpers.qcheck_tests
        [ prop_gc_equals_nogc; prop_velodrome_equals_reference_any_trace ] )
