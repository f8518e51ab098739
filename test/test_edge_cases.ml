(* Edge cases across the checkers: degenerate domains, deep nesting,
   re-entrant locks, immediate violations, lazy-state introspection. *)

open Traces

let check = Alcotest.check

let test_empty_trace () =
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name false (Helpers.verdict checker Trace.empty))
    Helpers.online_checkers

let test_single_thread_never_violates () =
  (* one thread alone is always serializable, whatever it does *)
  let tr =
    Trace.of_events
      [
        Event.begin_ 0;
        Event.acquire 0 0;
        Event.write 0 0;
        Event.release 0 0;
        Event.end_ 0;
        Event.read 0 0;
        Event.begin_ 0;
        Event.read 0 0;
        Event.write 0 1;
        Event.end_ 0;
      ]
  in
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name false (Helpers.verdict checker tr))
    Helpers.online_checkers

let test_zero_domains () =
  (* creating checkers for empty domains must not crash *)
  List.iter
    (fun (_, (module C : Aerodrome.Checker.S)) ->
      let st = C.create ~threads:0 ~locks:0 ~vars:0 in
      check Alcotest.int "no events" 0 (C.processed st))
    Helpers.online_checkers

let test_open_transaction_at_eof () =
  let tr = Trace.of_events [ Event.begin_ 0; Event.write 0 0 ] in
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name false (Helpers.verdict checker tr))
    Helpers.online_checkers

let test_deep_nesting () =
  (* rho2's violation under 5 levels of nesting on each side *)
  let b = Trace.Builder.create () in
  for _ = 1 to 5 do
    Trace.Builder.begin_ b 0
  done;
  for _ = 1 to 5 do
    Trace.Builder.begin_ b 1
  done;
  Trace.Builder.write b 0 ~var:0;
  Trace.Builder.read b 1 ~var:0;
  Trace.Builder.write b 1 ~var:1;
  Trace.Builder.read b 0 ~var:1;
  for _ = 1 to 5 do
    Trace.Builder.end_ b 0
  done;
  for _ = 1 to 5 do
    Trace.Builder.end_ b 1
  done;
  let tr = Trace.Builder.build b in
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name true (Helpers.verdict checker tr))
    Helpers.online_checkers

let test_reentrant_locks_in_transactions () =
  (* re-entrant acquires do not confuse the lock clocks *)
  let tr =
    Trace.of_events
      [
        Event.begin_ 0;
        Event.acquire 0 0;
        Event.acquire 0 0;
        Event.write 0 0;
        Event.release 0 0;
        Event.release 0 0;
        Event.end_ 0;
        Event.begin_ 1;
        Event.acquire 1 0;
        Event.read 1 0;
        Event.release 1 0;
        Event.end_ 1;
      ]
  in
  check Alcotest.bool "wellformed" true (Wellformed.is_wellformed tr);
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name false (Helpers.verdict checker tr))
    Helpers.online_checkers

let test_earliest_possible_violation () =
  (* the violating access is the very first event after the begins *)
  let tr =
    Trace.of_events
      [
        Event.begin_ 0;
        Event.write 0 0;
        Event.begin_ 1;
        Event.read 1 0;
        Event.write 1 0;
        Event.read 0 0;
        Event.end_ 0;
        Event.end_ 1;
      ]
  in
  check Alcotest.bool "violating" true (Helpers.reference_violating tr);
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name true (Helpers.verdict checker tr))
    Helpers.online_checkers

let test_opt_lazy_state_introspection () =
  let st = Aerodrome.Opt.create ~threads:2 ~locks:0 ~vars:3 in
  (* thread 1 opens a transaction and writes y; thread 0's transaction
     reads y (so it knows thread 1's active begin and will be kept) and
     writes x lazily *)
  ignore (Aerodrome.Opt.feed st (Event.begin_ 1));
  ignore (Aerodrome.Opt.feed st (Event.write 1 1));
  ignore (Aerodrome.Opt.feed st (Event.begin_ 0));
  check Alcotest.bool "in txn" true (Aerodrome.Opt.in_transaction st 0);
  ignore (Aerodrome.Opt.feed st (Event.read 0 1));
  ignore (Aerodrome.Opt.feed st (Event.write 0 0));
  check Alcotest.bool "stale after write in txn" true
    (Aerodrome.Opt.write_is_stale st 0);
  check (Alcotest.option Alcotest.int) "last writer" (Some 0)
    (Aerodrome.Opt.last_writer st 0);
  ignore (Aerodrome.Opt.feed st (Event.end_ 0));
  check Alcotest.bool "materialized at end" false
    (Aerodrome.Opt.write_is_stale st 0);
  check Alcotest.bool "W_x now carries the txn" true
    (Vclock.Vtime.get (Aerodrome.Opt.write_clock st 0) 0 >= 2)

let test_opt_gc_skips_materialization () =
  (* with no other active transaction the completing transaction is
     collected: the lazy W_x is dropped, soundly, rather than
     materialized *)
  let st = Aerodrome.Opt.create ~threads:2 ~locks:0 ~vars:1 in
  ignore (Aerodrome.Opt.feed st (Event.begin_ 0));
  ignore (Aerodrome.Opt.feed st (Event.write 0 0));
  ignore (Aerodrome.Opt.feed st (Event.end_ 0));
  check Alcotest.bool "not stale" false (Aerodrome.Opt.write_is_stale st 0);
  check (Alcotest.option Alcotest.int) "writer forgotten" None
    (Aerodrome.Opt.last_writer st 0);
  check Alcotest.bool "W_x still bottom" true
    (Vclock.Vtime.equal
       (Aerodrome.Opt.write_clock st 0)
       (Vclock.Vtime.bottom 2))

let test_unary_write_not_stale () =
  let st = Aerodrome.Opt.create ~threads:2 ~locks:0 ~vars:1 in
  ignore (Aerodrome.Opt.feed st (Event.write 0 0));
  check Alcotest.bool "eager for unary" false
    (Aerodrome.Opt.write_is_stale st 0)

(* Opt, 5 microseconds slower per event: the first 4096-event deadline
   checkpoint lands well past a 10 ms budget *)
module Slow_opt = struct
  include Aerodrome.Opt

  let feed_packed st w =
    let until = Unix.gettimeofday () +. 5e-6 in
    while Unix.gettimeofday () < until do
      ()
    done;
    Aerodrome.Opt.feed_packed st w
end

let test_mmap_timeout () =
  (* the deadline branch of the packed feed loop over a mapped binary
     file: the run stops mid-stream *)
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 20_000 }
  in
  let path = Filename.temp_file "aerodrome_timeout" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binfmt.write_file path tr;
      let r =
        Analysis.Runner.run_stream ~timeout:0.01 (module Slow_opt) path
      in
      check Alcotest.bool "timed out" true
        (r.outcome = Analysis.Runner.Timed_out);
      check Alcotest.bool "stopped mid-stream" true
        (0 < r.events_fed && r.events_fed < Trace.length tr))

let test_fork_into_running_checker () =
  (* forks of threads that then perform no events must not break clocks *)
  let tr = Trace.of_events [ Event.fork 0 1; Event.write 0 0; Event.join 0 1 ] in
  List.iter
    (fun (name, checker) ->
      check Alcotest.bool name false (Helpers.verdict checker tr))
    Helpers.online_checkers

let suite =
  ( "edge-cases",
    [
      Alcotest.test_case "empty trace" `Quick test_empty_trace;
      Alcotest.test_case "single thread" `Quick test_single_thread_never_violates;
      Alcotest.test_case "zero domains" `Quick test_zero_domains;
      Alcotest.test_case "open transaction at eof" `Quick test_open_transaction_at_eof;
      Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      Alcotest.test_case "re-entrant locks" `Quick test_reentrant_locks_in_transactions;
      Alcotest.test_case "earliest violation" `Quick test_earliest_possible_violation;
      Alcotest.test_case "opt lazy-state introspection" `Quick
        test_opt_lazy_state_introspection;
      Alcotest.test_case "opt gc skips materialization" `Quick
        test_opt_gc_skips_materialization;
      Alcotest.test_case "unary writes eager" `Quick test_unary_write_not_stale;
      Alcotest.test_case "mmap timeout" `Quick test_mmap_timeout;
      Alcotest.test_case "fork then nothing" `Quick test_fork_into_running_checker;
    ] )
