(* State reclamation must be invisible: with a last-use oracle or the
   inactivity heuristic, every checker's verdict, violation index and
   metric counters match the keep-everything run.  The only admissible
   difference is the bookkeeping reclamation itself introduces (the
   pool/reclaim probes, the heap gauge) and — for the Basic and Reduced
   end-of-transaction scans under an oracle — *fewer* counted vector
   joins, since refreshing a released variable's clocks is exactly the
   dead work reclamation eliminates. *)

open Traces

let check = Alcotest.check

module type CHECKER = sig
  type t

  val create : threads:int -> locks:int -> vars:int -> t
  val feed_packed : t -> int -> Aerodrome.Violation.t option
  val violation : t -> Aerodrome.Violation.t option
  val metrics : t -> Obs.Snapshot.t
end

let checkers : (string * (module CHECKER)) list =
  [
    ("opt", (module Aerodrome.Opt));
    ("reduced", (module Aerodrome.Reduced));
    ("basic", (module Aerodrome.Basic));
  ]

(* Per-checker counters, minus the entries only reclaiming runs carry. *)
let filtered (m : Obs.Snapshot.t) =
  List.filter
    (fun (e : Obs.Snapshot.entry) ->
      not
        (String.starts_with ~prefix:"pool." e.Obs.Snapshot.name
        || String.starts_with ~prefix:"reclaim." e.Obs.Snapshot.name
        || String.starts_with ~prefix:"heap." e.Obs.Snapshot.name))
    m

let without_joins (m : Obs.Snapshot.t) =
  List.filter
    (fun (e : Obs.Snapshot.entry) -> e.Obs.Snapshot.name <> "vc.joins")
    m

let joins m = Option.value ~default:0 (Obs.Snapshot.get_int m "vc.joins")

let run_with policy (module C : CHECKER) (tr : Trace.t) =
  let st =
    Aerodrome.Reclaim.with_policy policy (fun () ->
        C.create ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
          ~vars:(Trace.vars tr))
  in
  Trace.iter (fun e -> ignore (C.feed_packed st (Packed.of_event e))) tr;
  ( Option.map
      (fun v -> v.Aerodrome.Violation.index)
      (C.violation st),
    C.metrics st )

let with_obs body =
  let was_on = Obs.on () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if was_on then Obs.enable () else Obs.disable ())
    body

(* >= 500 random corpus traces x 3 checkers x {off, oracle, inactivity}. *)
let test_differential () =
  with_obs (fun () ->
      let corpus =
        Workloads.Corpus.generate ~traces:500 ~events_total:200_000 ()
      in
      List.iter
        (fun (tname, tr) ->
          let oracle = Aerodrome.Reclaim.Oracle (Lifetime.of_trace tr) in
          let inactivity = Aerodrome.Reclaim.Inactivity { horizon = 64 } in
          List.iter
            (fun (cname, checker) ->
              let where = tname ^ "/" ^ cname in
              let v_off, m_off = run_with Aerodrome.Reclaim.Off checker tr in
              let v_or, m_or = run_with oracle checker tr in
              let v_in, m_in = run_with inactivity checker tr in
              check
                Alcotest.(option int)
                (where ^ ": oracle verdict") v_off v_or;
              check
                Alcotest.(option int)
                (where ^ ": inactivity verdict") v_off v_in;
              let f_off = filtered m_off in
              check Alcotest.bool
                (where ^ ": inactivity counters identical")
                true
                (f_off = filtered m_in);
              if cname = "opt" then
                check Alcotest.bool
                  (where ^ ": oracle counters identical")
                  true
                  (f_off = filtered m_or)
              else begin
                check Alcotest.bool
                  (where ^ ": oracle counters identical sans joins")
                  true
                  (without_joins f_off = without_joins (filtered m_or));
                check Alcotest.bool
                  (where ^ ": oracle never adds joins")
                  true
                  (joins m_or <= joins m_off)
              end)
            checkers)
        corpus)

(* The runner threads the policy end to end: materialized runs compute
   the oracle themselves, binary streams read it from the v2 footer. *)
let test_runner_paths () =
  with_obs (fun () ->
      let fingerprint (r : Analysis.Runner.result) =
        ( (match r.Analysis.Runner.outcome with
          | Analysis.Runner.Verdict (Some v) ->
            Some v.Aerodrome.Violation.index
          | _ -> None),
          r.Analysis.Runner.events_fed )
      in
      List.iter
        (fun (tname, tr) ->
          let off =
            Analysis.Runner.run ~reclaim:false (module Aerodrome.Opt) tr
          in
          let on_ = Analysis.Runner.run (module Aerodrome.Opt) tr in
          check Alcotest.bool (tname ^ ": materialized") true
            (fingerprint off = fingerprint on_);
          let path = Filename.temp_file "aerodrome_reclaim" ".bin" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Binfmt.write_file path tr;
              let s_off =
                Analysis.Runner.run_stream ~reclaim:false
                  (module Aerodrome.Opt)
                  path
              in
              let s_on =
                Analysis.Runner.run_stream (module Aerodrome.Opt) path
              in
              check Alcotest.bool (tname ^ ": streamed") true
                (fingerprint s_off = fingerprint s_on
                && fingerprint s_on = fingerprint off)))
        (Workloads.Corpus.generate ~traces:8 ~events_total:24_000 ()))

(* The phased workload is where the oracle shines: every variable dies
   inside its phase, so the whole per-phase state is released. *)
let test_phased_reclaims_everything () =
  with_obs (fun () ->
      let tr = Workloads.Corpus.phased ~phases:8 ~events_total:40_000 () in
      let lt = Lifetime.of_trace tr in
      let touched = ref 0 in
      Array.iter
        (fun last -> if last <> Lifetime.never then incr touched)
        lt.Lifetime.vars;
      let _, m =
        run_with (Aerodrome.Reclaim.Oracle lt)
          (module Aerodrome.Opt : CHECKER)
          tr
      in
      check
        Alcotest.(option int)
        "every touched variable reclaimed" (Some !touched)
        (Obs.Snapshot.get_int m "reclaim.states"))

(* Reclamation's reason to exist: on the phased workload the oracle
   releases each phase's state before the next begins, so the checker's
   peak footprint — its reachable heap, sampled every 1024 events and at
   the end — stays strictly below the keep-everything run's. *)
let test_phased_peak_shrinks () =
  let tr = Workloads.Corpus.phased ~phases:8 ~events_total:40_000 () in
  let peak_words policy =
    let st =
      Aerodrome.Reclaim.with_policy policy (fun () ->
          Aerodrome.Opt.create ~threads:(Trace.threads tr)
            ~locks:(Trace.locks tr) ~vars:(Trace.vars tr))
    in
    let peak = ref 0 in
    let sample () = peak := max !peak (Obj.reachable_words (Obj.repr st)) in
    Trace.iteri
      (fun i e ->
        ignore (Aerodrome.Opt.feed_packed st (Packed.of_event e));
        if (i + 1) land 1023 = 0 then sample ())
      tr;
    sample ();
    !peak
  in
  let off = peak_words Aerodrome.Reclaim.Off in
  let oracle = peak_words (Aerodrome.Reclaim.Oracle (Lifetime.of_trace tr)) in
  if oracle >= off then
    Alcotest.failf "peak state %d words with the oracle, %d without" oracle off

(* The pool counters keep their meaning whether clocks go back to the
   pool one by one or, as in Opt, with their whole per-variable record:
   a record's three clocks count as three misses when it is fresh and
   three hits when it is reused.  Ten variables, each written once, die
   at their only access: the first needs a fresh record, the other nine
   reuse it. *)
let test_pool_counters () =
  let tr =
    Parser.parse_string_exn
      (String.concat "\n" (List.init 10 (fun x -> Printf.sprintf "T0|w(V%d)" x)))
  in
  List.iter
    (fun (cname, checker) ->
      if cname <> "basic" then begin
        let _, m =
          run_with (Aerodrome.Reclaim.Oracle (Lifetime.of_trace tr)) checker tr
        in
        let get k = Option.value ~default:(-1) (Obs.Snapshot.get_int m k) in
        check Alcotest.int (cname ^ ": reclaim.states") 10 (get "reclaim.states");
        check Alcotest.int (cname ^ ": pool.misses") 3 (get "pool.misses");
        check Alcotest.int (cname ^ ": pool.hits") 27 (get "pool.hits")
      end)
    checkers

let suite =
  ( "reclaim",
    [
      Alcotest.test_case "differential 500 traces" `Quick test_differential;
      Alcotest.test_case "runner paths" `Quick test_runner_paths;
      Alcotest.test_case "pool counters under record recycling" `Quick
        test_pool_counters;
      Alcotest.test_case "phased oracle reclaims all" `Quick
        test_phased_reclaims_everything;
      Alcotest.test_case "phased peak shrinks under the oracle" `Quick
        test_phased_peak_shrinks;
    ] )
