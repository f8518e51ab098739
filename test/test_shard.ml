(* Sharded single-trace checking ({!Parallel.Shard} + {!Aerodrome.Merge})
   on the work-stealing scheduler: the differential matrix — sequential
   vs sharded runs must render byte-identical reports across shard
   counts, prefilter and reclaim settings — plus adversarial chunk
   boundaries driven through the
   [?cuts] test hook: cuts through open transactions (mid-transaction,
   between an open transaction's write and a racing read, fork/join
   spanning the boundary), which the planner now accepts with a
   boundary summary and the reconciliation repairs against the true
   frontier rather than rejecting into whole-chunk replay. *)

open Traces

let opt = (module Aerodrome.Opt : Aerodrome.Checker.S)

let arena_of tr =
  (* a small chunk size so multi-chunk arenas appear at test scale *)
  let a = Packed.Arena.create ~chunk_words:1024 () in
  Trace.iteri (fun _ e -> Packed.Arena.push a (Packed.of_event e)) tr;
  a

(* Without [sched], on a fresh two-domain scheduler. *)
let steal_check ?sched ?cuts ~shards tr =
  let check sched =
    Parallel.Shard.check_stealing ~sched ?cuts ~shards
      ~threads:(Trace.threads tr) ~locks:(Trace.locks tr) ~vars:(Trace.vars tr)
      (arena_of tr)
  in
  match sched with
  | Some sched -> check sched
  | None -> Parallel.Deque.with_scheduler 2 check

let seq_violation tr = Aerodrome.Checker.run (module Aerodrome.Opt) tr

let violating_trace ~seed ~threads ~at =
  Workloads.Generator.generate
    {
      Workloads.Generator.default with
      events = 1200;
      threads;
      seed = Int64.of_int seed;
      plan = Workloads.Generator.Violate_at at;
    }

let pp_violation ppf = function
  | None -> Format.pp_print_string ppf "serializable"
  | Some v ->
    Format.fprintf ppf "violation @%d (%s)" v.Aerodrome.Violation.index
      (Aerodrome.Violation.to_string v)

let violation =
  Alcotest.testable pp_violation (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some x, Some y ->
        x.Aerodrome.Violation.index = y.Aerodrome.Violation.index
        && x.Aerodrome.Violation.site = y.Aerodrome.Violation.site
      | _ -> false)

(* Recompute the quiescence predicate independently of Merge's scan:
   position [p] is quiescent iff no thread is inside a transaction
   after the first [p] events. *)
let quiescent_positions tr =
  let depth = Array.make (max 1 (Trace.threads tr)) 0 in
  let open_txns = ref 0 in
  let q = Hashtbl.create 64 in
  Hashtbl.replace q 0 ();
  Trace.iteri
    (fun i e ->
      let t = (Event.thread e :> int) in
      (match Event.op e with
      | Event.Begin ->
        if depth.(t) = 0 then incr open_txns;
        depth.(t) <- depth.(t) + 1
      | Event.End ->
        if depth.(t) > 0 then begin
          depth.(t) <- depth.(t) - 1;
          if depth.(t) = 0 then decr open_txns
        end
      | _ -> ());
      if !open_txns = 0 then Hashtbl.replace q (i + 1) ())
    tr;
  q

(* Per-thread transaction depth at position [p], recomputed
   independently of the planner. *)
let depths_at tr p =
  let depth = Array.make (max 1 (Trace.threads tr)) 0 in
  Trace.iteri
    (fun i e ->
      if i < p then
        let t = (Event.thread e :> int) in
        match Event.op e with
        | Event.Begin -> depth.(t) <- depth.(t) + 1
        | Event.End -> if depth.(t) > 0 then depth.(t) <- depth.(t) - 1
        | _ -> ())
    tr;
  depth

(* First position >= [p] where thread [t] is outside any transaction,
   recomputed independently of the planner. *)
let close_after tr p t =
  let n = Trace.length tr in
  let rec go pos depth =
    if depth = 0 || pos >= n then pos
    else
      let e = Trace.get tr pos in
      let depth =
        if (Event.thread e :> int) <> t then depth
        else
          match Event.op e with
          | Event.Begin -> depth + 1
          | Event.End -> max 0 (depth - 1)
          | _ -> depth
      in
      go (pos + 1) depth
  in
  go p (depths_at tr p).(t)

(* The repair horizon the planner must compute for a tainted cut: all
   straddling transactions close (phase 1), then every transaction open
   at that moment closes too (phase 2). *)
let horizon tr cut =
  let phase from =
    Array.to_seqi (depths_at tr from)
    |> Seq.fold_left
         (fun acc (t, d) -> if d > 0 then max acc (close_after tr from t) else acc)
         from
  in
  phase (phase cut)

(* --- differential matrix --- *)

(* A generator trace of the given shape and plan. *)
let generated ~shape ~plan ~threads ~seed ~events =
  Workloads.Generator.generate
    {
      Workloads.Generator.default with
      events;
      threads;
      shape;
      plan;
      seed = Int64.of_int seed;
      vars = max Workloads.Generator.default.vars (events / 3);
    }

(* Telemetry on (or off) for the duration of [f], restored afterwards. *)
let with_telemetry ?(on = true) f =
  let was = Obs.on () in
  if on then Obs.enable () else Obs.disable ();
  Fun.protect
    ~finally:(fun () -> if was then Obs.enable () else Obs.disable ())
    f

(* The counters a sharded run must report exactly as the sequential
   checker does: derived from the fed prefix, not summed over chunks. *)
let sequential_counters =
  [
    "events.total"; "events.read"; "events.write"; "events.acquire";
    "events.release"; "events.fork"; "events.join"; "events.begin";
    "events.end"; "txn.begins"; "txn.commits";
  ]

let check_counters label (base : Analysis.Runner.result)
    (r : Analysis.Runner.result) =
  List.iter
    (fun name ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s: %s" label name)
        (Obs.Snapshot.get_int base.Analysis.Runner.metrics name)
        (Obs.Snapshot.get_int r.Analysis.Runner.metrics name))
    sequential_counters

let skipped_chunks (r : Analysis.Runner.result) =
  Option.value ~default:0
    (Obs.Snapshot.get_int r.Analysis.Runner.metrics "shard.skipped_chunks")

(* >= 500 mixed corpus traces plus Anchored generator traces (long
   anchor transactions straddle every cut, so most chunks are skipped),
   each checked sequentially and with 2/3/4 forced shards on the
   work-stealing scheduler under every prefilter x reclaim combination;
   the rendered runner reports (verdict, 1-based violation index,
   events fed) must match byte for byte once timings are zeroed.  The
   reclaim-on leg runs with telemetry on (the reclaim-off leg keeps the
   default, off) and also requires the sharded event/transaction
   counters to equal the sequential ones. *)
let test_matrix () =
  let normalized r =
    Format.asprintf "%a" Analysis.Runner.pp
      { r with Analysis.Runner.seconds = 0.0 }
  in
  (* the mixed corpus is serializable by construction; add generator
     traces with injected violations so both verdicts are exercised *)
  Parallel.Deque.with_scheduler 4 (fun sched ->
      let traces = ref 0 in
      let violating = ref 0 in
      let anchored = ref 0 in
      let skipping_runs = ref 0 in
      for seed = 0 to 169 do
        List.iter
          (fun (threads, shape) ->
            incr traces;
            let tr =
              match shape with
              | `Anchored ->
                incr anchored;
                generated ~shape:Workloads.Generator.Anchored
                  ~plan:
                    (if seed land 1 = 0 then Workloads.Generator.Atomic
                     else Violate_at (0.2 +. (0.1 *. float_of_int (seed mod 7))))
                  ~threads ~seed ~events:1200
              | `Mixed when seed land 3 = 3 ->
                violating_trace ~seed ~threads
                  ~at:(0.15 +. (0.1 *. float_of_int (seed land 7)))
              | `Mixed ->
                Workloads.Corpus.mixed ~seed:(Int64.of_int seed) ~threads
                  ~events_total:1200 ()
            in
            if seq_violation tr <> None then incr violating;
            List.iter
              (fun prefilter ->
                List.iter
                  (fun reclaim ->
                    with_telemetry ~on:reclaim @@ fun () ->
                    let base =
                      Analysis.Runner.run ~prefilter ~reclaim opt tr
                    in
                    let base_s = normalized base in
                    List.iter
                      (fun shards ->
                        let r =
                          Analysis.Runner.run ~prefilter ~reclaim ~shards
                            ~sched opt tr
                        in
                        let label =
                          Printf.sprintf
                            "seed=%d threads=%d shards=%d prefilter=%b \
                             reclaim=%b %s"
                            seed threads shards
                            (prefilter <> Analysis.Runner.Off)
                            reclaim
                            (match shape with
                            | `Anchored -> "anchored"
                            | `Mixed -> "mixed")
                        in
                        Alcotest.(check string) label base_s (normalized r);
                        if reclaim then check_counters label base r;
                        if skipped_chunks r > 0 then incr skipping_runs)
                      [ 2; 3; 4 ])
                  [ false; true ])
              [ Analysis.Runner.Off; Analysis.Runner.Exact ])
          ([ (2, `Mixed); (3, `Mixed); (4, `Mixed) ]
          @ if seed mod 5 = 0 then [ (4 + (seed mod 3), `Anchored) ] else [])
      done;
      Alcotest.(check bool) "matrix covers >= 500 traces" true (!traces >= 500);
      Alcotest.(check bool) "matrix covers anchored traces" true (!anchored >= 30);
      (* the corpus must exercise both verdicts or the matrix is vacuous *)
      Alcotest.(check bool) "some traces violate" true (!violating > 0);
      Alcotest.(check bool)
        "some traces are serializable" true
        (!violating < !traces);
      (* ... and some sharded runs must skip chunks, or skipping is
         untested *)
      Alcotest.(check bool) "some runs skip chunks" true (!skipping_runs > 0))

(* The sharded event and transaction counters are the sequential
   checker's on anchored traces shaped like the CLI's
   `generate --shape anchored --threads 16`, serializable and
   violating.  Summing the chunk checkers' counters instead would count
   every repair segment twice on a violating run, and skipped chunks
   not at all. *)
let test_counters_anchored () =
  with_telemetry @@ fun () ->
  Parallel.Deque.with_scheduler 2 (fun sched ->
      List.iter
        (fun plan ->
          let tr =
            generated ~shape:Workloads.Generator.Anchored ~plan ~threads:16
              ~seed:13 ~events:30_000
          in
          let base = Analysis.Runner.run opt tr in
          List.iter
            (fun shards ->
              let r = Analysis.Runner.run ~shards ~sched opt tr in
              let label =
                Printf.sprintf "%s shards=%d"
                  (if Analysis.Runner.violating base then "violating"
                   else "serializable")
                  shards
              in
              Alcotest.(check bool) (label ^ ": same verdict")
                (Analysis.Runner.violating base)
                (Analysis.Runner.violating r);
              check_counters label base r;
              Alcotest.(check bool) (label ^ ": chunks skipped") true
                (skipped_chunks r > 0))
            [ 5; 16 ])
        [ Workloads.Generator.Atomic; Violate_at 0.7 ])

(* Forced cuts at arbitrary (frequently non-quiescent) positions across
   a generated corpus, composed with the exact prefilter: the
   reconciled verdict must match the sequential checker on the same
   (filtered) event stream, whatever the cut slices through. *)
let test_adversarial_cut_matrix () =
  Parallel.Deque.with_scheduler 4 (fun sched ->
  let checked = ref 0 in
  let skipping_runs = ref 0 in
  for seed = 0 to 39 do
    List.iter
      (fun (threads, shape) ->
        let tr0 =
          match shape with
          | `Anchored ->
            generated ~shape:Workloads.Generator.Anchored
              ~plan:
                (if seed land 1 = 1 then
                   Workloads.Generator.Violate_at
                     (0.2 +. (0.1 *. float_of_int (seed land 5)))
                 else Atomic)
              ~threads ~seed ~events:1200
          | `Mixed when seed land 1 = 1 ->
            violating_trace ~seed ~threads
              ~at:(0.2 +. (0.1 *. float_of_int (seed land 5)))
          | `Mixed ->
            Workloads.Corpus.mixed ~seed:(Int64.of_int seed) ~threads
              ~events_total:1200 ()
        in
        List.iter
          (fun prefiltered ->
            let tr =
              if prefiltered then fst (Prefilter.run_trace `Exact tr0)
              else tr0
            in
            let n = Trace.length tr in
            if n > 8 then begin
              let expected = seq_violation tr in
              List.iter
                (fun cuts ->
                  let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
                  if cuts <> [] then begin
                    incr checked;
                    (* out-of-order seam repair must land on the
                       sequential verdict *)
                    let o =
                      steal_check ~sched ~cuts ~shards:(List.length cuts + 1) tr
                    in
                    Alcotest.(check violation)
                      (Printf.sprintf
                         "seed=%d threads=%d prefilter=%b cuts=[%s]" seed
                         threads prefiltered
                         (String.concat ";" (List.map string_of_int cuts)))
                      expected o.Parallel.Shard.violation;
                    if o.Parallel.Shard.skipped_chunks > 0 then
                      incr skipping_runs
                  end)
                [
                  [ n / 2 ];
                  [ n / 3; 2 * n / 3 ];
                  [ (n / 2) - 1; n / 2; (n / 2) + 1 ];
                ]
            end)
          [ false; true ])
      [ (2, `Mixed); (3, `Mixed); (4, `Mixed); (5, `Anchored) ]
  done;
  Alcotest.(check bool) "adversarial matrix non-vacuous" true (!checked >= 400);
  Alcotest.(check bool) "some runs skip chunks" true (!skipping_runs > 0))

(* Auto-planned boundaries: the chunk bounds partition the arena, the
   summaries match an independent depth recomputation, and each repair
   window spans exactly the gap from its cut to the two-phase horizon
   — straddlers close, then the transactions open at that moment close
   (zero for quiescent or touch-free cuts). *)
let test_plan_invariants () =
  for seed = 0 to 19 do
    let tr =
      Workloads.Corpus.mixed ~seed:(Int64.of_int seed) ~threads:3
        ~events_total:2000 ()
    in
    let n = Trace.length tr in
    let q = quiescent_positions tr in
    let plan =
      Aerodrome.Merge.plan ~threads:(Trace.threads tr) ~shards:4 (arena_of tr)
    in
    Alcotest.(check int)
      "every candidate classified" plan.Aerodrome.Merge.targets
      (plan.Aerodrome.Merge.quiescent + plan.Aerodrome.Merge.seamed);
    let bs = plan.Aerodrome.Merge.boundaries in
    Alcotest.(check int) "origin cut" 0 bs.(0).Aerodrome.Merge.cut;
    Alcotest.(check int) "origin window" 0 bs.(0).Aerodrome.Merge.window;
    Array.iteri
      (fun i (b : Aerodrome.Merge.boundary) ->
        if i > 0 then begin
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d cut %d increasing" seed b.cut)
            true
            (b.cut > bs.(i - 1).Aerodrome.Merge.cut);
          let depth = depths_at tr b.cut in
          Alcotest.(check (array int))
            (Printf.sprintf "seed=%d cut %d depths" seed b.cut)
            depth b.depths;
          let straddlers =
            Array.fold_left (fun a d -> if d > 0 then a + 1 else a) 0 b.depths
          in
          if straddlers = 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf "seed=%d cut %d quiescent" seed b.cut)
              true (Hashtbl.mem q b.cut);
            Alcotest.(check int) "quiescent cut: window 0" 0 b.window
          end
          else if b.window = 0 then
            (* touch-free seam: depth seeding alone is exact *)
            Alcotest.(check int)
              (Printf.sprintf "seed=%d cut %d touch-free" seed b.cut)
              0 b.tainted
          else begin
            (* the window closes at the two-phase horizon: straddlers
               retire, then the transactions open at that moment retire
               (capped at the arena end) *)
            let h = b.cut + b.window in
            Alcotest.(check int)
              (Printf.sprintf "seed=%d cut %d window end" seed b.cut)
              (min n (horizon tr b.cut))
              h;
            for p = b.cut to h - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "seed=%d cut %d no quiescent inside window"
                   seed b.cut)
                false (Hashtbl.mem q p)
            done
          end
        end)
      bs;
    let bounds = Aerodrome.Merge.bounds plan ~total:n in
    Alcotest.(check int) "first chunk starts at 0" 0 (fst bounds.(0));
    Alcotest.(check int)
      "last chunk stops at n" n
      (snd bounds.(Array.length bounds - 1));
    Array.iteri
      (fun i (base, stop) ->
        Alcotest.(check bool) "chunk non-empty" true (base < stop);
        if i > 0 then
          Alcotest.(check int) "chunks contiguous" (snd bounds.(i - 1)) base)
      bounds
  done

(* The precomputed reconciliation fold ({!Merge.seams}): owners are the
   nearest surviving predecessors, a non-surviving chunk's whole extent
   is re-fed by its repair segment, and the surviving chunks' exact
   regions plus the repair segments partition the arena — the property
   that makes out-of-order execution return the sequential verdict. *)
let test_seam_invariants () =
  for seed = 0 to 19 do
    let tr =
      Workloads.Corpus.mixed ~seed:(Int64.of_int seed) ~threads:3
        ~events_total:2000 ()
    in
    let n = Trace.length tr in
    let arena = arena_of tr in
    let check_plan label (plan : Aerodrome.Merge.plan) =
      let bounds = Aerodrome.Merge.bounds plan ~total:n in
      let seams = Aerodrome.Merge.seams plan ~total:n in
      let k = Array.length plan.Aerodrome.Merge.boundaries in
      Alcotest.(check int) (label ^ ": one seam per boundary") k
        (Array.length seams);
      Alcotest.(check bool) (label ^ ": chunk 0 survives") true
        seams.(0).Aerodrome.Merge.survives;
      let cover = Array.make n 0 in
      let mark from upto =
        for p = from to upto - 1 do
          cover.(p) <- cover.(p) + 1
        done
      in
      Array.iteri
        (fun i (s : Aerodrome.Merge.seam) ->
          let base, stop = bounds.(i) in
          if i > 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf "%s: seam %d owner precedes" label i)
              true (s.owner < i);
            Alcotest.(check bool)
              (Printf.sprintf "%s: seam %d owner survives" label i)
              true seams.(s.owner).Aerodrome.Merge.survives;
            for j = s.owner + 1 to i - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "%s: seam %d owner is nearest" label i)
                false seams.(j).Aerodrome.Merge.survives
            done;
            Alcotest.(check bool)
              (Printf.sprintf "%s: seam %d segment ordered" label i)
              true
              (s.from_ <= s.upto && s.upto <= n);
            if not s.survives then begin
              (* a dead chunk's extent must be entirely re-fed *)
              Alcotest.(check bool)
                (Printf.sprintf "%s: seam %d dead chunk covered" label i)
                true
                (s.from_ <= base && stop <= s.upto)
            end;
            mark s.from_ s.upto
          end;
          if s.survives then mark (max base s.exact_from) stop)
        seams;
      Array.iteri
        (fun p c ->
          if c <> 1 then
            Alcotest.failf "%s: position %d covered %d times (want 1)" label p
              c)
        cover
    in
    let threads = Trace.threads tr in
    check_plan
      (Printf.sprintf "seed=%d auto" seed)
      (Aerodrome.Merge.plan ~threads ~shards:4 arena);
    check_plan
      (Printf.sprintf "seed=%d forced" seed)
      (Aerodrome.Merge.plan ~threads ~shards:4
         ~cuts:[ n / 3; n / 2; 2 * n / 3 ]
         arena)
  done

(* The allocation-free planner against the list-based one it replaced
   (test/reference/reference_merge.ml): over Independent and Anchored
   generator traces, serializable and violating, at 4, 8 and 16
   threads, every equidistant plan and every forced-cut plan must be
   structurally equal — cuts, depth vectors, windows, taint and the
   classification counters. *)
let test_plan_reference () =
  let compared = ref 0 in
  let windowed = ref 0 in
  List.iter
    (fun shape ->
      List.iter
        (fun threads ->
          List.iter
            (fun plan ->
              for seed = 0 to 3 do
                let tr = generated ~shape ~plan ~threads ~seed ~events:3000 in
                let n = Trace.length tr in
                let threads = Trace.threads tr in
                let arena = arena_of tr in
                let same label ?cuts shards =
                  incr compared;
                  let got = Aerodrome.Merge.plan ~threads ~shards ?cuts arena in
                  let want =
                    Reference.Reference_merge.plan ~threads ~shards ?cuts arena
                  in
                  if got <> want then
                    Alcotest.failf
                      "seed=%d threads=%d n=%d %s: plan differs from the \
                       reference planner"
                      seed threads n label;
                  if
                    Array.exists
                      (fun (b : Aerodrome.Merge.boundary) -> b.window > 0)
                      got.Aerodrome.Merge.boundaries
                  then incr windowed
                in
                List.iter
                  (fun shards -> same (Printf.sprintf "shards=%d" shards) shards)
                  [ 2; 3; 5; 16; 64 ];
                List.iter
                  (fun cuts ->
                    same
                      (Printf.sprintf "cuts=[%s]"
                         (String.concat ";" (List.map string_of_int cuts)))
                      ~cuts 0)
                  [
                    [ n / 2 ];
                    [ (n / 2) - 1; n / 2; (n / 2) + 1 ];
                    List.init 15 (fun i -> (i + 1) * n / 16);
                    List.init (n / 7) (fun i -> 7 * (i + 1));
                  ]
              done)
            [ Workloads.Generator.Atomic; Violate_at 0.3; Violate_at 0.7 ])
        [ 4; 8; 16 ])
    [ Workloads.Generator.Independent; Anchored ];
  Alcotest.(check bool) "reference comparison non-vacuous" true
    (!compared >= 500 && !windowed > 0)

(* The planner's loop allocates nothing per event: on an anchored
   trace, where every repair window stays open to the arena end, what
   it allocates depends on the number of cuts, not on the trace
   length (the list-based planner allocated ~100 words per event
   here). *)
let test_plan_allocation () =
  List.iter
    (fun events ->
      let tr =
        generated ~shape:Workloads.Generator.Anchored
          ~plan:Workloads.Generator.Atomic ~threads:16 ~seed:13 ~events
      in
      let arena = arena_of tr in
      let shards = 16 in
      let before = Gc.minor_words () in
      let plan =
        Aerodrome.Merge.plan ~threads:(Trace.threads tr) ~shards arena
      in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "windows stay open" true
        (plan.Aerodrome.Merge.seamed > 0);
      if words > float_of_int (256 * (shards + 1)) then
        Alcotest.failf "n=%d: plan allocated %.0f words" (Trace.length tr)
          words)
    [ 20_000; 80_000 ]

(* --- adversarial boundaries --- *)

(* A violating middle flanked by quiescent prologue/epilogue.  The
   violation fires at the second write of thread 0's open transaction
   (t0 -> t1 -> t0 conflict cycle), event index 11; positions 6 (before
   the pattern) and 13 (after it) are quiescent. *)
let boundary_trace () =
  Trace.of_events
    Event.
      [
        begin_ 0; write 0 0; end_ 0;    (* 0..2  prologue, t0 *)
        begin_ 1; write 1 1; end_ 1;    (* 3..5  prologue, t1 *)
        begin_ 0; read 0 2;             (* 6..7  t0 opens, reads x2 *)
        begin_ 1; write 1 2; end_ 1;    (* 8..10 t1 intervenes on x2 *)
        write 0 2;                      (* 11    violation: cycle closes *)
        end_ 0;                         (* 12 *)
        begin_ 1; read 1 0; end_ 1;     (* 13..15 epilogue *)
      ]

let test_boundary_violation () =
  let tr = boundary_trace () in
  let expected = seq_violation tr in
  (match expected with
  | Some v -> Alcotest.(check int) "sequential violation index" 11 v.index
  | None -> Alcotest.fail "boundary trace must violate");
  (* cut before the violating pattern: the whole pattern lands in chunk 2 *)
  List.iter
    (fun cuts ->
      let o = steal_check ~cuts ~shards:(List.length cuts + 1) tr in
      Alcotest.(check violation)
        (Printf.sprintf "cuts at [%s]"
           (String.concat ";" (List.map string_of_int cuts)))
        expected o.Parallel.Shard.violation;
      Alcotest.(check int)
        "all cuts quiescent" (List.length cuts)
        o.Parallel.Shard.plan.Aerodrome.Merge.quiescent;
      Alcotest.(check int) "no seams" 0
        o.Parallel.Shard.plan.Aerodrome.Merge.seamed;
      Alcotest.(check int) "nothing repaired" 0
        o.Parallel.Shard.repaired_events)
    [ [ 6 ]; [ 13 ]; [ 6; 13 ] ]

(* A forced cut inside thread 0's open transaction is accepted with a
   boundary summary; the repair window spans from the cut to the
   retirement horizon — here position 13, where the straddling
   transaction closes — clipped by where the violation surfaces.
   Expected per cut: (window, events actually repaired).  Cut 7 slices
   right after the begin — touch-free, so depth seeding is exact and
   the window is zero; cut 12 leaves the violation inside chunk 1,
   whose speculative run is exact, so no repair runs at all. *)
let test_mid_transaction_cut () =
  let tr = boundary_trace () in
  let expected = seq_violation tr in
  List.iter
    (fun (cut, window, repaired) ->
      let o = steal_check ~cuts:[ cut ] ~shards:2 tr in
      let p = o.Parallel.Shard.plan in
      Alcotest.(check int)
        (Printf.sprintf "cut %d seamed" cut)
        1 p.Aerodrome.Merge.seamed;
      Alcotest.(check int) "no quiescent cuts" 0 p.Aerodrome.Merge.quiescent;
      Alcotest.(check int) "two chunks" 2 (Array.length o.Parallel.Shard.tasks);
      let b = p.Aerodrome.Merge.boundaries.(1) in
      Alcotest.(check int)
        (Printf.sprintf "cut %d kept verbatim" cut)
        cut b.Aerodrome.Merge.cut;
      Alcotest.(check int)
        (Printf.sprintf "cut %d window" cut)
        window b.Aerodrome.Merge.window;
      Alcotest.(check int)
        (Printf.sprintf "cut %d repaired events" cut)
        repaired o.Parallel.Shard.repaired_events;
      Alcotest.(check violation) "verdict unchanged" expected
        o.Parallel.Shard.violation)
    [ (7, 0, 0); (9, 4, 3); (11, 2, 1); (12, 1, 0) ]

(* A cut between an open transaction's write and the racing read that
   closes the conflict cycle: the chunk checker cannot see t0's pre-cut
   write of x0, so the speculative run is blind to the violation — the
   repair window (which spans to the arena end: t0 never closes before
   the violation) must surface it with the exact sequential index. *)
let test_write_racing_read_cut () =
  let tr =
    Trace.of_events
      Event.
        [
          begin_ 0; write 0 0;                    (* 0,1  t0 opens, writes x0 *)
          begin_ 1; read 1 0; write 1 1; end_ 1;  (* 2..5 t1 reads x0, writes x1 *)
          read 0 1;                               (* 6    cycle closes: violation *)
          end_ 0;                                 (* 7 *)
        ]
  in
  let expected = seq_violation tr in
  (match expected with
  | Some v -> Alcotest.(check int) "sequential violation index" 6 v.index
  | None -> Alcotest.fail "write/racing-read trace must violate");
  let o = steal_check ~cuts:[ 2 ] ~shards:2 tr in
  let p = o.Parallel.Shard.plan in
  Alcotest.(check int) "seamed" 1 p.Aerodrome.Merge.seamed;
  Alcotest.(check int) "quiescent" 0 p.Aerodrome.Merge.quiescent;
  Alcotest.(check bool) "taint accounted" true
    (p.Aerodrome.Merge.tainted_events > 0);
  let b = p.Aerodrome.Merge.boundaries.(1) in
  Alcotest.(check int) "cut kept verbatim" 2 b.Aerodrome.Merge.cut;
  (* no quiescent position before the end: the window spans the rest *)
  Alcotest.(check int) "window spans to the arena end" 6
    b.Aerodrome.Merge.window;
  Alcotest.(check violation) "verdict from the repair" expected
    o.Parallel.Shard.violation;
  Alcotest.(check int) "repair fed up to the violation" 5
    o.Parallel.Shard.repaired_events

(* A transaction spanning the ideal equidistant cut with no quiescent
   position in snapping range: the planner keeps the mid-transaction
   cut, records its summary, and the window runs to the transaction's
   end. *)
let test_transaction_spanning_edge () =
  let mid =
    List.concat
      [
        [ Event.begin_ 0 ];
        List.init 40 (fun i -> Event.write 0 (i mod 3));
        [ Event.end_ 0 ];
      ]
  in
  let prologue =
    List.concat
      (List.init 10 (fun i ->
           [ Event.begin_ 1; Event.write 1 (3 + (i mod 2)); Event.end_ 1 ]))
  in
  let epilogue =
    List.concat
      (List.init 10 (fun i ->
           [ Event.begin_ 1; Event.read 1 (3 + (i mod 2)); Event.end_ 1 ]))
  in
  let tr = Trace.of_events (prologue @ mid @ epilogue) in
  let o = steal_check ~shards:2 tr in
  let p = o.Parallel.Shard.plan in
  Alcotest.(check int) "midpoint cut seamed" 1 p.Aerodrome.Merge.seamed;
  Alcotest.(check int) "no quiescent snap in range" 0
    p.Aerodrome.Merge.quiescent;
  let b = p.Aerodrome.Merge.boundaries.(1) in
  Alcotest.(check int) "midpoint cut" 51 b.Aerodrome.Merge.cut;
  (* the transaction closes after event 71; 72 is the next quiescent *)
  Alcotest.(check int) "window to the transaction end" 21
    b.Aerodrome.Merge.window;
  Alcotest.(check int) "whole window repaired" 21
    o.Parallel.Shard.repaired_events;
  Alcotest.(check violation) "serializable across the span" (seq_violation tr)
    o.Parallel.Shard.violation

(* Fork and join land in different chunks.  A quiescent cut between
   them (13) and a non-quiescent cut inside a filler transaction (15,
   after its write — one tainted access, window to the transaction's
   end): both must preserve the HB edges and the verdict. *)
let test_fork_join_across_shards () =
  let tr =
    Trace.of_events
      (List.concat
         [
           [ Event.fork 0 1 ];
           [ Event.begin_ 0; Event.write 0 0; Event.end_ 0 ];
           [ Event.begin_ 1; Event.read 1 0; Event.end_ 1 ];
           (* quiescent gap the planner can cut in *)
           List.concat
             (List.init 6 (fun i ->
                  [ Event.begin_ 1; Event.write 1 (1 + (i mod 2)); Event.end_ 1 ]));
           [ Event.begin_ 0; Event.read 0 1; Event.end_ 0 ];
           [ Event.join 0 1 ];
         ])
  in
  let expected = seq_violation tr in
  (* quiescent cut in the gap between fork and join *)
  let o = steal_check ~cuts:[ 13 ] ~shards:2 tr in
  Alcotest.(check int) "cut quiescent" 1
    o.Parallel.Shard.plan.Aerodrome.Merge.quiescent;
  Alcotest.(check int) "two chunks" 2 (Array.length o.Parallel.Shard.tasks);
  Alcotest.(check violation) "verdict across fork/join" expected
    o.Parallel.Shard.violation;
  (* non-quiescent cut mid-filler-transaction, still between fork and
     join: seamed, repaired to the transaction end, same verdict *)
  let o = steal_check ~cuts:[ 15 ] ~shards:2 tr in
  let p = o.Parallel.Shard.plan in
  Alcotest.(check int) "cut seamed" 1 p.Aerodrome.Merge.seamed;
  Alcotest.(check int) "window to the filler end" 1
    p.Aerodrome.Merge.boundaries.(1).Aerodrome.Merge.window;
  Alcotest.(check violation) "verdict across the seam" expected
    o.Parallel.Shard.violation

(* events_fed and the rendered report go through the runner too: a
   violating binary-style trace via Runner.run on a lent scheduler with
   a forced shard count must match the sequential report byte for byte.
   (The file-level plumbing is covered by the cram test; here we pin
   the trace-level entry.)  [0] is auto — a 16-event trace stays under
   the small-trace gate and must take the sequential path — and [1]
   turns sharding off. *)
let test_runner_report_identity () =
  let tr = boundary_trace () in
  let normalized r =
    Format.asprintf "%a" Analysis.Runner.pp
      { r with Analysis.Runner.seconds = 0.0 }
  in
  let base = Analysis.Runner.run opt tr in
  Parallel.Deque.with_scheduler 2 (fun sched ->
      List.iter
        (fun shards ->
          let r = Analysis.Runner.run ~shards ~sched opt tr in
          Alcotest.(check string)
            (Printf.sprintf "runner report, %d shards" shards)
            (normalized base) (normalized r))
        [ 0; 1; 2; 3; 4 ])

(* Run [f] on a fresh two-domain scheduler; the result and the number
   of tasks the scheduler ran, read once it is shut down (a promise
   resolves just before its task is counted, so a mid-run read can
   lag). *)
let tasks_run f =
  let sched = Parallel.Deque.create 2 in
  let r = f sched in
  Parallel.Deque.shutdown sched;
  (r, (Parallel.Deque.stats sched).Parallel.Deque.completed)

(* Auto sizing ([shards = 0]): the chunk count is the scheduler's domain
   count times [oversub], capped so no chunk falls under [chunk_floor];
   a plan that comes out as one chunk runs on the calling domain
   without touching the scheduler.  The verdict is the sequential one
   throughout. *)
let test_auto_plan_sizing () =
  let tr = violating_trace ~seed:11 ~threads:4 ~at:0.7 in
  let n = Trace.length tr in
  let expected = seq_violation tr in
  Alcotest.(check bool) "trace violates" true (expected <> None);
  Parallel.Deque.with_scheduler 2 (fun sched ->
      let auto ?oversub ?chunk_floor () =
        Parallel.Shard.check_stealing ~sched ?oversub ?chunk_floor ~shards:0
          ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
          ~vars:(Trace.vars tr) (arena_of tr)
      in
      let chunks (o : Parallel.Shard.outcome) =
        Array.length o.Parallel.Shard.tasks
      in
      let o = auto ~oversub:2 ~chunk_floor:100 () in
      Alcotest.(check int) "2 domains x oversub 2" 4 (chunks o);
      Alcotest.(check violation) "oversub-bound verdict" expected
        o.Parallel.Shard.violation;
      let o = auto ~chunk_floor:(n / 3) () in
      Alcotest.(check int) "floor-bound" 3 (chunks o);
      Alcotest.(check violation) "floor-bound verdict" expected
        o.Parallel.Shard.violation);
  (* the default floor exceeds the whole trace *)
  let o, tasks =
    tasks_run (fun sched ->
        Parallel.Shard.check_stealing ~sched ~shards:0
          ~threads:(Trace.threads tr) ~locks:(Trace.locks tr)
          ~vars:(Trace.vars tr) (arena_of tr))
  in
  Alcotest.(check int) "one chunk" 1 (Array.length o.Parallel.Shard.tasks);
  Alcotest.(check int) "no scheduler task" 0 tasks;
  Alcotest.(check int) "nothing repaired" 0 o.Parallel.Shard.repaired_events;
  Alcotest.(check violation) "single-chunk verdict" expected
    o.Parallel.Shard.violation

(* A lent scheduler does not make every run sharded: a timeout, a
   non-default checker, [shards = 1] and an auto run on a small trace
   all stay sequential, submit nothing, and report what the plain
   sequential run reports.  A forced count on the default checker is
   the positive control. *)
let test_runner_sequential_fallbacks () =
  let tr = violating_trace ~seed:3 ~threads:3 ~at:0.5 in
  let normalized r =
    Format.asprintf "%a" Analysis.Runner.pp
      { r with Analysis.Runner.seconds = 0.0 }
  in
  let basic = (module Aerodrome.Basic : Aerodrome.Checker.S) in
  Alcotest.(check bool) "explicit count always shards" true
    (Analysis.Runner.steal_worthwhile ~shards:2 ~events:16);
  Alcotest.(check bool) "auto skips a small trace" false
    (Analysis.Runner.steal_worthwhile ~shards:0 ~events:(Trace.length tr));
  Alcotest.(check bool) "auto takes a large trace" true
    (Analysis.Runner.steal_worthwhile ~shards:0 ~events:10_000_000);
  let fallbacks, tasks =
    tasks_run (fun sched ->
        [
          ( "timeout",
            Analysis.Runner.run ~timeout:600. ~shards:3 ~sched opt tr,
            Analysis.Runner.run ~timeout:600. opt tr );
          ( "basic checker",
            Analysis.Runner.run ~shards:3 ~sched basic tr,
            Analysis.Runner.run basic tr );
          ( "shards 1",
            Analysis.Runner.run ~shards:1 ~sched opt tr,
            Analysis.Runner.run opt tr );
          ( "auto on a small trace",
            Analysis.Runner.run ~shards:0 ~sched opt tr,
            Analysis.Runner.run opt tr );
        ])
  in
  List.iter
    (fun (label, r, sequential) ->
      Alcotest.(check string) (label ^ ": sequential report")
        (normalized sequential) (normalized r))
    fallbacks;
  Alcotest.(check int) "no task submitted" 0 tasks;
  let r, tasks = tasks_run (fun sched -> Analysis.Runner.run ~shards:3 ~sched opt tr) in
  Alcotest.(check int) "forced 3 chunks ran as tasks" 3 tasks;
  Alcotest.(check string) "forced report"
    (normalized (Analysis.Runner.run opt tr))
    (normalized r)

(* Auto sharding plans before it spawns: on a trace large enough to
   shard, the runner weighs the plan's critical path against one
   sequential feed.  Anchor transactions straddle every cut, so the
   first chunk's repair re-feeds the rest: the run stays on the calling
   domain, submits no task and never starts the workers.  Independent
   transactions cut cheaply, so the chunks run as tasks.  Both reports
   equal the sequential run's, and the metrics name the path taken and
   time the serial prefix: the arena a materialized trace hands in costs
   0 to build, the one a binary file is decoded into more, and the
   plan's time reaches the OpenMetrics exposition too. *)
let test_runner_plan_choice () =
  with_telemetry @@ fun () ->
  let normalized r =
    Format.asprintf "%a" Analysis.Runner.pp
      { r with Analysis.Runner.seconds = 0.0 }
  in
  let label (r : Analysis.Runner.result) name =
    match Obs.Snapshot.find r.Analysis.Runner.metrics name with
    | Some { Obs.Snapshot.value = Obs.Snapshot.Label v; _ } -> v
    | _ -> Alcotest.failf "no %s label" name
  in
  List.iter
    (fun (shape, name, stealing) ->
      let tr =
        generated ~shape ~plan:(Workloads.Generator.Violate_at 0.8) ~threads:8
          ~seed:5 ~events:140_000
      in
      Alcotest.(check bool) (name ^ ": large enough to shard") true
        (Analysis.Runner.steal_worthwhile ~shards:0 ~events:(Trace.length tr));
      let (r, started), tasks =
        tasks_run (fun sched ->
            let r = Analysis.Runner.run ~shards:0 ~sched opt tr in
            (r, Parallel.Deque.started sched))
      in
      Alcotest.(check string) (name ^ ": sequential report")
        (normalized (Analysis.Runner.run opt tr))
        (normalized r);
      Alcotest.(check string) (name ^ ": decision.exec")
        (if stealing then "stealing" else "sequential")
        (label r "decision.exec");
      Alcotest.(check string) (name ^ ": decision.exec_reason") "critical-path"
        (label r "decision.exec_reason");
      Alcotest.(check bool) (name ^ ": workers started") stealing started;
      let seconds (r : Analysis.Runner.result) key =
        match Obs.Snapshot.find r.Analysis.Runner.metrics key with
        | Some { Obs.Snapshot.value = Obs.Snapshot.Float v; _ } -> v
        | _ -> Alcotest.failf "%s: no %s" name key
      in
      Alcotest.(check (float 0.)) (name ^ ": an arena handed in") 0.
        (seconds r "decision.arena_seconds");
      Alcotest.(check bool) (name ^ ": plan seconds") true
        (seconds r "decision.plan_seconds" >= 0.);
      Alcotest.(check bool) (name ^ ": plan seconds exposed") true
        (Helpers.contains
           (Obs.Exporter.render (Obs.Exporter.of_snapshot r.Analysis.Runner.metrics))
           "aerodrome_decision_plan_seconds ");
      let path = Filename.temp_file "aerodrome_plan" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Traces.Binfmt.write_file path tr;
          match
            fst
              (tasks_run (fun sched ->
                   Analysis.Runner.run_file ~shards:0 ~sched opt path))
          with
          | Ok rb ->
            Alcotest.(check string) (name ^ ": binary report") (normalized r)
              (normalized rb);
            Alcotest.(check bool) (name ^ ": a decoded arena") true
              (seconds rb "decision.arena_seconds" > 0.)
          | Error msg -> Alcotest.fail msg);
      if stealing then begin
        if tasks <= 1 then Alcotest.failf "%s: %d task(s) ran" name tasks
      end
      else begin
        Alcotest.(check int) (name ^ ": no task submitted") 0 tasks;
        Alcotest.(check bool) (name ^ ": no shard entries") false
          (List.exists
             (fun (e : Obs.Snapshot.entry) ->
               String.starts_with ~prefix:"shard." e.name)
             r.Analysis.Runner.metrics)
      end)
    [
      (Workloads.Generator.Anchored, "anchored", false);
      (Workloads.Generator.Independent, "independent", true);
    ]

(* The critical path of a hand-built four-chunk plan of 400 events: a
   surviving chunk costs its range plus the segments it repairs, a
   skipped chunk nothing, and the path is the longest chunk or an even
   split of the total over the domains, whichever is longer. *)
let test_critical_path () =
  let bounds = [| (0, 100); (100, 200); (200, 300); (300, 400) |] in
  let schedule ~owned ~survives =
    {
      Parallel.Shard.plan = Aerodrome.Merge.trivial ~threads:1;
      bounds;
      seams =
        Array.mapi
          (fun i (base, _) ->
            {
              Aerodrome.Merge.owner = 0;
              from_ = base;
              upto = base;
              exact_from = base;
              survives = survives i;
            })
          bounds;
      owned;
      plan_seconds = 0.;
    }
  in
  let cp ~domains s = Parallel.Shard.critical_path ~domains s in
  let all = schedule ~owned:[| []; []; []; [] |] ~survives:(fun _ -> true) in
  Alcotest.(check int) "all survive, 1 domain" 400 (cp ~domains:1 all);
  Alcotest.(check int) "all survive, 2 domains" 200 (cp ~domains:2 all);
  Alcotest.(check int) "all survive, 4 domains" 100 (cp ~domains:4 all);
  Alcotest.(check int) "all survive, 8 domains" 100 (cp ~domains:8 all);
  let one_owner =
    schedule
      ~owned:[| [ (100, 200); (200, 300); (300, 400) ]; []; []; [] |]
      ~survives:(fun i -> i = 0)
  in
  Alcotest.(check int) "one owner repairs the rest, 2 domains" 400
    (cp ~domains:2 one_owner);
  Alcotest.(check int) "one owner repairs the rest, 4 domains" 400
    (cp ~domains:4 one_owner);
  let partial =
    schedule ~owned:[| [ (100, 150) ]; []; []; [] |] ~survives:(fun _ -> true)
  in
  Alcotest.(check int) "a short repair, 2 domains" 225 (cp ~domains:2 partial);
  Alcotest.(check int) "a short repair, 4 domains" 150 (cp ~domains:4 partial)

(* Repair stays cheap where cuts are hardest: on the 8-thread mixed
   corpus almost no position is quiescent, so most cuts are seamed.  At
   every shard count the reconciled verdict is sequential Opt's, the
   events re-fed by window repair stay within 10% of the trace, and
   repaired events only ever come from a seamed cut. *)
let test_adversarial_repair_bound () =
  let tr = Workloads.Corpus.mixed ~threads:8 ~events_total:300_000 () in
  let events = Trace.length tr in
  let expected = seq_violation tr in
  Parallel.Deque.with_scheduler 1 (fun sched ->
      List.iter
        (fun shards ->
          let o = steal_check ~sched ~shards tr in
          let where = Printf.sprintf "shards=%d" shards in
          Alcotest.(check violation) (where ^ ": verdict") expected
            o.Parallel.Shard.violation;
          let repaired = o.Parallel.Shard.repaired_events in
          if 10 * repaired > events then
            Alcotest.failf "%s: repaired %d of %d events (bound 10%%)" where
              repaired events;
          if repaired > 0 && o.Parallel.Shard.plan.Aerodrome.Merge.seamed = 0
          then Alcotest.failf "%s: repaired events without a seamed cut" where)
        [ 2; 4; 8; 16 ])

let suite =
  ( "shard",
    [
      Alcotest.test_case "differential: sequential vs sharded matrix" `Slow
        test_matrix;
      Alcotest.test_case "differential: forced adversarial cuts" `Slow
        test_adversarial_cut_matrix;
      Alcotest.test_case "counters: sharded equals sequential (anchored)"
        `Quick test_counters_anchored;
      Alcotest.test_case "plan: summaries, windows, bounds partition" `Quick
        test_plan_invariants;
      Alcotest.test_case "plan: seams partition for out-of-order repair"
        `Quick test_seam_invariants;
      Alcotest.test_case "plan: equals the list-based reference planner"
        `Quick test_plan_reference;
      Alcotest.test_case "plan: no per-event allocation" `Quick
        test_plan_allocation;
      Alcotest.test_case "boundary: violation at the cut" `Quick
        test_boundary_violation;
      Alcotest.test_case "boundary: cut inside an open transaction" `Quick
        test_mid_transaction_cut;
      Alcotest.test_case "boundary: cut between write and racing read" `Quick
        test_write_racing_read_cut;
      Alcotest.test_case "boundary: transaction spans the ideal cut" `Quick
        test_transaction_spanning_edge;
      Alcotest.test_case "boundary: fork/join across shards" `Quick
        test_fork_join_across_shards;
      Alcotest.test_case "runner: sharded report identity" `Quick
        test_runner_report_identity;
      Alcotest.test_case "plan: auto sizing from domains, oversub, floor"
        `Quick test_auto_plan_sizing;
      Alcotest.test_case "runner: sequential fallbacks on a lent scheduler"
        `Quick test_runner_sequential_fallbacks;
      Alcotest.test_case "runner: auto plans before it spawns" `Quick
        test_runner_plan_choice;
      Alcotest.test_case "plan: critical path of a hand-built plan" `Quick
        test_critical_path;
      Alcotest.test_case "repair: bounded on the adversarial corpus" `Quick
        test_adversarial_repair_bound;
    ] )
