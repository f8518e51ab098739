(* Chunked parallel checking: plan boundary-summary cuts, run a
   speculative seeded checker per surviving chunk as a work-stealing
   task, and repair each cut's window against the true frontier.  The
   arena is fully built and immutable before any task is submitted, so
   chunk ranges cross domain boundaries without copying or marshalling
   (the chunks are off-heap Bigarrays).

   The correctness contract (DESIGN.md §17): a chunk checker seeded
   from its boundary summary ({!Aerodrome.Opt.seed_boundary}) is
   generation-wise {e contained} in the sequential checker — it can
   miss violations whose evidence predates the cut, but never invents
   one — and it is {e exact} from the end of the cut's repair window
   onward.  A window segment fed into a checker whose state is exact up
   to the segment start is therefore exact too, and the chunk's own
   speculative verdict can be trusted past it. *)

type task = {
  base : int;
  stop : int;
  violation : Aerodrome.Violation.t option; (* chunk-local index *)
  seconds : float;
  metrics : Obs.Snapshot.t;
}

type outcome = {
  violation : Aerodrome.Violation.t option; (* arena-global index *)
  plan : Aerodrome.Merge.plan;
  tasks : task array;
  skipped_chunks : int;
  repaired_events : int;
  metrics : Obs.Snapshot.t;
  plan_seconds : float;
  merge_seconds : float;
}

(* Feed [from, upto) of the arena into a live checker.  Returns the
   first violation, rebased to its arena-global position, and the
   number of events actually fed (the feed stops at a violation). *)
let feed_range st arena ~from ~upto =
  let fed = ref 0 in
  let violation = ref None in
  (try
     Traces.Packed.Arena.iter_range arena from upto (fun w ->
         let p = from + !fed in
         incr fed;
         match Aerodrome.Opt.feed_packed st w with
         | Some (v : Aerodrome.Violation.t) ->
           violation :=
             Some (Aerodrome.Violation.make ~index:p ~event:v.event ~site:v.site);
           raise Exit
         | None -> ())
   with Exit -> ());
  (!violation, !fed)

(* One surviving chunk: a fresh checker seeded from the boundary
   summary runs over [base, stop) — it freezes at its first violation,
   which by the containment invariant is real, though a repair window
   may surface an earlier one — and then, unless frozen, feeds the
   repair segments the chunk owns ([owned], ascending).

   The checker lives only inside this call, so its state is garbage
   once the task retires.  Each chunk's own feed loop is also a Chrome
   span (cat "shard"), so a [--trace-out] run shows the chunk lanes per
   worker domain in Perfetto, next to the planner span recorded by
   {!check_stealing}. *)
let run_chunk ~threads ~locks ~vars arena
    ((b : Aerodrome.Merge.boundary), (base, stop)) owned =
  let t0 = Unix.gettimeofday () in
  let work () =
    let st =
      Aerodrome.Reclaim.with_policy Aerodrome.Reclaim.Off (fun () ->
          Aerodrome.Opt.create ~threads ~locks ~vars)
    in
    if Array.exists (fun d -> d > 0) b.Aerodrome.Merge.depths then
      Aerodrome.Opt.seed_boundary st b.Aerodrome.Merge.depths;
    Obs.Chrome_trace.span ~cat:"shard" "feed" (fun () ->
        ignore (feed_range st arena ~from:base ~upto:stop));
    (st, Aerodrome.Opt.violation st)
  in
  (* each chunk opens its own (domain-local) scope so the checker's
     counters are not lost on the worker domain; the caller merges the
     per-chunk snapshots back into a whole-trace reading *)
  let (st, v), metrics =
    if Obs.on () then Obs.Scope.collect work else (work (), Obs.Snapshot.empty)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let rv = ref None in
  let fed = ref 0 in
  if v = None then
    List.iter
      (fun (from, upto) ->
        if !rv = None then begin
          let r, f = feed_range st arena ~from ~upto in
          fed := !fed + f;
          rv := r
        end)
      owned;
  ({ base; stop; violation = v; seconds; metrics }, !rv, !fed)

(* A non-surviving chunk: its whole range is re-fed by an earlier
   owner's repair, and neither its verdict nor its checker would ever
   be read, so no checker runs. *)
let skip_chunk (base, stop) =
  ( { base; stop; violation = None; seconds = 0.; metrics = Obs.Snapshot.empty },
    None,
    0 )

(* The event and transaction counters a sequential checker reports
   after feeding the first [upto] words of [arena]: one opcode/depth
   pass through a detached {!Aerodrome.Cmetrics} set, with the same
   outermost-begin/-end rule as {!Aerodrome.Opt}'s handlers.  Chunk
   ranges overlap repair segments and skipped chunks count nothing, so
   summing the chunk checkers' own counters would be wrong. *)
let prefix_counts ~threads arena ~upto =
  let m = Aerodrome.Cmetrics.create ~attach:false () in
  let depth = Array.make (max threads 1) 0 in
  Traces.Packed.Arena.iter_range arena 0 upto (fun w ->
      let op = Traces.Packed.opcode w in
      let t = Traces.Packed.tid w in
      Aerodrome.Cmetrics.count_op m op;
      if op = Traces.Packed.op_begin then begin
        depth.(t) <- depth.(t) + 1;
        if depth.(t) = 1 then Aerodrome.Cmetrics.txn_begin m
      end
      else if op = Traces.Packed.op_end && depth.(t) > 0 then begin
        depth.(t) <- depth.(t) - 1;
        if depth.(t) = 0 then Aerodrome.Cmetrics.txn_commit m
      end);
  List.filter
    (fun (e : Obs.Snapshot.entry) ->
      String.starts_with ~prefix:"events." e.name
      || String.starts_with ~prefix:"txn." e.name)
    (Aerodrome.Cmetrics.snapshot m)

(* The plan an execution runs: the cuts and, from them alone, the
   reconciliation fold ({!Aerodrome.Merge.seams}) and each owner's
   repair segments.  Planning needs no scheduler, so a caller can weigh
   the plan ({!critical_path}) before any worker domain exists. *)
type schedule = {
  plan : Aerodrome.Merge.plan;
  bounds : (int * int) array;
  seams : Aerodrome.Merge.seam array;
  owned : (int * int) list array;
  plan_seconds : float;
}

let plan ?(oversub = 8) ?(chunk_floor = 8192) ?cuts ~domains ~shards ~threads
    arena =
  let n = Traces.Packed.Arena.length arena in
  let shards =
    match cuts with
    | Some _ -> 0 (* the plan takes the forced cuts verbatim *)
    | None when shards <> 0 -> shards (* forced chunk count (--shards N, tests) *)
    | None ->
      max 1 (min (max 1 domains * max 1 oversub) (max 1 (n / max 1 chunk_floor)))
  in
  let t0 = Unix.gettimeofday () in
  let plan =
    Obs.Chrome_trace.span ~cat:"shard" "plan" (fun () ->
        Aerodrome.Merge.plan ~threads ~shards ?cuts arena)
  in
  let plan_seconds = Unix.gettimeofday () -. t0 in
  let bounds = Aerodrome.Merge.bounds plan ~total:n in
  let k = Array.length bounds in
  let seams = Aerodrome.Merge.seams plan ~total:n in
  (* seams grouped by owning chunk, ascending — the owner feeds its
     segments in trace order, so its checker walks one contiguous
     stream *)
  let owned = Array.make k [] in
  for i = k - 1 downto 1 do
    let s = seams.(i) in
    if s.Aerodrome.Merge.upto > s.Aerodrome.Merge.from_ then
      owned.(s.Aerodrome.Merge.owner) <-
        (s.Aerodrome.Merge.from_, s.Aerodrome.Merge.upto)
        :: owned.(s.Aerodrome.Merge.owner)
  done;
  { plan; bounds; seams; owned; plan_seconds }

(* A surviving chunk feeds its own range and then the repair segments it
   owns; a skipped chunk feeds nothing.  No task can finish before its
   longest chunk, and [domains] workers cannot finish the total sooner
   than an even split of it. *)
let critical_path ~domains s =
  let work i (base, stop) =
    if s.seams.(i).Aerodrome.Merge.survives then
      List.fold_left (fun a (from, upto) -> a + upto - from) (stop - base) s.owned.(i)
    else 0
  in
  let works = Array.mapi work s.bounds in
  let total = Array.fold_left ( + ) 0 works in
  let d = max 1 domains in
  max (Array.fold_left max 0 works) ((total + d - 1) / d)

(* Work-stealing execution over micro-chunks (DESIGN.md §18).  The
   left-to-right reconciliation fold (walk the cuts in order, feed each
   window into the live checker, let a surviving chunk take over) is
   order-dependent only in appearance: the covered frontier, segment
   extents, seam owners and chunk survival are all functions of the
   plan alone, so {!Aerodrome.Merge.seams} evaluates the fold before
   any chunk runs.  Execution then needs no order at all:

   - every chunk is one scheduler task; the deques and steals decide
     placement, so a hot chunk (violation site, dense lock traffic,
     long repair horizon) no longer pins the whole tail to one domain;
   - a chunk that owns seams repairs them the moment its own range is
     fed — its checker's exact state already reaches the segment
     start, and the arena is immutable, so the right-hand chunk of the
     seam need not have retired (it contributes no state to the
     repair, only its verdict to the final assembly);
   - a chunk that does not survive never runs a checker: its whole
     range is re-fed by its owner's repair, and neither its verdict nor
     its state is ever read, so a repair-dominated plan costs planning
     plus the survivors' work;
   - an owner frozen at its own violation skips its repairs: every
     position they would cover lies past a real violation the
     assembly already reports, so the sequential checker would never
     reach them;
   - the verdict is the minimum-index candidate over chunk 0, the
     surviving chunks' exact-region violations and the repair
     violations.  The exact regions and repair segments partition the
     arena, each checked under exact sequential state, so the minimum
     is the sequential checker's first violation — the same answer
     the fold reaches, computed from an unordered bag of retirements
     (the [retired] bitmap). *)
let execute ~sched ~threads ~locks ~vars arena s =
  let n = Traces.Packed.Arena.length arena in
  let { plan; bounds; seams; owned; plan_seconds } = s in
  let k = Array.length bounds in
  let retired = Array.init k (fun _ -> Atomic.make false) in
  let work i () =
    let chunk = (plan.Aerodrome.Merge.boundaries.(i), bounds.(i)) in
    let r =
      if seams.(i).Aerodrome.Merge.survives then
        run_chunk ~threads ~locks ~vars arena chunk owned.(i)
      else skip_chunk bounds.(i)
    in
    Atomic.set retired.(i) true;
    r
  in
  let results =
    if k <= 1 then Array.init k (fun i -> work i ())
    else
      let promises = Array.init k (fun i -> Deque.submit sched (work i)) in
      Array.map (Deque.await sched) promises
  in
  let t1 = Unix.gettimeofday () in
  Array.iter (fun r -> assert (Atomic.get r)) retired;
  let rebase (t : task) =
    Option.map
      (fun (v : Aerodrome.Violation.t) ->
        Aerodrome.Violation.make ~index:(t.base + v.index) ~event:v.event
          ~site:v.site)
      t.violation
  in
  let best = ref None in
  let consider = function
    | Some (v : Aerodrome.Violation.t) -> (
      match !best with
      | Some (w : Aerodrome.Violation.t) when w.index <= v.index -> ()
      | _ -> best := Some v)
    | None -> ()
  in
  Array.iteri
    (fun i ((t : task), rv, _) ->
      consider rv;
      if i = 0 then consider (rebase t)
      else if seams.(i).Aerodrome.Merge.survives then
        match rebase t with
        | Some v
          when v.Aerodrome.Violation.index >= seams.(i).Aerodrome.Merge.exact_from
          ->
          consider (Some v)
        | _ -> ())
    results;
  (* a surviving chunk's speculative violation below its exact region
     must be explained by an earlier final violation, else containment
     is broken: fail loudly rather than report a verdict the sequential
     checker would not *)
  Array.iteri
    (fun i ((t : task), _, _) ->
      if i > 0 && seams.(i).Aerodrome.Merge.survives then
        match rebase t with
        | Some v
          when v.Aerodrome.Violation.index < seams.(i).Aerodrome.Merge.exact_from
          -> (
          match !best with
          | Some (w : Aerodrome.Violation.t)
            when w.index <= v.Aerodrome.Violation.index ->
            ()
          | _ ->
            failwith "Shard.check_stealing: speculative violation unconfirmed by repair")
        | _ -> ())
    results;
  let merge_seconds = Unix.gettimeofday () -. t1 in
  let violation = !best in
  let tasks = Array.map (fun (t, _, _) -> t) results in
  (* The whole-run checker reading: survivors' counters summed, except
     that the violation gauge is rewritten to the reconciled index and
     the event/transaction counters are re-derived from the prefix the
     sequential checker feeds. *)
  let metrics =
    if not (Obs.on ()) then Obs.Snapshot.empty
    else
      let upto =
        match violation with Some v -> v.Aerodrome.Violation.index + 1 | None -> n
      in
      let exact = prefix_counts ~threads arena ~upto in
      Obs.Snapshot.merge
        (Array.to_list tasks |> List.map (fun (t : task) -> t.metrics))
      |> List.map (fun (e : Obs.Snapshot.entry) ->
             match Obs.Snapshot.find exact e.name with
             | Some x -> x
             | None when e.name = "violation.index" ->
               {
                 e with
                 value =
                   Obs.Snapshot.Int
                     (match violation with
                     | Some v -> v.Aerodrome.Violation.index
                     | None -> -1);
               }
             | None -> e)
  in
  {
    violation;
    plan;
    tasks;
    skipped_chunks =
      Array.fold_left
        (fun a (s : Aerodrome.Merge.seam) -> if s.survives then a else a + 1)
        0 seams;
    repaired_events = Array.fold_left (fun a (_, _, f) -> a + f) 0 results;
    metrics;
    plan_seconds;
    merge_seconds;
  }

let check_stealing ~sched ?oversub ?chunk_floor ?cuts ~shards ~threads ~locks
    ~vars arena =
  execute ~sched ~threads ~locks ~vars arena
    (plan ?oversub ?chunk_floor ?cuts ~domains:(Deque.size sched) ~shards
       ~threads arena)
