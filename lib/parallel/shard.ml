(* Chunked parallel checking: plan boundary-summary cuts, run a
   speculative seeded checker per chunk as a work-stealing task, and
   repair each cut's window against the true frontier.  The arena is
   fully built and immutable before any task is submitted, so chunk
   ranges cross domain boundaries without copying or marshalling (the
   chunks are off-heap Bigarrays).

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
  checker : Aerodrome.Opt.t;
  violation : Aerodrome.Violation.t option; (* chunk-local index *)
  seconds : float;
  metrics : Obs.Snapshot.t;
  flight : Traces.Flight.t option;
}

type outcome = {
  violation : Aerodrome.Violation.t option; (* arena-global index *)
  plan : Aerodrome.Merge.plan;
  tasks : task array;
  repaired_events : int;
  plan_seconds : float;
  merge_seconds : float;
}

(* One chunk: a fresh checker seeded from the boundary summary over
   [base, stop).  The checker freezes at its first violation, so the
   loop stops there — by the containment invariant that violation is
   real, though a repair window may surface an earlier one.

   With [?flight] a per-chunk recorder rides along, noting chunk-local
   indices seeded with the boundary depths: position 0 of the recorder
   is the chunk base, so with open transactions straddling the cut no
   position counts as quiescent until they close, and the recorder
   never claims a replayable slice the §15/§17 argument does not
   cover.

   Each chunk's feed loop is also a Chrome span (cat "shard"), so a
   [--trace-out] run shows the chunk lanes per worker domain in
   Perfetto, next to the planner span recorded by {!check_stealing}. *)
let run_chunk ?flight ~threads ~locks ~vars arena
    ((b : Aerodrome.Merge.boundary), (base, stop)) =
  let t0 = Unix.gettimeofday () in
  let seeded = Array.exists (fun d -> d > 0) b.Aerodrome.Merge.depths in
  let fl =
    Option.map
      (fun window ->
        Traces.Flight.create ~window
          ?depths:(if seeded then Some b.Aerodrome.Merge.depths else None)
          ~threads ())
      flight
  in
  let work () =
    let st =
      Aerodrome.Reclaim.with_policy Aerodrome.Reclaim.Off (fun () ->
          Aerodrome.Opt.create ~threads ~locks ~vars)
    in
    if seeded then Aerodrome.Opt.seed_boundary st b.Aerodrome.Merge.depths;
    Obs.Chrome_trace.span ~cat:"shard" "feed" (fun () ->
        let i = ref 0 in
        try
          Traces.Packed.Arena.iter_range arena base stop (fun w ->
              (match fl with
              | Some f -> Traces.Flight.note f !i w
              | None -> ());
              incr i;
              match Aerodrome.Opt.feed_packed st w with
              | Some _ -> raise Exit
              | None -> ())
        with Exit -> ());
    st
  in
  (* each chunk opens its own (domain-local) scope so the checker's
     counters are not lost on the worker domain; the caller merges the
     per-chunk snapshots back into a whole-trace reading *)
  let st, metrics =
    if Obs.on () then Obs.Scope.collect work else (work (), Obs.Snapshot.empty)
  in
  {
    base;
    stop;
    checker = st;
    violation = Aerodrome.Opt.violation st;
    seconds = Unix.gettimeofday () -. t0;
    metrics;
    flight = fl;
  }

(* Feed [from, upto) of the arena into the live checker; the first
   violation comes back rebased to its arena-global position, along
   with the number of events actually fed (the feed stops at a
   violation). *)
let repair st arena ~from ~upto =
  let fed = ref 0 in
  let violation = ref None in
  (try
     let p = ref from in
     Traces.Packed.Arena.iter_range arena from upto (fun w ->
         (match Aerodrome.Opt.feed_packed st w with
         | Some (v : Aerodrome.Violation.t) ->
           violation :=
             Some
               (Aerodrome.Violation.make ~index:!p ~event:v.event ~site:v.site);
           incr fed;
           raise Exit
         | None -> incr fed);
         incr p)
   with Exit -> ());
  (!violation, !fed)

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
let check_stealing ~sched ?(oversub = 8) ?(chunk_floor = 8192) ?cuts ?flight
    ~shards ~threads ~locks ~vars arena =
  let n = Traces.Packed.Arena.length arena in
  let shards =
    match cuts with
    | Some _ -> 0 (* the plan takes the forced cuts verbatim *)
    | None when shards <> 0 -> shards (* forced chunk count (--shards N, tests) *)
    | None ->
      max 1 (min (Deque.size sched * max 1 oversub) (max 1 (n / max 1 chunk_floor)))
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
      owned.(s.Aerodrome.Merge.owner) <- i :: owned.(s.Aerodrome.Merge.owner)
  done;
  let retired = Array.init k (fun _ -> Atomic.make false) in
  let work i () =
    let t =
      run_chunk ?flight ~threads ~locks ~vars arena
        (plan.Aerodrome.Merge.boundaries.(i), bounds.(i))
    in
    Atomic.set retired.(i) true;
    let rv = ref None in
    let fed = ref 0 in
    if t.violation = None then
      List.iter
        (fun si ->
          if !rv = None then begin
            let s = seams.(si) in
            let v, f =
              repair t.checker arena ~from:s.Aerodrome.Merge.from_
                ~upto:s.Aerodrome.Merge.upto
            in
            fed := !fed + f;
            rv := v
          end)
        owned.(i);
    (t, !rv, !fed)
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
  {
    violation = !best;
    plan;
    tasks = Array.map (fun (t, _, _) -> t) results;
    repaired_events = Array.fold_left (fun a (_, _, f) -> a + f) 0 results;
    plan_seconds;
    merge_seconds = Unix.gettimeofday () -. t1;
  }
