(* Boundary-summary cut planning for sharded checking.

   PR 7 only accepted globally quiescent cuts (no thread mid-transaction
   anywhere), where a ⊥-seeded per-chunk Opt run is exact (DESIGN.md
   §15), and replayed everything else sequentially.  This planner
   accepts *any* cut and records per cut a boundary summary — the
   per-thread open-transaction depth vector plus the taint of the open
   transactions' pre-cut accesses — from which the chunk checker is
   seeded ({!Opt.seed_boundary}) and the reconciliation pass repairs
   whatever the seed cannot reproduce.  The exactness argument
   (DESIGN.md §17) rests on a containment invariant: a seeded chunk
   checker's state is always generation-wise contained in the
   sequential checker's, so a speculative chunk can {e miss} violations
   but never invent one, and the only events whose outcome can differ
   lie in the cut's repair window:

   - a quiescent cut has no open transactions: window 0 (the §15 case);
   - a cut whose straddlers (threads mid-transaction) have made {e no}
     accesses since their outermost begin is exactly reproduced by
     depth seeding alone — the open transactions have published
     nothing the chunk cannot see — so window 0;
   - otherwise the open transactions' pre-cut accesses left clock
     state the chunk lacks, and the divergence retires in two rounds.
     Every clock component the chunk is missing is a generation of a
     transaction begun at or before [q1], the position where the last
     straddler closes: the initial surplus is the straddlers' end-time
     clock writes to pre-cut-touched state (all components current at
     their close), and joins propagate component {e values} unchanged.
     AeroDrome's violation checks are own-component epoch threshold
     tests, so a surplus value can only flip a check while the checking
     thread's transaction began at or before [q1] — its begin epoch
     must not exceed the surplus generation.  The window therefore
     closes once every transaction open at [q1] has itself closed; the
     first globally quiescent position at or after the cut is a
     (possibly much later) special case of that horizon.  The gap is
     the repair window: reconciliation re-runs exactly those events
     against the true frontier, instead of replaying the whole chunk.

   Everything here is decidable from the event text alone (per-thread
   depth and touch counters), so planning needs no clock state and
   runs before any domain is spawned.  Equidistant candidates still
   snap to a nearby quiescent position when one exists — a free
   window-0 cut — but a candidate with no quiescent neighbour is now
   accepted with its summary rather than rejected into a replay of the
   whole span. *)

open Traces

type boundary = {
  cut : int;
  depths : int array;
  window : int;
  tainted : int;
}

type plan = {
  boundaries : boundary array;
  targets : int;
  quiescent : int;
  seamed : int;
  tainted_events : int;
  repair_events : int;
}

let origin ~threads =
  { cut = 0; depths = Array.make (max threads 0) 0; window = 0; tainted = 0 }

let trivial ~threads =
  {
    boundaries = [| origin ~threads |];
    targets = 0;
    quiescent = 0;
    seamed = 0;
    tainted_events = 0;
    repair_events = 0;
  }

(* Snapshot a boundary summary from the live frontier.  [window = -1]
   marks a summary whose repair window is still open: it closes once
   the straddlers' transactions and then the transactions open at the
   last straddler's close have all retired (or at the arena end). *)
let summarize ~pos ~depth ~touch =
  let straddlers = ref 0 in
  let tainted = ref 0 in
  Array.iteri
    (fun t d ->
      if d > 0 then begin
        incr straddlers;
        tainted := !tainted + touch.(t)
      end)
    depth;
  let window = if !straddlers = 0 || !tainted = 0 then 0 else -1 in
  ( { cut = pos; depths = Array.copy depth; window; tainted = !tainted },
    !straddlers )

let plan ~threads ~shards ?cuts arena =
  let n = Packed.Arena.length arena in
  let candidates, snap_window =
    match cuts with
    | Some cs ->
      let cs =
        List.sort_uniq compare (List.filter (fun p -> p > 0 && p < n) cs)
      in
      (Array.of_list cs, 0)
    | None ->
      if shards <= 1 || n = 0 then ([||], 0)
      else
        let k = min shards n in
        (Array.init (k - 1) (fun i -> (i + 1) * n / k), max 1 (n / k / 8))
  in
  let m = Array.length candidates in
  if m = 0 then trivial ~threads
  else begin
    (* Per candidate: the nearest quiescent position within
       [snap_window] (a free window-0 cut; spacing exceeds twice the
       snap window, so snapped cuts stay strictly increasing and
       distinct), and the boundary summary at the candidate position
       itself.  A summary with an open repair window waits on a set of
       threads whose current transaction must close: first the
       straddlers (phase 1), then — once the last straddler has
       closed — the threads mid-transaction at that moment (phase 2).
       A thread leaves the set at the first position where its depth
       returns to 0, so any globally quiescent position closes every
       open window at once.

       A waiting set only shrinks at an outermost [End], so the open
       windows are touched there and nowhere else: each window keeps a
       byte-per-thread membership set plus its size, [opened] lists
       the open windows, and the per-event loop allocates nothing —
       O(1) per event, O(open windows) per outermost [End]. *)
    let snapped = Array.make m (-1) in
    let snapd = Array.make m max_int in
    let summary = Array.make m None in
    let straddlers = Array.make m 0 in
    let members = Array.make m Bytes.empty in
    let waiting = Array.make m 0 in
    let phase2 = Array.make m false in
    let opened = Array.make m 0 in
    let nopen = ref 0 in
    let next = ref 0 in
    let lo = ref 0 in
    (* window [j] waits on every thread mid-transaction at [depth] *)
    let wait_on_openers j depth =
      let mem = members.(j) in
      let c = ref 0 in
      for t = 0 to threads - 1 do
        if depth.(t) > 0 then begin
          Bytes.unsafe_set mem t '\001';
          incr c
        end
      done;
      waiting.(j) <- !c
    in
    let close j stop =
      match summary.(j) with
      | Some b -> summary.(j) <- Some { b with window = stop - b.cut }
      | None -> assert false
    in
    (* The planner scan: one pass over the arena keeping per-thread
       transaction depth and the count of accesses since the outermost
       open begin (begins and ends only manipulate the transaction
       structure itself, which depth seeding reproduces, so they do not
       count).  Position [p] is the gap before event [p]; [at p closed]
       runs the window bookkeeping there, with [closed] the thread whose
       outermost transaction event [p - 1] just closed ([-1] if none).
       The scan calls it only where a plan can change: at a quiescent
       position within snapping range of a candidate ([snap_from]), at
       an outermost [End] while a window is open, and at the next
       candidate ([next_cut]). *)
    let depth = Array.make threads 0 in
    let touch = Array.make threads 0 in
    let open_txns = ref 0 in
    let snap_from = ref (candidates.(0) - snap_window) in
    let next_cut = ref candidates.(0) in
    let at pos closed =
      if !open_txns = 0 then begin
        while !lo < m && candidates.(!lo) + snap_window < pos do
          incr lo
        done;
        let j = ref !lo in
        while !j < m && candidates.(!j) - snap_window <= pos do
          let d = abs (pos - candidates.(!j)) in
          if d < snapd.(!j) then begin
            snapd.(!j) <- d;
            snapped.(!j) <- pos
          end;
          incr j
        done;
        snap_from := if !lo < m then candidates.(!lo) - snap_window else max_int
      end;
      if closed >= 0 && !nopen > 0 then begin
        let kept = ref 0 in
        for r = 0 to !nopen - 1 do
          let j = opened.(r) in
          let mem = members.(j) in
          if Bytes.unsafe_get mem closed <> '\000' then begin
            Bytes.unsafe_set mem closed '\000';
            waiting.(j) <- waiting.(j) - 1;
            if waiting.(j) = 0 && not phase2.(j) then begin
              phase2.(j) <- true;
              wait_on_openers j depth
            end
          end;
          if waiting.(j) = 0 then close j pos
          else begin
            opened.(!kept) <- j;
            incr kept
          end
        done;
        nopen := !kept
      end;
      if pos = !next_cut then begin
        let j = !next in
        let b, s = summarize ~pos ~depth ~touch in
        summary.(j) <- Some b;
        straddlers.(j) <- s;
        if b.window < 0 then begin
          members.(j) <- Bytes.make threads '\000';
          wait_on_openers j depth;
          opened.(!nopen) <- j;
          incr nopen
        end;
        incr next;
        next_cut := if !next < m then candidates.(!next) else -1
      end
    in
    if 0 >= !snap_from then at 0 (-1);
    let base = ref 0 in
    Packed.Arena.iter_chunks arena (fun c len ->
        for i = 0 to len - 1 do
          let w = Bigarray.Array1.unsafe_get c i in
          let op = Packed.opcode w in
          let t = Packed.tid w in
          let closed =
            if op = Packed.op_begin then begin
              let d = depth.(t) in
              if d = 0 then begin
                incr open_txns;
                touch.(t) <- 0
              end;
              depth.(t) <- d + 1;
              -1
            end
            else if op = Packed.op_end then begin
              let d = depth.(t) in
              if d = 1 then begin
                depth.(t) <- 0;
                decr open_txns;
                touch.(t) <- 0;
                t
              end
              else begin
                if d > 0 then depth.(t) <- d - 1;
                -1
              end
            end
            else begin
              if depth.(t) > 0 then touch.(t) <- touch.(t) + 1;
              -1
            end
          in
          let pos = !base + i + 1 in
          if
            (!open_txns = 0 && pos >= !snap_from)
            || (closed >= 0 && !nopen > 0)
            || pos = !next_cut
          then at pos closed
        done;
        base := !base + len);
    (* Windows still open at the end of the arena span to it. *)
    for r = 0 to !nopen - 1 do
      close opened.(r) n
    done;
    let boundaries = ref [] in
    let quiescent = ref 0 in
    let seamed = ref 0 in
    let tainted_events = ref 0 in
    Array.iteri
      (fun j _ ->
        if cuts = None && snapped.(j) >= 0 then begin
          incr quiescent;
          boundaries :=
            {
              cut = snapped.(j);
              depths = Array.make threads 0;
              window = 0;
              tainted = 0;
            }
            :: !boundaries
        end
        else
          match summary.(j) with
          | None -> ()
          | Some b ->
            if straddlers.(j) = 0 then incr quiescent else incr seamed;
            tainted_events := !tainted_events + b.tainted;
            boundaries := b :: !boundaries)
      candidates;
    let boundaries =
      Array.of_list (origin ~threads :: List.rev !boundaries)
    in
    (* Planned repair total: window segments clipped against the
       covered frontier.  Window ends are monotone in cut order: with
       [f c t] = the first position >= [c] where thread [t] is outside
       any transaction, the horizon is h(c) = max_t f(max_t f(c,t), t),
       and [f] is non-decreasing in [c] — so the clipped segments are
       disjoint and ordered. *)
    let covered = ref 0 in
    let repair = ref 0 in
    Array.iter
      (fun b ->
        let h = b.cut + b.window in
        let from = max b.cut !covered in
        if h > from then begin
          repair := !repair + (h - from);
          covered := h
        end)
      boundaries;
    {
      boundaries;
      targets = m;
      quiescent = !quiescent;
      seamed = !seamed;
      tainted_events = !tainted_events;
      repair_events = !repair;
    }
  end

let bounds plan ~total =
  let k = Array.length plan.boundaries in
  Array.init k (fun i ->
      ( plan.boundaries.(i).cut,
        if i = k - 1 then total else plan.boundaries.(i + 1).cut ))

type seam = {
  owner : int;
  from_ : int;
  upto : int;
  exact_from : int;
  survives : bool;
}

(* The left-to-right reconciliation fold, precomputed.  Everything the
   fold decides — where each repair segment starts and ends, which
   chunk's checker it feeds (the nearest surviving predecessor), and
   from which position a chunk's own speculative verdict is trusted —
   depends only on the cuts, windows and chunk extents in the plan,
   never on what the chunk checkers find.  Evaluating the fold here,
   before any chunk has run, is what makes out-of-order execution
   possible: a chunk can perform the repairs it owns the moment it
   retires, regardless of how many later (or earlier non-owner) chunks
   are still in flight, and the final verdict is the minimum-index
   candidate over components whose exact regions partition the arena
   (DESIGN.md §18).

   The invariant carried by [covered] (mirroring [plan]'s repair
   accounting and {!Shard}'s sequential reconcile): after chunk [i-1]
   is folded in, [covered] >= [cut i], so segment [i] starts exactly
   at the covered frontier and the clipped segments are disjoint and
   ordered.  A chunk whose whole extent falls inside the repair
   horizon does not survive: its range is re-fed by the segment and
   its checker is discarded. *)
let seams plan ~total =
  let bs = plan.boundaries in
  let k = Array.length bs in
  let stop i = if i = k - 1 then total else bs.(i + 1).cut in
  let out =
    Array.make k { owner = 0; from_ = 0; upto = 0; exact_from = 0; survives = true }
  in
  let covered = ref (stop 0) in
  let owner = ref 0 in
  for i = 1 to k - 1 do
    let h = min total (bs.(i).cut + bs.(i).window) in
    let from_ = !covered in
    let upto = max h from_ in
    let exact_from = max from_ h in
    let survives = stop i > exact_from in
    out.(i) <- { owner = !owner; from_; upto; exact_from; survives };
    if survives then begin
      covered := stop i;
      owner := i
    end
    else covered := exact_from
  done;
  out
