(* The list-based boundary-summary planner as it stood before the
   allocation-free rewrite of [Aerodrome.Merge.plan]: every position
   with an open repair window re-filters each window's waiting-thread
   list, and new windows are appended to the pending list.  Kept
   verbatim as the differential oracle — [Merge.plan] must return a
   structurally equal plan on every input. *)

open Traces
open Aerodrome.Merge

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

(* One pass over the arena: per-thread transaction depth, per-thread
   count of accesses since the outermost open begin (begins and ends
   only manipulate the transaction structure itself, which depth
   seeding reproduces, so they do not count), and a callback at every
   position with the live frontier.  [at ~pos] runs before event [pos]
   (position p = the gap before event p), with [quiet] true iff no
   thread is mid-transaction there. *)
let scan ~threads arena at =
  let depth = Array.make threads 0 in
  let touch = Array.make threads 0 in
  let open_txns = ref 0 in
  let pos = ref 0 in
  at ~pos:0 ~quiet:true ~depth ~touch;
  Packed.Arena.iter arena (fun w ->
      let op = Packed.opcode w in
      let t = Packed.tid w in
      if op = Packed.op_begin then begin
        if depth.(t) = 0 then begin
          incr open_txns;
          touch.(t) <- 0
        end;
        depth.(t) <- depth.(t) + 1
      end
      else if op = Packed.op_end then begin
        if depth.(t) > 0 then begin
          depth.(t) <- depth.(t) - 1;
          if depth.(t) = 0 then begin
            decr open_txns;
            touch.(t) <- 0
          end
        end
      end
      else if depth.(t) > 0 then touch.(t) <- touch.(t) + 1;
      incr pos;
      at ~pos:!pos ~quiet:(!open_txns = 0) ~depth ~touch)

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
       itself.  A summary with an open repair window sits in [pending]
       carrying the set of threads whose current transaction it is
       still waiting on: first the straddlers (phase 1), then — once
       the last straddler has closed — the threads mid-transaction at
       that moment (phase 2).  A thread leaves the set at the first
       position where its depth returns to 0, so any globally
       quiescent position closes every pending window at once. *)
    let snapped = Array.make m (-1) in
    let snapd = Array.make m max_int in
    let summary = Array.make m None in
    let pending = ref [] in
    let next = ref 0 in
    let lo = ref 0 in
    let waiting_on depth = function
      | [] -> []
      | mask -> List.filter (fun t -> depth.(t) > 0) mask
    in
    let openers depth =
      let acc = ref [] in
      Array.iteri (fun t d -> if d > 0 then acc := t :: !acc) depth;
      !acc
    in
    scan ~threads arena (fun ~pos ~quiet ~depth ~touch ->
        if quiet then begin
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
          done
        end;
        if !pending <> [] then
          pending :=
            List.filter
              (fun (j, b, phase2, mask) ->
                mask := waiting_on depth !mask;
                if !mask = [] && not !phase2 then begin
                  phase2 := true;
                  mask := openers depth
                end;
                if !mask = [] then begin
                  summary.(j) <- Some ({ b with window = pos - b.cut }, -1);
                  false
                end
                else true)
              !pending;
        if !next < m && candidates.(!next) = pos then begin
          let b, straddlers = summarize ~pos ~depth ~touch in
          if b.window < 0 then
            pending := !pending @ [ (!next, b, ref false, ref (openers depth)) ];
          summary.(!next) <- Some (b, straddlers);
          incr next
        end);
    (* Windows still open at the end of the arena span to it. *)
    List.iter
      (fun (j, b, _, _) ->
        summary.(j) <- Some ({ b with window = n - b.cut }, -1))
      !pending;
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
          | Some (b, straddlers) ->
            if straddlers = 0 then incr quiescent else incr seamed;
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
