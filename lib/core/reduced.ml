open Traces
module AC = Vclock.Aclock

let name = "aerodrome-reduced"

let nil = -1

(* Per-variable clock state, allocated on first access and recycled
   through the pool (see {!Opt} — same layout without the lazy-update
   metadata). *)
type vstate = {
  rw : AC.t;  (* W_x *)
  rr : AC.t;  (* R_x = ⊔_u R_{u,x} *)
  rhr : AC.t;  (* hR_x = ⊔_u R_{u,x}[0/u] *)
  mutable rlast_w : int;
  mutable rtouch : int;
}

type t = {
  threads : int;
  locks : int;
  vars : int;
  c : AC.t array;
  cb : AC.t array;
  l : AC.t array;
  v : vstate option array;  (* None: untouched, or released after last use *)
  last_rel_thr : int array;
  depth : int array;
  pool : AC.Pool.t;
  reclaim : Reclaim.policy;
  mutable reclaimed : int;
  mutable next_sweep : int;
  mutable violation : Violation.t option;
  mutable processed : int;
  m : Cmetrics.t;
}

let register_reclaim_probes st =
  let reg = Cmetrics.registry st.m in
  Obs.Registry.probe reg "pool.hits" (fun () ->
      Obs.Snapshot.Int (AC.Pool.hits st.pool));
  Obs.Registry.probe reg "pool.misses" (fun () ->
      Obs.Snapshot.Int (AC.Pool.misses st.pool));
  Obs.Registry.probe reg "reclaim.states" (fun () ->
      Obs.Snapshot.Int st.reclaimed);
  Obs.Registry.probe reg "reclaim.collapsed" (fun () ->
      Obs.Snapshot.Int (AC.Pool.collapsed st.pool))

let create ~threads ~locks ~vars =
  let dim = max threads 1 in
  let reclaim = Reclaim.ambient () in
  let st =
    {
      threads = dim;
      locks;
      vars;
      c = Array.init dim (fun t -> AC.unit dim t);
      cb = Array.init dim (fun _ -> AC.bottom dim);
      l = Array.init (max locks 0) (fun _ -> AC.bottom dim);
      v = Array.make (max vars 0) None;
      last_rel_thr = Array.make (max locks 0) nil;
      depth = Array.make dim 0;
      pool = AC.Pool.create dim;
      reclaim;
      reclaimed = 0;
      next_sweep =
        (match reclaim with
        | Reclaim.Inactivity { horizon } -> horizon
        | Reclaim.Off | Reclaim.Oracle _ -> max_int);
      violation = None;
      processed = 0;
      m = Cmetrics.create ();
    }
  in
  (match reclaim with
  | Reclaim.Off -> ()
  | Reclaim.Oracle _ | Reclaim.Inactivity _ -> register_reclaim_probes st);
  st

let violation st = st.violation
let processed st = st.processed
let metrics st = Cmetrics.snapshot st.m
let active st t = st.depth.(t) > 0

let vget st x =
  match Array.unsafe_get st.v x with
  | Some vs -> vs
  | None ->
    let vs =
      {
        rw = AC.Pool.alloc st.pool;
        rr = AC.Pool.alloc st.pool;
        rhr = AC.Pool.alloc st.pool;
        rlast_w = nil;
        rtouch = 0;
      }
    in
    st.v.(x) <- Some vs;
    vs

let release_var st x vs =
  AC.Pool.release st.pool vs.rw;
  AC.Pool.release st.pool vs.rr;
  AC.Pool.release st.pool vs.rhr;
  st.v.(x) <- None;
  st.reclaimed <- st.reclaimed + 1

(* See [Opt.reclaim_after_access]: under an oracle the release is exact
   (no later access reads the variable's state; the end-of-transaction
   scan skips released variables, whose refreshes would be dead writes —
   the skipped joins are the memory traffic reclamation eliminates). *)
let reclaim_after_access st x vs =
  match st.reclaim with
  | Reclaim.Off -> ()
  | Reclaim.Oracle lt ->
    if Lifetime.last_var lt x = st.processed - 1 then release_var st x vs
  | Reclaim.Inactivity _ -> vs.rtouch <- st.processed

let sweep st =
  match st.reclaim with
  | Reclaim.Off | Reclaim.Oracle _ -> ()
  | Reclaim.Inactivity { horizon } ->
    let cutoff = st.processed - horizon in
    for x = 0 to Array.length st.v - 1 do
      match Array.unsafe_get st.v x with
      | Some vs when vs.rtouch <= cutoff ->
        ignore (AC.Pool.collapse st.pool vs.rw);
        ignore (AC.Pool.collapse st.pool vs.rr);
        ignore (AC.Pool.collapse st.pool vs.rhr)
      | Some _ | None -> ()
    done;
    for l = 0 to st.locks - 1 do
      ignore (AC.Pool.collapse st.pool st.l.(l))
    done;
    st.next_sweep <- st.processed + horizon

exception Found of Violation.site

(* checkAndGet(clk1, clk2, t): check against clk1, join clk2 into C_t. *)
let check_and_get st clk1 clk2 t site =
  if active st t && AC.leq st.cb.(t) clk1 then raise (Found site);
  if Obs.on () then Cmetrics.vc_join st.m;
  AC.join_into ~into:st.c.(t) clk2

(* The check against hR_x must compare only the t-component: hR_x is the
   join of reader clocks with each reader's own component zeroed, so a full
   pointwise comparison spuriously fails whenever a reader's own history is
   part of C⊲_t (e.g. through a fork).  Appendix C.1 derives the check as
   C⊲_t(t) ≤ hR_x(t), equivalent — by the whole-clock-join invariant — to
   ∃u≠t. C⊲_t ⊑ R_{u,x}, which is Algorithm 1's check. *)
let check_read_and_get st t vs site =
  if active st t && AC.get st.cb.(t) t <= AC.get vs.rhr t then
    raise (Found site);
  if Obs.on () then Cmetrics.vc_join st.m;
  AC.join_into ~into:st.c.(t) vs.rr

let handle_acquire st t l =
  if st.last_rel_thr.(l) <> t then
    check_and_get st st.l.(l) st.l.(l) t Violation.At_acquire

let handle_release st t l =
  AC.assign ~into:st.l.(l) st.c.(t);
  st.last_rel_thr.(l) <- t

let handle_fork st t u =
  if Obs.on () then Cmetrics.vc_join st.m;
  AC.join_into ~into:st.c.(u) st.c.(t)

let handle_join st t u =
  check_and_get st st.c.(u) st.c.(u) t Violation.At_join

let handle_read st t x =
  let vs = vget st x in
  if vs.rlast_w <> t then
    check_and_get st vs.rw vs.rw t Violation.At_read;
  AC.join_into ~into:vs.rr st.c.(t);
  AC.join_into_zeroed ~into:vs.rhr st.c.(t) t;
  reclaim_after_access st x vs

let handle_write st t x =
  let vs = vget st x in
  if vs.rlast_w <> t then
    check_and_get st vs.rw vs.rw t Violation.At_write_vs_write;
  check_read_and_get st t vs Violation.At_write_vs_read;
  AC.assign ~into:vs.rw st.c.(t);
  vs.rlast_w <- t;
  reclaim_after_access st x vs

let handle_begin st t =
  st.depth.(t) <- st.depth.(t) + 1;
  if st.depth.(t) = 1 then begin
    if Obs.on () then Cmetrics.txn_begin st.m;
    AC.bump st.c.(t) t;
    AC.assign ~into:st.cb.(t) st.c.(t)
  end

let handle_end st t =
  if st.depth.(t) > 0 then begin
    st.depth.(t) <- st.depth.(t) - 1;
    if st.depth.(t) = 0 then begin
      if Obs.on () then Cmetrics.txn_commit st.m;
      let cb_t = st.cb.(t) and c_t = st.c.(t) in
      for u = 0 to st.threads - 1 do
        if u <> t && AC.leq cb_t st.c.(u) then
          check_and_get st c_t c_t u (Violation.At_end (Ids.Tid.of_int u))
      done;
      for l = 0 to st.locks - 1 do
        if AC.leq cb_t st.l.(l) then begin
          if Obs.on () then Cmetrics.vc_join st.m;
          AC.join_into ~into:st.l.(l) c_t
        end
      done;
      (* Untouched variables read as ⊥, which never satisfies
         [AC.leq cb_t] inside a transaction (cb_t(t) >= 1), so skipping
         [None] entries matches the dense scan; released variables skip
         dead refreshes. *)
      for x = 0 to Array.length st.v - 1 do
        match Array.unsafe_get st.v x with
        | None -> ()
        | Some vs ->
          if AC.leq cb_t vs.rw then begin
            if Obs.on () then Cmetrics.vc_join st.m;
            AC.join_into ~into:vs.rw c_t
          end;
          if AC.leq cb_t vs.rr then begin
            if Obs.on () then Cmetrics.vc_joins_add st.m 2;
            AC.join_into ~into:vs.rr c_t;
            AC.join_into_zeroed ~into:vs.rhr c_t t
          end
      done
    end
  end

(* The one event entry: ids straight from the packed word's bit slices,
   the boxed event materialized only at a violation. *)
let feed_packed st w =
  match st.violation with
  | Some _ as v -> v
  | None -> (
    st.processed <- st.processed + 1;
    if st.processed >= st.next_sweep then sweep st;
    if Obs.on () then Cmetrics.count_op st.m (Packed.opcode w);
    let t = Packed.tid w in
    let d = Packed.target w in
    match
      (let op = Packed.opcode w in
       if op = Packed.op_read then handle_read st t d
       else if op = Packed.op_write then handle_write st t d
       else if op = Packed.op_acquire then handle_acquire st t d
       else if op = Packed.op_release then handle_release st t d
       else if op = Packed.op_fork then handle_fork st t d
       else if op = Packed.op_join then handle_join st t d
       else if op = Packed.op_begin then handle_begin st t
       else handle_end st t)
    with
    | () -> None
    | exception Found site ->
      let e = Packed.to_event w in
      let v = Violation.make ~index:(st.processed - 1) ~event:e ~site in
      if Obs.on () then Cmetrics.found_violation st.m (st.processed - 1);
      st.violation <- Some v;
      Some v)

let snapshot clk = Vclock.Vtime.of_list (AC.to_list clk)
let bottom_time st = snapshot (AC.bottom st.threads)
let thread_clock st t = snapshot st.c.(t)
let begin_clock st t = snapshot st.cb.(t)
let lock_clock st l = snapshot st.l.(l)

let write_clock st x =
  match st.v.(x) with Some vs -> snapshot vs.rw | None -> bottom_time st

let read_clock_joined st x =
  match st.v.(x) with Some vs -> snapshot vs.rr | None -> bottom_time st

let read_clock_check st x =
  match st.v.(x) with Some vs -> snapshot vs.rhr | None -> bottom_time st
