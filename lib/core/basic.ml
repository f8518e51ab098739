open Traces
module AC = Vclock.Aclock

let name = "aerodrome-basic"

let nil = -1

(* Per-variable state: W_x plus the per-thread read row R_{t,x}, the row
   itself still allocated on the first read.  Rows and clocks are
   recycled when a variable is released at its last access. *)
type vstate = {
  bw : AC.t;  (* W_x: timestamp of the last w(x) *)
  mutable brow : AC.t option array;  (* R_{t,x}, [||] until the first read *)
  mutable blast_w : int;  (* lastWThr_x *)
  mutable btouch : int;
}

type t = {
  threads : int;
  locks : int;
  vars : int;
  c : AC.t array;  (* C_t: timestamp of thread t's last event *)
  cb : AC.t array;  (* C⊲_t: timestamp of thread t's last begin *)
  l : AC.t array;  (* L_ℓ: timestamp of the last rel(ℓ) *)
  v : vstate option array;  (* None: untouched, or released after last use *)
  last_rel_thr : int array;  (* lastRelThr_ℓ *)
  depth : int array;  (* begin/end nesting depth per thread *)
  pool : AC.Pool.t;
  mutable row_free : AC.t option array list;  (* recycled read rows *)
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
      row_free = [];
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
let in_transaction = active

let vget st x =
  match Array.unsafe_get st.v x with
  | Some vs -> vs
  | None ->
    let vs =
      { bw = AC.Pool.alloc st.pool; brow = [||]; blast_w = nil; btouch = 0 }
    in
    st.v.(x) <- Some vs;
    vs

let release_var st x vs =
  AC.Pool.release st.pool vs.bw;
  let row = vs.brow in
  if row <> [||] then begin
    for u = 0 to Array.length row - 1 do
      match row.(u) with
      | Some clk ->
        AC.Pool.release st.pool clk;
        row.(u) <- None
      | None -> ()
    done;
    st.row_free <- row :: st.row_free
  end;
  st.v.(x) <- None;
  st.reclaimed <- st.reclaimed + 1

(* See [Opt.reclaim_after_access]. *)
let reclaim_after_access st x vs =
  match st.reclaim with
  | Reclaim.Off -> ()
  | Reclaim.Oracle lt ->
    if Lifetime.last_var lt x = st.processed - 1 then release_var st x vs
  | Reclaim.Inactivity _ -> vs.btouch <- st.processed

let sweep st =
  match st.reclaim with
  | Reclaim.Off | Reclaim.Oracle _ -> ()
  | Reclaim.Inactivity { horizon } ->
    let cutoff = st.processed - horizon in
    for x = 0 to Array.length st.v - 1 do
      match Array.unsafe_get st.v x with
      | Some vs when vs.btouch <= cutoff ->
        ignore (AC.Pool.collapse st.pool vs.bw);
        let row = vs.brow in
        for u = 0 to Array.length row - 1 do
          match row.(u) with
          | Some clk -> ignore (AC.Pool.collapse st.pool clk)
          | None -> ()
        done
      | Some _ | None -> ()
    done;
    for l = 0 to st.locks - 1 do
      ignore (AC.Pool.collapse st.pool st.l.(l))
    done;
    st.next_sweep <- st.processed + horizon

exception Found of Violation.site

(* checkAndGet(clk, t) of Algorithm 1: declare a violation if clk is
   ordered after the begin event of t's active transaction, otherwise join
   clk into C_t. *)
let check_and_get st clk t site =
  if active st t && AC.leq st.cb.(t) clk then raise (Found site);
  if Obs.on () then Cmetrics.vc_join st.m;
  AC.join_into ~into:st.c.(t) clk

let read_row st vs =
  if vs.brow = [||] then
    vs.brow <-
      (match st.row_free with
      | row :: rest ->
        st.row_free <- rest;
        row
      | [] -> Array.make st.threads None);
  vs.brow

let read_clock_ref st t vs =
  let row = read_row st vs in
  match row.(t) with
  | Some clk -> clk
  | None ->
    let clk = AC.Pool.alloc st.pool in
    row.(t) <- Some clk;
    clk

let handle_acquire st t l =
  if st.last_rel_thr.(l) <> t then
    check_and_get st st.l.(l) t Violation.At_acquire

let handle_release st t l =
  AC.assign ~into:st.l.(l) st.c.(t);
  st.last_rel_thr.(l) <- t

let handle_fork st t u =
  if Obs.on () then Cmetrics.vc_join st.m;
  AC.join_into ~into:st.c.(u) st.c.(t)

let handle_join st t u = check_and_get st st.c.(u) t Violation.At_join

let handle_read st t x =
  let vs = vget st x in
  if vs.blast_w <> t then
    check_and_get st vs.bw t Violation.At_read;
  AC.assign ~into:(read_clock_ref st t vs) st.c.(t);
  reclaim_after_access st x vs

let handle_write st t x =
  let vs = vget st x in
  if vs.blast_w <> t then
    check_and_get st vs.bw t Violation.At_write_vs_write;
  let row = vs.brow in
  for u = 0 to Array.length row - 1 do
    if u <> t then
      match row.(u) with
      | Some r_ux -> check_and_get st r_ux t Violation.At_write_vs_read
      | None -> ()
  done;
  AC.assign ~into:vs.bw st.c.(t);
  vs.blast_w <- t;
  reclaim_after_access st x vs

let handle_begin st t =
  st.depth.(t) <- st.depth.(t) + 1;
  if st.depth.(t) = 1 then begin
    if Obs.on () then Cmetrics.txn_begin st.m;
    AC.bump st.c.(t) t;
    AC.assign ~into:st.cb.(t) st.c.(t)
  end

(* End of an outermost transaction: propagate the transaction's final
   timestamp to every clock that knows its begin event (lines 38–46).
   Untouched variables read as ⊥ (never ⊒ an active begin clock), and
   released variables have no future access their refresh could feed, so
   both are skipped. *)
let handle_end st t =
  if st.depth.(t) > 0 then begin
    st.depth.(t) <- st.depth.(t) - 1;
    if st.depth.(t) = 0 then begin
      if Obs.on () then Cmetrics.txn_commit st.m;
      let cb_t = st.cb.(t) and c_t = st.c.(t) in
      for u = 0 to st.threads - 1 do
        if u <> t && AC.leq cb_t st.c.(u) then
          check_and_get st c_t u (Violation.At_end (Ids.Tid.of_int u))
      done;
      for l = 0 to st.locks - 1 do
        if AC.leq cb_t st.l.(l) then begin
          if Obs.on () then Cmetrics.vc_join st.m;
          AC.join_into ~into:st.l.(l) c_t
        end
      done;
      for x = 0 to Array.length st.v - 1 do
        match Array.unsafe_get st.v x with
        | None -> ()
        | Some vs ->
          if AC.leq cb_t vs.bw then begin
            if Obs.on () then Cmetrics.vc_join st.m;
            AC.join_into ~into:vs.bw c_t
          end;
          let row = vs.brow in
          if row <> [||] then
            for u = 0 to st.threads - 1 do
              match row.(u) with
              | Some r_ux when AC.leq cb_t r_ux -> AC.join_into ~into:r_ux c_t
              | Some _ | None -> ()
            done
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

(* Introspection *)

let snapshot clk = Vclock.Vtime.of_list (AC.to_list clk)
let thread_clock st t = snapshot st.c.(t)
let begin_clock st t = snapshot st.cb.(t)
let lock_clock st l = snapshot st.l.(l)

let write_clock st x =
  match st.v.(x) with
  | Some vs -> snapshot vs.bw
  | None -> Vclock.Vtime.bottom st.threads

let read_clock st ~thread ~var =
  match st.v.(var) with
  | None -> Vclock.Vtime.bottom st.threads
  | Some vs ->
    let row = vs.brow in
    if row = [||] then Vclock.Vtime.bottom st.threads
    else (
      match row.(thread) with
      | Some clk -> snapshot clk
      | None -> Vclock.Vtime.bottom st.threads)
