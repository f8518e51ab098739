open Traces
module Violation = Aerodrome.Violation
module Checker = Aerodrome.Checker
module VC = Vclock.Vector_clock

let name = "aerodrome-preepoch"

let nil = -1

(* Small integer sets over a fixed universe [0..n-1] with O(1) membership
   and O(size) iteration/clearing: a list of members plus a byte map. *)
module Iset = struct
  type t = { mutable elems : int list; mem : Bytes.t }

  let create n = { elems = []; mem = Bytes.make (max n 1) '\000' }
  let mem s i = Bytes.unsafe_get s.mem i <> '\000'

  let add s i =
    if not (mem s i) then begin
      Bytes.unsafe_set s.mem i '\001';
      s.elems <- i :: s.elems
    end

  let remove s i =
    if mem s i then begin
      Bytes.unsafe_set s.mem i '\000';
      s.elems <- List.filter (fun j -> j <> i) s.elems
    end

  let clear s =
    List.iter (fun i -> Bytes.unsafe_set s.mem i '\000') s.elems;
    s.elems <- []

  let iter f s = List.iter f s.elems
end

type t = {
  threads : int;
  locks : int;
  vars : int;
  fast_checks : bool;
  faithful : bool;
  c : VC.t array;
  cb : VC.t array;
  l : VC.t array;
  w : VC.t array;
  r : VC.t array;  (* R_x *)
  hr : VC.t array;  (* hR_x *)
  last_rel_thr : int array;
  last_w_thr : int array;
  stale_w : Bytes.t;  (* Stale^w_x: is W_x lazily represented by C_lastWThr? *)
  stale_r : Iset.t array;  (* Stale^r_x: readers not yet flushed into R_x *)
  upd_r : Iset.t array;  (* UpdateSet^r_t *)
  upd_w : Iset.t array;  (* UpdateSet^w_t *)
  depth : int array;
  seq : int array;  (* outermost-transaction sequence number per thread *)
  parent : (int * int) option array;  (* forking (thread, seq), per thread *)
  mutable violation : Violation.t option;
  mutable processed : int;
}

let create_with ?(fast_checks = true) ?(faithful = false) ~threads ~locks
    ~vars () =
  let dim = max threads 1 in
  {
    threads = dim;
    locks;
    vars;
    fast_checks;
    faithful;
    c = Array.init dim (fun t -> VC.unit dim t);
    cb = Array.init dim (fun _ -> VC.bottom dim);
    l = Array.init (max locks 0) (fun _ -> VC.bottom dim);
    w = Array.init (max vars 0) (fun _ -> VC.bottom dim);
    r = Array.init (max vars 0) (fun _ -> VC.bottom dim);
    hr = Array.init (max vars 0) (fun _ -> VC.bottom dim);
    last_rel_thr = Array.make (max locks 0) nil;
    last_w_thr = Array.make (max vars 0) nil;
    stale_w = Bytes.make (max vars 1) '\000';
    stale_r = Array.init (max vars 0) (fun _ -> Iset.create dim);
    upd_r = Array.init dim (fun _ -> Iset.create (max vars 1));
    upd_w = Array.init dim (fun _ -> Iset.create (max vars 1));
    depth = Array.make dim 0;
    seq = Array.make dim 0;
    parent = Array.make dim None;
    violation = None;
    processed = 0;
  }

let create ~threads ~locks ~vars = create_with ~threads ~locks ~vars ()

let violation st = st.violation
let processed st = st.processed
let active st t = st.depth.(t) > 0

let is_stale_w st x = Bytes.unsafe_get st.stale_w x <> '\000'
let set_stale_w st x b = Bytes.unsafe_set st.stale_w x (if b then '\001' else '\000')

(* C⊲_t ⊑ clk, in O(1) when the whole-clock-join invariant allows it. *)
let begin_leq st t clk =
  if st.fast_checks then VC.get st.cb.(t) t <= VC.get clk t
  else VC.leq st.cb.(t) clk

exception Found of Violation.site

(* checkAndGet(clk1, clk2, t) of Algorithm 3. *)
let check_and_get st clk1 clk2 t site =
  if active st t && begin_leq st t clk1 then raise (Found site);
  VC.join_into ~into:st.c.(t) clk2

(* The hR_x check compares only the t-component, independently of
   [fast_checks]: hR_x zeroes each reader's own component, so the full
   pointwise order is the wrong comparison for it (see Reduced). *)
let check_read_and_get st t x site =
  if active st t && VC.get st.cb.(t) t <= VC.get st.hr.(x) t then
    raise (Found site);
  VC.join_into ~into:st.c.(t) st.r.(x)

(* After [clk] (the value just folded into W_x or R_x) grew the variable's
   clock, record x in the update set of every other active transaction the
   new value covers, so that transaction's end refreshes the clock too.
   Algorithm 3 runs this loop at reads and writes only; running it at ends
   as well closes the transitive-ordering gap (see the .mli). *)
let propagate_update_sets st upd x ~skip clk =
  for u = 0 to st.threads - 1 do
    if u <> skip && active st u && begin_leq st u clk then Iset.add upd.(u) x
  done

let handle_acquire st t l =
  if st.last_rel_thr.(l) <> t then
    check_and_get st st.l.(l) st.l.(l) t Violation.At_acquire

let handle_release st t l =
  VC.assign ~into:st.l.(l) st.c.(t);
  st.last_rel_thr.(l) <- t

let handle_fork st t u =
  VC.join_into ~into:st.c.(u) st.c.(t);
  st.parent.(u) <- (if active st t then Some (t, st.seq.(t)) else None)

let handle_join st t u =
  check_and_get st st.c.(u) st.c.(u) t Violation.At_join

(* Check a read or write against the last write: against the writer's live
   clock while its transaction is active (W_x stale), against the
   materialized W_x otherwise. *)
let check_vs_last_write st t x site =
  if st.last_w_thr.(x) <> t then begin
    if is_stale_w st x then begin
      let wt = st.last_w_thr.(x) in
      check_and_get st st.c.(wt) st.c.(wt) t site
    end
    else check_and_get st st.w.(x) st.w.(x) t site
  end

let handle_read st t x =
  check_vs_last_write st t x Violation.At_read;
  if active st t || st.faithful then begin
    Iset.add st.stale_r.(x) t;
    (* Algorithm 3 lines 34–36: every covered active transaction must
       refresh R_x at its end; the reader's own transaction qualifies. *)
    propagate_update_sets st st.upd_r x ~skip:nil st.c.(t)
  end
  else begin
    (* Unary read: update eagerly.  The printed algorithm leaves it in
       Stale^r_x, where a later flush would use this thread's clock as
       inflated by its subsequent transactions — a false positive. *)
    VC.join_into ~into:st.r.(x) st.c.(t);
    VC.join_into_zeroed ~into:st.hr.(x) st.c.(t) t;
    propagate_update_sets st st.upd_r x ~skip:nil st.c.(t)
  end

let flush_stale_readers st x =
  Iset.iter
    (fun u ->
      VC.join_into ~into:st.r.(x) st.c.(u);
      VC.join_into_zeroed ~into:st.hr.(x) st.c.(u) u)
    st.stale_r.(x);
  Iset.clear st.stale_r.(x)

let handle_write st t x =
  check_vs_last_write st t x Violation.At_write_vs_write;
  flush_stale_readers st x;
  check_read_and_get st t x Violation.At_write_vs_read;
  if active st t || st.faithful then set_stale_w st x true
  else begin
    (* Unary write: materialize eagerly (same rationale as unary reads). *)
    VC.assign ~into:st.w.(x) st.c.(t);
    set_stale_w st x false
  end;
  st.last_w_thr.(x) <- t;
  propagate_update_sets st st.upd_w x ~skip:nil st.c.(t)

let handle_begin st t =
  st.depth.(t) <- st.depth.(t) + 1;
  if st.depth.(t) = 1 then begin
    st.seq.(t) <- st.seq.(t) + 1;
    VC.bump st.c.(t) t;
    VC.assign ~into:st.cb.(t) st.c.(t)
  end

let parent_alive st t =
  match st.parent.(t) with
  | None -> false
  | Some (p, s) -> st.depth.(p) > 0 && st.seq.(p) = s

(* Garbage-collection test.  The printed Algorithm 3 keeps a completing
   transaction iff the forking transaction is still alive or the thread's
   clock changed during the transaction.  That under-approximates "has an
   incoming edge" in two ways: an edge from a transaction whose knowledge
   this thread had already absorbed changes nothing in the clock, and a
   program-order edge from the thread's own earlier (kept) transaction is
   invisible to both tests — in either case the transaction is wrongly
   collected and a later cycle through it is missed.

   The sound criterion used here: keep the transaction iff its clock
   contains the begin of some {e other} thread's still-active transaction.
   Any future cycle through the completing transaction must route through a
   currently-active foreign transaction W (edges into already-completed
   transactions can no longer form), and the frozen part of such a cycle
   has already carried C⊲_W into this thread's clock, so the test is a
   sound over-approximation; it also subsumes the alive-parent case, since
   a fork performed inside an active transaction transfers that
   transaction's begin to the child.  [faithful] reproduces the printed
   behaviour. *)
let has_incoming_edge st t =
  if st.faithful then
    parent_alive st t || not (VC.equal_except st.cb.(t) st.c.(t) t)
  else begin
    let c_t = st.c.(t) in
    let rec knows_active_foreign u =
      u < st.threads
      && ((u <> t && st.depth.(u) > 0
           && VC.get c_t u >= VC.get st.cb.(u) u)
         || knows_active_foreign (u + 1))
    in
    knows_active_foreign 0
  end

let end_with_incoming_edge st t =
  let c_t = st.c.(t) in
  for u = 0 to st.threads - 1 do
    if u <> t && begin_leq st t st.c.(u) then
      check_and_get st c_t c_t u (Violation.At_end (Ids.Tid.of_int u))
  done;
  for l = 0 to st.locks - 1 do
    if begin_leq st t st.l.(l) then VC.join_into ~into:st.l.(l) c_t
  done;
  Iset.iter
    (fun x ->
      if (not (is_stale_w st x)) || st.last_w_thr.(x) = t then begin
        VC.join_into ~into:st.w.(x) c_t;
        if not st.faithful then
          propagate_update_sets st st.upd_w x ~skip:t c_t
      end;
      if st.last_w_thr.(x) = t then set_stale_w st x false)
    st.upd_w.(t);
  Iset.clear st.upd_w.(t);
  Iset.iter
    (fun x ->
      VC.join_into ~into:st.r.(x) c_t;
      VC.join_into_zeroed ~into:st.hr.(x) c_t t;
      Iset.remove st.stale_r.(x) t;
      if not st.faithful then propagate_update_sets st st.upd_r x ~skip:t c_t)
    st.upd_r.(t);
  Iset.clear st.upd_r.(t)

let end_garbage_collect st t =
  Iset.iter (fun x -> Iset.remove st.stale_r.(x) t) st.upd_r.(t);
  Iset.clear st.upd_r.(t);
  Iset.iter
    (fun x ->
      if st.last_w_thr.(x) = t then begin
        set_stale_w st x false;
        st.last_w_thr.(x) <- nil
      end)
    st.upd_w.(t);
  Iset.clear st.upd_w.(t);
  for l = 0 to st.locks - 1 do
    if st.last_rel_thr.(l) = t then st.last_rel_thr.(l) <- nil
  done

let handle_end st t =
  if st.depth.(t) > 0 then begin
    st.depth.(t) <- st.depth.(t) - 1;
    if st.depth.(t) = 0 then
      if has_incoming_edge st t then end_with_incoming_edge st t
      else end_garbage_collect st t
  end

let feed st (e : Event.t) =
  match st.violation with
  | Some _ as v -> v
  | None -> (
    st.processed <- st.processed + 1;
    let t = Ids.Tid.to_int e.thread in
    match
      (match e.op with
      | Event.Acquire l -> handle_acquire st t (Ids.Lid.to_int l)
      | Event.Release l -> handle_release st t (Ids.Lid.to_int l)
      | Event.Fork u -> handle_fork st t (Ids.Tid.to_int u)
      | Event.Join u -> handle_join st t (Ids.Tid.to_int u)
      | Event.Read x -> handle_read st t (Ids.Vid.to_int x)
      | Event.Write x -> handle_write st t (Ids.Vid.to_int x)
      | Event.Begin -> handle_begin st t
      | Event.End -> handle_end st t)
    with
    | () -> None
    | exception Found site ->
      let v = Violation.make ~index:(st.processed - 1) ~event:e ~site in
      st.violation <- Some v;
      Some v)

(* unpack-and-delegate (reference copies stay off the packed hot path) *)
let feed_packed st w = feed st (Packed.to_event w)

module Faithful : Checker.S = struct
  type nonrec t = t

  let name = "aerodrome-faithful-preepoch"

  let create ~threads ~locks ~vars =
    create_with ~faithful:true ~threads ~locks ~vars ()

  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

module Slow : Checker.S = struct
  type nonrec t = t

  let name = "aerodrome-slowcheck-preepoch"

  let create ~threads ~locks ~vars =
    create_with ~fast_checks:false ~threads ~locks ~vars ()

  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

let faithful_checker : Checker.t = (module Faithful)
let slow_checker : Checker.t = (module Slow)

(* Introspection *)

let snapshot clk = Vclock.Vtime.of_clock clk
let thread_clock st t = snapshot st.c.(t)
let begin_clock st t = snapshot st.cb.(t)
let write_clock st x = snapshot st.w.(x)
let read_clock_joined st x = snapshot st.r.(x)
let read_clock_check st x = snapshot st.hr.(x)
let write_is_stale st x = is_stale_w st x
let last_writer st x = if st.last_w_thr.(x) = nil then None else Some st.last_w_thr.(x)
let in_transaction st t = active st t
