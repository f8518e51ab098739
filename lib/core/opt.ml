open Traces
module AC = Vclock.Aclock

let name = "aerodrome"

let nil = -1

(* Per-variable clock state, allocated on first access and recycled
   whole, clocks and Stale^r bitset included.  Keeping W_x/R_x/hR_x and the
   lazy-update metadata in one record (instead of seven parallel dense
   arrays) is what lets a variable's whole footprint be released the
   moment it dies. *)
type vstate = {
  vw : AC.t;  (* W_x *)
  vr : AC.t;  (* R_x *)
  vhr : AC.t;  (* hR_x *)
  vstale_r : int array;
      (* Stale^r_x, readers not yet flushed into R_x: a thread bitset,
         thread t at bit [t mod 62] of word [t / 62] *)
  mutable vlast_w : int;
  mutable vstale_w : bool;  (* Stale^w_x: is W_x represented by C_lastW? *)
  mutable vtouch : int;  (* processed-count of the last access (Inactivity) *)
}

(* The state of every untouched or released variable: one shared record,
   told apart by physical equality and never written, so a variable
   costs no option box and a lookup no indirection. *)
let absent =
  {
    vw = AC.bottom 0;
    vr = AC.bottom 0;
    vhr = AC.bottom 0;
    vstale_r = [||];
    vlast_w = nil;
    vstale_w = false;
    vtouch = 0;
  }

type t = {
  threads : int;
  tele : bool;  (* [Obs.on ()] at [create]: telemetry is switched before
                   checking starts *)
  locks : int;
  vars : int;
  fast_checks : bool;
  faithful : bool;
  c : AC.t array;
  cb : AC.t array;
  l : AC.t array;
  v : vstate array;  (* [absent]: untouched, or released after last use *)
  last_rel_thr : int array;
  upd_r : Iset.t array;  (* UpdateSet^r_t *)
  upd_w : Iset.t array;  (* UpdateSet^w_t *)
  upd_l : Iset.t array;  (* locks whose clock may contain t's begin *)
  rel_locks : Iset.t array;  (* locks t last released (may be stale) *)
  depth : int array;
  (* Thread bitsets of [words] words, as [Aclock]'s.  [covers] caches
     covers(t) = {u | C⊲_u ⊑ C_t} at words [t * words ..], exact on the
     bits of [active] (bit u set while u is inside an outermost
     transaction), the only bits ever read.  Begins and joins from flat
     clocks update single bits; other joins set [covers_dirty] and the
     mask is rebuilt on its next read (DESIGN.md §9).  [scratch] holds
     the one bitset a transaction end computes. *)
  words : int;
  covers : int array;
  covers_dirty : Bytes.t;
  active : int array;
  scratch : int array;
  cb_own : int array;  (* cb_own.(u) = C⊲_u(u), the only component the
                          fast checks read — flat for cache-friendliness *)
  seq : int array;  (* outermost-transaction sequence number per thread *)
  parent : (int * int) option array;  (* forking (thread, seq), per thread *)
  end_site : Violation.site array;  (* At_end u, per thread u *)
  pool : AC.Pool.t;
  mutable free : vstate array;  (* released records, a stack *)
  mutable free_n : int;
  reclaim : Reclaim.policy;
  last_use : int array;  (* the oracle's last access per variable, else [||] *)
  mutable reclaimed : int;  (* vstates released at their last access *)
  mutable next_sweep : int;  (* processed-count of the next inactivity sweep *)
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

let create_with ?(fast_checks = true) ?(faithful = false) ~threads ~locks
    ~vars () =
  let dim = max threads 1 in
  let words = AC.words dim in
  let reclaim = Reclaim.ambient () in
  let st =
    {
      threads = dim;
      tele = Obs.on ();
      locks;
      vars;
      fast_checks;
      faithful;
      c = Array.init dim (fun t -> AC.unit dim t);
      cb = Array.init dim (fun _ -> AC.bottom dim);
      l = Array.init (max locks 0) (fun _ -> AC.bottom dim);
      v = Array.make (max vars 0) absent;
      last_rel_thr = Array.make (max locks 0) nil;
      upd_r = Array.init dim (fun _ -> Iset.create (max vars 1));
      upd_w = Array.init dim (fun _ -> Iset.create (max vars 1));
      upd_l = Array.init dim (fun _ -> Iset.create (max locks 1));
      rel_locks = Array.init dim (fun _ -> Iset.create (max locks 1));
      depth = Array.make dim 0;
      words;
      covers = Array.make (dim * words) 0;
      covers_dirty = Bytes.make dim '\001';
      active = Array.make words 0;
      scratch = Array.make words 0;
      cb_own = Array.make dim 0;
      seq = Array.make dim 0;
      parent = Array.make dim None;
      end_site = Array.init dim (fun u -> Violation.At_end (Ids.Tid.of_int u));
      pool = AC.Pool.create dim;
      free = [||];
      free_n = 0;
      reclaim;
      last_use =
        (match reclaim with
        | Reclaim.Oracle lt -> lt.Lifetime.vars
        | Reclaim.Off | Reclaim.Inactivity _ -> [||]);
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

let create ~threads ~locks ~vars = create_with ~threads ~locks ~vars ()
let metrics st = Cmetrics.snapshot st.m

let violation st = st.violation
let processed st = st.processed
let active st t = st.depth.(t) > 0

(* Add thread u to, or drop it from, the bitset at [a.(off) ..]. *)
let [@inline] set_bit a off u =
  let i = u / 62 in
  let k = off + i in
  Array.unsafe_set a k (Array.unsafe_get a k lor (1 lsl (u - (62 * i))))

let [@inline] clear_bit a off u =
  let i = u / 62 in
  let k = off + i in
  Array.unsafe_set a k (Array.unsafe_get a k land lnot (1 lsl (u - (62 * i))))

(* A record for a variable met for the first time (or again after its
   release): the last released one when there is one, its three clocks
   counted as pool hits, else a fresh one whose clocks are pool misses —
   the counters read as if each clock went through the pool. *)
let fresh_var st x =
  let vs =
    if st.free_n > 0 then begin
      st.free_n <- st.free_n - 1;
      AC.Pool.recycled st.pool 3;
      Array.unsafe_get st.free st.free_n
    end
    else
      {
        vw = AC.Pool.alloc st.pool;
        vr = AC.Pool.alloc st.pool;
        vhr = AC.Pool.alloc st.pool;
        vstale_r = Array.make st.words 0;
        vlast_w = nil;
        vstale_w = false;
        vtouch = 0;
      }
  in
  Array.unsafe_set st.v x vs;
  vs

let [@inline] vget st x =
  let vs = Array.unsafe_get st.v x in
  if vs != absent then vs else fresh_var st x

(* Reset the record to a fresh variable's state (clocks keep their
   vectors for re-inflation) and push it on the free stack. *)
let release_var st x vs =
  AC.reset vs.vw;
  AC.reset vs.vr;
  AC.reset vs.vhr;
  Array.fill vs.vstale_r 0 (Array.length vs.vstale_r) 0;
  vs.vlast_w <- nil;
  vs.vstale_w <- false;
  vs.vtouch <- 0;
  if st.free_n = Array.length st.free then begin
    let bigger = Array.make (max 16 (2 * st.free_n)) absent in
    Array.blit st.free 0 bigger 0 st.free_n;
    st.free <- bigger
  end;
  Array.unsafe_set st.free st.free_n vs;
  st.free_n <- st.free_n + 1;
  Array.unsafe_set st.v x absent;
  st.reclaimed <- st.reclaimed + 1;
  (* Only active threads' update sets hold entries, and an entry for a
     released variable could only be skipped by the end's drains: drop
     it now, so a long transaction's sets stay the size of its live
     variables instead of every variable it ever reached. *)
  for i = 0 to st.words - 1 do
    let m = ref (Array.unsafe_get st.active i) in
    while !m <> 0 do
      let u = (62 * i) + AC.ntz !m in
      Iset.remove (Array.unsafe_get st.upd_r u) x;
      Iset.remove (Array.unsafe_get st.upd_w u) x;
      m := !m land (!m - 1)
    done
  done

(* Called after every successful read/write of [x].  Oracle: releasing at
   the recorded last access is exact — x is never accessed again, and the
   end-of-transaction drains skip released variables (their refreshes
   could only feed checks at later accesses of x, of which there are
   none).  Inactivity: just stamp the access; the sweep in [feed] demotes
   cold state. *)
let [@inline] reclaim_after_access st x vs =
  match st.reclaim with
  | Reclaim.Off -> ()
  | Reclaim.Oracle _ ->
    let lu = st.last_use in
    if x < Array.length lu && Array.unsafe_get lu x = st.processed - 1 then
      release_var st x vs
  | Reclaim.Inactivity _ -> vs.vtouch <- st.processed

(* Inactivity sweep: collapse the clocks of variables untouched for a full
   horizon (and of all locks) back to epoch form where their value allows
   it.  Pure representation change — no verdict or counter drift. *)
let sweep st =
  match st.reclaim with
  | Reclaim.Off | Reclaim.Oracle _ -> ()
  | Reclaim.Inactivity { horizon } ->
    let cutoff = st.processed - horizon in
    for x = 0 to Array.length st.v - 1 do
      let vs = Array.unsafe_get st.v x in
      if vs != absent && vs.vtouch <= cutoff then begin
        ignore (AC.Pool.collapse st.pool vs.vw);
        ignore (AC.Pool.collapse st.pool vs.vr);
        ignore (AC.Pool.collapse st.pool vs.vhr)
      end
    done;
    for l = 0 to st.locks - 1 do
      ignore (AC.Pool.collapse st.pool st.l.(l))
    done;
    st.next_sweep <- st.processed + horizon

(* C⊲_t ⊑ clk, in O(1) when the whole-clock-join invariant allows it. *)
let [@inline] begin_leq st t clk =
  if st.fast_checks then Array.unsafe_get st.cb_own t <= AC.unsafe_get clk t
  else AC.leq st.cb.(t) clk

(* C_t grew: the cached covers mask is stale. *)
let [@inline] note_c_grew st t = Bytes.unsafe_set st.covers_dirty t '\001'

(* The join is skipped when [src]'s seen bit t says C_t already
   contains it (DESIGN.md §9); it still counts as a logical join.  When
   the source is flat, C_t grew at the owner's component only, and under
   [fast_checks] bit u of covers(t) reads C_t at component u only: just
   the owner's bit can flip.  The full order can flip any bit. *)
let [@inline] join_c st t src =
  if st.tele then Cmetrics.vc_join st.m;
  let c_t = st.c.(t) in
  let r = AC.join_thread ~into:c_t src t in
  if r > 0 then begin
    let u = AC.flat_owner src in
    if u < 0 || not st.fast_checks then note_c_grew st t
    else if Array.unsafe_get st.cb_own u <= AC.unsafe_get c_t u then
      set_bit st.covers (t * st.words) u
  end
  else if r < 0 && st.tele then Cmetrics.vc_join_elided st.m

(* Rebuild covers(t) on the active bits.  Under [fast_checks] that is
   one [Aclock] call over C_t's representation. *)
let rebuild_covers st t base =
  let c_t = st.c.(t) in
  if st.fast_checks then AC.covers_bits c_t st.cb_own st.active st.covers base
  else
    for i = 0 to st.words - 1 do
      let m = ref (Array.unsafe_get st.active i) and r = ref 0 in
      while !m <> 0 do
        if begin_leq st ((62 * i) + AC.ntz !m) c_t then r := !r lor (!m land - !m);
        m := !m land (!m - 1)
      done;
      Array.unsafe_set st.covers (base + i) !r
    done;
  Bytes.unsafe_set st.covers_dirty t '\000'

(* The offset of covers(t) in [covers], rebuilt first unless C_t grew
   only in ways single-bit updates covered. *)
let [@inline] covers_of st t =
  let base = t * st.words in
  if Bytes.unsafe_get st.covers_dirty t <> '\000' then rebuild_covers st t base;
  base

exception Found of Violation.site

(* checkAndGet(clk1, clk2, t) of Algorithm 3. *)
let [@inline] check_and_get st clk1 clk2 t site =
  if active st t && begin_leq st t clk1 then raise (Found site);
  join_c st t clk2

(* The hR_x check compares only the t-component, independently of
   [fast_checks]: hR_x zeroes each reader's own component, so the full
   pointwise order is the wrong comparison for it (see Reduced). *)
let [@inline] check_read_and_get st t vs site =
  if active st t && Array.unsafe_get st.cb_own t <= AC.unsafe_get vs.vhr t
  then raise (Found site);
  join_c st t vs.vr

(* After C_t (the value just folded into W_x or R_x) grew the
   variable's clock, record x in the update set of every active
   transaction the new value covers, so that transaction's end refreshes
   the clock too.  Algorithm 3 runs this loop at reads and writes only;
   running it at ends as well closes the transitive-ordering gap (see the
   .mli).  At an end, t is no longer active, so it skips itself.  The
   threads are the set bits of the cached covers mask on the active
   bits — usually none or one. *)
let [@inline] propagate_update_sets st upd x t =
  let base = covers_of st t in
  for i = 0 to st.words - 1 do
    let m =
      ref (Array.unsafe_get st.covers (base + i) land Array.unsafe_get st.active i)
    in
    while !m <> 0 do
      Iset.add (Array.unsafe_get upd ((62 * i) + AC.ntz !m)) x;
      m := !m land (!m - 1)
    done
  done

let [@inline] handle_acquire st t l =
  if st.last_rel_thr.(l) <> t then
    check_and_get st st.l.(l) st.l.(l) t Violation.At_acquire

(* Record that [l]'s clock just took the value/growth [clk]: any active
   transaction whose begin [clk] covers must re-examine [l] at its end.
   This mirrors [propagate_update_sets] for variables and makes the end
   handlers O(locks touched) instead of O(locks).  Only exact under
   [fast_checks]: with the full pointwise order, C⊲_u ⊑ L_l can become
   true through a join combining components of the old L_l and [clk]
   without holding against either alone, so the Slow variant keeps the
   original whole-table scan at ends. *)
let [@inline] propagate_lock_update st l t =
  if st.fast_checks then propagate_update_sets st st.upd_l l t

let [@inline] handle_release st t l =
  AC.assign ~into:st.l.(l) st.c.(t);
  st.last_rel_thr.(l) <- t;
  Iset.add st.rel_locks.(t) l;
  propagate_lock_update st l t

let [@inline] handle_fork st t u =
  join_c st u st.c.(t);
  st.parent.(u) <- (if active st t then Some (t, st.seq.(t)) else None)

let [@inline] handle_join st t u =
  check_and_get st st.c.(u) st.c.(u) t Violation.At_join

(* Check a read or write against the last write: against the writer's live
   clock while its transaction is active (W_x stale), against the
   materialized W_x otherwise. *)
let [@inline] check_vs_last_write st t vs site =
  if vs.vlast_w <> t then begin
    if vs.vstale_w then begin
      let wt = vs.vlast_w in
      check_and_get st st.c.(wt) st.c.(wt) t site
    end
    else check_and_get st vs.vw vs.vw t site
  end

let [@inline] handle_read st t x =
  let vs = vget st x in
  check_vs_last_write st t vs Violation.At_read;
  if active st t || st.faithful then begin
    set_bit vs.vstale_r 0 t;
    (* Algorithm 3 lines 34–36: every covered active transaction must
       refresh R_x at its end; the reader's own transaction qualifies. *)
    propagate_update_sets st st.upd_r x t
  end
  else begin
    (* Unary read: update eagerly.  The printed algorithm leaves it in
       Stale^r_x, where a later flush would use this thread's clock as
       inflated by its subsequent transactions — a false positive. *)
    AC.join_into ~into:vs.vr st.c.(t);
    AC.join_into_zeroed ~into:vs.vhr st.c.(t) t;
    propagate_update_sets st st.upd_r x t
  end;
  reclaim_after_access st x vs

(* Flush Stale^r_x into R_x and hR_x.  The joins commute, so visiting
   the readers in thread order instead of reading order changes no
   value. *)
let [@inline] flush_stale_readers st vs =
  let a = vs.vstale_r in
  for i = 0 to Array.length a - 1 do
    let m = ref (Array.unsafe_get a i) in
    if !m <> 0 then begin
      Array.unsafe_set a i 0;
      while !m <> 0 do
        let u = (62 * i) + AC.ntz !m in
        if st.tele then Cmetrics.vc_joins_add st.m 2;
        AC.join_into ~into:vs.vr st.c.(u);
        AC.join_into_zeroed ~into:vs.vhr st.c.(u) u;
        m := !m land (!m - 1)
      done
    end
  done

let popcount m =
  let m = ref m and n = ref 0 in
  while !m <> 0 do
    incr n;
    m := !m land (!m - 1)
  done;
  !n

let stale_readers vs = Array.fold_left (fun n w -> n + popcount w) 0 vs.vstale_r

let [@inline] handle_write st t x =
  let vs = vget st x in
  check_vs_last_write st t vs Violation.At_write_vs_write;
  if st.tele then Cmetrics.observe_stale_readers st.m (stale_readers vs);
  flush_stale_readers st vs;
  check_read_and_get st t vs Violation.At_write_vs_read;
  if active st t || st.faithful then vs.vstale_w <- true
  else begin
    (* Unary write: materialize eagerly (same rationale as unary reads). *)
    AC.assign ~into:vs.vw st.c.(t);
    vs.vstale_w <- false
  end;
  vs.vlast_w <- t;
  propagate_update_sets st st.upd_w x t;
  reclaim_after_access st x vs

let [@inline] handle_begin st t =
  st.depth.(t) <- st.depth.(t) + 1;
  if st.depth.(t) = 1 then begin
    if st.tele then Cmetrics.txn_begin st.m;
    st.seq.(t) <- st.seq.(t) + 1;
    AC.bump st.c.(t) t;
    AC.assign ~into:st.cb.(t) st.c.(t);
    st.cb_own.(t) <- AC.unsafe_get st.cb.(t) t;
    set_bit st.active 0 t;
    (* The bump put C_t(t) = C⊲_t(t) above the t-component of every
       other clock, so no other thread's clock covers the fresh C⊲_t:
       clear bit t everywhere.  C_t itself grew at t only, so under
       [fast_checks] its own mask just gains bit t. *)
    for u = 0 to st.threads - 1 do
      clear_bit st.covers (u * st.words) t
    done;
    if st.fast_checks then set_bit st.covers (t * st.words) t
    else note_c_grew st t
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
   behaviour.

   The question is a covers mask: bit t is already out of [active] here,
   and on the active bits bit u of covers(t) is exactly
   C⊲_u(u) <= C_t(u) under [fast_checks]; the full order would be a
   different test, so Slow asks [Aclock] for the component one. *)
let any_active st a base =
  let i = ref 0 in
  while
    !i < st.words
    && Array.unsafe_get a (base + !i) land Array.unsafe_get st.active !i = 0
  do
    incr i
  done;
  !i < st.words

let has_incoming_edge st t =
  if st.faithful then
    parent_alive st t || not (AC.equal_except st.cb.(t) st.c.(t) t)
  else if st.fast_checks then any_active st st.covers (covers_of st t)
  else begin
    AC.covers_bits st.c.(t) st.cb_own st.active st.scratch 0;
    any_active st st.scratch 0
  end

(* The end-of-transaction drain bodies are closed top-level functions
   taking their environment through [Iset.drain]'s two pass-through
   arguments, so no end allocates a closure.  They skip variables whose
   state was released at their last access: a refresh of a dead
   variable's clocks could only feed a check at a later access of that
   variable, and there are none.
   (These joins are uncounted in the seed code too, so the skip leaves
   every metric counter unchanged.) *)
let refresh_lock st t l =
  if begin_leq st t st.l.(l) then begin
    if st.tele then Cmetrics.vc_join st.m;
    AC.join_into ~into:st.l.(l) st.c.(t);
    propagate_lock_update st l t
  end

let refresh_write st t x =
  let vs = Array.unsafe_get st.v x in
  if vs != absent then begin
    if (not vs.vstale_w) || vs.vlast_w = t then begin
      AC.join_into ~into:vs.vw st.c.(t);
      if not st.faithful then
        propagate_update_sets st st.upd_w x t
    end;
    if vs.vlast_w = t then vs.vstale_w <- false
  end

let refresh_read st t x =
  let vs = Array.unsafe_get st.v x in
  if vs != absent then begin
    AC.join_into ~into:vs.vr st.c.(t);
    AC.join_into_zeroed ~into:vs.vhr st.c.(t) t;
    clear_bit vs.vstale_r 0 t;
    if not st.faithful then propagate_update_sets st st.upd_r x t
  end

(* Every other thread whose clock holds t's begin checks against and
   absorbs C_t.  Under the component check, those threads are one
   [Aclock] call's bitset, walked in ascending order so the first
   violation site is the loop's. *)
let end_with_incoming_edge st t =
  let c_t = st.c.(t) in
  if st.fast_checks then begin
    AC.geq_bits st.c t (Array.unsafe_get st.cb_own t) st.scratch;
    clear_bit st.scratch 0 t;
    for i = 0 to st.words - 1 do
      let m = ref (Array.unsafe_get st.scratch i) in
      while !m <> 0 do
        let u = (62 * i) + AC.ntz !m in
        check_and_get st c_t c_t u (Array.unsafe_get st.end_site u);
        m := !m land (!m - 1)
      done
    done
  end
  else
    for u = 0 to st.threads - 1 do
      if u <> t && begin_leq st t st.c.(u) then
        check_and_get st c_t c_t u (Array.unsafe_get st.end_site u)
    done;
  (* Refresh the lock clocks the transaction reached.  [upd_l.(t)] holds
     every lock for which [begin_leq] may hold (entries can be stale — a
     later release overwrites L_l — hence the re-check); the Slow variant
     scans the whole table, see [propagate_lock_update]. *)
  if st.fast_checks then begin
    if st.tele then Cmetrics.observe_lock_updates st.m (Iset.size st.upd_l.(t));
    Iset.drain refresh_lock st t st.upd_l.(t)
  end
  else
    for l = 0 to st.locks - 1 do
      if begin_leq st t st.l.(l) then AC.join_into ~into:st.l.(l) c_t
    done;
  Iset.drain refresh_write st t st.upd_w.(t);
  Iset.drain refresh_read st t st.upd_r.(t)

let forget_read st t x =
  let vs = Array.unsafe_get st.v x in
  if vs != absent then clear_bit vs.vstale_r 0 t

let forget_write st t x =
  let vs = Array.unsafe_get st.v x in
  if vs != absent && vs.vlast_w = t then begin
    vs.vstale_w <- false;
    vs.vlast_w <- nil
  end

let forget_release st t l =
  if st.last_rel_thr.(l) = t then st.last_rel_thr.(l) <- nil

let end_garbage_collect st t =
  Iset.drain forget_read st t st.upd_r.(t);
  Iset.drain forget_write st t st.upd_w.(t);
  Iset.clear st.upd_l.(t);
  Iset.drain forget_release st t st.rel_locks.(t)

let [@inline] handle_end st t =
  if st.depth.(t) > 0 then begin
    st.depth.(t) <- st.depth.(t) - 1;
    if st.depth.(t) = 0 then begin
      if st.tele then Cmetrics.txn_commit st.m;
      clear_bit st.active 0 t;
      if has_incoming_edge st t then end_with_incoming_edge st t
      else end_garbage_collect st t
    end
  end

(* Seed a fresh checker with a cut's boundary summary (Merge.boundary):
   each straddling thread re-enters its open transaction exactly as
   [handle_begin] would — depth restored, own component bumped, begin
   clock assigned, marked active — without counting a transaction begin
   (the Begin event itself belongs to the chunk that contains it, which
   keeps the merged per-chunk counters exact).  The bump aligns the
   thread's transaction generation with the sequential checker's: every
   violation check compares a clock component against the checking
   thread's begin epoch, so outcome equivalence is a per-generation
   property (DESIGN.md §17). *)
let seed_boundary st depths =
  if st.processed <> 0 then
    invalid_arg "Opt.seed_boundary: checker already fed";
  let n = min (Array.length depths) st.threads in
  for t = 0 to n - 1 do
    if depths.(t) > 0 then begin
      st.depth.(t) <- depths.(t);
      st.seq.(t) <- st.seq.(t) + 1;
      AC.bump st.c.(t) t;
      AC.assign ~into:st.cb.(t) st.c.(t);
      st.cb_own.(t) <- AC.unsafe_get st.cb.(t) t;
      set_bit st.active 0 t
    end
  done;
  Bytes.fill st.covers_dirty 0 st.threads '\001'

(* The one event entry: ids straight from the packed word's bit slices,
   the boxed event materialized only at a violation.  The patterns are
   [Packed]'s opcodes, literal so the dispatch is one jump table
   (test/test_packed.ml pins their values). *)
let feed_packed st w =
  match st.violation with
  | Some _ as v -> v
  | None -> (
    st.processed <- st.processed + 1;
    if st.processed >= st.next_sweep then sweep st;
    let op = Packed.opcode w in
    if st.tele then Cmetrics.count_op st.m op;
    let t = Packed.tid w in
    let d = Packed.target w in
    match
      match op with
      | 0 -> handle_read st t d
      | 1 -> handle_write st t d
      | 2 -> handle_acquire st t d
      | 3 -> handle_release st t d
      | 4 -> handle_fork st t d
      | 5 -> handle_join st t d
      | 6 -> handle_begin st t
      | _ -> handle_end st t
    with
    | () -> None
    | exception Found site ->
      let e = Packed.to_event w in
      let v = Violation.make ~index:(st.processed - 1) ~event:e ~site in
      if st.tele then Cmetrics.found_violation st.m (st.processed - 1);
      st.violation <- Some v;
      Some v)

module Faithful : Checker.S = struct
  type nonrec t = t

  let name = "aerodrome-faithful"

  let create ~threads ~locks ~vars =
    create_with ~faithful:true ~threads ~locks ~vars ()

  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

module Slow : Checker.S = struct
  type nonrec t = t

  let name = "aerodrome-slowcheck"

  let create ~threads ~locks ~vars =
    create_with ~fast_checks:false ~threads ~locks ~vars ()

  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

let faithful_checker : Checker.t = (module Faithful)
let slow_checker : Checker.t = (module Slow)

(* Introspection.  Untouched (or released) variables read as ⊥/absent,
   matching the seed's pre-allocated-⊥ answers for untouched ones. *)

let snapshot clk = Vclock.Vtime.of_list (AC.to_list clk)
let bottom_time st = snapshot (AC.bottom st.threads)
let thread_clock st t = snapshot st.c.(t)
let begin_clock st t = snapshot st.cb.(t)

(* [absent]'s clocks have dimension 0: an absent variable reads as ⊥ of
   the checker's dimension. *)
let var_clock st x clk =
  if st.v.(x) == absent then bottom_time st else snapshot clk

let write_clock st x = var_clock st x st.v.(x).vw
let read_clock_joined st x = var_clock st x st.v.(x).vr
let read_clock_check st x = var_clock st x st.v.(x).vhr

(* [absent] reads as never written, so these need no case of their own. *)
let write_is_stale st x = st.v.(x).vstale_w

let last_writer st x =
  let vs = st.v.(x) in
  if vs.vlast_w <> nil then Some vs.vlast_w else None

let in_transaction st t = active st t
