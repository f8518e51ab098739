open Ids

type mode = Exact of Varstats.t

type counts = {
  mutable events_in : int;
  mutable kept : int;
  mutable thread_local : int;
  mutable read_only : int;
  mutable redundant : int;
  mutable lock_local : int;
}

let elided c = c.thread_local + c.read_only + c.redundant + c.lock_local

(* Rule (c) bookkeeping.  [wstamp]/[astamp] count *retained* writes and
   accesses per variable; a stamp records their values at the owning
   thread's last retained access in the current transaction.  An access
   is covered — adds no conflict edge beyond the earlier one's — iff the
   relevant counter has not moved since:

   - read: no retained write (by anyone) since my last retained read or
     since my own last retained write;
   - write: no retained access by another thread since my last retained
     write (my own retained reads in between are counted out via
     [own_since]; a read of mine does not conflict with my write and the
     edges it witnesses are witnessed by the earlier write too).

   Counting retained events only is self-consistent: if an interposing
   access was itself elided, the access covering it is retained and
   interposes equally.

   Stamps live in generation-tagged parallel arrays: entry x is valid
   iff [sgen.(x) = gen], and ending an outermost transaction bumps
   [gen] instead of clearing anything — O(1) reset, no hashing on the
   per-event path. *)
type tstate = {
  mutable depth : int;  (* open begin-markers *)
  (* rule (c), current outermost transaction *)
  mutable gen : int;
  mutable sgen : int array;  (* generation at which entry x was written *)
  mutable s_last_rw : int array;  (* wstamp at my last retained read *)
  mutable s_last_ww : int array;  (* wstamp after my last retained write *)
  mutable s_last_wa : int array;  (* astamp after my last retained write *)
  mutable s_own : int array;  (* my retained reads since my last write *)
}

type t = {
  stats : Varstats.t;
  c : counts;
  (* the per-object rule-(a)/(b)/(d) verdicts, folded from
     the {!Varstats} once at creation so the packed hot path pays one
     byte load instead of mask arithmetic per event.  Entries: 0 =
     retain, 1 = thread-local, 2 = read-only (variables only).  Objects
     past the table (ids the statistics never saw) are retained, the
     conservative direction — matching {!Varstats.var_mask} = 0. *)
  vclass : Bytes.t;
  lclass : Bytes.t;
  (* per-thread state, [no_thread] where a thread has not appeared *)
  mutable threads : tstate array;
  (* per-variable rule-(c) counters (grown on demand) *)
  mutable wstamp : int array;
  mutable astamp : int array;
  (* every per-variable array — [wstamp], [astamp] and each thread's
     stamps — holds at least [cap] entries, so the packed engine makes
     one grow check per access *)
  mutable cap : int;
}

let new_tstate ~vars () =
  let n = max vars 16 in
  {
    depth = 0;
    gen = 1;
    sgen = Array.make n 0;
    s_last_rw = Array.make n 0;
    s_last_ww = Array.make n 0;
    s_last_wa = Array.make n 0;
    s_own = Array.make n 0;
  }

(* The placeholder of a thread that has not appeared yet. *)
let no_thread = new_tstate ~vars:0 ()

let create (Exact s) =
  let vc = Bytes.make (Varstats.vars s) '\000' in
  for x = 0 to Bytes.length vc - 1 do
    if Varstats.var_single_threaded s x then Bytes.unsafe_set vc x '\001'
    else if Varstats.var_read_only s x then Bytes.unsafe_set vc x '\002'
  done;
  let lc = Bytes.make (Varstats.locks s) '\000' in
  for l = 0 to Bytes.length lc - 1 do
    if Varstats.lock_single_threaded s l then Bytes.unsafe_set lc l '\001'
  done;
  let vars = max (Varstats.vars s) 1 in
  {
    stats = s;
    vclass = vc;
    lclass = lc;
    c =
      {
        events_in = 0;
        kept = 0;
        thread_local = 0;
        read_only = 0;
        redundant = 0;
        lock_local = 0;
      };
    threads = Array.make 8 no_thread;
    wstamp = Array.make vars 0;
    astamp = Array.make vars 0;
    cap = vars;
  }

let counts t = t.c

let grow a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) fill in
    Array.blit a 0 a' 0 cap;
    a'
  end

let ensure_var t x =
  if x >= Array.length t.wstamp then begin
    t.wstamp <- grow t.wstamp (x + 1) 0;
    t.astamp <- grow t.astamp (x + 1) 0
  end

let new_thread t tid =
  if tid >= Array.length t.threads then begin
    let a = Array.make (max (tid + 1) (2 * Array.length t.threads)) no_thread in
    Array.blit t.threads 0 a 0 (Array.length t.threads);
    t.threads <- a
  end;
  let ts = new_tstate ~vars:(Array.length t.wstamp) () in
  t.threads.(tid) <- ts;
  ts

(* The state of thread [tid], created at its first event. *)
let [@inline] tstate t tid =
  let threads = t.threads in
  if tid < Array.length threads then begin
    let ts = Array.unsafe_get threads tid in
    if ts != no_thread then ts else new_thread t tid
  end
  else new_thread t tid

(* Raise [cap] past [x]: every per-variable array grows to it. *)
let grow_cap t x =
  let n = max (x + 1) (2 * t.cap) in
  t.wstamp <- grow t.wstamp n 0;
  t.astamp <- grow t.astamp n 0;
  Array.iter
    (fun ts ->
      if ts != no_thread then begin
        ts.sgen <- grow ts.sgen n 0;
        ts.s_last_rw <- grow ts.s_last_rw n 0;
        ts.s_last_ww <- grow ts.s_last_ww n 0;
        ts.s_last_wa <- grow ts.s_last_wa n 0;
        ts.s_own <- grow ts.s_own n 0
      end)
    t.threads;
  t.cap <- n

let keep t e emit =
  t.c.kept <- t.c.kept + 1;
  emit e

(* An access that survived rules (a)/(b)/(d): the rule-(c) decision.
   Returns [true] if the access must be retained (stamps updated),
   [false] if it is covered and elided — representation-agnostic, so the
   boxed and packed feeds share it. *)
let retained_decision t ts x ~w =
  if ts.depth > 0 then begin
    if x >= Array.length ts.sgen then begin
      ts.sgen <- grow ts.sgen (x + 1) 0;
      ts.s_last_rw <- grow ts.s_last_rw (x + 1) 0;
      ts.s_last_ww <- grow ts.s_last_ww (x + 1) 0;
      ts.s_last_wa <- grow ts.s_last_wa (x + 1) 0;
      ts.s_own <- grow ts.s_own (x + 1) 0
    end;
    if ts.sgen.(x) <> ts.gen then begin
      ts.sgen.(x) <- ts.gen;
      ts.s_last_rw.(x) <- -1;
      ts.s_last_ww.(x) <- -1;
      ts.s_last_wa.(x) <- -1;
      ts.s_own.(x) <- 0
    end;
    let covered =
      if w then
        ts.s_last_wa.(x) >= 0 && ts.s_last_wa.(x) + ts.s_own.(x) = t.astamp.(x)
      else
        (ts.s_last_rw.(x) >= 0 && ts.s_last_rw.(x) = t.wstamp.(x))
        || (ts.s_last_ww.(x) >= 0 && ts.s_last_ww.(x) = t.wstamp.(x))
    in
    if covered then begin
      t.c.redundant <- t.c.redundant + 1;
      false
    end
    else begin
      t.astamp.(x) <- t.astamp.(x) + 1;
      if w then begin
        t.wstamp.(x) <- t.wstamp.(x) + 1;
        ts.s_last_ww.(x) <- t.wstamp.(x);
        ts.s_last_wa.(x) <- t.astamp.(x);
        ts.s_own.(x) <- 0
      end
      else begin
        ts.s_last_rw.(x) <- t.wstamp.(x);
        ts.s_own.(x) <- ts.s_own.(x) + 1
      end;
      true
    end
  end
  else begin
    (* unary access: a singleton transaction, nothing to cover it *)
    t.astamp.(x) <- t.astamp.(x) + 1;
    if w then t.wstamp.(x) <- t.wstamp.(x) + 1;
    true
  end

let retained_access t ts x ~w e emit =
  if retained_decision t ts x ~w then keep t e emit

let feed t (e : Event.t) emit =
  t.c.events_in <- t.c.events_in + 1;
  let s = t.stats in
  let ts () = tstate t (Tid.to_int e.thread) in
  match e.op with
  | Event.Read x ->
    let x = Vid.to_int x in
    if Varstats.var_single_threaded s x then
      t.c.thread_local <- t.c.thread_local + 1
    else if Varstats.var_read_only s x then t.c.read_only <- t.c.read_only + 1
    else begin
      ensure_var t x;
      retained_access t (ts ()) x ~w:false e emit
    end
  | Event.Write x ->
    let x = Vid.to_int x in
    if Varstats.var_single_threaded s x then
      t.c.thread_local <- t.c.thread_local + 1
    else begin
      ensure_var t x;
      retained_access t (ts ()) x ~w:true e emit
    end
  | Event.Acquire l | Event.Release l ->
    if Varstats.lock_single_threaded s (Lid.to_int l) then
      t.c.lock_local <- t.c.lock_local + 1
    else keep t e emit
  | Event.Fork _ | Event.Join _ -> keep t e emit
  | Event.Begin ->
    let ts = ts () in
    ts.depth <- ts.depth + 1;
    keep t e emit
  | Event.End ->
    let ts = ts () in
    if ts.depth > 0 then ts.depth <- ts.depth - 1;
    if ts.depth = 0 then ts.gen <- ts.gen + 1;
    keep t e emit

(* The same decisions over packed words, as one engine: rules
   (a)/(b)/(d) read only the opcode and the target id, and rule (c) is
   [retained_decision] spelled out behind one grow check per access
   (the [cap] invariant makes every later array access in range).
   Elided events are never materialized as [Event.t]; the boxed [feed]
   above is the readable form the tests hold this one to. *)
let feed_packed t w emit =
  let c = t.c in
  c.events_in <- c.events_in + 1;
  let op = Packed.opcode w in
  if op <= Packed.op_write then begin
    let x = Packed.target w in
    let cls =
      if x < Bytes.length t.vclass then Char.code (Bytes.unsafe_get t.vclass x)
      else 0
    in
    if cls = 1 then c.thread_local <- c.thread_local + 1
    else if cls = 2 && op = Packed.op_read then c.read_only <- c.read_only + 1
    else begin
      if x >= t.cap then grow_cap t x;
      let ts = tstate t (Packed.tid w) in
      let wstamp = t.wstamp and astamp = t.astamp in
      let a = Array.unsafe_get astamp x in
      let retained =
        if ts.depth = 0 then begin
          (* unary access: a singleton transaction, nothing covers it *)
          Array.unsafe_set astamp x (a + 1);
          if op = Packed.op_write then Array.unsafe_set wstamp x (Array.unsafe_get wstamp x + 1);
          true
        end
        else begin
          if Array.unsafe_get ts.sgen x <> ts.gen then begin
            Array.unsafe_set ts.sgen x ts.gen;
            Array.unsafe_set ts.s_last_rw x (-1);
            Array.unsafe_set ts.s_last_ww x (-1);
            Array.unsafe_set ts.s_last_wa x (-1);
            Array.unsafe_set ts.s_own x 0
          end;
          let ws = Array.unsafe_get wstamp x in
          if op = Packed.op_write then begin
            let lwa = Array.unsafe_get ts.s_last_wa x in
            if lwa >= 0 && lwa + Array.unsafe_get ts.s_own x = a then false
            else begin
              Array.unsafe_set astamp x (a + 1);
              Array.unsafe_set wstamp x (ws + 1);
              Array.unsafe_set ts.s_last_ww x (ws + 1);
              Array.unsafe_set ts.s_last_wa x (a + 1);
              Array.unsafe_set ts.s_own x 0;
              true
            end
          end
          else begin
            let lrw = Array.unsafe_get ts.s_last_rw x in
            let lww = Array.unsafe_get ts.s_last_ww x in
            if (lrw >= 0 && lrw = ws) || (lww >= 0 && lww = ws) then false
            else begin
              Array.unsafe_set astamp x (a + 1);
              Array.unsafe_set ts.s_last_rw x ws;
              Array.unsafe_set ts.s_own x (Array.unsafe_get ts.s_own x + 1);
              true
            end
          end
        end
      in
      if retained then begin
        c.kept <- c.kept + 1;
        emit w
      end
      else c.redundant <- c.redundant + 1
    end
  end
  else if op <= Packed.op_release then begin
    let l = Packed.target w in
    if l < Bytes.length t.lclass && Bytes.unsafe_get t.lclass l = '\001' then
      c.lock_local <- c.lock_local + 1
    else begin
      c.kept <- c.kept + 1;
      emit w
    end
  end
  else begin
    if op >= Packed.op_begin then begin
      let ts = tstate t (Packed.tid w) in
      if op = Packed.op_begin then ts.depth <- ts.depth + 1
      else begin
        if ts.depth > 0 then ts.depth <- ts.depth - 1;
        if ts.depth = 0 then ts.gen <- ts.gen + 1
      end
    end;
    c.kept <- c.kept + 1;
    emit w
  end

(* The filter buffers nothing: the end of the stream only publishes the
   counters. *)
let finish t _emit =
  if Obs.on () && Obs.Scope.active () then begin
    let reg = Obs.Registry.create () in
    let add name v = Obs.Counter.add (Obs.Registry.counter reg name) v in
    add "prefilter.events_in" t.c.events_in;
    add "prefilter.events_out" t.c.kept;
    add "prefilter.elided.thread_local" t.c.thread_local;
    add "prefilter.elided.read_only" t.c.read_only;
    add "prefilter.elided.redundant" t.c.redundant;
    add "prefilter.elided.lock_local" t.c.lock_local;
    Obs.Scope.attach reg
  end

let finish_packed = finish

let run_trace `Exact tr =
  let t = create (Exact (Varstats.of_trace tr)) in
  let b = Trace.Builder.create ~capacity:(Trace.length tr) () in
  let emit e = Trace.Builder.add b e in
  Trace.iter (fun e -> feed t e emit) tr;
  finish t emit;
  (Trace.Builder.build ?symbols:(Trace.symbols tr) b, t.c)
