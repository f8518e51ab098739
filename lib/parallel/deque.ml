(* Work-stealing scheduler over per-domain Chase–Lev deques.

   PR 7/9 executed sharded checking as one coarse chunk per pool
   worker, so wall-clock was pinned to the slowest chunk.  This module
   supplies the scheduling substrate that lets the shard layer cut the
   arena into many fine-grained micro-chunks instead: each worker
   domain owns a bounded Chase–Lev deque ([Ws_deque]) it pushes and
   pops at the bottom, idle workers steal from the top of a victim's
   deque, and tasks submitted from outside the pool (the CLI's file
   fan-out) arrive through a shared mutex-protected injection queue
   that doubles as the park bench for workers that found nothing to
   steal.

   The deque is the bounded variant of Chase–Lev ("Dynamic circular
   work-stealing deque", SPAA 2005): [top] and [bottom] are
   monotonically increasing virtual indices into a power-of-two ring.
   Under the OCaml memory model a non-atomic slot racing a steal would
   read an unspecified value, so the slots themselves are
   ['a option Atomic.t] — every access that can race is an atomic
   access, which makes the usual C11 relaxed/acquire subtleties moot at
   the cost of one indirection per slot (OCaml atomics are
   sequentially consistent).  Boundedness is what kills ABA: a slot can
   only be overwritten by the push [capacity] entries later, and that
   push refuses ([push] returns [false]) until [top] has advanced past
   the entry a stale thief could still be looking at — so a thief's
   CAS on [top] fails before it can publish a recycled value.  An
   owner overflowing its deque falls back to the shared injection
   queue: that is the "mutexed tail" escape hatch, used only when the
   ring is full (never on the steal path).

   Tasks return values through promises.  [await] from a worker domain
   does not block: it {e helps}, draining its own deque, the injection
   queue and victims' deques while the promise is pending.  That is
   what lets a file-level task spawn chunk-level tasks on the {e same}
   scheduler and wait for them without deadlock — the waiting worker
   just becomes another consumer — and is the mechanism behind the
   single machine-wide domain budget ([--jobs] × [--shards] no longer
   multiply).  [await] from a non-worker domain (the CLI's main
   domain) blocks on the promise's condition variable. *)

(* ------------------------------------------------------------------ *)

module Ws_deque = struct
  type 'a q = {
    top : int Atomic.t; (* next index thieves take *)
    bottom : int Atomic.t; (* next index the owner pushes *)
    slots : 'a option Atomic.t array;
    mask : int;
  }

  let make capacity =
    let cap = max 2 capacity in
    let cap =
      let c = ref 1 in
      while !c < cap do
        c := !c * 2
      done;
      !c
    in
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      slots = Array.init cap (fun _ -> Atomic.make None);
      mask = cap - 1;
    }

  let length q = max 0 (Atomic.get q.bottom - Atomic.get q.top)

  (* Owner only.  [false] when the ring is full — the caller spills to
     the injection queue rather than growing (growth would reintroduce
     the ABA hazard boundedness rules out). *)
  let push q x =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    if b - t > q.mask then false
    else begin
      Atomic.set q.slots.(b land q.mask) (Some x);
      Atomic.set q.bottom (b + 1);
      true
    end

  (* Owner only.  Take the newest entry; the only contended case is a
     single remaining entry, which is resolved by the same CAS on [top]
     the thieves use. *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* empty: undo *)
      Atomic.set q.bottom t;
      None
    end
    else if b > t then Atomic.exchange q.slots.(b land q.mask) None
    else begin
      (* last entry: race the thieves for it *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then Atomic.exchange q.slots.(b land q.mask) None else None
    end

  (* Any domain.  [None] covers both a genuinely empty deque and a
     lost race (CAS failure, or the slot drained by the owner between
     our reads); callers treat it as "try elsewhere".  The slot is
     deliberately {e not} cleared on a successful steal: entry [t] can
     only be recycled by a push that already requires [top > t], so
     clearing here could clobber a concurrent push's fresh value. *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else
      match Atomic.get q.slots.(t land q.mask) with
      | None -> None
      | Some _ as x -> if Atomic.compare_and_set q.top t (t + 1) then x else None
end

(* ------------------------------------------------------------------ *)

type 'a state = Pending | Done of 'a | Err of exn * Printexc.raw_backtrace

type 'a promise = {
  st : 'a state Atomic.t;
  pmu : Mutex.t;
  pcond : Condition.t;
}

type t = {
  deques : (unit -> unit) Ws_deque.q array;
  mutable domains : unit Domain.t array; (* empty until the first submit *)
  on_start : t -> unit;
  inject : (unit -> unit) Queue.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable closed : bool; (* under [mu] *)
  parked : int Atomic.t;
  (* telemetry: atomics for cross-domain counters, owner-written arrays
     for per-worker accounting (racy torn-free word reads are fine for
     a live scrape; exact values are read after quiescence) *)
  steals : int Atomic.t;
  failed_steals : int Atomic.t;
  injected : int Atomic.t;
  completed : int Atomic.t;
  busy : float array; (* seconds in task bodies, by worker *)
  ran : int array; (* tasks completed, by worker *)
  started : float;
}

type stats = {
  domains : int;
  steals : int;
  failed_steals : int;
  injected : int;
  completed : int;
  busy_seconds : float array;
  ran : int array;
  age_seconds : float;
}

(* Worker identity: which scheduler this domain belongs to, and its
   index.  Physical equality on the scheduler guards against a worker
   of pool A being mistaken for a worker of pool B (tests create
   short-lived schedulers side by side). *)
type ident = Ident : t * int -> ident

let ident_key : ident option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let self sched =
  match !(Domain.DLS.get ident_key) with
  | Some (Ident (s, i)) when s == sched -> Some i
  | _ -> None

let size sched = Array.length sched.deques

(* A deterministic per-worker victim order would let two ping-ponging
   workers always collide; a cheap xorshift stream decorrelates them
   without [Random] (whose default state is domain-shared). *)
let xorshift seed =
  let s = ref (if seed = 0 then 0x9e3779b9 else seed) in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land max_int

(* One steal sweep over all victims ≠ [i].  A [None] sweep is counted
   as one failed-steal spin (the metric the bench and stats surface). *)
let try_steal sched i rand =
  let nw = Array.length sched.deques in
  if nw <= 1 then None
  else begin
    let start = rand () mod nw in
    let found = ref None in
    let j = ref 0 in
    while !found = None && !j < nw do
      let v = (start + !j) mod nw in
      if v <> i then found := Ws_deque.steal sched.deques.(v);
      incr j
    done;
    (match !found with
    | Some _ -> Atomic.incr sched.steals
    | None -> Atomic.incr sched.failed_steals);
    !found
  end

let try_inject sched =
  Mutex.lock sched.mu;
  let t = if Queue.is_empty sched.inject then None else Some (Queue.pop sched.inject) in
  Mutex.unlock sched.mu;
  t

(* Non-blocking task hunt: own deque, then the injection queue, then
   one steal sweep. *)
let find_task sched i rand =
  match Ws_deque.pop sched.deques.(i) with
  | Some _ as t -> t
  | None -> (
    match try_inject sched with
    | Some _ as t -> t
    | None -> try_steal sched i rand)

let run_task sched i (f : unit -> unit) =
  let t0 = Unix.gettimeofday () in
  f ();
  sched.busy.(i) <- sched.busy.(i) +. (Unix.gettimeofday () -. t0);
  sched.ran.(i) <- sched.ran.(i) + 1;
  Atomic.incr sched.completed

(* Any deque non-empty?  Only consulted under [mu] before parking, so
   a racy read is resolved by the wake-up protocol: a local push reads
   [parked] {e after} its bottom-store, the parking worker increments
   [parked] {e before} this scan, and both are sequentially consistent
   atomics — one of the two sides must see the other. *)
let work_visible sched =
  let some = ref false in
  Array.iter (fun q -> if Ws_deque.length q > 0 then some := true) sched.deques;
  !some

let park sched =
  Mutex.lock sched.mu;
  Atomic.incr sched.parked;
  while (not sched.closed) && Queue.is_empty sched.inject && not (work_visible sched) do
    Condition.wait sched.cond sched.mu
  done;
  Atomic.decr sched.parked;
  let t =
    if Queue.is_empty sched.inject then None else Some (Queue.pop sched.inject)
  in
  let closed = sched.closed in
  Mutex.unlock sched.mu;
  (t, closed)

let worker sched i () =
  Domain.DLS.get ident_key := Some (Ident (sched, i));
  let rand = xorshift (i + 1) in
  let stop = ref false in
  while not !stop do
    match find_task sched i rand with
    | Some f -> run_task sched i f
    | None -> (
      match park sched with
      | Some f, _ -> run_task sched i f
      | None, closed -> if closed && not (work_visible sched) then stop := true)
  done

(* Local pushes wake a parked worker so cross-deque work is stealable;
   the signal is taken under [mu] to pair with the predicate re-check
   in [park] (see [work_visible]). *)
let wake_one sched =
  if Atomic.get sched.parked > 0 then begin
    Mutex.lock sched.mu;
    Condition.signal sched.cond;
    Mutex.unlock sched.mu
  end

(* The first submit spawns the workers (under [mu], so two submitters
   cannot both spawn; the new workers block on [mu] until the task is
   queued).  A worker-domain submit implies the workers exist, so only
   this external path can be the first. *)
let inject_task sched f =
  Mutex.lock sched.mu;
  if sched.closed then begin
    Mutex.unlock sched.mu;
    invalid_arg "Deque.submit: scheduler is shut down"
  end;
  let starting = Array.length sched.domains = 0 in
  if starting then
    sched.domains <-
      Array.init (Array.length sched.deques) (fun i -> Domain.spawn (worker sched i));
  Queue.push f sched.inject;
  Condition.signal sched.cond;
  Mutex.unlock sched.mu;
  Atomic.incr sched.injected;
  if starting then sched.on_start sched

let submit sched (f : unit -> 'a) : 'a promise =
  let p = { st = Atomic.make Pending; pmu = Mutex.create (); pcond = Condition.create () } in
  let task () =
    let r =
      match f () with
      | v -> Done v
      | exception e -> Err (e, Printexc.get_raw_backtrace ())
    in
    Atomic.set p.st r;
    Mutex.lock p.pmu;
    Condition.broadcast p.pcond;
    Mutex.unlock p.pmu
  in
  (match self sched with
  | Some i ->
    if Ws_deque.push sched.deques.(i) task then wake_one sched
    else inject_task sched task (* ring full: mutexed spill *)
  | None -> inject_task sched task);
  p

let await sched (p : 'a promise) : 'a =
  let unwrap = function
    | Done v -> v
    | Err (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> assert false
  in
  match self sched with
  | Some i ->
    (* Work-helping wait: never block a worker domain on a promise —
       drain other tasks instead, so nested submit/await (file tasks
       awaiting their chunk tasks) cannot deadlock the pool. *)
    let rand = xorshift (i + 0x5bd1e995) in
    let rec spin () =
      match Atomic.get p.st with
      | Pending ->
        (match find_task sched i rand with
        | Some f -> run_task sched i f
        | None -> Domain.cpu_relax ());
        spin ()
      | s -> unwrap s
    in
    spin ()
  | None ->
    (match Atomic.get p.st with
    | Pending ->
      Mutex.lock p.pmu;
      while Atomic.get p.st = Pending do
        Condition.wait p.pcond p.pmu
      done;
      Mutex.unlock p.pmu
    | _ -> ());
    unwrap (Atomic.get p.st)

let create ?(on_start = ignore) n =
  let n = max 1 n in
  let sched =
    {
      deques = Array.init n (fun _ -> Ws_deque.make 256);
      domains = [||];
      on_start;
      inject = Queue.create ();
      mu = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      parked = Atomic.make 0;
      steals = Atomic.make 0;
      failed_steals = Atomic.make 0;
      injected = Atomic.make 0;
      completed = Atomic.make 0;
      busy = Array.make n 0.;
      ran = Array.make n 0;
      started = Unix.gettimeofday ();
    }
  in
  sched

let started sched =
  Mutex.lock sched.mu;
  let n = Array.length sched.domains in
  Mutex.unlock sched.mu;
  n > 0

let shutdown sched =
  Mutex.lock sched.mu;
  sched.closed <- true;
  Condition.broadcast sched.cond;
  let domains = sched.domains in
  Mutex.unlock sched.mu;
  Array.iter Domain.join domains

let with_scheduler n f =
  let sched = create n in
  match f sched with
  | v ->
    shutdown sched;
    v
  | exception e ->
    shutdown sched;
    raise e

let stats sched =
  {
    domains = Array.length sched.deques;
    steals = Atomic.get sched.steals;
    failed_steals = Atomic.get sched.failed_steals;
    injected = Atomic.get sched.injected;
    completed = Atomic.get sched.completed;
    busy_seconds = Array.copy sched.busy;
    ran = Array.copy sched.ran;
    age_seconds = Unix.gettimeofday () -. sched.started;
  }
