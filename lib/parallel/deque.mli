(** Work-stealing scheduler over per-domain Chase–Lev deques.

    The substrate for fine-grained sharded checking (DESIGN.md §18):
    worker domains own bounded lock-free deques, idle workers steal
    from victims, and external submitters feed a shared
    mutex-protected injection queue that doubles as the workers' park
    bench.  Tasks return values through promises; {!await} from a
    worker domain {e helps} (drains other tasks) instead of blocking,
    so nested submit/await — a file-level task awaiting the chunk
    tasks it spawned on the same scheduler — cannot deadlock, and one
    scheduler can own the whole machine-wide domain budget across both
    the multi-file and intra-file parallelism axes.

    The intended lifecycle is structured: submit, await every promise,
    then {!shutdown} (or use {!with_scheduler}).  Shutting down with
    unawaited tasks still in flight drains them before joining, but
    tasks submitted after {!shutdown} raise [Invalid_argument]. *)

type t
(** A scheduler: [n] worker domains, their deques, and the shared
    injection queue. *)

type 'a promise
(** The eventual result of a submitted task. *)

val create : ?on_start:(t -> unit) -> int -> t
(** [create n] is a scheduler of [max 1 n] worker domains, spawned by
    the first {!submit}: a scheduler nothing is submitted to costs no
    domain.  [on_start] (default: nothing) runs once, on the submitting
    domain, right after the workers spawn.  The calling domain is not a
    worker: its {!submit}s go through the injection queue and its
    {!await}s block. *)

val started : t -> bool
(** Whether the worker domains have been spawned (something was
    submitted). *)

val size : t -> int
(** Worker-domain count. *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Schedule a task.  From a worker domain it is pushed onto that
    worker's own deque (spilling to the injection queue only when the
    ring is full); from any other domain it goes through the injection
    queue.  @raise Invalid_argument after {!shutdown}. *)

val await : t -> 'a promise -> 'a
(** The task's result, re-raising its exception (with backtrace) if it
    failed.  On a worker domain this {e helps} — runs other pending
    tasks while the promise is unresolved — on any other domain it
    blocks on the promise's condition variable. *)

val shutdown : t -> unit
(** Drain, stop and join the worker domains.  Idempotent in effect but
    intended to be called once, after every promise has been awaited. *)

val with_scheduler : int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)

type stats = {
  domains : int;  (** worker-domain count *)
  steals : int;  (** successful cross-deque steals *)
  failed_steals : int;  (** steal sweeps that found every victim empty *)
  injected : int;  (** tasks that went through the shared queue *)
  completed : int;  (** tasks run to completion (or to their exception) *)
  busy_seconds : float array;  (** seconds inside task bodies, by worker *)
  ran : int array;  (** tasks completed, by worker *)
  age_seconds : float;  (** wall-clock seconds since [create] *)
}

val stats : t -> stats
(** Telemetry snapshot.  Exact once the scheduler is quiescent; a
    mid-run read (the live metrics exporter's probes) sees each
    counter atomically but the set need not be mutually consistent. *)

(** The bounded Chase–Lev deque itself, exposed for the stress and
    property tests ([test_deque]).  Slots are atomic so every racing
    access is a defined read under the OCaml memory model; boundedness
    (a full {!push} returns [false] instead of growing) is what makes
    the steal-side CAS ABA-free. *)
module Ws_deque : sig
  type 'a q

  val make : int -> 'a q
  (** [make capacity] rounds the capacity up to a power of two (min 2). *)

  val push : 'a q -> 'a -> bool
  (** Owner only.  [false] when full. *)

  val pop : 'a q -> 'a option
  (** Owner only; takes the newest entry. *)

  val steal : 'a q -> 'a option
  (** Any domain; takes the oldest entry.  [None] is also returned on
      a lost race, so callers must treat it as "retry elsewhere", not
      "empty". *)

  val length : 'a q -> int
  (** Racy size estimate. *)
end
