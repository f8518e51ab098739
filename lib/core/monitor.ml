open Traces

type stats = {
  events : int;
  reads : int;
  writes : int;
  syncs : int;
  transactions_started : int;
  transactions_completed : int;
  active_transactions : int;
}

type report = {
  violation : Violation.t;
  stats_at_detection : stats;
  thread_name : string;
  description : string;
}

(* The checker is held with its state as one packed value. *)
type packed = Packed : (module Checker.S with type t = 's) * 's -> packed

type t = {
  packed : packed;
  symbols : Trace.Symbols.t option;
  on_violation : report -> unit;
  depth : int array;
  (* One counter source of truth: the same Cmetrics registry the
     checkers use, updated unconditionally — Monitor.stats predates the
     Obs.on gate and its counts must not depend on the flag.  Not
     attached to the ambient scope: the wrapped checker already
     contributes its own registry there. *)
  m : Cmetrics.t;
  mutable report : report option;
}

let default_checker : Checker.t = (module Opt)

let create ?(checker = default_checker) ?symbols ?(on_violation = fun _ -> ())
    ~threads ~locks ~vars () =
  if not (Packed.fits ~threads ~locks ~vars) then
    invalid_arg "Monitor.create: id domains exceed the packed limit";
  let (module C : Checker.S) = checker in
  let st = C.create ~threads ~locks ~vars in
  {
    packed = Packed ((module C), st);
    symbols;
    on_violation;
    depth = Array.make (max threads 1) 0;
    m = Cmetrics.create ~attach:false ();
    report = None;
  }

let of_trace_domains ?checker ?on_violation tr =
  create ?checker ?symbols:(Trace.symbols tr) ?on_violation
    ~threads:(Trace.threads tr) ~locks:(Trace.locks tr) ~vars:(Trace.vars tr)
    ()

(* Thin view over the registry counters, kept for compatibility. *)
let stats m =
  let v = Obs.Counter.value in
  let cm = m.m in
  let started = v cm.Cmetrics.txn_begins in
  let completed = v cm.Cmetrics.txn_commits in
  {
    events = v cm.Cmetrics.events;
    reads = v cm.Cmetrics.reads;
    writes = v cm.Cmetrics.writes;
    syncs =
      v cm.Cmetrics.acquires + v cm.Cmetrics.releases + v cm.Cmetrics.forks
      + v cm.Cmetrics.joins;
    transactions_started = started;
    transactions_completed = completed;
    active_transactions = started - completed;
  }

let metrics m = Cmetrics.snapshot m.m

let thread_name m tid =
  match m.symbols with
  | Some s -> Trace.Symbols.thread s tid
  | None -> Ids.Tid.to_string tid

let describe m (v : Violation.t) =
  let name target pp fallback =
    match m.symbols with Some s -> target s | None -> Format.asprintf "%a" pp fallback
  in
  match (v.site, v.event.op) with
  | Violation.At_read, Event.Read x | Violation.At_write_vs_write, Event.Write x
    ->
    Printf.sprintf
      "access to %s is ordered after the checking transaction's own begin: \
       the block cannot run without interleaving"
      (name (fun s -> Trace.Symbols.var s x) Ids.Vid.pp x)
  | Violation.At_write_vs_read, Event.Write x ->
    Printf.sprintf
      "a concurrent transaction read %s after this block began; the write \
       closes a cycle"
      (name (fun s -> Trace.Symbols.var s x) Ids.Vid.pp x)
  | Violation.At_acquire, Event.Acquire l ->
    Printf.sprintf
      "lock %s was released by a critical section ordered after this \
       block's begin"
      (name (fun s -> Trace.Symbols.lock s l) Ids.Lid.pp l)
  | Violation.At_join, Event.Join u ->
    Printf.sprintf "joined thread %s ran inside this atomic block"
      (name (fun s -> Trace.Symbols.thread s u) Ids.Tid.pp u)
  | Violation.At_end u, _ ->
    Printf.sprintf
      "completing this block orders it entirely before the active \
       transaction of %s, which is already ordered before it"
      (name (fun s -> Trace.Symbols.thread s u) Ids.Tid.pp u)
  | Violation.Graph_cycle cycle, _ ->
    Printf.sprintf "transaction graph cycle of length %d" (List.length cycle)
  | _, _ -> "conflict-serializability violation"

let count m w =
  let t = Packed.tid w and op = Packed.opcode w in
  Cmetrics.count_op m.m op;
  if op = Packed.op_begin then begin
    if m.depth.(t) = 0 then Cmetrics.txn_begin m.m;
    m.depth.(t) <- m.depth.(t) + 1
  end
  else if op = Packed.op_end && m.depth.(t) > 0 then begin
    m.depth.(t) <- m.depth.(t) - 1;
    if m.depth.(t) = 0 then Cmetrics.txn_commit m.m
  end

let observe m e =
  let w = Packed.of_event e in
  count m w;
  match m.report with
  | Some _ -> None  (* already reported; keep only the statistics *)
  | None -> (
    let (Packed ((module C), st)) = m.packed in
    match C.feed_packed st w with
    | None -> None
    | Some violation ->
      let report =
        {
          violation;
          stats_at_detection = stats m;
          thread_name = thread_name m violation.Violation.event.thread;
          description = describe m violation;
        }
      in
      m.report <- Some report;
      m.on_violation report;
      Some report)

let observe_all m events =
  let rec go events =
    match Seq.uncons events with
    | None -> None
    | Some (e, rest) -> (
      match observe m e with Some r -> Some r | None -> go rest)
  in
  go events

let violation m = m.report
let violated m = Option.is_some m.report

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<h>%d events (%d reads, %d writes, %d sync); %d transactions (%d \
     completed, %d active)@]"
    s.events s.reads s.writes s.syncs s.transactions_started
    s.transactions_completed s.active_transactions

let report_to_string r =
  Format.asprintf "%a — thread %s: %s" Violation.pp r.violation r.thread_name
    r.description
