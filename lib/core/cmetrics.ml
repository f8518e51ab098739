open Traces

type t = {
  registry : Obs.Registry.t;
  events : Obs.Counter.t;
  reads : Obs.Counter.t;
  writes : Obs.Counter.t;
  acquires : Obs.Counter.t;
  releases : Obs.Counter.t;
  forks : Obs.Counter.t;
  joins : Obs.Counter.t;
  begins : Obs.Counter.t;
  ends : Obs.Counter.t;
  txn_begins : Obs.Counter.t;
  txn_commits : Obs.Counter.t;
  vc_joins : Obs.Counter.t;
  stale_readers : Obs.Histogram.t;
  lock_updates : Obs.Histogram.t;
  violation_index : Obs.Gauge.t;
}

let create ?(attach = true) () =
  let reg = Obs.Registry.create () in
  let c name = Obs.Registry.counter reg name in
  let m =
    {
      registry = reg;
      events = c "events.total";
      reads = c "events.read";
      writes = c "events.write";
      acquires = c "events.acquire";
      releases = c "events.release";
      forks = c "events.fork";
      joins = c "events.join";
      begins = c "events.begin";
      ends = c "events.end";
      txn_begins = c "txn.begins";
      txn_commits = c "txn.commits";
      vc_joins = c "vc.joins";
      stale_readers = Obs.Registry.histogram reg "sets.stale_readers";
      lock_updates = Obs.Registry.histogram reg "sets.lock_updates";
      violation_index = Obs.Registry.gauge ~init:(-1.0) reg "violation.index";
    }
  in
  if attach then Obs.Scope.attach reg;
  m

(* Counts by opcode int ({!Traces.Packed} order, = the binfmt record
   opcodes).  The checkers call it only with telemetry on; {!Monitor}
   always does. *)
let count_op m op =
  Obs.Counter.inc m.events;
  Obs.Counter.inc
    (if op <= Packed.op_write then
       if op = Packed.op_read then m.reads else m.writes
     else if op <= Packed.op_release then
       if op = Packed.op_acquire then m.acquires else m.releases
     else if op <= Packed.op_join then
       if op = Packed.op_fork then m.forks else m.joins
     else if op = Packed.op_begin then m.begins
     else m.ends)

let txn_begin m = Obs.Counter.inc m.txn_begins
let txn_commit m = Obs.Counter.inc m.txn_commits
let vc_join m = Obs.Counter.inc m.vc_joins
let vc_joins_add m n = Obs.Counter.add m.vc_joins n
let observe_stale_readers m n = Obs.Histogram.observe m.stale_readers n
let observe_lock_updates m n = Obs.Histogram.observe m.lock_updates n
let found_violation m index = Obs.Gauge.set_int m.violation_index index
let registry m = m.registry
let snapshot m = Obs.Registry.snapshot m.registry
