(* Differential tests of the epoch-based checkers against verbatim
   pre-epoch copies of the seed checkers (test/reference).  The Aclock
   rewrite is exact-value — same outcome, same event index, same check
   site, on every trace — so any divergence here is a bug, not a
   precision trade-off.  The trace shapes deliberately include the two
   extremes of the adaptive representation: fork/join-heavy traces that
   inflate clocks early, and single-writer-heavy traces that stay in
   epoch form throughout. *)

open Traces

let pairs : (string * Aerodrome.Checker.t * Aerodrome.Checker.t) list =
  [
    ("basic", (module Aerodrome.Basic), (module Reference.Reference_basic));
    ("opt", (module Aerodrome.Opt), (module Reference.Reference_opt));
    ("opt-slow", Aerodrome.Opt.slow_checker, Reference.Reference_opt.slow_checker);
  ]

let same_violation a b =
  match (a, b) with
  | None, None -> true
  | Some (va : Aerodrome.Violation.t), Some (vb : Aerodrome.Violation.t) ->
    va.index = vb.index && va.event = vb.event && va.site = vb.site
  | _ -> false

let agree tr =
  List.for_all
    (fun (_, epoch, reference) ->
      same_violation
        (Aerodrome.Checker.run epoch tr)
        (Aerodrome.Checker.run reference tr))
    pairs
  (* Reduced has no pre-epoch twin here; it must still blame the same
     event as pre-epoch Basic (Algorithms 1 and 2 agree on the index). *)
  &&
  match
    ( Aerodrome.Checker.run (module Aerodrome.Reduced) tr,
      Aerodrome.Checker.run (module Reference.Reference_basic) tr )
  with
  | None, None -> true
  | Some va, Some vb ->
    va.Aerodrome.Violation.index = vb.Aerodrome.Violation.index
  | _ -> false

let prop_mixed =
  QCheck.Test.make ~name:"epoch = pre-epoch (mixed shapes)" ~count:400
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:3 ~max_len:80 ())
    agree

let prop_fork_join =
  (* six threads, forked and joined mid-trace: cross-thread joins inflate
     C_t early, so this exercises the inflated-representation paths *)
  QCheck.Test.make ~name:"epoch = pre-epoch (fork/join-heavy)" ~count:250
    (Helpers.arb_trace ~threads:6 ~locks:1 ~vars:2 ~max_len:120 ())
    agree

let prop_incomplete =
  QCheck.Test.make ~name:"epoch = pre-epoch (incomplete traces)" ~count:200
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:3 ~max_len:80 ~complete:false ())
    agree

(* Generator traces with many more variables than events per thread:
   nearly every variable has a single writer, so W_x/R_x clocks stay in
   epoch form and the O(1) fast paths carry the whole run. *)
let arb_single_writer =
  let gen rs =
    let seed = Int64.of_int (Random.State.bits rs) in
    let plan =
      if Random.State.bool rs then Workloads.Generator.Atomic
      else Workloads.Generator.Violate_at (0.2 +. Random.State.float rs 0.6)
    in
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 300;
        threads = 6;
        vars = 120;
        shape = Workloads.Generator.Independent;
        plan;
        seed;
      }
  in
  QCheck.make ~print:Parser.to_string gen

let prop_single_writer =
  QCheck.Test.make ~name:"epoch = pre-epoch (single-writer-heavy)" ~count:200
    arb_single_writer agree

(* Many threads, none forked, in short transactions that hand locks on:
   most thread clocks stay flat for much of the trace, so Opt keeps its
   covers masks up mostly by single-bit updates (a begin clears its
   thread's bit everywhere, a join from a flat clock sets the owner's
   bit) rather than by rebuilds.  A window of four neighbouring thread
   ids drifts over all of them.  Except for 5% of the choices, data and
   locks flow only from lower to higher thread ids, which keeps most
   traces serializable: a violation would freeze both checkers early. *)
let gen_many_threads ~threads rs =
  let rand = Random.State.int rs in
  let locks = 1 + rand 4 and vars = 2 + rand 8 in
  let depth = Array.make threads 0 and budget = Array.make threads 0 in
  let held = Array.make threads (-1) and holder = Array.make locks (-1) in
  let last_rel = Array.make locks (-1) in
  (* highest thread that accessed / wrote each variable; variable
     [vars + t] is thread t's own *)
  let accessed = Array.make (vars + threads) (-1) in
  let written = Array.make (vars + threads) (-1) in
  let b = Trace.Builder.create () in
  let release t =
    Trace.Builder.release b t ~lock:held.(t);
    last_rel.(held.(t)) <- t;
    holder.(held.(t)) <- -1;
    held.(t) <- -1
  in
  (* the last thread and variable appear first, fixing the domains *)
  Trace.Builder.read b (threads - 1) ~var:(vars + threads - 1);
  let base = ref 0 in
  for _ = 1 to 50 + rand 350 do
    if rand 16 = 0 then base := rand threads;
    let t = (!base + rand 4) mod threads and l = rand locks in
    let any = rand 100 < 5 in
    let x = if rand 100 < 30 then vars + t else rand vars in
    if depth.(t) = 0 && rand 4 > 0 then begin
      depth.(t) <- 1;
      budget.(t) <- 1 + rand 10;
      Trace.Builder.begin_ b t
    end
    else if depth.(t) > 0 && budget.(t) = 0 then begin
      if held.(t) >= 0 then release t;
      depth.(t) <- 0;
      Trace.Builder.end_ b t
    end
    else begin
      budget.(t) <- max 0 (budget.(t) - 1);
      if held.(t) < 0 && holder.(l) < 0 && (any || last_rel.(l) <= t)
         && rand 2 = 0
      then begin
        held.(t) <- l;
        holder.(l) <- t;
        Trace.Builder.acquire b t ~lock:l
      end
      else if held.(t) >= 0 && rand 3 = 0 then release t
      else begin
        let write = rand 2 = 0 in
        let x =
          if any || (if write then accessed.(x) else written.(x)) <= t then x
          else vars + t
        in
        accessed.(x) <- max accessed.(x) t;
        if write then begin
          written.(x) <- max written.(x) t;
          Trace.Builder.write b t ~var:x
        end
        else Trace.Builder.read b t ~var:x
      end
    end
  done;
  for t = 0 to threads - 1 do
    if held.(t) >= 0 then release t;
    if depth.(t) > 0 then Trace.Builder.end_ b t
  done;
  Trace.Builder.build b

(* Same verdict and same final clocks: a missed or spurious update-set
   entry changes a refreshed W_x/R_x long before it changes a verdict. *)
let same_state ~fast_checks tr =
  let module O = Aerodrome.Opt in
  let module R = Reference.Reference_opt in
  let threads = Trace.threads tr and locks = Trace.locks tr in
  let vars = Trace.vars tr in
  let o = O.create_with ~fast_checks ~threads ~locks ~vars () in
  let r = R.create_with ~fast_checks ~threads ~locks ~vars () in
  Trace.iter
    (fun e ->
      let w = Packed.of_event e in
      ignore (O.feed_packed o w);
      ignore (R.feed_packed r w))
    tr;
  let same f g n =
    List.for_all (fun i -> Vclock.Vtime.equal (f o i) (g r i)) (List.init n Fun.id)
  in
  same_violation (O.violation o) (R.violation r)
  && same O.thread_clock R.thread_clock threads
  && same O.write_clock R.write_clock vars
  && same O.read_clock_joined R.read_clock_joined vars
  && same O.read_clock_check R.read_clock_check vars

let agree_opt tr =
  same_state ~fast_checks:true tr && same_state ~fast_checks:false tr

let prop_many_threads =
  QCheck.Test.make ~name:"opt = pre-epoch (16-62 threads, covers masks)"
    ~count:500
    (QCheck.make ~print:Parser.to_string (fun rs ->
         gen_many_threads ~threads:(16 + Random.State.int rs 47) rs))
    agree_opt

let prop_63_threads =
  QCheck.Test.make ~name:"opt = pre-epoch (63 threads, unmasked)" ~count:100
    (QCheck.make ~print:Parser.to_string (gen_many_threads ~threads:63))
    agree_opt

(* Above 62 threads the stale-reader bitset spans words: 64 threads end
   just past the first word's last bit, 130 threads fill two words and
   start a third. *)
let prop_64_threads =
  QCheck.Test.make ~name:"opt = pre-epoch (64 threads, two-word bitsets)"
    ~count:100
    (QCheck.make ~print:Parser.to_string (gen_many_threads ~threads:64))
    agree_opt

let prop_130_threads =
  QCheck.Test.make ~name:"opt = pre-epoch (130 threads, three-word bitsets)"
    ~count:50
    (QCheck.make ~print:Parser.to_string (gen_many_threads ~threads:130))
    agree_opt

let suite =
  ( "differential (pre-epoch reference)",
    Helpers.qcheck_tests
      [
        prop_mixed;
        prop_fork_join;
        prop_incomplete;
        prop_single_writer;
        prop_many_threads;
        prop_63_threads;
        prop_64_threads;
        prop_130_threads;
      ] )
