(* The work-stealing substrate (DESIGN.md §18): the bounded Chase–Lev
   deque under owner/thief races on real domains — every pushed item
   taken exactly once, LIFO on the owner side, boundedness honoured —
   and the scheduler above it: result delivery, exception propagation
   with its backtrace, nested submit/await (a task awaiting tasks it
   spawned on the same scheduler must help, not deadlock), and the
   telemetry counters' conservation laws. *)

module D = Parallel.Deque
module Q = Parallel.Deque.Ws_deque

(* --- the deque itself --- *)

let test_lifo_owner () =
  let q = Q.make 8 in
  for i = 0 to 7 do
    Alcotest.(check bool) "push fits" true (Q.push q i)
  done;
  for i = 7 downto 0 do
    Alcotest.(check (option int)) "newest first" (Some i) (Q.pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Q.pop q)

let test_bounded () =
  (* capacity rounds up to a power of two; the first refused push marks
     the bound and nothing is overwritten *)
  let q = Q.make 5 in
  let accepted = ref 0 in
  while Q.push q !accepted do
    incr accepted
  done;
  Alcotest.(check int) "rounded to 8" 8 !accepted;
  Alcotest.(check int) "length agrees" 8 (Q.length q);
  (* pops return exactly the accepted items *)
  for i = !accepted - 1 downto 0 do
    Alcotest.(check (option int)) "survived the refused push" (Some i)
      (Q.pop q)
  done

let test_steal_fifo () =
  let q = Q.make 8 in
  for i = 0 to 5 do
    ignore (Q.push q i)
  done;
  (* same-domain steal is legal (any domain may steal) and takes the
     oldest entry *)
  Alcotest.(check (option int)) "oldest first" (Some 0) (Q.steal q);
  Alcotest.(check (option int)) "then the next" (Some 1) (Q.steal q);
  Alcotest.(check (option int)) "owner still newest" (Some 5) (Q.pop q)

(* capacity 4, a thousand rounds of push/steal/pop: [top] and [bottom]
   run far past the ring size, so every slot is reused hundreds of
   times, and the masked indices must still hand back each entry from
   the right end *)
let test_ring_wraparound () =
  let q = Q.make 4 in
  for round = 0 to 999 do
    let a = round * 3 in
    for k = 0 to 2 do
      Alcotest.(check bool) "push fits" true (Q.push q (a + k))
    done;
    Alcotest.(check (option int)) "thief takes the oldest" (Some a) (Q.steal q);
    Alcotest.(check (option int)) "owner takes the newest" (Some (a + 2))
      (Q.pop q);
    Alcotest.(check (option int)) "then the middle" (Some (a + 1)) (Q.pop q);
    Alcotest.(check (option int)) "drained" None (Q.pop q)
  done;
  (* after the wraparound the bound is still exactly the capacity *)
  for k = 0 to 3 do
    Alcotest.(check bool) "refill fits" true (Q.push q k)
  done;
  Alcotest.(check bool) "fifth push refused" false (Q.push q 4);
  Alcotest.(check int) "full" 4 (Q.length q)

(* owner pops while thieves steal: conservation — every item is taken
   exactly once, none invented, none lost.  The one-element case is the
   interesting race (pop and steal CAS the same top). *)
let steal_stress ~thieves ~items ~capacity () =
  let q = Q.make capacity in
  let taken = Array.make items (Atomic.make 0) in
  for i = 0 to items - 1 do
    taken.(i) <- Atomic.make 0
  done;
  let stop = Atomic.make false in
  let spawn_thief () =
    Domain.spawn (fun () ->
        let rec loop () =
          match Q.steal q with
          | Some v ->
            Atomic.incr taken.(v);
            loop ()
          | None -> if not (Atomic.get stop) then loop ()
        in
        loop ())
  in
  let ts = List.init thieves (fun _ -> spawn_thief ()) in
  (* the owner interleaves pushes with occasional pops; a full deque
     spins until the thieves make room *)
  let next = ref 0 in
  while !next < items do
    if Q.push q !next then begin
      incr next;
      if !next mod 7 = 0 then
        match Q.pop q with
        | Some v -> Atomic.incr taken.(v)
        | None -> ()
    end
  done;
  (* drain what's left from the owner side *)
  let rec drain () =
    match Q.pop q with
    | Some v ->
      Atomic.incr taken.(v);
      drain ()
    | None -> ()
  in
  drain ();
  (* let the thieves observe the (now stably empty) deque, then stop *)
  Atomic.set stop true;
  List.iter Domain.join ts;
  drain ();
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n <> 1 then
        Alcotest.failf "item %d taken %d times (want exactly once)" i n)
    taken

let test_steal_stress () = steal_stress ~thieves:3 ~items:8_000 ~capacity:64 ()

let test_one_slot_race () =
  (* capacity 2 (the minimum): almost every operation is the
     one-element pop-vs-steal race *)
  steal_stress ~thieves:2 ~items:2_000 ~capacity:1 ()

(* --- the scheduler --- *)

let test_submit_await () =
  D.with_scheduler 2 (fun s ->
      let ps = List.init 100 (fun i -> D.submit s (fun () -> i * i)) in
      let sum = List.fold_left (fun acc p -> acc + D.await s p) 0 ps in
      Alcotest.(check int) "sum of squares" 328350 sum)

exception Boom of int

let test_exception_propagates () =
  D.with_scheduler 2 (fun s ->
      let p = D.submit s (fun () -> raise (Boom 42)) in
      Alcotest.check_raises "re-raised at await" (Boom 42) (fun () ->
          ignore (D.await s p));
      (* the scheduler survives a failed task *)
      let q = D.submit s (fun () -> 7) in
      Alcotest.(check int) "still serving" 7 (D.await s q))

let test_nested_await_helps () =
  (* the shape Runner.run_many produces: file-level tasks that spawn
     and await chunk tasks on the same scheduler.  With blocking
     awaits, 2 domains and 4 outer tasks this deadlocks; helping makes
     it finish. *)
  D.with_scheduler 2 (fun s ->
      let outer =
        List.init 4 (fun i ->
            D.submit s (fun () ->
                let inner =
                  List.init 8 (fun j -> D.submit s (fun () -> (i * 8) + j))
                in
                List.fold_left (fun acc p -> acc + D.await s p) 0 inner))
      in
      let total = List.fold_left (fun acc p -> acc + D.await s p) 0 outer in
      Alcotest.(check int) "32 leaves summed" (31 * 32 / 2) total)

let test_deep_nesting () =
  (* recursive fork/join down to depth 8 on one scheduler *)
  D.with_scheduler 3 (fun s ->
      let rec tree depth =
        if depth = 0 then 1
        else
          let l = D.submit s (fun () -> tree (depth - 1)) in
          let r = D.submit s (fun () -> tree (depth - 1)) in
          D.await s l + D.await s r
      in
      Alcotest.(check int) "2^8 leaves" 256 (tree 8))

let test_shutdown_rejects () =
  let s = D.create 1 in
  let p = D.submit s (fun () -> 3) in
  Alcotest.(check int) "served" 3 (D.await s p);
  D.shutdown s;
  Alcotest.check_raises "closed"
    (Invalid_argument "Deque.submit: scheduler is shut down") (fun () ->
      ignore (D.submit s (fun () -> 0)))

let test_stats_conservation () =
  let s = D.create 2 in
  let n = 200 in
  let ps = List.init n (fun i -> D.submit s (fun () -> i)) in
  let sum = List.fold_left (fun acc p -> acc + D.await s p) 0 ps in
  Alcotest.(check int) "results intact" (n * (n - 1) / 2) sum;
  D.shutdown s;
  let st = D.stats s in
  Alcotest.(check int) "domains" 2 st.D.domains;
  Alcotest.(check int) "every task completed" n st.D.completed;
  Alcotest.(check int) "per-worker counts sum to completed" n
    (Array.fold_left ( + ) 0 st.D.ran);
  (* external submissions all go through the injection queue *)
  Alcotest.(check int) "all injected" n st.D.injected;
  Alcotest.(check bool) "clock advanced" true (st.D.age_seconds >= 0.)

let test_spill_to_injection () =
  (* one worker, so nothing is stolen: a task that submits more
     children than its deque holds must spill the overflow to the
     injection queue, and every child still runs exactly once *)
  let s = D.create 1 in
  let n = 1000 in
  let outer =
    D.submit s (fun () ->
        let ps = List.init n (fun i -> D.submit s (fun () -> i)) in
        List.fold_left (fun acc p -> acc + D.await s p) 0 ps)
  in
  Alcotest.(check int) "children summed" (n * (n - 1) / 2) (D.await s outer);
  D.shutdown s;
  let st = D.stats s in
  Alcotest.(check int) "outer + children completed" (n + 1) st.D.completed;
  Alcotest.(check int) "no steals with one worker" 0 st.D.steals;
  (* the outer task itself came from the main domain *)
  let spilled = st.D.injected - 1 in
  Alcotest.(check bool) "some children spilled" true (spilled > 0);
  Alcotest.(check bool) "some children stayed on the deque" true (spilled < n)

let test_clamped_single_worker () =
  (* [create 0] still yields one worker, and on a lone worker nested
     awaits can only finish by helping *)
  let s = D.create 0 in
  Alcotest.(check int) "clamped to one domain" 1 (D.size s);
  let rec tree depth =
    if depth = 0 then 1
    else
      let l = D.submit s (fun () -> tree (depth - 1)) in
      let r = D.submit s (fun () -> tree (depth - 1)) in
      D.await s l + D.await s r
  in
  let p = D.submit s (fun () -> tree 6) in
  Alcotest.(check int) "2^6 leaves" 64 (D.await s p);
  D.shutdown s;
  (* the root task plus 2 + 4 + ... + 64 submitted subtrees *)
  Alcotest.(check int) "every node ran on worker 0" 127 (D.stats s).D.ran.(0)

let test_failures_per_promise () =
  (* each promise carries its own outcome: awaiting in input order,
     every failing task re-raises its own exception and the tasks
     around it still deliver their values *)
  let s = D.create 3 in
  let ps =
    List.init 40 (fun i ->
        D.submit s (fun () -> if i mod 5 = 0 then raise (Boom i) else i * 2))
  in
  List.iteri
    (fun i p ->
      if i mod 5 = 0 then
        Alcotest.check_raises
          (Printf.sprintf "task %d raises its own" i)
          (Boom i)
          (fun () -> ignore (D.await s p))
      else
        Alcotest.(check int) (Printf.sprintf "task %d value" i) (i * 2)
          (D.await s p))
    ps;
  (* a promise resolves just before its task is counted: read the
     counters once the scheduler is quiescent *)
  D.shutdown s;
  Alcotest.(check int) "every task completed" 40 (D.stats s).D.completed

let test_with_scheduler_drains_on_exception () =
  (* an exception out of the body still shuts the scheduler down, after
     draining the tasks it left unawaited *)
  let leaked = ref None in
  let ran = Atomic.make 0 in
  Alcotest.check_raises "body exception re-raised" (Boom 1) (fun () ->
      D.with_scheduler 2 (fun s ->
          leaked := Some s;
          for _ = 1 to 50 do
            ignore (D.submit s (fun () -> Atomic.incr ran))
          done;
          raise (Boom 1)));
  let s = Option.get !leaked in
  Alcotest.(check int) "unawaited tasks drained" 50 (Atomic.get ran);
  Alcotest.(check int) "completed count" 50 (D.stats s).D.completed;
  Alcotest.check_raises "closed"
    (Invalid_argument "Deque.submit: scheduler is shut down") (fun () ->
      ignore (D.submit s (fun () -> ())))

let test_busy_accounting () =
  (* a task that spins for at least 5 ms must show up as at least that
     much busy time on some worker, within the scheduler's age *)
  let s = D.create 2 in
  let spin () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.005 do
      Domain.cpu_relax ()
    done
  in
  let ps = List.init 4 (fun _ -> D.submit s spin) in
  List.iter (D.await s) ps;
  D.shutdown s;
  let st = D.stats s in
  Alcotest.(check int) "one busy slot per worker" 2
    (Array.length st.D.busy_seconds);
  let busy = Array.fold_left ( +. ) 0. st.D.busy_seconds in
  Alcotest.(check bool) "busy covers the four spins" true (busy >= 0.02);
  Array.iter
    (fun b ->
      Alcotest.(check bool) "a worker is never busier than the scheduler is old"
        true (b <= st.D.age_seconds))
    st.D.busy_seconds

(* Workers spawn at the first submit, not at create: a scheduler nothing
   is submitted to has no domain to start, report or join, and
   [on_start] runs once however many tasks follow.  A shut-down
   scheduler that never started still refuses work. *)
let test_lazy_start () =
  let starts = ref 0 in
  let s = D.create ~on_start:(fun _ -> incr starts) 2 in
  Alcotest.(check bool) "not started by create" false (D.started s);
  Alcotest.(check int) "size known before start" 2 (D.size s);
  let ps = List.init 8 (fun i -> D.submit s (fun () -> i)) in
  Alcotest.(check bool) "started by the first submit" true (D.started s);
  Alcotest.(check int) "results" 28 (List.fold_left (fun a p -> a + D.await s p) 0 ps);
  D.shutdown s;
  Alcotest.(check int) "on_start ran once" 1 !starts;
  Alcotest.(check int) "every task ran" 8 (D.stats s).D.completed;
  let idle = D.create ~on_start:(fun _ -> incr starts) 2 in
  D.shutdown idle;
  Alcotest.(check bool) "never started" false (D.started idle);
  Alcotest.(check int) "no start hook for an idle scheduler" 1 !starts;
  Alcotest.check_raises "closed"
    (Invalid_argument "Deque.submit: scheduler is shut down") (fun () ->
      ignore (D.submit idle (fun () -> 0)));
  Alcotest.(check bool) "a refused submit starts nothing" false (D.started idle)

let suite =
  ( "deque",
    [
      Alcotest.test_case "owner LIFO" `Quick test_lifo_owner;
      Alcotest.test_case "bounded refusal" `Quick test_bounded;
      Alcotest.test_case "steal FIFO" `Quick test_steal_fifo;
      Alcotest.test_case "owner/thief conservation" `Quick test_steal_stress;
      Alcotest.test_case "one-slot race" `Quick test_one_slot_race;
      Alcotest.test_case "submit/await" `Quick test_submit_await;
      Alcotest.test_case "exception propagation" `Quick
        test_exception_propagates;
      Alcotest.test_case "nested await helps" `Quick test_nested_await_helps;
      Alcotest.test_case "deep fork/join" `Quick test_deep_nesting;
      Alcotest.test_case "shutdown rejects submit" `Quick
        test_shutdown_rejects;
      Alcotest.test_case "stats conservation" `Quick test_stats_conservation;
      Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "full deque spills to injection" `Quick
        test_spill_to_injection;
      Alcotest.test_case "create clamps to one worker" `Quick
        test_clamped_single_worker;
      Alcotest.test_case "failures stay per promise" `Quick
        test_failures_per_promise;
      Alcotest.test_case "with_scheduler drains on exception" `Quick
        test_with_scheduler_drains_on_exception;
      Alcotest.test_case "busy-time accounting" `Quick test_busy_accounting;
      Alcotest.test_case "workers spawn at the first submit" `Quick
        test_lazy_start;
    ] )
