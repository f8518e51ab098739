(* The traced pass: one call into each layer's public functions, on the
   same trace as the timed `rapid check` runs, each inside a span.  The
   layers run one after another on their own, so each time is that
   layer's alone; where a layer can only run on top of the decoder
   (prefilter) the decode time measured on its own is subtracted.  The
   whole-run stage goes first, on a compacted heap, as in a fresh
   `rapid check` process. *)

open Spans

let opt_checker = (module Aerodrome.Opt : Aerodrome.Checker.S)
let words_since a0 = (Gc.allocated_bytes () -. a0) /. 8.

(* Obj.reachable_words on the checker state every this many events, with
   the feed clock stopped. *)
let state_sample_events = 1 lsl 20

type outcome = {
  metrics : (string * float) list;
  mismatches : string list;  (** in-process verdicts that differ from the oracle *)
}

let pass (w : Workload.t) ~bin ~std (e : Workload.expected) =
  let run = !current_run in
  let mismatches = ref [] in
  let check what violation fed =
    let got = { Workload.violation; fed } in
    if got <> e then
      mismatches :=
        Printf.sprintf "%s: %s, expected %s" what (Workload.report got)
          (Workload.report e)
        :: !mismatches
  in
  let index = Option.map (fun (v : Aerodrome.Violation.t) -> v.index) in
  Gc.compact ();
  let metrics =
    span "pass" (fun () ->
        let h = Traces.Binfmt.read_header bin in
        let threads = h.threads and locks = h.locks and vars = h.vars in
        let n = h.events in
        let r =
          span "runner" (fun () ->
              let file = match w.format with Binary -> bin | Text -> std in
              let prefilter = if w.prefilter then Analysis.Runner.Auto else Off in
              if Workload.stealing w ~events:n then
                Parallel.Deque.with_scheduler w.jobs (fun sched ->
                    Analysis.Runner.run_file ~prefilter ~shards:0 ~sched opt_checker
                      file)
              else Analysis.Runner.run_file ~prefilter opt_checker file)
        in
        (match r with
        | Ok { outcome = Verdict v; events_fed; _ } ->
          check "Runner.run_file" (index v) events_fed
        | Ok { outcome = Timed_out; _ } ->
          mismatches := "Runner.run_file: timed out" :: !mismatches
        | Error msg -> mismatches := ("Runner.run_file: " ^ msg) :: !mismatches);
        let last_use, stats =
          span "binfmt.footer" (fun () ->
              (Traces.Binfmt.read_last_use bin, Traces.Binfmt.read_stats bin))
        in
        let decode_words =
          span "binfmt.decode" (fun () ->
              let a0 = Gc.allocated_bytes () in
              let _, count = Traces.Binfmt.fold_packed bin ~init:0 ~f:(fun k _ -> k + 1) in
              if count <> n then failwith "binfmt.decode: event count differs from header";
              words_since a0)
        in
        let decode_s = total ~run "binfmt.decode" in
        let filtered = Traces.Packed.Arena.create () in
        span "prefilter" (fun () ->
            let push word = Traces.Packed.Arena.push filtered word in
            let pf = Traces.Prefilter.create (Exact (Option.get stats)) in
            ignore
              (Traces.Binfmt.fold_packed bin ~init:() ~f:(fun () word ->
                   Traces.Prefilter.feed_packed pf word push));
            Traces.Prefilter.finish_packed pf push);
        let filter_s = total ~run "prefilter" -. decode_s in
        let kept = Traces.Packed.Arena.length filtered in
        (* the events `rapid check` feeds its checker *)
        let arena =
          if w.prefilter then filtered
          else span "binfmt.read_packed" (fun () -> snd (Traces.Binfmt.read_packed bin))
        in
        let fed = Traces.Packed.Arena.length arena in
        let st =
          Aerodrome.Reclaim.with_policy
            (match last_use with Some lt -> Oracle lt | None -> Off)
            (fun () -> Aerodrome.Opt.create ~threads ~locks ~vars)
        in
        let opt_words = ref 0. and state_peak = ref 0 in
        span "opt" (fun () ->
            let i = ref 0 in
            while !i < fed do
              let stop = min fed (!i + state_sample_events) in
              let a0 = Gc.allocated_bytes () in
              span "opt.feed" (fun () ->
                  Traces.Packed.Arena.iter_range arena !i stop (fun word ->
                      ignore (Aerodrome.Opt.feed_packed st word)));
              opt_words := !opt_words +. words_since a0;
              span "opt.state_words" (fun () ->
                  state_peak := max !state_peak (Obj.reachable_words (Obj.repr st)));
              i := stop
            done);
        check "Opt.feed_packed" (index (Aerodrome.Opt.violation st)) fed;
        let opt_s = total ~run "opt.feed" in
        let sched = ref None in
        let o =
          span "shard" (fun () ->
              Parallel.Deque.with_scheduler 2 (fun s ->
                  sched := Some s;
                  Parallel.Shard.check_stealing ~sched:s ~shards:0 ~threads ~locks
                    ~vars arena))
        in
        check "Shard.check_stealing" (index o.violation) fed;
        let ds = Parallel.Deque.stats (Option.get !sched) in
        let shard_s = total ~run "shard" in
        let plan =
          span "merge.plan" (fun () ->
              Aerodrome.Merge.plan ~threads ~shards:(o.plan.targets + 1) arena)
        in
        let chunk_s = Array.map (fun (t : Parallel.Shard.task) -> t.seconds) o.tasks in
        let busy = Array.to_list ds.busy_seconds in
        let t_init = ref 0. in
        let parsed =
          span "parser" (fun () ->
              let start = now () in
              let count =
                Traces.Parser.fold_file_exn std
                  ~init:(fun ~threads:_ ~locks:_ ~vars:_ ->
                    t_init := now ();
                    record "parser.intern" ~start ~stop:!t_init;
                    0)
                  ~f:(fun k _ -> k + 1)
              in
              record "parser.fold" ~start:!t_init ~stop:(now ());
              count)
        in
        if parsed <> n then failwith "parser: event count differs from the binary file";
        let per_event s count = if count = 0 then 0. else s /. float_of_int count in
        let intern_s = total ~run "parser.intern" and fold_s = total ~run "parser.fold" in
        let metrics =
          [
            ("runner.wall_s", total ~run "runner");
            ("binfmt.decode_s", decode_s);
            ("binfmt.decode_mev_s", float_of_int n /. decode_s /. 1e6);
            ("binfmt.alloc_words_per_event", per_event decode_words n);
            ("binfmt.footer_s", total ~run "binfmt.footer");
            ("parser.intern_s", intern_s);
            ("parser.fold_s", fold_s);
            ("parser.mev_s", float_of_int n /. (intern_s +. fold_s) /. 1e6);
            ("prefilter.filter_s", filter_s);
            ("prefilter.ns_per_event", per_event filter_s n *. 1e9);
            ("prefilter.kept_ratio", per_event (float_of_int kept) n);
            ("opt.feed_s", opt_s);
            ("opt.ns_per_event", per_event opt_s fed *. 1e9);
            ("opt.events_fed", float_of_int fed);
            ("opt.alloc_words_per_event", per_event !opt_words fed);
            ("opt.state_words_peak", float_of_int !state_peak);
            ("merge.plan_s", total ~run "merge.plan");
            ("merge.seamed_cuts", float_of_int plan.seamed);
            ("merge.tainted_events", float_of_int plan.tainted_events);
            ("merge.repair_window_events", float_of_int plan.repair_events);
            ("shard.wall_s", shard_s);
            ("shard.chunks", float_of_int (Array.length o.tasks));
            ("shard.chunk_s_sum", Array.fold_left ( +. ) 0. chunk_s);
            ("shard.chunk_s_max", Array.fold_left max 0. chunk_s);
            ("shard.repaired_events", float_of_int o.repaired_events);
            ("shard.repair_fraction", per_event (float_of_int o.repaired_events) fed);
            ("shard.assemble_s", o.merge_seconds);
            ("shard.speedup_vs_seq", opt_s /. shard_s);
            ("deque.steals", float_of_int ds.steals);
            ("deque.failed_steals", float_of_int ds.failed_steals);
            ( "deque.utilization_min",
              List.fold_left min 1. (List.map (fun b -> b /. ds.age_seconds) busy) );
            ( "deque.idle_s",
              List.fold_left (fun acc b -> acc +. Float.max 0. (ds.age_seconds -. b)) 0.
                busy );
          ]
        in
        let covered =
          List.fold_left
            (fun acc m -> acc +. List.assoc m metrics)
            0. (Workload.path w ~events:n)
        in
        metrics @ [ ("trace.coverage", covered /. total ~run "runner") ])
  in
  { metrics; mismatches = List.rev !mismatches }
