(* Analyzing traces bigger than you want in memory.

   The paper's logs reach billions of events.  This example generates a
   million-event workload, stores it in the compact binary format, and
   then analyzes it by STREAMING straight from the file — the checker is
   single-pass, so peak memory is the checker state (vector clocks sized
   by threads x variables), not the trace.

   Run with: dune exec examples/big_trace.exe *)

open Traces

let events = 1_000_000

let () =
  let path = Filename.temp_file "aerodrome_big" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* 1. Generate and store (the only phase that holds the full trace). *)
      let t0 = Unix.gettimeofday () in
      let tr =
        Workloads.Generator.generate
          {
            Workloads.Generator.default with
            events;
            threads = 8;
            locks = 8;
            vars = 400_000;
            shape = Workloads.Generator.Independent;
            plan = Workloads.Generator.Violate_at 0.95;
          }
      in
      Binfmt.write_file path tr;
      let bytes = (Unix.stat path).Unix.st_size in
      Format.printf "wrote %d events, %d bytes (%.1f bytes/event) in %.1fs@."
        (Trace.length tr) bytes
        (float_of_int bytes /. float_of_int (Trace.length tr))
        (Unix.gettimeofday () -. t0);

      (* 2. Stream-analyze from disk. *)
      let run name checker =
        let r = Analysis.Runner.run_stream checker path in
        Format.printf "  %-10s %a (%.1f M events/s)@." name
          Analysis.Runner.pp r
          (float_of_int r.Analysis.Runner.events_fed
          /. r.Analysis.Runner.seconds /. 1e6)
      in
      run "aerodrome" (module Aerodrome.Opt : Aerodrome.Checker.S);
      run "velodrome" (module Velodrome.Online : Aerodrome.Checker.S);

      (* 3. The header alone answers the sizing questions. *)
      let h = Binfmt.read_header path in
      Format.printf
        "header: %d threads, %d locks, %d variables, %d events@."
        h.Binfmt.threads h.Binfmt.locks h.Binfmt.vars h.Binfmt.events)
