(* Quickstart: build traces with the Builder DSL, check them for atomicity
   violations, and inspect what the checker saw.

   Run with: dune exec examples/quickstart.exe *)

open Traces

(* The paper's Figure 2 (trace rho2): two atomic blocks whose reads and
   writes interleave so that each must come before the other — the classic
   non-serializable pattern. *)
let rho2 =
  let b = Trace.Builder.create () in
  let t1 = 0 and t2 = 1 and x = 0 and y = 1 in
  Trace.Builder.begin_ b t1;
  Trace.Builder.begin_ b t2;
  Trace.Builder.write b t1 ~var:x;
  Trace.Builder.read b t2 ~var:x;
  Trace.Builder.write b t2 ~var:y;
  Trace.Builder.read b t1 ~var:y;
  Trace.Builder.end_ b t1;
  Trace.Builder.end_ b t2;
  Trace.Builder.build b

(* A serializable variant: the second block starts only after the first
   finished. *)
let serial =
  let b = Trace.Builder.create () in
  let t1 = 0 and t2 = 1 and x = 0 and y = 1 in
  Trace.Builder.begin_ b t1;
  Trace.Builder.write b t1 ~var:x;
  Trace.Builder.read b t1 ~var:y;
  Trace.Builder.end_ b t1;
  Trace.Builder.begin_ b t2;
  Trace.Builder.read b t2 ~var:x;
  Trace.Builder.write b t2 ~var:y;
  Trace.Builder.end_ b t2;
  Trace.Builder.build b

let describe name tr =
  Format.printf "== %s ==@.%a@." name Trace.pp tr;
  (* One call checks a whole trace... *)
  (match Aerodrome.Checker.run (module Aerodrome.Opt) tr with
  | None -> Format.printf "aerodrome: conflict serializable@."
  | Some v -> Format.printf "aerodrome: %a@." Aerodrome.Violation.pp v);
  (* ... and the Velodrome baseline agrees, with a cycle as witness. *)
  (match Aerodrome.Checker.run (module Velodrome.Online) tr with
  | None -> Format.printf "velodrome: conflict serializable@."
  | Some v -> Format.printf "velodrome: %a@." Aerodrome.Violation.pp v);
  Format.printf "@."

(* The checkers are streaming: feed events one at a time for online
   monitoring.  Here we also watch the vector clocks evolve, reproducing
   Figure 5 of the paper. *)
let watch_clocks () =
  Format.printf "== clock evolution on rho2 (Figure 5) ==@.";
  let st = Aerodrome.Basic.create ~threads:2 ~locks:0 ~vars:2 in
  Trace.iteri
    (fun i e ->
      match Aerodrome.Basic.feed_packed st (Packed.of_event e) with
      | Some v ->
        Format.printf "e%-2d %-12s -> VIOLATION (%a)@." (i + 1)
          (Event.to_string e) Aerodrome.Violation.pp_site
          v.Aerodrome.Violation.site
      | None ->
        Format.printf "e%-2d %-12s C_t1=%a C_t2=%a@." (i + 1)
          (Event.to_string e) Vclock.Vtime.pp
          (Aerodrome.Basic.thread_clock st 0)
          Vclock.Vtime.pp
          (Aerodrome.Basic.thread_clock st 1))
    rho2

let () =
  describe "rho2 (violating)" rho2;
  describe "serial (serializable)" serial;
  watch_clocks ()
