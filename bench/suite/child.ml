(* Spawning and accounting for child processes: the `rapid check` runs
   under measurement, and the suite's own per-workload invocations. *)

external wait4 : int -> int * float * float * int = "suite_wait4"

type run = {
  wall_s : float;  (** spawn to reap *)
  cpu_s : float;  (** user + system *)
  peak_rss_mb : float;  (** ru_maxrss *)
  exit_code : int;
  stdout : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [prog args] to completion with stdout and stderr captured in
   [out] and [out ^ ".err"]; [prog] without a slash is looked up in PATH. *)
let run ~out prog args =
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let stdout = fd out and stderr = fd (out ^ ".err") in
  let start = Spans.now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close stdout;
        Unix.close stderr)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout stderr)
  in
  let exit_code, user, system, maxrss_kib = wait4 pid in
  let wall_s = Spans.now () -. start in
  {
    wall_s;
    cpu_s = user +. system;
    peak_rss_mb = float_of_int maxrss_kib /. 1024.;
    exit_code;
    stdout = read_file out;
  }

(* The absolute path [prog] resolves to, as execvp would find it. *)
let resolve prog =
  if String.contains prog '/' then Some prog
  else
    List.find_map
      (fun dir ->
        let p = Filename.concat dir prog in
        if Sys.file_exists p then Some p else None)
      (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:""))
