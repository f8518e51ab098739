(* Ambient per-run metric collection.

   The checkers all ascribe to [Checker.S], and the verbatim reference
   copies under test/reference must keep compiling against that
   signature — so the runner cannot ask a checker for its metrics
   through the functor interface.  Instead, [collect f] installs a
   domain-local scope for the duration of [f]; any registry created
   while it is active (each [Cmetrics.create] in a checker constructor)
   calls [attach] and is snapshotted when [f] returns.

   Scopes are domain-local (Domain.DLS), so a scheduler worker never
   leaks its registries into another run — each worker's [run_file]
   call opens its own scope on its own domain.

   When live exposure is on (a metrics exporter is serving), attached
   registries are additionally published to [Live] for the duration of
   the scope, tagged with the scope's labels, so a scrape mid-run sees
   the checker's counters as they advance. *)

type scope = {
  mutable registries : Registry.t list; (* newest first *)
  labels : (string * string) list; (* applied to live-exposed registries *)
}

let key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let attach reg =
  match !(Domain.DLS.get key) with
  | None -> ()
  | Some s ->
    s.registries <- reg :: s.registries;
    if Live.on () then Live.expose ~labels:s.labels reg

let active () = Option.is_some !(Domain.DLS.get key)

let collect ?(labels = []) (f : unit -> 'a) : 'a * Snapshot.t =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  let scope = { registries = []; labels } in
  cell := Some scope;
  (* Retract unconditionally: exposure may have raced with the exporter
     shutting down, and retracting a never-exposed registry is a no-op
     over an (almost always empty) list. *)
  let finish () =
    cell := saved;
    List.iter Live.retract scope.registries
  in
  match f () with
  | v ->
    finish ();
    (v, List.concat_map Registry.snapshot (List.rev scope.registries))
  | exception e ->
    finish ();
    raise e
