open Traces
module G = Digraphs.Digraph
module Pk = Digraphs.Incremental

let name = "velodrome"

let nil = -1

type engine = Dfs | Incremental

(* The two cycle-detection engines behind one face: the classic
   reachability-check-per-edge (the paper's Velodrome, cubic worst case)
   and the Pearce–Kelly dynamic topological order (the stronger-baseline
   ablation). *)
type graph_ops = {
  eng_add_node : int -> unit;
  eng_remove_node : int -> unit;
  eng_mem_node : int -> bool;
  eng_add_edge : int -> int -> [ `Added | `Exists | `Cycle of int list ];
  eng_in_degree : int -> int;
  eng_succs : int -> int list;
  eng_num_nodes : unit -> int;
}

let dfs_ops () =
  let g = G.create () in
  {
    eng_add_node = G.add_node g;
    eng_remove_node = G.remove_node g;
    eng_mem_node = G.mem_node g;
    eng_add_edge =
      (fun u v ->
        if not (G.add_edge g u v) then `Exists
        else
          match G.find_path g v u with
          | Some path -> `Cycle path
          | None -> `Added);
    eng_in_degree = G.in_degree g;
    eng_succs = G.succs g;
    eng_num_nodes = (fun () -> G.num_nodes g);
  }

let pk_ops () =
  let g = Pk.create () in
  {
    eng_add_node = Pk.add_node g;
    eng_remove_node = Pk.remove_node g;
    eng_mem_node = Pk.mem_node g;
    eng_add_edge = Pk.add_edge g;
    eng_in_degree = Pk.in_degree g;
    eng_succs = Pk.succs g;
    eng_num_nodes = (fun () -> Pk.num_nodes g);
  }

type t = {
  threads : int;
  locks : int;
  vars : int;
  gc : bool;
  graph : graph_ops;
  mutable next_txn : int;
  completed : (int, unit) Hashtbl.t;
  (* A transaction is deleted iff completed and no longer in the graph. *)
  cur_txn : int array;  (* active outermost transaction per thread, or nil *)
  last_txn : int array;  (* most recent transaction per thread, or nil *)
  depth : int array;
  pending_parent : int array;  (* forking transaction, consumed by the
                                  child's first transaction *)
  last_writer : int array;  (* per variable: txn of the last write *)
  readers : int array array;  (* per variable: txn of each thread's last
                                 read since the last write; rows lazy *)
  last_releaser : int array;  (* per lock: txn of the last release *)
  mutable peak_nodes : int;
  mutable edges_added : int;
  mutable violation : Aerodrome.Violation.t option;
  mutable processed : int;
  m : Aerodrome.Cmetrics.t;
}

let create_with ?(garbage_collect = true) ?(engine = Dfs) ~threads ~locks
    ~vars () =
  let dim = max threads 1 in
  let st =
    {
      threads = dim;
      locks;
      vars;
      gc = garbage_collect;
      graph = (match engine with Dfs -> dfs_ops () | Incremental -> pk_ops ());
      next_txn = 0;
      completed = Hashtbl.create 64;
      cur_txn = Array.make dim nil;
      last_txn = Array.make dim nil;
      depth = Array.make dim 0;
      pending_parent = Array.make dim nil;
      last_writer = Array.make (max vars 0) nil;
      readers = Array.make (max vars 0) [||];
      last_releaser = Array.make (max locks 0) nil;
      peak_nodes = 0;
      edges_added = 0;
      violation = None;
      processed = 0;
      m = Aerodrome.Cmetrics.create ();
    }
  in
  (* Graph shape as snapshot-time probes: the structure already tracks
     these, no parallel hot-path copies needed. *)
  let reg = Aerodrome.Cmetrics.registry st.m in
  Obs.Registry.probe reg "graph.live_nodes" (fun () ->
      Obs.Snapshot.Int (st.graph.eng_num_nodes ()));
  Obs.Registry.probe reg "graph.peak_nodes" (fun () ->
      Obs.Snapshot.Int st.peak_nodes);
  Obs.Registry.probe reg "graph.edges_added" (fun () ->
      Obs.Snapshot.Int st.edges_added);
  Obs.Registry.probe reg "graph.transactions_created" (fun () ->
      Obs.Snapshot.Int st.next_txn);
  st

let create ~threads ~locks ~vars = create_with ~threads ~locks ~vars ()
let metrics st = Aerodrome.Cmetrics.snapshot st.m

let violation st = st.violation
let processed st = st.processed
let live_nodes st = st.graph.eng_num_nodes ()
let peak_nodes st = st.peak_nodes
let transactions_created st = st.next_txn
let edges_added st = st.edges_added

let is_deleted st n =
  Hashtbl.mem st.completed n && not (st.graph.eng_mem_node n)

exception Found of int list

(* Deleting a node may orphan completed successors; cascade with an
   explicit worklist (chains of unary transactions can be very long). *)
let collect st n =
  if st.gc then begin
    let work = ref [ n ] in
    while !work <> [] do
      match !work with
      | [] -> ()
      | n :: rest ->
        work := rest;
        if
          n <> nil
          && Hashtbl.mem st.completed n
          && st.graph.eng_mem_node n
          && st.graph.eng_in_degree n = 0
        then begin
          let succs = st.graph.eng_succs n in
          st.graph.eng_remove_node n;
          work := succs @ !work
        end
    done
  end

(* Record the ordering edge [src -> dst] (dst is the current event's
   transaction) and fail if it closes a cycle.  Edges out of deleted
   transactions are irrelevant for cycles and skipped. *)
let add_edge st src dst =
  if src <> nil && src <> dst && not (is_deleted st src) then
    match st.graph.eng_add_edge src dst with
    | `Exists -> ()
    | `Added ->
      st.edges_added <- st.edges_added + 1;
      st.peak_nodes <- max st.peak_nodes (st.graph.eng_num_nodes ())
    | `Cycle path ->
      st.edges_added <- st.edges_added + 1;
      raise (Found path)

let fresh_txn st t =
  let n = st.next_txn in
  st.next_txn <- n + 1;
  st.graph.eng_add_node n;
  st.peak_nodes <- max st.peak_nodes (st.graph.eng_num_nodes ());
  add_edge st st.last_txn.(t) n;
  if st.pending_parent.(t) <> nil then begin
    add_edge st st.pending_parent.(t) n;
    st.pending_parent.(t) <- nil
  end;
  st.last_txn.(t) <- n;
  n

let complete st n =
  Hashtbl.replace st.completed n ();
  collect st n

(* The transaction owning the current event: the thread's active block, or
   a fresh unary transaction completed on the spot by the caller. *)
type owner = Block of int | Unary of int

let owner st t =
  if st.cur_txn.(t) <> nil then Block st.cur_txn.(t)
  else Unary (fresh_txn st t)

let finish_owner st = function
  | Block _ -> ()
  | Unary n -> complete st n

let reader_row st x =
  if st.readers.(x) = [||] then st.readers.(x) <- Array.make st.threads nil;
  st.readers.(x)

let handle_read st t x =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  add_edge st st.last_writer.(x) cur;
  (reader_row st x).(t) <- cur;
  finish_owner st o

let handle_write st t x =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  add_edge st st.last_writer.(x) cur;
  let row = st.readers.(x) in
  if row <> [||] then
    for u = 0 to st.threads - 1 do
      add_edge st row.(u) cur;
      row.(u) <- nil
    done;
  st.last_writer.(x) <- cur;
  finish_owner st o

let handle_acquire st t l =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  add_edge st st.last_releaser.(l) cur;
  finish_owner st o

let handle_release st t l =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  st.last_releaser.(l) <- cur;
  finish_owner st o

let handle_fork st t u =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  st.pending_parent.(u) <- cur;
  finish_owner st o

let handle_join st t u =
  let o = owner st t in
  let cur = match o with Block n | Unary n -> n in
  add_edge st st.last_txn.(u) cur;
  finish_owner st o

let handle_begin st t =
  st.depth.(t) <- st.depth.(t) + 1;
  if st.depth.(t) = 1 then begin
    if Obs.on () then Aerodrome.Cmetrics.txn_begin st.m;
    st.cur_txn.(t) <- fresh_txn st t
  end

let handle_end st t =
  if st.depth.(t) > 0 then begin
    st.depth.(t) <- st.depth.(t) - 1;
    if st.depth.(t) = 0 then begin
      if Obs.on () then Aerodrome.Cmetrics.txn_commit st.m;
      let n = st.cur_txn.(t) in
      st.cur_txn.(t) <- nil;
      if n <> nil then complete st n
    end
  end

let feed st (e : Event.t) =
  match st.violation with
  | Some _ as v -> v
  | None -> (
    st.processed <- st.processed + 1;
    if Obs.on () then Aerodrome.Cmetrics.count st.m e.op;
    let t = Ids.Tid.to_int e.thread in
    match
      (match e.op with
      | Event.Read x -> handle_read st t (Ids.Vid.to_int x)
      | Event.Write x -> handle_write st t (Ids.Vid.to_int x)
      | Event.Acquire l -> handle_acquire st t (Ids.Lid.to_int l)
      | Event.Release l -> handle_release st t (Ids.Lid.to_int l)
      | Event.Fork u -> handle_fork st t (Ids.Tid.to_int u)
      | Event.Join u -> handle_join st t (Ids.Tid.to_int u)
      | Event.Begin -> handle_begin st t
      | Event.End -> handle_end st t)
    with
    | () -> None
    | exception Found cycle ->
      let v =
        Aerodrome.Violation.make ~index:(st.processed - 1) ~event:e
          ~site:(Aerodrome.Violation.Graph_cycle cycle)
      in
      if Obs.on () then Aerodrome.Cmetrics.found_violation st.m (st.processed - 1);
      st.violation <- Some v;
      Some v)

(* The packed-word twin of [feed]: same handlers, ids straight from the
   bit slices, the boxed event materialized only at a violation. *)
let feed_packed st w =
  match st.violation with
  | Some _ as v -> v
  | None -> (
    st.processed <- st.processed + 1;
    if Obs.on () then Aerodrome.Cmetrics.count_op st.m (Packed.opcode w);
    let t = Packed.tid w in
    let d = Packed.target w in
    match
      (let op = Packed.opcode w in
       if op = Packed.op_read then handle_read st t d
       else if op = Packed.op_write then handle_write st t d
       else if op = Packed.op_acquire then handle_acquire st t d
       else if op = Packed.op_release then handle_release st t d
       else if op = Packed.op_fork then handle_fork st t d
       else if op = Packed.op_join then handle_join st t d
       else if op = Packed.op_begin then handle_begin st t
       else handle_end st t)
    with
    | () -> None
    | exception Found cycle ->
      let v =
        Aerodrome.Violation.make ~index:(st.processed - 1)
          ~event:(Packed.to_event w)
          ~site:(Aerodrome.Violation.Graph_cycle cycle)
      in
      if Obs.on () then Aerodrome.Cmetrics.found_violation st.m (st.processed - 1);
      st.violation <- Some v;
      Some v)

module No_gc : Aerodrome.Checker.S = struct
  type nonrec t = t

  let name = "velodrome-nogc"

  let create ~threads ~locks ~vars =
    create_with ~garbage_collect:false ~threads ~locks ~vars ()

  let feed = feed
  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

let no_gc_checker : Aerodrome.Checker.t = (module No_gc)

module Pk_engine : Aerodrome.Checker.S = struct
  type nonrec t = t

  let name = "velodrome-pk"

  let create ~threads ~locks ~vars =
    create_with ~engine:Incremental ~threads ~locks ~vars ()

  let feed = feed
  let feed_packed = feed_packed
  let violation = violation
  let processed = processed
end

let pk_checker : Aerodrome.Checker.t = (module Pk_engine)
