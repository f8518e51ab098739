(* Immutable point-in-time reading of a registry: ordered (name, value)
   pairs.  Snapshots are what crosses module boundaries — runners attach
   them to results, exporters render them, and [diff] subtracts a
   baseline so interval metrics fall out of two snapshots. *)

type value =
  | Int of int
  | Float of float
  | Label of string
      (* a categorical reading (which path a run took); merges keep the
         later one *)
  | Hist of {
      bounds : int array;
      counts : int array;
      total : int;
      sum : int;
    }

type entry = {
  name : string;
  value : value;
}

type t = entry list

let empty : t = []
let entry name value = { name; value }
let find (t : t) name = List.find_opt (fun e -> e.name = name) t

let get_int t name =
  match find t name with
  | Some { value = Int n; _ } -> Some n
  | _ -> None

let get_float t name =
  match find t name with
  | Some { value = Float f; _ } -> Some f
  | Some { value = Int n; _ } -> Some (float_of_int n)
  | _ -> None

(* [diff ~before ~after] keeps [after]'s order and subtracts any
   matching entry of [before]; entries missing from [before] count from
   zero.  Floats (gauges, timings) are point-in-time readings and pass
   through unchanged. *)
let diff ~(before : t) ~(after : t) : t =
  List.map
    (fun e ->
      match e.value, Option.map (fun b -> b.value) (find before e.name) with
      | Int a, Some (Int b) -> { e with value = Int (a - b) }
      | Hist h, Some (Hist hb) when h.bounds = hb.bounds ->
        {
          e with
          value =
            Hist
              {
                bounds = h.bounds;
                counts = Array.mapi (fun i c -> c - hb.counts.(i)) h.counts;
                total = h.total - hb.total;
                sum = h.sum - hb.sum;
              };
        }
      | _ -> e)
    after

(* [sorted t] orders entries by metric name (stable, so duplicate names
   keep their relative order).  Renderers use it so `--stats` and
   `--stats-json` output cannot depend on registration order, which
   under multi-domain collection (files and chunks on scheduler
   workers) is an interleaving accident. *)
let sorted (t : t) : t =
  List.stable_sort (fun a b -> String.compare a.name b.name) t

(* [merge snaps] folds several snapshots of the {e same shape} into one
   — the sharded runner sums its per-chunk checker snapshots back into
   a whole-trace reading.  Counters (Int) and histograms add; floats
   (gauges, high-water readings) keep their maximum.  Histograms with
   different bucket bounds are refused outright: summing misaligned
   counts would silently attribute observations to the wrong bucket.
   Entry order follows first appearance, so homogeneous snapshots keep
   their registry order. *)
let merge_value name a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (Float.max x y)
  | Hist h, Hist g when h.bounds = g.bounds ->
    Hist
      {
        bounds = h.bounds;
        counts = Array.mapi (fun i c -> c + g.counts.(i)) h.counts;
        total = h.total + g.total;
        sum = h.sum + g.sum;
      }
  | Hist _, Hist _ ->
    invalid_arg
      (Printf.sprintf "Obs.Snapshot.merge: histogram %S bucket bounds mismatch" name)
  | _ -> b

let merge (snaps : t list) : t =
  let add acc e =
    let rec go = function
      | [] -> [ e ]
      | a :: rest when a.name = e.name ->
        { a with value = merge_value a.name a.value e.value } :: rest
      | a :: rest -> a :: go rest
    in
    go acc
  in
  List.fold_left (fun acc snap -> List.fold_left add acc snap) [] snaps

let value_to_json = function
  | Int n -> Json.Num (float_of_int n)
  | Float f -> Json.Num f
  | Label s -> Json.Str s
  | Hist { bounds; counts; total; sum } ->
    Json.Obj
      [
        ("total", Json.Num (float_of_int total));
        ("sum", Json.Num (float_of_int sum));
        ( "bounds",
          Json.List (Array.to_list bounds |> List.map (fun b -> Json.Num (float_of_int b))) );
        ( "counts",
          Json.List (Array.to_list counts |> List.map (fun c -> Json.Num (float_of_int c))) );
      ]

let to_json (t : t) : Json.t = Json.Obj (List.map (fun e -> (e.name, value_to_json e.value)) t)

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f
    else Format.fprintf ppf "%.3f" f
  | Label s -> Format.pp_print_string ppf s
  | Hist { bounds; counts; total; sum } ->
    Format.fprintf ppf "total=%d sum=%d" total sum;
    if total > 0 then begin
      Format.fprintf ppf " [";
      let first = ref true in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            if not !first then Format.fprintf ppf " ";
            first := false;
            if i < Array.length bounds then Format.fprintf ppf "<=%d:%d" bounds.(i) c
            else Format.fprintf ppf ">%d:%d" bounds.(Array.length bounds - 1) c
          end)
        counts;
      Format.fprintf ppf "]"
    end

let pp ppf (t : t) =
  let width =
    List.fold_left (fun acc e -> max acc (String.length e.name)) 0 t
  in
  List.iter
    (fun e -> Format.fprintf ppf "  %-*s  %a@." width e.name pp_value e.value)
    t
