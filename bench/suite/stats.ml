(* Medians and quartiles of repeated measurements.  The quartiles are
   Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
   spreads printed here match a reader recomputing them from the samples. *)

type t = {
  value : float;  (** the number reported: the median unless chosen otherwise *)
  median : float;
  p25 : float;
  p75 : float;
  n : int;
  samples : float list;
}

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let of_samples ?(pick = median) samples =
  let p25, p75 = quartiles samples in
  let n = List.length samples in
  { value = pick samples; median = median samples; p25; p75; n; samples }

(* Interquartile range as a share of the median. *)
let spread s = if s.median = 0. then 0. else (s.p75 -. s.p25) /. Float.abs s.median
