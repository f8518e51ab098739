(* Iset: lazy deletion with in-place compaction once the member array is
   more than half dead. *)

module Iset = Aerodrome.Iset

let check = Alcotest.check

let test_basic () =
  let s = Iset.create 8 in
  check Alcotest.int "empty" 0 (Iset.size s);
  Iset.add s 3;
  Iset.add s 1;
  Iset.add s 3;
  check Alcotest.int "dedup add" 2 (Iset.size s);
  check Alcotest.bool "mem" true (Iset.mem s 3);
  Iset.remove s 3;
  check Alcotest.bool "removed" false (Iset.mem s 3);
  Iset.add s 3;
  (* re-adding a removed member revives its original array slot, so it
     drains at its first-insertion position *)
  let order = ref [] in
  Iset.drain (fun () () i -> order := i :: !order) () () s;
  check
    Alcotest.(list int)
    "drain order skips dead entries" [ 3; 1 ] (List.rev !order);
  check Alcotest.int "drained empty" 0 (Iset.size s)

let test_compaction_threshold () =
  let s = Iset.create 64 in
  for i = 0 to 31 do
    Iset.add s i
  done;
  check Alcotest.int "full array" 32 (Iset.raw_length s);
  (* removing exactly half leaves 2*live = n: not yet past the threshold *)
  for i = 0 to 15 do
    Iset.remove s i
  done;
  check Alcotest.int "no compaction at exactly half dead" 32
    (Iset.raw_length s);
  (* one more removal tips it: live entries move to the front in place *)
  Iset.remove s 16;
  check Alcotest.int "compacted to the live members" 15 (Iset.raw_length s);
  check Alcotest.int "size unaffected" 15 (Iset.size s);
  let order = ref [] in
  Iset.drain (fun () () i -> order := i :: !order) () () s;
  check
    Alcotest.(list int)
    "insertion order preserved across compaction"
    (List.init 15 (fun i -> 17 + i))
    (List.rev !order)

let test_small_sets_never_compact () =
  (* below [compact_min] the dead tail is tolerated (drain sweeps it) *)
  let s = Iset.create 8 in
  for i = 0 to 7 do
    Iset.add s i
  done;
  for i = 0 to 7 do
    Iset.remove s i
  done;
  check Alcotest.int "all dead, array kept" 8 (Iset.raw_length s);
  check Alcotest.int "empty" 0 (Iset.size s);
  Iset.clear s;
  check Alcotest.int "clear sweeps the tail" 0 (Iset.raw_length s)

let test_churn () =
  (* a long-lived set cycling a few members through many add/remove
     rounds must keep its array bounded *)
  let s = Iset.create 4 in
  for round = 0 to 9_999 do
    let i = round mod 4 in
    Iset.add s i;
    Iset.remove s i
  done;
  check Alcotest.bool "array stays bounded under churn" true
    (Iset.raw_length s <= 32);
  check Alcotest.int "empty after churn" 0 (Iset.size s)

(* A set kept at k or fewer members through many random add/remove
   cycles never allocates more than [max 16 (4k)] entries, and drains
   what a plain list model holds, in first-insertion order. *)
let test_bounded_capacity () =
  let rs = Random.State.make [| 7 |] in
  List.iter
    (fun k ->
      let universe = 4 * k + 8 in
      let s = Iset.create universe in
      let bound = max 16 (4 * k) in
      let peak = ref 0 in
      for _ = 1 to 20_000 do
        let i = Random.State.int rs universe in
        if Iset.mem s i then Iset.remove s i
        else if Iset.size s < k then Iset.add s i
        else Iset.remove s (Random.State.int rs universe);
        peak := max !peak (Iset.raw_capacity s)
      done;
      check Alcotest.bool
        (Printf.sprintf "k=%d: capacity %d within %d" k !peak bound)
        true (!peak <= bound))
    [ 1; 3; 8; 40; 300 ];
  (* members removed and re-added while others stay leave duplicate
     entries behind; a full array drops them rather than doubling *)
  let s = Iset.create 64 in
  List.iter (Iset.add s) [ 5; 6; 7 ];
  for round = 0 to 99 do
    let i = 8 + (round mod 40) in
    Iset.add s i;
    Iset.remove s i;
    Iset.remove s 6;
    Iset.add s 6
  done;
  check Alcotest.bool "small array under re-adds" true (Iset.raw_capacity s <= 16);
  let order = ref [] in
  Iset.drain (fun () () i -> order := i :: !order) () () s;
  check Alcotest.(list int) "members" [ 5; 6; 7 ] (List.sort compare !order)

let suite =
  ( "iset",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "compaction threshold" `Quick
        test_compaction_threshold;
      Alcotest.test_case "small sets never compact" `Quick
        test_small_sets_never_compact;
      Alcotest.test_case "churn" `Quick test_churn;
      Alcotest.test_case "capacity within max 16 (4k)" `Quick test_bounded_capacity;
    ] )
