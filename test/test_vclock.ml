(* Unit and property tests for the vector-clock substrate. *)

module VC = Vclock.Vector_clock
module VT = Vclock.Vtime
module AC = Vclock.Aclock

let check = Alcotest.check
let vt = Helpers.vtime

(* --- Vector_clock unit tests --- *)

let test_create () =
  let v = VC.create 3 in
  check Alcotest.int "dim" 3 (VC.dim v);
  check Alcotest.bool "bottom" true (VC.is_bottom v);
  check (Alcotest.list Alcotest.int) "components" [ 0; 0; 0 ] (VC.to_list v)

let test_unit () =
  let v = VC.unit 3 1 in
  check (Alcotest.list Alcotest.int) "unit" [ 0; 1; 0 ] (VC.to_list v);
  Alcotest.check_raises "out of range" (Invalid_argument "Vector_clock.unit: thread out of range")
    (fun () -> ignore (VC.unit 2 5))

let test_set_get_bump () =
  let v = VC.create 3 in
  VC.set v 0 7;
  VC.bump v 0;
  VC.bump v 2;
  check Alcotest.int "set+bump" 8 (VC.get v 0);
  check Alcotest.int "bump from zero" 1 (VC.get v 2);
  Alcotest.check_raises "negative" (Invalid_argument "Vector_clock.set: negative component")
    (fun () -> VC.set v 1 (-1))

let test_join_into () =
  let a = VC.of_list [ 1; 5; 0 ] and b = VC.of_list [ 3; 2; 0 ] in
  VC.join_into ~into:a b;
  check (Alcotest.list Alcotest.int) "join" [ 3; 5; 0 ] (VC.to_list a);
  check (Alcotest.list Alcotest.int) "arg unchanged" [ 3; 2; 0 ] (VC.to_list b)

let test_join_into_zeroed () =
  let a = VC.of_list [ 1; 1; 1 ] and b = VC.of_list [ 9; 9; 9 ] in
  VC.join_into_zeroed ~into:a b 1;
  check (Alcotest.list Alcotest.int) "zeroed join" [ 9; 1; 9 ] (VC.to_list a)

let test_assign () =
  let a = VC.create 3 and b = VC.of_list [ 4; 5; 6 ] in
  VC.assign ~into:a b;
  check (Alcotest.list Alcotest.int) "assign" [ 4; 5; 6 ] (VC.to_list a);
  VC.assign_zeroed ~into:a b 2;
  check (Alcotest.list Alcotest.int) "assign zeroed" [ 4; 5; 0 ] (VC.to_list a)

let test_leq () =
  let a = VC.of_list [ 1; 2; 3 ] and b = VC.of_list [ 1; 3; 3 ] in
  check Alcotest.bool "a<=b" true (VC.leq a b);
  check Alcotest.bool "b<=a" false (VC.leq b a);
  check Alcotest.bool "refl" true (VC.leq a a);
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vector_clock.leq: dimension mismatch")
    (fun () -> ignore (VC.leq a (VC.create 2)))

let test_equal_except () =
  let a = VC.of_list [ 1; 2; 3 ] and b = VC.of_list [ 1; 9; 3 ] in
  check Alcotest.bool "equal except 1" true (VC.equal_except a b 1);
  check Alcotest.bool "not equal except 0" false (VC.equal_except a b 0);
  check Alcotest.bool "equal" false (VC.equal a b)

let test_copy_reset () =
  let a = VC.of_list [ 1; 2 ] in
  let b = VC.copy a in
  VC.reset a;
  check Alcotest.bool "reset" true (VC.is_bottom a);
  check (Alcotest.list Alcotest.int) "copy unaffected" [ 1; 2 ] (VC.to_list b)

let test_pp () =
  check Alcotest.string "pp" "⟨1,2,3⟩" (VC.to_string (VC.of_list [ 1; 2; 3 ]))

(* --- Vtime unit tests --- *)

let test_vtime_basics () =
  let v = VT.of_list [ 1; 2 ] in
  check vt "set" (VT.of_list [ 1; 7 ]) (VT.set v 1 7);
  check vt "original unchanged" (VT.of_list [ 1; 2 ]) v;
  check vt "bump" (VT.of_list [ 2; 2 ]) (VT.bump v 0);
  check vt "zeroed" (VT.of_list [ 0; 2 ]) (VT.zeroed v 0);
  check vt "join" (VT.of_list [ 3; 2 ]) (VT.join v (VT.of_list [ 3; 0 ]))

let test_vtime_orders () =
  let a = VT.of_list [ 1; 0 ] and b = VT.of_list [ 0; 1 ] in
  check Alcotest.bool "concurrent" true (VT.concurrent a b);
  check Alcotest.bool "lt" true (VT.lt a (VT.of_list [ 2; 0 ]));
  check Alcotest.bool "not lt self" false (VT.lt a a)

let test_vtime_clock_conversion () =
  let v = VT.of_list [ 3; 1; 4 ] in
  check vt "roundtrip" v (VT.of_clock (VT.to_clock v))

(* --- Properties --- *)

let arb_vt dim =
  QCheck.make
    ~print:(fun v -> VT.to_string v)
    (fun rs ->
      VT.of_list (List.init dim (fun _ -> Random.State.int rs 8)))

let prop_join_comm =
  QCheck.Test.make ~name:"vtime join commutative" ~count:200
    (QCheck.pair (arb_vt 4) (arb_vt 4))
    (fun (a, b) -> VT.equal (VT.join a b) (VT.join b a))

let prop_join_assoc =
  QCheck.Test.make ~name:"vtime join associative" ~count:200
    (QCheck.triple (arb_vt 4) (arb_vt 4) (arb_vt 4))
    (fun (a, b, c) -> VT.equal (VT.join a (VT.join b c)) (VT.join (VT.join a b) c))

let prop_join_idem =
  QCheck.Test.make ~name:"vtime join idempotent" ~count:200 (arb_vt 4)
    (fun a -> VT.equal (VT.join a a) a)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is least upper bound" ~count:200
    (QCheck.triple (arb_vt 4) (arb_vt 4) (arb_vt 4))
    (fun (a, b, c) ->
      let j = VT.join a b in
      VT.leq a j && VT.leq b j
      && ((not (VT.leq a c && VT.leq b c)) || VT.leq j c))

let prop_leq_antisym =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:200
    (QCheck.pair (arb_vt 4) (arb_vt 4))
    (fun (a, b) -> (not (VT.leq a b && VT.leq b a)) || VT.equal a b)

let prop_leq_trans =
  QCheck.Test.make ~name:"leq transitive" ~count:200
    (QCheck.triple (arb_vt 3) (arb_vt 3) (arb_vt 3))
    (fun (a, b, c) -> (not (VT.leq a b && VT.leq b c)) || VT.leq a c)

let prop_mutable_matches_persistent =
  QCheck.Test.make ~name:"Vector_clock.join_into agrees with Vtime.join"
    ~count:200
    (QCheck.pair (arb_vt 5) (arb_vt 5))
    (fun (a, b) ->
      let ca = VT.to_clock a in
      VC.join_into ~into:ca (VT.to_clock b);
      VT.equal (VT.of_clock ca) (VT.join a b))

let prop_zeroed_join_matches =
  QCheck.Test.make ~name:"join_into_zeroed agrees with Vtime.zeroed + join"
    ~count:200
    (QCheck.pair (arb_vt 5) (arb_vt 5))
    (fun (a, b) ->
      let ca = VT.to_clock a in
      VC.join_into_zeroed ~into:ca (VT.to_clock b) 2;
      VT.equal (VT.of_clock ca) (VT.join a (VT.zeroed b 2)))

(* --- Aclock vs Vector_clock: the adaptive representation is exact --- *)

(* Random operation sequences over a small bank of clocks, applied in
   lock-step to an Aclock and a Vector_clock.  The values must stay
   identical after every operation, whatever mix of epoch-form and
   inflated clocks the sequence produces. *)

type aop =
  | Bump of int * int
  | Set of int * int * int
  | Join of int * int
  | Join_zeroed of int * int * int
  | Assign of int * int
  | Assign_zeroed of int * int * int
  | Reset of int

let pp_aop = function
  | Bump (a, t) -> Printf.sprintf "bump %d %d" a t
  | Set (a, t, c) -> Printf.sprintf "set %d %d %d" a t c
  | Join (a, b) -> Printf.sprintf "join %d %d" a b
  | Join_zeroed (a, b, z) -> Printf.sprintf "join0 %d %d %d" a b z
  | Assign (a, b) -> Printf.sprintf "assign %d %d" a b
  | Assign_zeroed (a, b, z) -> Printf.sprintf "assign0 %d %d %d" a b z
  | Reset a -> Printf.sprintf "reset %d" a

let bank = 4
let adim = 4

let arb_aops =
  let gen rs =
    let rand n = Random.State.int rs n in
    List.init
      (10 + rand 50)
      (fun _ ->
        match rand 7 with
        | 0 -> Bump (rand bank, rand adim)
        | 1 -> Set (rand bank, rand adim, rand 8)
        | 2 -> Join (rand bank, rand bank)
        | 3 -> Join_zeroed (rand bank, rand bank, rand adim)
        | 4 -> Assign (rand bank, rand bank)
        | 5 -> Assign_zeroed (rand bank, rand bank, rand adim)
        | _ -> Reset (rand bank))
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_aop ops))
    gen

let prop_aclock_matches_vector_clock =
  QCheck.Test.make ~name:"Aclock tracks Vector_clock exactly" ~count:500
    arb_aops
    (fun ops ->
      let acs =
        Array.init bank (fun i ->
            if i < 2 then AC.unit adim i else AC.create adim)
      in
      let vcs = Array.map (fun a -> VC.of_list (AC.to_list a)) acs in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Bump (a, t) ->
            AC.bump acs.(a) t;
            VC.bump vcs.(a) t
          | Set (a, t, c) ->
            AC.set acs.(a) t c;
            VC.set vcs.(a) t c
          | Join (a, b) ->
            let before = AC.to_list acs.(a) in
            let grew = AC.join_into_grew ~into:acs.(a) acs.(b) in
            VC.join_into ~into:vcs.(a) vcs.(b);
            if grew <> (AC.to_list acs.(a) <> before) then ok := false
          | Join_zeroed (a, b, z) ->
            AC.join_into_zeroed ~into:acs.(a) acs.(b) z;
            VC.join_into_zeroed ~into:vcs.(a) vcs.(b) z
          | Assign (a, b) ->
            AC.assign ~into:acs.(a) acs.(b);
            VC.assign ~into:vcs.(a) vcs.(b)
          | Assign_zeroed (a, b, z) ->
            AC.assign_zeroed ~into:acs.(a) acs.(b) z;
            VC.assign_zeroed ~into:vcs.(a) vcs.(b) z
          | Reset a ->
            AC.reset acs.(a);
            VC.reset vcs.(a));
          for i = 0 to bank - 1 do
            if AC.to_list acs.(i) <> VC.to_list vcs.(i) then ok := false;
            (* while flat, every non-owner component is zero *)
            if AC.is_flat acs.(i) then begin
              let owner = AC.flat_owner acs.(i) in
              for t = 0 to adim - 1 do
                if t <> owner && AC.get acs.(i) t <> 0 then ok := false
              done
            end
            else if AC.flat_owner acs.(i) <> -1 then ok := false
          done)
        ops;
      (* the order and equality queries agree on the final bank *)
      for i = 0 to bank - 1 do
        for j = 0 to bank - 1 do
          if AC.leq acs.(i) acs.(j) <> VC.leq vcs.(i) vcs.(j) then ok := false;
          if AC.equal acs.(i) acs.(j) <> VC.equal vcs.(i) vcs.(j) then
            ok := false;
          if
            AC.equal_except acs.(i) acs.(j) 1
            <> VC.equal_except vcs.(i) vcs.(j) 1
          then ok := false;
          for t = 0 to adim - 1 do
            if AC.get acs.(i) t <> AC.unsafe_get acs.(i) t then ok := false
          done
        done
      done;
      !ok)

(* The seen mask against a model: a bank of clocks under random
   operations, and one clock per thread that only grows.  A set bit u
   must always mean that thread u's clock contains the bank clock (or
   the other thread clock, which thread clocks absorb too); every
   operation that changes a bank clock's value must clear its mask;
   [Pool.collapse] and a join that changes nothing (inflating or not)
   must keep it, and [Pool.release] must clear it. *)

type sop =
  | Op of aop
  | Absorb of int * int  (* join_thread ~into:thread u, bank clock *)
  | Absorb_thread of int * int  (* join_thread ~into:thread u, thread v *)
  | Note of int * int  (* join_into thread u, then note_seen *)
  | Grow of int * int  (* bump thread u's clock at a component *)
  | Collapse of int
  | Release of int

let pp_sop = function
  | Op op -> pp_aop op
  | Absorb (u, a) -> Printf.sprintf "absorb %d %d" u a
  | Absorb_thread (u, v) -> Printf.sprintf "absorb-thread %d %d" u v
  | Note (u, a) -> Printf.sprintf "note %d %d" u a
  | Grow (u, t) -> Printf.sprintf "grow %d %d" u t
  | Collapse a -> Printf.sprintf "collapse %d" a
  | Release a -> Printf.sprintf "release %d" a

let arb_sops =
  let gen rs =
    let rand n = Random.State.int rs n in
    let aop () =
      match rand 7 with
      | 0 -> Bump (rand bank, rand adim)
      | 1 -> Set (rand bank, rand adim, rand 8)
      | 2 -> Join (rand bank, rand bank)
      | 3 -> Join_zeroed (rand bank, rand bank, rand adim)
      | 4 -> Assign (rand bank, rand bank)
      | 5 -> Assign_zeroed (rand bank, rand bank, rand adim)
      | _ -> Reset (rand bank)
    in
    List.init
      (20 + rand 80)
      (fun _ ->
        match rand 13 with
        | 0 | 1 | 2 | 3 -> Op (aop ())
        | 12 -> Absorb_thread (rand adim, rand adim)
        | 4 | 5 | 6 -> Absorb (rand adim, rand bank)
        | 7 -> Note (rand adim, rand bank)
        | 8 | 9 -> Grow (rand adim, rand adim)
        | 10 -> Collapse (rand bank)
        | _ -> Release (rand bank))
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_sop ops))
    gen

let prop_seen_mask =
  QCheck.Test.make ~name:"seen bits imply leq; value changes clear them"
    ~count:1000 arb_sops (fun ops ->
      let pool = AC.Pool.create adim in
      let acs =
        Array.init bank (fun i ->
            if i < 2 then AC.unit adim i else AC.create adim)
      in
      let thr = Array.init adim (fun u -> AC.unit adim u) in
      let mask a = List.filter (AC.seen a) (List.init adim Fun.id) in
      let ok = ref true in
      let fail () = ok := false in
      List.iter
        (fun op ->
          let values = Array.map AC.to_list acs in
          let masks = Array.map mask acs in
          (match op with
          | Op (Bump (a, t)) -> AC.bump acs.(a) t
          | Op (Set (a, t, c)) -> AC.set acs.(a) t c
          | Op (Join (a, b)) ->
            if not (AC.join_into_grew ~into:acs.(a) acs.(b)) then
              (* no value change, inflated or not: the mask stays *)
              if mask acs.(a) <> masks.(a) then fail ()
          | Op (Join_zeroed (a, b, z)) -> AC.join_into_zeroed ~into:acs.(a) acs.(b) z
          | Op (Assign (a, b)) -> AC.assign ~into:acs.(a) acs.(b)
          | Op (Assign_zeroed (a, b, z)) -> AC.assign_zeroed ~into:acs.(a) acs.(b) z
          | Op (Reset a) -> AC.reset acs.(a)
          | Absorb (u, a) ->
            let before = AC.to_list thr.(u) and was_seen = AC.seen acs.(a) u in
            let r = AC.join_thread ~into:thr.(u) acs.(a) u in
            let want =
              VT.join (VT.of_list before) (VT.of_list (AC.to_list acs.(a)))
            in
            if not (VT.equal want (VT.of_list (AC.to_list thr.(u)))) then fail ();
            (match r with
            | -1 -> if not was_seen then fail ()
            | 0 -> if was_seen || AC.to_list thr.(u) <> before then fail ()
            | 1 -> if was_seen || AC.to_list thr.(u) = before then fail ()
            | _ -> fail ());
            if not (AC.seen acs.(a) u) then fail ()
          | Absorb_thread (u, v) ->
            let r = AC.join_thread ~into:thr.(u) thr.(v) u in
            if r > 0 && mask thr.(u) <> [] then fail ()
          | Note (u, a) ->
            AC.join_into ~into:thr.(u) acs.(a);
            AC.note_seen acs.(a) u
          | Grow (u, t) -> AC.bump thr.(u) t
          | Collapse a ->
            ignore (AC.Pool.collapse pool acs.(a));
            if mask acs.(a) <> masks.(a) || AC.to_list acs.(a) <> values.(a)
            then fail ()
          | Release a ->
            AC.Pool.release pool acs.(a);
            acs.(a) <- AC.Pool.alloc pool;
            if mask acs.(a) <> [] then fail ());
          Array.iteri
            (fun a clk ->
              if AC.to_list clk <> values.(a) && mask clk <> [] then fail ();
              List.iter (fun u -> if not (AC.leq clk thr.(u)) then fail ()) (mask clk))
            acs;
          Array.iter
            (fun clk ->
              List.iter (fun u -> if not (AC.leq clk thr.(u)) then fail ()) (mask clk))
            thr)
        ops;
      !ok)

(* [covers_bits] is the rebuild of Opt's covers mask; it must agree with
   the per-thread component loop it replaced, on every representation:
   ⊥, flat (epoch) and inflated clocks, inflated ones with an
   epoch-shaped value included.  [own] is positive on the active bits,
   as a begin clock's own component is; inactive bits get arbitrary
   values, zero included, and must be ignored. *)
let test_covers_bits () =
  let rs = Random.State.make [| 22 |] in
  let covers_loop clk own active =
    let m = ref 0 in
    for u = 0 to AC.dim clk - 1 do
      if active land (1 lsl u) <> 0 && own.(u) <= AC.get clk u then
        m := !m lor (1 lsl u)
    done;
    !m
  in
  let clock dim =
    match Random.State.int rs 4 with
    | 0 -> AC.bottom dim
    | 1 ->
      let t = Random.State.int rs dim in
      let c = AC.unit dim t in
      AC.set c t (1 + Random.State.int rs 6);
      c
    | 2 ->
      let c = AC.of_list (List.init dim (fun _ -> 0)) in
      AC.set c (Random.State.int rs dim) (Random.State.int rs 6);
      c
    | _ -> AC.of_list (List.init dim (fun _ -> Random.State.int rs 6))
  in
  for _ = 1 to 5_000 do
    let dim = 1 + Random.State.int rs 62 in
    let clk = clock dim in
    let active =
      Random.State.bits rs
      lor (Random.State.bits rs lsl 30)
      lor (Random.State.bits rs lsl 60)
      land ((1 lsl dim) - 1)
    in
    let own =
      Array.init dim (fun u ->
          if active land (1 lsl u) <> 0 then 1 + Random.State.int rs 6
          else Random.State.int rs 6)
    in
    let want = covers_loop clk own active and got = AC.covers_bits clk own active in
    if want <> got then
      Alcotest.failf "covers_bits %s active=%x: got %x, want %x" (AC.to_string clk)
        active got want
  done

let suite =
  ( "vclock",
    [
      Alcotest.test_case "create/bottom" `Quick test_create;
      Alcotest.test_case "unit" `Quick test_unit;
      Alcotest.test_case "set/get/bump" `Quick test_set_get_bump;
      Alcotest.test_case "join_into" `Quick test_join_into;
      Alcotest.test_case "join_into_zeroed" `Quick test_join_into_zeroed;
      Alcotest.test_case "assign" `Quick test_assign;
      Alcotest.test_case "leq" `Quick test_leq;
      Alcotest.test_case "equal_except" `Quick test_equal_except;
      Alcotest.test_case "copy/reset" `Quick test_copy_reset;
      Alcotest.test_case "pp" `Quick test_pp;
      Alcotest.test_case "vtime basics" `Quick test_vtime_basics;
      Alcotest.test_case "vtime orders" `Quick test_vtime_orders;
      Alcotest.test_case "vtime<->clock" `Quick test_vtime_clock_conversion;
      Alcotest.test_case "covers_bits matches the component loop" `Quick
        test_covers_bits;
    ]
    @ Helpers.qcheck_tests
        [
          prop_join_comm;
          prop_join_assoc;
          prop_join_idem;
          prop_join_upper_bound;
          prop_leq_antisym;
          prop_leq_trans;
          prop_mutable_matches_persistent;
          prop_zeroed_join_matches;
          prop_aclock_matches_vector_clock;
          prop_seen_mask;
        ] )
