(* Adaptive vector clocks: epoch (packed scalar) representation while the
   clock's value is ⊥[c/t]-shaped, inflating to a full vector on the first
   cross-thread join.  Representation changes are invisible: every
   operation computes exactly the same vector value the eager
   Vector_clock code would. *)

(* The epoch c@t, FastTrack style: one immediate int, the clock above the
   low [tid_bits] bits and the thread id in them.  The negative [none]
   marks an inflated clock.  The encoding stays local to this module so
   the compiler inlines it even where libraries are compiled [-opaque]. *)
let tid_bits = 20
let max_tid = (1 lsl tid_bits) - 1
let max_clock = max_int lsr tid_bits
let none = -1
let ep_bottom = 0 (* 0@T0: the ⊥ value, owner irrelevant *)
let is_none e = e < 0
let ep_tid e = e land max_tid
let ep_clock e = e lsr tid_bits
let ep_bump e = e + (1 lsl tid_bits)

let ep_make ~tid ~clock =
  if tid < 0 || tid > max_tid then invalid_arg "Aclock: epoch thread out of range";
  if clock < 0 || clock > max_clock then invalid_arg "Aclock: epoch clock out of range";
  (clock lsl tid_bits) lor tid

type t = {
  mutable ep : int;
      (* when [is_none ep] is false the represented value is ⊥[clock/tid]
         and [vec] is stale; otherwise [vec] is authoritative *)
  mutable vec : int array;  (* [||] until the first inflation *)
  dim : int;
  mutable seen : int;
      (* bit u set: the clock of thread u (u < 62) is known to contain
         this clock's current value.  Noted by the checker, cleared here by
         every operation that changes the value. *)
}

let dim a = a.dim

let create dim =
  if dim < 0 then invalid_arg "Aclock.create: negative dimension";
  { ep = ep_bottom; vec = [||]; dim; seen = 0 }

let bottom = create

let unit dim t =
  if t < 0 || t >= dim then invalid_arg "Aclock.unit: thread out of range";
  { ep = ep_make ~tid:t ~clock:1; vec = [||]; dim; seen = 0 }

let is_flat a = not (is_none a.ep)

let flat_owner a = if is_none a.ep then -1 else ep_tid a.ep

(* The failing branches are functions of their own, so the checks stay
   small enough to inline into every operation. *)
let dim_mismatch name = invalid_arg (name ^ ": dimension mismatch")
let out_of_range name = invalid_arg (name ^ ": thread out of range")
let check_dim name a b = if a.dim <> b.dim then dim_mismatch name
let check_index name a t = if t < 0 || t >= a.dim then out_of_range name

(* Epoch representation churn, process-wide (clocks can live on pool
   worker domains, so the counters are atomic).  Updated only while
   telemetry is on. *)
let promotions = Obs.Registry.shared_counter Obs.Registry.global "vclock.epoch_promotions"
let demotions = Obs.Registry.shared_counter Obs.Registry.global "vclock.epoch_demotions"

(* A clock that was inflated takes a flat value again: representation
   returns to epoch form. *)
let note_demotion a =
  if Obs.on () && is_none a.ep then Obs.Shared_counter.inc demotions

(* Materialize the current (flat) value into [vec] and switch
   representation.  No-op when already inflated. *)
let inflate a =
  if not (is_none a.ep) then begin
    if Obs.on () then Obs.Shared_counter.inc promotions;
    if Array.length a.vec <> a.dim then a.vec <- Array.make a.dim 0
    else Array.fill a.vec 0 a.dim 0;
    let c = ep_clock a.ep in
    if c > 0 then a.vec.(ep_tid a.ep) <- c;
    a.ep <- none
  end

let get a t =
  check_index "Aclock.get" a t;
  if is_none a.ep then Array.unsafe_get a.vec t
  else if ep_tid a.ep = t then ep_clock a.ep
  else 0

let unsafe_get a t =
  if is_none a.ep then Array.unsafe_get a.vec t
  else if ep_tid a.ep = t then ep_clock a.ep
  else 0

let set a t c =
  if c < 0 then invalid_arg "Aclock.set: negative component";
  check_index "Aclock.set" a t;
  a.seen <- 0;
  if is_none a.ep then a.vec.(t) <- c
  else if ep_tid a.ep = t then a.ep <- ep_make ~tid:t ~clock:c
  else if ep_clock a.ep = 0 then a.ep <- ep_make ~tid:t ~clock:c
  else begin
    inflate a;
    a.vec.(t) <- c
  end

let bump a t =
  check_index "Aclock.bump" a t;
  a.seen <- 0;
  if is_none a.ep then a.vec.(t) <- a.vec.(t) + 1
  else if ep_tid a.ep = t then a.ep <- ep_bump a.ep
  else if ep_clock a.ep = 0 then a.ep <- ep_make ~tid:t ~clock:1
  else begin
    inflate a;
    a.vec.(t) <- a.vec.(t) + 1
  end

(* into := into ⊔ v, reporting whether [into] changed.  O(1) whenever [v]
   is flat.  The caller clears [into.seen] on growth. *)
let join_grew ~into v =
  if is_none v.ep then begin
    inflate into;
    let iv = into.vec and vv = v.vec in
    let grew = ref false in
    for t = 0 to into.dim - 1 do
      let c = Array.unsafe_get vv t in
      if c > Array.unsafe_get iv t then begin
        Array.unsafe_set iv t c;
        grew := true
      end
    done;
    !grew
  end
  else begin
    let c = ep_clock v.ep in
    c > 0
    &&
    let u = ep_tid v.ep in
    if is_none into.ep then
      c > Array.unsafe_get into.vec u
      && begin
           Array.unsafe_set into.vec u c;
           true
         end
    else if ep_clock into.ep = 0 then begin
      into.ep <- v.ep;
      true
    end
    else if ep_tid into.ep = u then
      c > ep_clock into.ep
      && begin
           into.ep <- v.ep;
           true
         end
    else begin
      inflate into;
      into.vec.(u) <- c;
      true
    end
  end

let join_into_grew ~into v =
  check_dim "Aclock.join_into_grew" into v;
  let grew = join_grew ~into v in
  if grew then into.seen <- 0;
  grew

let join_into ~into v = ignore (join_into_grew ~into v)

(* The join into thread [t]'s own clock: skipped when [v]'s seen bit t
   says C_t already contains [v], noted afterwards.  Thread clocks only
   grow, so a noted bit stays true until [v] itself changes. *)
let join_thread ~into v t =
  check_dim "Aclock.join_thread" into v;
  let bit = if t < 62 then 1 lsl t else 0 in
  if v.seen land bit <> 0 then -1
  else begin
    let grew = join_grew ~into v in
    if grew then into.seen <- 0;
    v.seen <- v.seen lor bit;
    Bool.to_int grew
  end

let seen a t = t < 62 && a.seen land (1 lsl t) <> 0
let note_seen a t = if t < 62 then a.seen <- a.seen lor (1 lsl t)

(* into := into ⊔ v[0/z].  O(1) whenever [v] is flat (and a no-op when its
   only non-zero component is the zeroed one). *)
let join_into_zeroed ~into v z =
  check_dim "Aclock.join_into_zeroed" into v;
  check_index "Aclock.join_into_zeroed" v z;
  into.seen <- 0;
  if is_none v.ep then begin
    inflate into;
    let iv = into.vec and vv = v.vec in
    for t = 0 to into.dim - 1 do
      if t <> z then begin
        let c = Array.unsafe_get vv t in
        if c > Array.unsafe_get iv t then Array.unsafe_set iv t c
      end
    done
  end
  else begin
    let u = ep_tid v.ep and c = ep_clock v.ep in
    if u <> z && c > 0 then begin
      if is_none into.ep then begin
        if c > Array.unsafe_get into.vec u then Array.unsafe_set into.vec u c
      end
      else if ep_clock into.ep = 0 then into.ep <- v.ep
      else if ep_tid into.ep = u then begin
        if c > ep_clock into.ep then into.ep <- v.ep
      end
      else begin
        inflate into;
        into.vec.(u) <- c
      end
    end
  end

let assign ~into v =
  check_dim "Aclock.assign" into v;
  into.seen <- 0;
  if is_none v.ep then begin
    if Array.length into.vec <> into.dim then into.vec <- Array.copy v.vec
    else Array.blit v.vec 0 into.vec 0 into.dim;
    into.ep <- none
  end
  else begin
    note_demotion into;
    into.ep <- v.ep
  end

let assign_zeroed ~into v z =
  check_index "Aclock.assign_zeroed" v z;
  assign ~into v;
  if is_none into.ep then into.vec.(z) <- 0
  else if ep_tid into.ep = z then into.ep <- ep_bottom

let copy a =
  if is_none a.ep then { ep = none; vec = Array.copy a.vec; dim = a.dim; seen = 0 }
  else { ep = a.ep; vec = [||]; dim = a.dim; seen = 0 }

(* v1 ⊑ v2, O(1) whenever [v1] is flat. *)
let leq v1 v2 =
  check_dim "Aclock.leq" v1 v2;
  if not (is_none v1.ep) then begin
    let c = ep_clock v1.ep in
    c = 0 || c <= get v2 (ep_tid v1.ep)
  end
  else if not (is_none v2.ep) then begin
    (* full vector ⊑ ⊥[c/u]: v1 must be zero outside u and ≤ c at u *)
    let u = ep_tid v2.ep and c = ep_clock v2.ep in
    let a = v1.vec in
    let rec go t =
      t >= v1.dim
      || ((if t = u then Array.unsafe_get a t <= c else Array.unsafe_get a t = 0)
         && go (t + 1))
    in
    go 0
  end
  else begin
    let a = v1.vec and b = v2.vec in
    let rec go t =
      t >= v1.dim || (Array.unsafe_get a t <= Array.unsafe_get b t && go (t + 1))
    in
    go 0
  end

(* {u ∈ active | own.(u) <= clk(u)} as a bitmask (dim <= 62), the
   rebuild of a checker's covers mask in one call instead of one
   [unsafe_get] per thread.  Every [own.(u)] on an active bit is
   positive (a begin's own component), so a flat clock, zero outside its
   owner, can cover only the owner. *)
let covers_bits clk (own : int array) active =
  if is_none clk.ep then begin
    let v = clk.vec in
    let m = ref active and u = ref 0 and r = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 && Array.unsafe_get own !u <= Array.unsafe_get v !u then
        r := !r lor (1 lsl !u);
      m := !m lsr 1;
      incr u
    done;
    !r
  end
  else begin
    let u = ep_tid clk.ep in
    if active land (1 lsl u) <> 0 && own.(u) <= ep_clock clk.ep then 1 lsl u
    else 0
  end

(* {u | clks.(u)(t) >= c} as a bitmask (at most 62 clocks): which
   threads' clocks reached component [c] of thread [t], in one call
   instead of one [unsafe_get] per thread. *)
let geq_bits (clks : t array) t c =
  let r = ref 0 in
  for u = 0 to Array.length clks - 1 do
    let a = Array.unsafe_get clks u in
    let e = a.ep in
    let x =
      if is_none e then Array.unsafe_get a.vec t
      else if ep_tid e = t then ep_clock e
      else 0
    in
    if x >= c then r := !r lor (1 lsl u)
  done;
  !r

let equal v1 v2 =
  check_dim "Aclock.equal" v1 v2;
  match (is_none v1.ep, is_none v2.ep) with
  | false, false ->
    let c1 = ep_clock v1.ep and c2 = ep_clock v2.ep in
    c1 = c2 && (c1 = 0 || ep_tid v1.ep = ep_tid v2.ep)
  | _ ->
    let rec go t = t >= v1.dim || (get v1 t = get v2 t && go (t + 1)) in
    go 0

let equal_except v1 v2 z =
  check_dim "Aclock.equal_except" v1 v2;
  let rec go t =
    t >= v1.dim || ((t = z || get v1 t = get v2 t) && go (t + 1))
  in
  go 0

let is_bottom a =
  if is_none a.ep then Array.for_all (fun c -> c = 0) a.vec
  else ep_clock a.ep = 0

let reset a =
  (* vec (if any) becomes stale; kept for reuse *)
  a.ep <- ep_bottom;
  a.seen <- 0

let to_list a = List.init a.dim (fun t -> get a t)

let of_list cs =
  if List.exists (fun c -> c < 0) cs then
    invalid_arg "Aclock.of_list: negative component";
  let vec = Array.of_list cs in
  { ep = none; vec; dim = Array.length vec; seen = 0 }

module Pool = struct
  type clock = t

  (* Inflated vectors stripped by [collapse] are kept for reuse too, but
     bounded: a long inactivity sweep over millions of variables must not
     turn the pool itself into the leak it exists to prevent. *)
  let spare_cap = 4096

  type t = {
    dim : int;
    mutable free : clock list;
    mutable free_n : int;
    mutable spare : int array list;
    mutable spare_n : int;
    mutable hits : int;
    mutable misses : int;
    mutable released : int;
    mutable collapsed : int;
  }

  let create dim =
    if dim < 0 then invalid_arg "Aclock.Pool.create: negative dimension";
    {
      dim;
      free = [];
      free_n = 0;
      spare = [];
      spare_n = 0;
      hits = 0;
      misses = 0;
      released = 0;
      collapsed = 0;
    }

  let dim p = p.dim

  let stash p v =
    if Array.length v = p.dim && p.spare_n < spare_cap then begin
      p.spare <- v :: p.spare;
      p.spare_n <- p.spare_n + 1
    end

  let alloc p =
    match p.free with
    | c :: rest ->
      p.free <- rest;
      p.free_n <- p.free_n - 1;
      p.hits <- p.hits + 1;
      c
    | [] ->
      p.misses <- p.misses + 1;
      let vec =
        match p.spare with
        | v :: rest ->
          p.spare <- rest;
          p.spare_n <- p.spare_n - 1;
          v
        | [] -> [||]
      in
      (* the spare vector is stale under epoch form; [inflate] zero-fills
         it before first use, exactly as after [reset] *)
      { ep = ep_bottom; vec; dim = p.dim; seen = 0 }

  let release p (c : clock) =
    if c.dim <> p.dim then invalid_arg "Aclock.Pool.release: dimension mismatch";
    c.ep <- ep_bottom;
    c.seen <- 0;
    (* vec stays in the record: a recycled clock re-inflates without
       allocating *)
    p.free <- c :: p.free;
    p.free_n <- p.free_n + 1;
    p.released <- p.released + 1

  let collapse p (c : clock) =
    if c.dim <> p.dim then invalid_arg "Aclock.Pool.collapse: dimension mismatch";
    if is_none c.ep then begin
      (* inflated: the value is epoch-shaped iff ≤ 1 nonzero component *)
      let v = c.vec in
      let owner = ref (-1) and shaped = ref true in
      (try
         for t = 0 to c.dim - 1 do
           if Array.unsafe_get v t > 0 then
             if !owner < 0 then owner := t
             else begin
               shaped := false;
               raise Exit
             end
         done
       with Exit -> ());
      !shaped
      && begin
           c.ep <-
             (if !owner < 0 then ep_bottom
              else ep_make ~tid:!owner ~clock:v.(!owner));
           stash p v;
           c.vec <- [||];
           p.collapsed <- p.collapsed + 1;
           if Obs.on () then Obs.Shared_counter.inc demotions;
           true
         end
    end
    else if Array.length c.vec > 0 then begin
      (* epoch form dragging a stale vector from an earlier inflation:
         hand the array back (no value change, so no demotion counted) *)
      stash p c.vec;
      c.vec <- [||];
      p.collapsed <- p.collapsed + 1;
      true
    end
    else false

  let recycled p n = p.hits <- p.hits + n

  let hits p = p.hits
  let misses p = p.misses
  let released p = p.released
  let collapsed p = p.collapsed
  let in_pool p = p.free_n
end

let pp ppf a =
  Format.fprintf ppf "@[<h>⟨%a⟩@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (to_list a)

let to_string a = Format.asprintf "%a" pp a
