open Ids

(* Bit 62 is the overflow bit shared by every thread id >= 62: the
   top bit of a 63-bit OCaml int, so a mask with it set is negative
   (the binfmt v3 footer writes all 63 bits unsigned).  An object
   touched by an overflow thread is never classified single-threaded —
   the conservative direction. *)
let mask_width = 62
let overflow_bit = 1 lsl mask_width
let bit_of_thread t = if t < mask_width then 1 lsl t else overflow_bit

type t = {
  mutable var_mask : int array;
  mutable var_writes : int array;
  mutable lock_mask : int array;
}

let create ~vars ~locks =
  {
    var_mask = Array.make (max vars 1) 0;
    var_writes = Array.make (max vars 1) 0;
    lock_mask = Array.make (max locks 1) 0;
  }

let grow a n =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) 0 in
    Array.blit a 0 a' 0 cap;
    a'
  end

let ensure_var st x =
  if x >= Array.length st.var_mask then begin
    st.var_mask <- grow st.var_mask (x + 1);
    st.var_writes <- grow st.var_writes (x + 1)
  end

let ensure_lock st l =
  if l >= Array.length st.lock_mask then st.lock_mask <- grow st.lock_mask (l + 1)

let note st (e : Event.t) =
  let t = Tid.to_int e.thread in
  match e.op with
  | Event.Read x ->
    let x = Vid.to_int x in
    ensure_var st x;
    st.var_mask.(x) <- st.var_mask.(x) lor bit_of_thread t
  | Event.Write x ->
    let x = Vid.to_int x in
    ensure_var st x;
    st.var_mask.(x) <- st.var_mask.(x) lor bit_of_thread t;
    st.var_writes.(x) <- st.var_writes.(x) + 1
  | Event.Acquire l | Event.Release l ->
    let l = Lid.to_int l in
    ensure_lock st l;
    st.lock_mask.(l) <- st.lock_mask.(l) lor bit_of_thread t
  | Event.Fork _ | Event.Join _ | Event.Begin | Event.End -> ()

let note_packed st w =
  let op = Packed.opcode w in
  if op <= Packed.op_release then begin
    let bit = bit_of_thread (Packed.tid w) and x = Packed.target w in
    if op <= Packed.op_write then begin
      ensure_var st x;
      st.var_mask.(x) <- st.var_mask.(x) lor bit;
      if op = Packed.op_write then st.var_writes.(x) <- st.var_writes.(x) + 1
    end
    else begin
      ensure_lock st x;
      st.lock_mask.(x) <- st.lock_mask.(x) lor bit
    end
  end

let of_trace tr =
  let st = create ~vars:(Trace.vars tr) ~locks:(Trace.locks tr) in
  Trace.iter (note st) tr;
  st

let of_arrays ~var_mask ~var_writes ~lock_mask =
  if Array.length var_mask <> Array.length var_writes then
    invalid_arg "Varstats.of_arrays: mask/writes length mismatch";
  { var_mask; var_writes; lock_mask }

let vars st = Array.length st.var_mask
let locks st = Array.length st.lock_mask
let var_mask st x = if x >= 0 && x < vars st then st.var_mask.(x) else 0
let var_writes st x = if x >= 0 && x < vars st then st.var_writes.(x) else 0
let lock_mask st l = if l >= 0 && l < locks st then st.lock_mask.(l) else 0

let single m = m <> 0 && m land overflow_bit = 0 && m land (m - 1) = 0
let var_single_threaded st x = single (var_mask st x)
let var_read_only st x = var_mask st x <> 0 && var_writes st x = 0
let lock_single_threaded st l = single (lock_mask st l)
