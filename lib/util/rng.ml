(* The splitmix64 state lives in an 8-byte buffer: [Bytes.get_int64_ne]
   and [set_int64_ne] compile to unboxed loads and stores, where storing
   into a [mutable int64] field would box every new state. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let of_label seed label =
  let h = ref seed in
  String.iter
    (fun c -> h := mix64 (Int64.add (Int64.mul !h 31L) (Int64.of_int (Char.code c))))
    label;
  create (mix64 !h)

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's native non-negative int range. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

(* Uniform draw in (1e-300, 1): redraws the (vanishingly rare) values too
   close to 0 for [log]. A loop over a local float ref, not a recursive
   closure, so the rejection step allocates nothing. *)
let[@inline] positive_unit t =
  let u = ref (float t 1.0) in
  while !u <= 1e-300 do
    u := float t 1.0
  done;
  !u

let gaussian t ~mean ~stddev =
  let u1 = positive_unit t in
  let u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate = -.log (positive_unit t) /. rate

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Int64.to_int (Int64.logand (next t) 0xFFL)))
  done;
  b
