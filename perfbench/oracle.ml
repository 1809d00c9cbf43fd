(** Output checks. A full naive reference at 1008³ costs seconds per
    GEMM, so GEMM outputs are checked in two cheaper ways: every iteration
    must be bitwise equal to the first, and the first is checked on seeded
    sample cells against an f64 dot product within the componentwise f32
    error bound γ(k+1)·(|β·C₀| + |A||B|). The daemon's RUN checksums are
    checked against a value recomputed here from the daemon's documented
    input recipe, never taken from the daemon. *)

module Matrix = Exo_blis.Matrix

(** General floats in [-1, 1), each exactly representable in binary32, so
    the f32 packing stores the operands without rounding. *)
let f32_matrix rows cols (st : Random.State.t) : Matrix.t =
  Matrix.init rows cols (fun _ _ -> Util.r32 (Random.State.float st 2.0 -. 1.0))

(** γ(n) = n·u / (1 − n·u), u = 2⁻²⁴: the bound on the relative error of
    an n-term f32 dot product in any summation order. *)
let gamma n =
  let nu = float_of_int n *. ldexp 1.0 (-24) in
  nu /. (1.0 -. nu)

(** [check_cells ~st ~samples ~beta a b c0 c] — how many of [samples]
    seeded cells of [c] (the result of C := A·B + β·C₀, α = 1) fall outside
    the bound. [c0] is the C before the GEMM (ignored when β = 0). *)
let check_cells ~(st : Random.State.t) ~(samples : int) ~(beta : float)
    (a : Matrix.t) (b : Matrix.t) (c0 : Matrix.t) (c : Matrix.t) : int =
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  let g = gamma (k + 1) in
  let bad = ref 0 in
  for _ = 1 to samples do
    let i = Random.State.int st m and j = Random.State.int st n in
    let c_in = if beta = 0.0 then 0.0 else beta *. Matrix.get c0 i j in
    let acc = ref c_in and mag = ref (Float.abs c_in) in
    for l = 0 to k - 1 do
      let p = Matrix.get a i l *. Matrix.get b l j in
      acc := !acc +. p;
      mag := !mag +. Float.abs p
    done;
    if not (Float.abs (Matrix.get c i j -. !acc) <= g *. !mag) then incr bad
  done;
  !bad

(** Bitwise equality of two result arrays. *)
let same_bits (x : float array) (y : float array) : bool =
  Array.length x = Array.length y
  && (try
        Array.iteri
          (fun i v ->
            if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then
              raise Exit)
          x;
        true
      with Exit -> false)

(** The checksum [ukrgen serve] must reply to [RUN m n k] (count 1):
    the sum of every cell of C = A·B with β = 0, where A and B are the
    small-integer matrices the daemon draws from the state
    [0x5e12e; m; n; k; 0] — B first, then A, the order its problem record
    is evaluated in. Recomputed here as Σₗ colsum(A)ₗ·rowsum(B)ₗ in exact
    integer arithmetic; the daemon's f32 GEMM is exact on these inputs, so
    the reply must match to the last bit. *)
let run_inputs ~m ~n ~k : Matrix.t * Matrix.t =
  let st = Random.State.make [| 0x5e12e; m; n; k; 0 |] in
  let b = Matrix.random_int k n st in
  (Matrix.random_int m k st, b)

let run_checksum ~m ~n ~k : float =
  let a, b = run_inputs ~m ~n ~k in
  let total = ref 0 in
  for l = 0 to k - 1 do
    let ca = ref 0 and rb = ref 0 in
    for i = 0 to m - 1 do
      ca := !ca + int_of_float (Matrix.get a i l)
    done;
    for j = 0 to n - 1 do
      rb := !rb + int_of_float (Matrix.get b l j)
    done;
    total := !total + (!ca * !rb)
  done;
  float_of_int !total
