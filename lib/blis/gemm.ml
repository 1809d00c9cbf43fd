(** GEMM: the BLIS/GotoBLAS macro-kernel (Fig. 1 of the paper) plus a naive
    reference.

    The macro-kernel runs the canonical five loops around a micro-kernel:
    jc over n (nc), pc over k (kc, packing Bc), ic over m (mc, packing Ac),
    jr over nc (nr), ir over mc (mr). The micro-kernels come from a table
    the caller supplies, so the same macro code runs the native or
    Bigarray-tier Exo-generated kernels, the interpreter, or anything
    else — mirroring how the paper swaps micro-kernels under one ALG+
    implementation.

    Pack buffers and the resident C block live in a per-domain {!workspace}
    arena (no allocation in steady state), C is moved over unsafe accesses
    behind one up-front bounds check, and disjoint C blocks fan out on an
    {!Exo_par.Pool}, bit-identical at every pool width because each task
    touches only its own block and runs the same per-element operation
    sequence. Each task keeps its C block resident in the arena as
    kernel-layout f32 tiles across the whole k loop, moving C once in and
    once out. *)

module Obs = Exo_obs.Obs
module Pool = Exo_par.Pool

(** C := alpha·A·B + beta·C, naive triple loop (f64 accumulation). *)
let naive ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t) (c : Matrix.t) :
    unit =
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.naive: dimension mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (Matrix.get a i l *. Matrix.get b l j)
      done;
      Matrix.set c i j ((alpha *. !acc) +. (beta *. Matrix.get c i j))
    done
  done

(** Naive with binary32 rounding after every operation, in the blocked
    k-order, usable for exact comparisons against the macro-kernel when
    inputs are small integers. *)
let naive_f32 ?(alpha = 1.0) ?(beta = 1.0) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) : unit =
  let r32 v = Int32.float_of_bits (Int32.bits_of_float v) in
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.naive_f32: dimension mismatch";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref (r32 (beta *. Matrix.get c i j)) in
      for l = 0 to k - 1 do
        acc := r32 (!acc +. r32 (alpha *. r32 (Matrix.get a i l *. Matrix.get b l j)))
      done;
      Matrix.set c i j !acc
    done
  done

(* ------------------------------------------------------------------ *)
(* Workspace arenas                                                    *)

type ba32 = Exo_interp.Compile.ba32

type ukr_ba = Exo_interp.Compile.ukr_ba
(** The per-tile entry point: operands in float32 Bigarrays, shape fixed per
    closure (the driver picks the (mrb, nrb) entry out of a flat kernel
    table). *)

let ba_empty () : ba32 = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 0

(** Per-domain scratch: one float32 pack arena per operand plus one task's
    whole C block, tile-packed — grown monotonically (next power of two)
    and reused across GEMMs. Per-domain because pool tasks on different
    domains pack concurrently. *)
type arena = {
  mutable aw : ba32;
  mutable bw : ba32;
  mutable cw : ba32;
}

type workspace = arena Domain.DLS.key

let workspace () : workspace =
  Domain.DLS.new_key (fun () ->
      { aw = ba_empty (); bw = ba_empty (); cw = ba_empty () })

(** The workspace used when callers don't thread their own. *)
let default_workspace : workspace = workspace ()

(* next power of two, so repeated slightly-larger requests settle *)
let pow2_cap (n : int) : int =
  let p = ref 16 in
  while !p < n do
    p := !p * 2
  done;
  !p

let grown (a : ba32) (n : int) : ba32 =
  if Bigarray.Array1.dim a >= n then a
  else begin
    let b =
      Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (pow2_cap n)
    in
    (* Bigarray.create is uninitialized; the packers only ever write the
       panel prefixes they then read, but zero-fill anyway so no code path
       can observe garbage *)
    Bigarray.Array1.fill b 0.0;
    b
  end

(* ------------------------------------------------------------------ *)
(* The five-loop macro-kernel                                          *)

(** The BLIS-like GEMM: C := alpha·A·B + beta·C with the five-loop blocked
    algorithm, packed panels in float32 Bigarrays, per-tile dispatch by
    O(1) array indexing into the table [kernels ()] returns, and BOTH the
    jc and ic loops fanned out as one task grid — each task owns the
    disjoint C block (rows ic·mc .., cols jc·nc ..), so small-n problems
    where jc alone yields a single task still scale across the pool, and
    the output stays bit-identical at every width.

    Each task keeps its C block resident across the whole pc loop, as the
    paper's micro-kernel updates its tile of C in place: the block is read
    once (β folded in) into the per-domain arena as kernel-layout tiles,
    every pc block's kernel calls accumulate into those tiles, and the
    block is written back once after the last pc block. After the read
    every element is an f32 and f32→f64→f32 is the identity, so this is
    bit-identical to a per-pc gather/scatter of each tile.

    [kernels] is called once per task ON THE EXECUTING DOMAIN and must
    return a table of at least mr·nr entries, entry [(mr'-1)·nr + nr'-1]
    computing an mr'×nr' tile. The table executors are re-entrant, so the
    thunk may hand every task the same shared array; taking a thunk rather
    than a table lets {!Registry.exo_bank} resolve (and on first use build)
    the shared table inside the task. *)
let blis_ba ?(alpha = 1.0) ?(beta = 1.0) ?pool ?(ws = default_workspace)
    ~(blocking : Analytical.blocking) ~(mr : int) ~(nr : int)
    ~(kernels : unit -> ukr_ba array) (a : Matrix.t) (b : Matrix.t)
    (c : Matrix.t) : unit =
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  if b.Matrix.rows <> k || c.Matrix.rows <> m || c.Matrix.cols <> n then
    invalid_arg "Gemm.blis_ba: dimension mismatch";
  if
    Array.length a.Matrix.data < m * k
    || Array.length b.Matrix.data < k * n
    || Array.length c.Matrix.data < m * n
  then invalid_arg "Gemm.blis_ba: matrix storage shorter than rows*cols";
  let { Analytical.mc; kc; nc } = blocking in
  if mc < mr || nc < nr || kc < 1 then
    invalid_arg "Gemm.blis_ba: degenerate blocking";
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let ldc = c.Matrix.cols and cdata = c.Matrix.data in
  let a_size = Packing.a_arena_size ~mcb:(min mc m) ~kcb:(min kc k) ~mr in
  let b_size = Packing.b_arena_size ~ncb:(min nc n) ~kcb:(min kc k) ~nr in
  (* the resident C block: tile (ir, jr) at a fixed pitch of mr·nr *)
  let pitch = mr * nr in
  let c_size =
    ((min mc m + mr - 1) / mr) * ((min nc n + nr - 1) / nr) * pitch
  in
  let unit_beta = Float.equal beta 1.0 in
  (* with k = 0 and β = 1 C is left bitwise untouched: the block round
     trip would round values that are not representable in f32 *)
  let resident = k > 0 || not unit_beta in
  let n_jc = (n + nc - 1) / nc and n_ic = (m + mc - 1) / mc in
  let sp_blis =
    if Obs.enabled () then
      Obs.begin_span
        ~args:
          [
            ("m", string_of_int m);
            ("n", string_of_int n);
            ("k", string_of_int k);
            ("tasks", string_of_int (n_jc * n_ic));
          ]
        "gemm.blis_ba"
    else Obs.none
  in
  (* one task per (jc, ic) cell of the C block grid, jc-major *)
  let task t =
    let jc = t / n_ic and ic = t mod n_ic in
    let tbl = kernels () in
    if Array.length tbl < mr * nr then
      invalid_arg "Gemm.blis_ba: kernel table shorter than mr*nr";
    let ar = Domain.DLS.get ws in
    ar.aw <- grown ar.aw a_size;
    ar.bw <- grown ar.bw b_size;
    ar.cw <- grown ar.cw c_size;
    let blk = ar.cw in
    let jc0 = jc * nc and ic0 = ic * mc in
    let ncb = min nc (n - jc0) and mcb = min mc (m - ic0) in
    let npa = (mcb + mr - 1) / mr and npb = (ncb + nr - 1) / nr in
    (* every C access of the task stays inside rows ic0 .. ic0+mcb-1 ×
       cols jc0 .. jc0+ncb-1 (the block it owns), which is what keeps the
       two-axis fan-out deterministic. Both block passes walk ir strips,
       then jr tiles, then rows, with a row's columns contiguous
       innermost; unsafe behind the storage check at entry (every C index
       is ≤ (m-1)·ldc + n-1 < m·n) and the arena sizing above. *)
    if resident then begin
      (* read once: β folded in, the f32 rounding is the Bigarray store *)
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:[ ("jc", string_of_int jc); ("ic", string_of_int ic) ]
            "gemm.c_block"
        else Obs.none
      in
      for ir = 0 to npa - 1 do
        let mrb = min mr (mcb - (ir * mr)) in
        for jr = 0 to npb - 1 do
          let nrb = min nr (ncb - (jr * nr)) in
          let off = ((ir * npb) + jr) * pitch in
          for i = 0 to mrb - 1 do
            let rb = ((ic0 + (ir * mr) + i) * ldc) + jc0 + (jr * nr) in
            for j = 0 to nrb - 1 do
              let v = Array.unsafe_get cdata (rb + j) in
              Bigarray.Array1.unsafe_set blk
                (off + (j * mrb) + i)
                (if unit_beta then v else beta *. v)
            done
          done
        done
      done;
      Obs.end_span sp
    end;
    for pc = 0 to ((k + kc - 1) / kc) - 1 do
      let pc0 = pc * kc in
      let kcb = min kc (k - pc0) in
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("ic", string_of_int ic);
                ("pc", string_of_int pc);
              ]
            "gemm.pack_b"
        else Obs.none
      in
      let bp =
        Packing.pack_b_ba_into ~alpha ar.bw b ~pc:pc0 ~jc:jc0 ~kcb ~ncb ~nr
      in
      Obs.end_span sp;
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("ic", string_of_int ic);
                ("pc", string_of_int pc);
              ]
            "gemm.pack_a"
        else Obs.none
      in
      let ap = Packing.pack_a_ba_into ar.aw a ~ic:ic0 ~pc:pc0 ~mcb ~kcb ~mr in
      Obs.end_span sp;
      let sp_macro =
        if Obs.enabled () then
          Obs.begin_span
            ~args:
              [
                ("jc", string_of_int jc);
                ("pc", string_of_int pc);
                ("ic", string_of_int ic);
              ]
            "gemm.macro_kernel"
        else Obs.none
      in
      let adata = ap.Packing.data and bdata = bp.Packing.data in
      for jr = 0 to npb - 1 do
        let nrb = Packing.panel_width bp jr in
        let bo = Packing.panel_off bp jr in
        for ir = 0 to npa - 1 do
          let mrb = Packing.panel_width ap ir in
          let ao = Packing.panel_off ap ir in
          (* O(1) dispatch: plain array indexing, in range because
             1 <= mrb <= mr, 1 <= nrb <= nr and the table length was
             checked at task entry; the kernel accumulates in place into
             the tile's resident slot *)
          let sp_ukr =
            if Obs.enabled () then Obs.begin_span "gemm.ukr" else Obs.none
          in
          (Array.unsafe_get tbl (((mrb - 1) * nr) + nrb - 1))
            ~kc:kcb ~ac:adata ~ao ~bc:bdata ~bo ~c:blk
            ~co:(((ir * npb) + jr) * pitch);
          Obs.end_span sp_ukr
        done
      done;
      Obs.end_span sp_macro
    done;
    if resident then begin
      (* write once, after the last pc block *)
      let sp =
        if Obs.enabled () then
          Obs.begin_span
            ~args:[ ("jc", string_of_int jc); ("ic", string_of_int ic) ]
            "gemm.c_block"
        else Obs.none
      in
      for ir = 0 to npa - 1 do
        let mrb = min mr (mcb - (ir * mr)) in
        for jr = 0 to npb - 1 do
          let nrb = min nr (ncb - (jr * nr)) in
          let off = ((ir * npb) + jr) * pitch in
          for i = 0 to mrb - 1 do
            let rb = ((ic0 + (ir * mr) + i) * ldc) + jc0 + (jr * nr) in
            for j = 0 to nrb - 1 do
              Array.unsafe_set cdata (rb + j)
                (Bigarray.Array1.unsafe_get blk (off + (j * mrb) + i))
            done
          done
        done
      done;
      Obs.end_span sp
    end
  in
  Pool.iter pool task (List.init (n_jc * n_ic) Fun.id);
  Obs.end_span sp_blis

(* ------------------------------------------------------------------ *)
(* Batched execution                                                   *)

(** One GEMM of a workload batch. *)
type problem = {
  p_a : Matrix.t;
  p_b : Matrix.t;
  p_c : Matrix.t;
  p_alpha : float;
  p_beta : float;
  p_blocking : Analytical.blocking;
  p_mr : int;
  p_nr : int;
}

(** Run a whole GEMM list (e.g. a DNN workload's layers) through {!blis_ba}
    with one kernel table, one pool and one set of per-domain arenas: after
    the first problem warms the arenas, the batch allocates nothing in
    steady state. Problems run in order (a layer's output may feed the
    next); each one's task grid fans out on [pool]. *)
let batch_ba ?pool ?(ws = default_workspace) ~(kernels : unit -> ukr_ba array)
    (ps : problem list) : unit =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let sp =
    if Obs.enabled () then
      Obs.begin_span
        ~args:[ ("problems", string_of_int (List.length ps)) ]
        "gemm.batch"
    else Obs.none
  in
  List.iter
    (fun p ->
      blis_ba ~alpha:p.p_alpha ~beta:p.p_beta ~pool ~ws ~blocking:p.p_blocking
        ~mr:p.p_mr ~nr:p.p_nr ~kernels p.p_a p.p_b p.p_c)
    ps;
  Obs.end_span sp
