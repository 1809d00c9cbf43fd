(** GEMM: the BLIS/GotoBLAS five-loop macro-kernel (Fig. 1 of the paper)
    plus naive references, over {!Matrix} values. The executable path packs
    into per-domain {!workspace} arenas (no steady-state allocation), fans
    a (jc × ic) task grid out on an {!Exo_par.Pool} with bit-identical
    output at every width, and batches whole workloads through
    {!batch_ba}. *)

type ba32 = Exo_interp.Compile.ba32

type ukr_ba = Exo_interp.Compile.ukr_ba
(** A micro-kernel table entry: [c += acᵀ·bc] on one tile, operands in
    float32 Bigarrays. [ac] holds a kc×mr k-major panel at [ao], [bc] a
    kc×nr panel at [bo] (panel offsets into a packing arena), [c] the
    *transposed* tile (nr×mr, row-major) at [co] — the layout conventions
    of Section III-A. The tile shape is fixed per closure; the driver
    dispatches into a flat (mr'×nr') kernel table. *)

(** C := alpha·A·B + beta·C, naive triple loop (f64 accumulation). *)
val naive : ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Naive with binary32 rounding after every operation — exact comparisons
    against the macro-kernel when inputs are small integers. *)
val naive_f32 :
  ?alpha:float -> ?beta:float -> Matrix.t -> Matrix.t -> Matrix.t -> unit

(** Per-domain reusable scratch (pack arenas + resident C block), grown on
    demand and reused across GEMMs: repeated calls through one workspace
    allocate nothing in steady state. *)
type workspace

(** A fresh workspace (its arenas materialize per domain on first use). *)
val workspace : unit -> workspace

(** The workspace used when callers don't thread their own. *)
val default_workspace : workspace

(** The BLIS-like GEMM: C := alpha·A·B + beta·C with jc/pc/ic/jr/ir
    blocking, packed panels in float32 Bigarrays (alpha folded into Bc,
    beta into the once-per-task C block read), and O(1) array-indexed
    dispatch into the table [kernels ()] returns (entry [(mr'-1)·nr + nr'-1]
    computes an mr'×nr' tile, fringes included; at least mr·nr entries).
    BOTH the jc and ic loops fan out as one (jc × ic) task grid on [pool]
    (default {!Exo_par.Pool.global}) — a disjoint C row×column block per
    task, so small-n problems where a jc-only split yields a single task
    still scale, bit-identical at every pool width. [kernels] is invoked
    once per task on the executing domain; the table's executors are
    re-entrant (per-call accumulators), so the thunk may hand every task
    the same shared array ({!Registry.exo_bank} does). *)
val blis_ba :
  ?alpha:float ->
  ?beta:float ->
  ?pool:Exo_par.Pool.t ->
  ?ws:workspace ->
  blocking:Analytical.blocking ->
  mr:int ->
  nr:int ->
  kernels:(unit -> ukr_ba array) ->
  Matrix.t -> Matrix.t -> Matrix.t -> unit

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
    with one kernel table, one pool and one set of arenas — zero
    steady-state allocation. Problems run in order; each one's task grid
    fans out on [pool]. *)
val batch_ba :
  ?pool:Exo_par.Pool.t ->
  ?ws:workspace ->
  kernels:(unit -> ukr_ba array) ->
  problem list -> unit
