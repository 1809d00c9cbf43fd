(** Micro-kernel tape lowering and the Bigarray execution tier.

    A generated micro-kernel is symbolically executed once into a tape of
    straight-line memory operations ({!Summary}); the static certifier
    {!Exo_check.Tierlint} proves that tape, and {!to_ukr_ba} turns an
    eligible f32 proc into a monomorphized OCaml executor over float32
    Bigarrays. {!Interp} stays the reference semantics: {!probe_ukr_ba}
    runs it, and procs the Bigarray tier refuses are served by it. *)

(** The auditable access summary of a lowered micro-kernel tape: the proc
    symbolically executed with every loop but the k loop unrolled and every
    instruction call inlined, leaving the exact per-statement memory
    operands (affine addresses [base + kstep·k] over the k-loop counter) and
    read/write/accumulate structure. {!Exo_check.Tierlint} evaluates it in
    an affine-interval domain to prove bounds, write-set containment and
    accumulation shape statically; {!to_ukr_ba} reads the same lowered
    value to decide eligibility. *)
module Summary : sig
  type space = A | B | C | Slab

  (** Element [base + kstep·k] of [sp]; [kstep = 0] outside the k loop. *)
  type operand = { sp : space; base : int; kstep : int }

  type rhs =
    | Const of float
    | Read of operand
    | Bin of Exo_ir.Ir.binop * rhs * rhs
    | Neg of rhs

  type op = { dst : operand; reduce : bool; rhs : rhs }
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Exo_ir.Dtype.t;
    slab : int;
    kc_pos : bool;
    n_preds : int;
    segs : seg list;
  }

  val space_name : space -> string
end

(** The access summary, for procs whose tape lowering succeeds — what
    {!to_ukr_ba} attaches to its executor. *)
val summarize_ukr : Exo_ir.Ir.proc -> Summary.t option

(** A float32 Bigarray: the storage type of the Bigarray tier's packed
    panels and C tiles. Loads/stores compile to inline machine f32<->f64
    conversions — without flambda, the [Int32] bit-twiddling
    that rounds plain float-array stores costs two C calls per flop, and
    moving storage to Bigarray is what removes it from the inner loop. *)
type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A Bigarray-tier micro-kernel: [c += ac·bc] on one packed tile, where
    [ac] is a kc×mr k-major panel starting at [ao], [bc] a kc×nr panel at
    [bo], and [c] the transposed nr×mr tile at [co]. Alpha and beta are
    fixed at 1 (the macro-kernel folds them into packing and the C block
    read). Operand ranges are checked once up
    front ([Invalid_argument] on violation); the loops then run unsafe
    accesses with a 4-wide k-blocked accumulator chain, accumulating each
    C column in unboxed f64 and rounding once at the f32 store — exact
    whenever the data is integer-valued (the repo's test/bench domain). *)
type ukr_ba =
  kc:int -> ac:ba32 -> ao:int -> bc:ba32 -> bo:int -> c:ba32 -> co:int ->
  unit

(** [to_ukr_ba p] — the monomorphized execution tier: for f32 procs the
    tape lowering accepts (with no runtime preconditions), the
    proc's semantics are certified against the canonical GEMM formula on
    integer probes via the interpreter, and the returned
    executor is a straight-line OCaml loop nest specialized to (mr, nr) —
    hand-monomorphized with literal constants for 8×12, shape-captured for
    every other pair. [None] means the proc is served by the interpreter.

    [~certified:true] records that the caller holds a static
    {!Exo_check.Tierlint} proof that the tape computes the canonical
    reduction — the dynamic integer probe is then skipped (it would
    establish the same fact). Default [false]: probe as before.

    The returned executor is re-entrant — its unboxed accumulator is
    allocated per call — so one executor can be shared by every domain of a
    pool. *)
val to_ukr_ba :
  ?certified:bool -> Exo_ir.Ir.proc -> (ukr_ba * Summary.t) option

(** Re-materialize the Bigarray executor from a stored access summary — the
    cache-hydration path ({!Exo_blis.Registry}). Returns [None] when the
    summary fails the tier's eligibility gate (non-f32, runtime preds,
    kc>0 requirement). Sound because the executors are selected by
    (mr, nr) alone, so the result is bit-identical to what {!to_ukr_ba}
    returns for the proc the summary was derived from; callers must still
    re-run the {!Exo_check.Tierlint} gate over the summary so a stale or
    tampered artifact never enters service silently. *)
val ukr_ba_of_summary : Summary.t -> ukr_ba option

(** Run a generated kernel on one packed tile through {!Interp.run}: the
    six-argument call [(kc, alpha = 1, A panel [kc; mr] at [ao], B panel
    [kc; nr] at [bo], beta = 1, C tile [nr; mr])], binding the caller's
    arrays as zero-copy row-major views of element type [dt] (default
    F32). The one place the kernel calling convention is spelled out. *)
val run_tile :
  ?dt:Exo_ir.Dtype.t ->
  Exo_ir.Ir.proc ->
  kc:int ->
  mr:int ->
  nr:int ->
  ac:float array ->
  ao:int ->
  bc:float array ->
  bo:int ->
  c:float array ->
  unit

(** The Bigarray tier's dynamic certificate, exposed so the bench and the
    [--tiers] lint sweep can cross-check it against the static verdicts:
    runs the proc through {!Interp.run} on integer probes and demands the
    canonical [C[j,i] += Σ_k Ac[k,i]·Bc[k,j]] answer bit for bit. F32
    procs only (the probes are f32 buffers). *)
val probe_ukr_ba : Exo_ir.Ir.proc -> mr:int -> nr:int -> bool
