(** Static lint sweep over the generated kernel family.

    Instantiates {!Exo_check.Vlint} for each kit (register budget and
    register-memory predicate from {!Exo_isa.Memories}) and derives the
    expected steady-state census from the schedule template, then checks
    every kernel of {!Family.paper_shapes} on every kit plus the
    {!Variants} schedules — all without running the simulator. The Fig. 12
    pin: the 8×12 f32 packed kernel must show 5 vector loads + 24 fmla per
    k iteration and at most 32 live vector registers. *)

(** The {!Exo_check.Vlint.target} for a kit: vector memories are the ISA
    register memories; the budget is the architectural register file. *)
val target_of_kit : Kits.t -> Exo_check.Vlint.target

(** Expected steady-state census of a family kernel, derived from the
    schedule template ([None] for [Scalar] kernels, whose census is not
    pinned). For the packed template on [mr]×[nr] with [l] lanes:
    [mr/l + nr/l] loads and [(mr/l)·nr] lane-indexed fmas per k iteration —
    5 loads + 24 fmas at 8×12 f32 (Fig. 12). *)
val expected_census :
  Kits.t -> Family.style -> mr:int -> nr:int -> Exo_check.Vlint.census option

(** The full expectation for a family kernel: census as above, scalar data
    ops forbidden in symbolic loops unless the style is [Scalar], and [C]
    the only writable argument. *)
val expect_of :
  Kits.t -> Family.style -> mr:int -> nr:int -> Exo_check.Vlint.expect

(** One linted kernel: which kit, a human label (shape + template), and the
    {!Exo_check.Vlint} report. *)
type entry = { kit_name : string; label : string; report : Exo_check.Vlint.report }

type outcome = {
  entries : entry list;
  skipped : (string * string) list;
      (** (label, reason) for kit/shape/variant combinations whose schedule
          does not apply (capability or divisibility), not lint failures *)
}

(** Lint the paper family and the variants on the given kits
    (default {!Kits.all}). Kernels are generated and checked in parallel on
    [jobs] domains (default {!Exo_par.Pool.default_jobs}); the outcome is
    identical — entries in the original nested-loop order — for every
    [jobs]. *)
val run : ?kits:Kits.t list -> ?jobs:int -> unit -> outcome

val all_ok : outcome -> bool

(** Count of failed entries (0 iff [all_ok] modulo empty sweeps). *)
val failures : outcome -> int

val pp_entry : Format.formatter -> entry -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** {1 The [--tiers] sweep: translation validation of the execution tiers}

    For every (mr', nr') entry of a kit's monomorphized kernel table
    (mr' ∈ 1..mr, nr' ∈ 1..nr), generate the kernel, lower it, and run
    {!Exo_check.Tierlint} over its access summary; f32 entries are also run
    through the dynamic integer certification
    ({!Exo_interp.Compile.probe_ukr_ba}) so static and dynamic verdicts can
    be cross-checked — a statically proved entry whose probe rejects is a
    disagreement (and a bug in one of the two). *)

(** One validated table entry. [te_probe]: the dynamic certificate's
    verdict, [None] for non-f32 kits (the probe buffers are f32). *)
type tier_entry = {
  te_kit : string;
  te_mr : int;
  te_nr : int;
  te_report : Exo_check.Tierlint.report;
  te_probe : bool option;
}

type tier_kit_summary = {
  tk_kit : string;
  tk_total : int;
  tk_proved : int;
  tk_disagreements : int;
      (** statically proved entries whose dynamic probe rejected *)
}

type tiers_outcome = {
  tier_entries : tier_entry list;
  tier_kits : tier_kit_summary list;
}

(** Validate the full (mr × nr) table (default 8×12 — 96 entries) on the
    given kits (default {!Kits.all}), fanned out on [jobs] domains with a
    width-invariant outcome, like {!run}. *)
val run_tiers :
  ?kits:Kits.t list -> ?jobs:int -> ?mr:int -> ?nr:int -> unit -> tiers_outcome

(** Entries not fully proved, across all kits. *)
val tiers_unproved : tiers_outcome -> int

(** Every entry of every kit proved, and no static/dynamic disagreement. *)
val tiers_ok : tiers_outcome -> bool

val pp_tier_entry : Format.formatter -> tier_entry -> unit

(** Failures (if any), then the per-kit one-line summaries the CI gate
    greps: ["KIT: proved P/T, unproved_entries U, probe_disagreements D"]. *)
val pp_tiers : Format.formatter -> tiers_outcome -> unit

(** The per-entry verdict document ([ukrgen lint --tiers --json]), a
    {!Exo_obs.Obs.Json.pretty} tree carrying the same ["meta"] member
    (schema version, git commit, host cores) as the BENCH_*.json files,
    from the shared {!Exo_obs.Obs.Meta.json}. *)
val tiers_json : tiers_outcome -> string
