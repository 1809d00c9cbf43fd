(** Structured tracing, metrics, and kernel provenance.

    The repro's performance story is told per stage — scheduling rewrites,
    packing, macro-/micro-kernel phases, cache behaviour — and this module
    is the one place every layer reports to. It is also the lowest library,
    so it owns the one {!Json} tree and printer every artifact writer
    builds on. It depends on nothing beyond the stdlib and [unix] (for the
    wall clock): no third-party packages.

    {2 Cost contract}

    Tracing is off by default. Every hot-path entry point ({!begin_span},
    {!end_span}, {!add}, {!observe}, {!instant}) starts with a single branch
    on one [Atomic.t] and returns immediately when disabled, allocating
    nothing — the perf gate in [bench/main.exe perf] rides on this. Spans
    wrapping closures ({!with_span}) are for cold paths; hot loops use the
    {!begin_span}/{!end_span} token pair, which never builds a closure.

    {2 Determinism contract}

    Each domain records into its own buffer (single-writer, lock-free).
    {!Exo_par.Pool} brackets every parallel region with {!region_begin} and
    runs each work item under {!task_scope}, so merged events sort by
    [(epoch, task, seq)]: for a pure workload the merged trace is identical
    at every pool width up to span ids and (monotonic, per-domain) wall
    timestamps. A qcheck property in [test/test_obs.ml] pins this. *)

(** {1 Master switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Drop every buffered event, zero all counters and histograms, and reset
    the region clock. Call from the main domain with no span in flight on
    any other domain. *)
val reset : unit -> unit

(** {1 Spans} *)

type span
(** A token for an open span. {!none} (the disabled case) is free. *)

val none : span

(** Open a span on the calling domain. One atomic branch and no allocation
    when tracing is disabled. Spans nest per domain: close in LIFO order.
    Build the [args] list only when {!enabled} says so, or the list itself
    is allocated on the disabled path. *)
val begin_span : ?args:(string * string) list -> string -> span

val end_span : span -> unit

(** [with_span name f] — [f] bracketed by a span, closed on exceptions too.
    Allocates its closure even when disabled: cold paths only. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** A zero-duration event. *)
val instant : ?args:(string * string) list -> string -> unit

(** {1 Counters and histograms}

    Monotonic, process-wide, domain-safe (atomic adds), registered by name
    (find-or-create; same name returns the same cell). Mutations are
    dropped while disabled. *)

type counter

val counter : string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

type histogram

val histogram : string -> histogram

(** Record a non-negative integer sample (log2 buckets + count + sum). *)
val observe : histogram -> int -> unit

(** Like {!observe} but with no master-switch gate: the sample is counted
    even while tracing is disabled. For metrics whose contract is
    "always on" (the serve daemon's request-latency histograms) — the
    tracing cost contract above is about {!observe}, not this. *)
val observe_always : histogram -> int -> unit

(** Zero one histogram in place (count, sum, every bucket) without
    touching the rest of the registry. *)
val reset_histogram : histogram -> unit

(** {1 Pool integration} (called by {!Exo_par.Pool}) *)

(** Open a new parallel region; returns its epoch (>= 1). *)
val region_begin : unit -> int

(** Run one work item: events recorded inside carry [(epoch, task)] and
    depths relative to the task entry, which is what makes the merged trace
    pool-width-invariant. *)
val task_scope : epoch:int -> int -> (unit -> 'a) -> 'a

(** {1 The merged trace} *)

type kind =
  | KComplete of float  (** closed span; payload is the end time (s) *)
  | KInstant
  | KUnclosed  (** span still open at {!drain} — reported, never dropped *)

type event = {
  e_name : string;
  e_args : (string * string) list;
  e_t0 : float;  (** seconds, per-domain monotonic *)
  e_kind : kind;
  e_tid : int;  (** domain id *)
  e_epoch : int;  (** pool region, 0 outside any region *)
  e_task : int;  (** work-item index, [max_int] outside a task *)
  e_seq : int;  (** per-domain begin order *)
  e_depth : int;  (** nesting depth relative to the task entry *)
  e_parent : int;  (** seq of the enclosing span on this domain, -1 if none *)
}

type hsnap = { h_count : int; h_sum : int; h_buckets : int array }

type trace = {
  events : event list;  (** sorted by [(epoch, task, seq, tid)] *)
  counters : (string * int) list;  (** sorted by name; zeros included *)
  histograms : (string * hsnap) list;  (** sorted by name *)
  unclosed : (string * int) list;  (** (name, tid) of every unclosed span *)
}

(** Collect and clear every domain's buffer and snapshot the metrics
    (counters keep their running values; {!reset} zeroes them). Unclosed
    spans become [KUnclosed] events AND entries in [unclosed]. Call from
    the main domain between parallel regions. *)
val drain : unit -> trace

(** {1 Histogram snapshots and quantile estimation}

    The buckets are log2: bucket [0] holds exactly the value 0, bucket
    [i >= 1] holds samples [v] with [2^(i-1) <= v <= 2^i - 1], and the top
    bucket absorbs everything larger. *)

(** Atomic-read snapshot of one histogram without draining the trace. *)
val snapshot : histogram -> hsnap

(** [(lo, hi)] of bucket [i]: [(0, 0)], then [(2^(i-1), 2^i - 1)], clamped
    to [(2^61, max_int)] at the top. *)
val bucket_bounds : int -> int * int

(** [quantile h q] estimates the [q]-quantile (rank [ceil (q * count)],
    clamped to at least 1) by spreading a bucket's samples evenly across
    its bounds — the estimate always lands inside the bucket that holds
    the true quantile. 0 when empty. *)
val quantile : hsnap -> float -> float

(** {1 JSON}

    The one JSON tree, printer and parser. Every machine-readable artifact
    this repo writes — the BENCH_*.json files, [tierlint.json], the Chrome
    trace, the provenance sidecar, ledger records, [report.json] and the
    daemon's access-log lines — is built as a {!Json.t} and printed here,
    so there is exactly one string escaper. Not a general-purpose library:
    numbers are floats, objects are assoc lists in input order. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val of_int : int -> t

  (** [opt key f v]: the member [(key, f x)] when [v = Some x], else no
      member — for optional fields. *)
  val opt : string -> ('a -> t) -> 'a option -> (string * t) list

  (** Compact, one line, no newline: the ledger and access-log format.
      Integral floats below 1e15 print without a [.], other numbers with
      12 significant digits; a non-finite number prints [null]. *)
  val to_string : t -> string

  (** The artifact-file format: ["key": value], one object member (or
      array element) per line, two-space indent; arrays of scalars stay on
      one line. Ends with a newline. Same scalars as {!to_string}, so CI
      can grep a file line by line. *)
  val pretty : t -> string

  val parse : string -> (t, string) result
  (** Whole-string parse; trailing garbage is an error. *)

  (** Accessors, [None] on shape mismatch. *)

  val member : string -> t -> t option
  val str : t -> string option
  val num : t -> float option
  val bool_ : t -> bool option
  val list_ : t -> t list option
end

(** {1 Exporters} *)

module Export : sig
  (** Chrome [trace_event] JSON — load in [chrome://tracing] or Perfetto.
      Spans are complete ("X") events in microseconds; counters one final
      "C" sample; unclosed spans instants flagged ["error": "unclosed"].
      Printed compact ({!Json.to_string}) with a trailing newline. *)
  val chrome_json : trace -> string

  (** Plain-text profile: per-label count/total/self wall time (self =
      total minus time in child spans, via recorded parent links), top-N
      counters, histogram summaries, unclosed spans. *)
  val text_report : ?top:int -> trace -> string

  (** The aggregation {!text_report} prints, as data: per-label
      [(count, total_s, self_s)] rows sorted by descending total (self =
      total minus child-span time via recorded parent links). Feeds the
      ledger's per-phase attribution table. *)
  val span_totals : trace -> (string * (int * float * float)) list
end

(** {1 Kernel provenance}

    The machine-readable record of how a kernel was made: one entry per
    scheduling-primitive application (cursor pattern, IR node-count delta,
    certificate-check time and outcome) plus one marker per schedule macro
    step. Collection is scoped and explicit ({!Provenance.collect}) and
    works whether or not tracing is enabled — [Family.generate] always
    collects, so every generated kernel carries its schedule. *)

module Provenance : sig
  type entry =
    | Prim of {
        op : string;  (** scheduling primitive name *)
        pattern : string option;  (** cursor pattern the op resolved *)
        nodes_before : int;  (** IR statement/expression node count *)
        nodes_after : int;
        cert_us : float;  (** certificate (typecheck + effects) time *)
        ok : bool;
        detail : string option;  (** failure message when [not ok] *)
      }
    | Step of { title : string; figure : string option }

  (** Is any collector active on this domain? *)
  val collecting : unit -> bool

  (** Record an entry into every active collector on this domain. *)
  val record : entry -> unit

  (** Schedule macro-step marker ([Steps.record], [Family] templates). *)
  val mark_step : ?figure:string -> string -> unit

  (** Run [f] with a fresh collector; returns its result and the entries
      recorded during the call, oldest first. Nests: inner collectors do
      not steal entries from outer ones. *)
  val collect : (unit -> 'a) -> 'a * entry list

  val step_count : entry list -> int
  val prim_count : entry list -> int

  (** Every primitive and certificate succeeded. *)
  val all_ok : entry list -> bool

  (** The JSON sidecar emitted next to generated C (written with
      {!Json.pretty}). One [log] object per entry, whose
      ["kind": "step"|"prim"] member then sits on its own line, plus
      [step_count] / [declared_steps] / [primitive_count] /
      [certificates_ok] headers — CI cross-checks [step_count] against
      [declared_steps]. *)
  val to_json :
    kernel:string ->
    ?kit:string ->
    ?style:string ->
    ?declared_steps:int ->
    entry list ->
    Json.t

  (** Compact header-comment lines for {!Exo_codegen.C_emit} output. *)
  val header_lines : entry list -> string list
end

(** {1 Shared measurement metadata}

    The one ["meta"] JSON block every machine-readable artifact this repo
    emits carries — the BENCH_*.json files and [ukrgen lint --tiers
    --json] — so downstream tooling can always find the schema version,
    the commit the numbers were measured at, and the parallelism that was
    available. One builder here keeps the files in lock-step: bump
    {!Meta.schema_version} when any of their shapes change. *)

module Meta : sig
  (** Version of every meta-carrying JSON artifact (BENCH_*.json,
      tierlint.json). Bumped in lock-step across all of them. *)
  val schema_version : int

  (** Short git commit of the working tree, or ["unknown"] outside a
      checkout (e.g. a release tarball). *)
  val git_commit : unit -> string

  (** The ["meta"] member, ready to head an artifact's top-level
      {!Json.Obj}: [schema_version], [git_commit], [host_cores],
      [pool_jobs], [ocaml_version]. [pool_jobs] comes from the caller
      ({!Exo_par.Pool.default_jobs} — this library sits below [exo_par]);
      [flambda] likewise (compiler-libs [Config]), as do [host_cc] /
      [host_isa] (the native tier's capability probe, [Exo_native.Host] —
      this library sits below it too) — each omitted when not passed. *)
  val json :
    ?flambda:bool -> ?host_cc:string -> ?host_isa:string -> pool_jobs:int ->
    unit -> string * Json.t
end

(** Wall-clock microseconds (for callers timing sub-phases by hand). *)
val now_us : unit -> float
