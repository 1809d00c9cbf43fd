(** The micro-kernel registry: the three competitors of Section IV, in both
    numeric form (a kernel table for running real GEMMs through
    {!Gemm.blis_ba}) and model form (a {!Exo_sim.Kernel_model.impl} for the
    performance simulation).

    - [EXO]: the generated family — one specialized kernel per (mr, nr),
      produced on demand by {!Exo_ukr_gen.Family} and cached; numerics run
      the native or Bigarray tier, with the interpreter as the reference
      and as the non-f32 fallback.
    - [BLIS]: the monolithic 8×12 assembly kernel model (fringe logic,
      prefetch-capable).
    - [NEON]: the monolithic 8×12 hand-written-intrinsics kernel model
      (fringe logic, compiler-scheduled).

    Domain-safety: generated kernels are immutable IR values, so one
    process-wide {!Exo_par.Memo} serves every domain. Every table entry is
    re-entrant — the Bigarray and native executors allocate their
    accumulators per call, and the interpreter keeps no state between
    runs — so one immutable table per (kit, mr, nr) is built once and
    shared by every domain.

    Persistence: when an {!Exo_cache.Store} is ambient, table entries are
    hydrated from their serialized artifacts — skipping the
    schedule → certify → lower pipeline — after re-proving the stored
    access summary with {!Exo_check.Tierlint}; cold builds write the
    artifacts back for the next process. *)

open Exo_ukr_gen
module KM = Exo_sim.Kernel_model
module C = Exo_interp.Compile
module Tierlint = Exo_check.Tierlint
module Memo = Exo_par.Memo

(* ------------------------------------------------------------------ *)
(* Generated-kernel cache                                              *)

let cache : (string * int * int, Family.kernel) Memo.t = Memo.create ()

let exo_kernel ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : Family.kernel =
  Memo.find_or_add cache (kit.Kits.name, mr, nr) (fun () ->
      (* persistent read-through: a warm ambient store answers from disk *)
      Family.generate_cached ~kit ~mr ~nr ())

(** Model impl for a generated kernel. *)
let exo_impl ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : KM.impl =
  let k = exo_kernel ~kit ~mr ~nr () in
  KM.of_proc ~name:(Fmt.str "EXO %dx%d" mr nr) ~mr ~nr k.Family.proc

let base_8x12 ?(kit = Kits.neon_f32) () = (exo_kernel ~kit ~mr:8 ~nr:12 ()).Family.proc

let blis_impl ?kit () : KM.impl = KM.blis_asm_8x12 (base_8x12 ?kit ())
let neon_impl ?kit () : KM.impl = KM.neon_intrinsics_8x12 (base_8x12 ?kit ())

(* ------------------------------------------------------------------ *)
(* Numeric micro-kernels                                               *)

type tile =
  kc:int -> mr:int -> nr:int -> ac:float array -> ao:int -> bc:float array ->
  bo:int -> c:float array -> unit

(** Run a generated kernel on a packed tile through the tree-walking
    interpreter, binding the caller's arrays as zero-copy buffer views —
    the definitional oracle the faster tiers are certified against. *)
let exo_ukr_interp ?(kit = Kits.neon_f32) () : tile =
 fun ~kc ~mr ~nr ~ac ~ao ~bc ~bo ~c ->
  C.run_tile ~dt:kit.Kits.dt (exo_kernel ~kit ~mr ~nr ()).Family.proc ~kc ~mr
    ~nr ~ac ~ao ~bc ~bo ~c

(* An mr×nr table entry over a tile function: the Bigarray operands round
   trip through float arrays. *)
let tile_entry (f : tile) ~(mr : int) ~(nr : int) : C.ukr_ba =
  let module BA1 = Bigarray.Array1 in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    let af = Array.init (max 1 (kc * mr)) (fun i -> BA1.get ac (ao + i)) in
    let bf = Array.init (max 1 (kc * nr)) (fun i -> BA1.get bc (bo + i)) in
    let cf = Array.init (nr * mr) (fun i -> BA1.get c (co + i)) in
    f ~kc ~mr ~nr ~ac:af ~ao:0 ~bc:bf ~bo:0 ~c:cf;
    for i = 0 to (nr * mr) - 1 do
      BA1.set c (co + i) cf.(i)
    done

let tile_bank (f : tile) ~(mr : int) ~(nr : int) : unit -> C.ukr_ba array =
  let tbl =
    Array.init (mr * nr) (fun e ->
        tile_entry f ~mr:((e / nr) + 1) ~nr:((e mod nr) + 1))
  in
  fun () -> tbl

(* ------------------------------------------------------------------ *)
(* The monomorphized (mr' × nr') kernel table                          *)

module Obs = Exo_obs.Obs

(* Dispatch counters. The bench's fallback gate must see every call even
   in plain (non-profile) runs, so the authoritative cells are process-wide
   atomics that are always on; the Obs counters mirror them for the profile
   exporter (Obs drops mutations while disabled). *)
let fast_calls = Atomic.make 0
let fallback_calls = Atomic.make 0
let native_calls = Atomic.make 0
let obs_fast = Obs.counter "gemm.ukr_fast_calls"
let obs_fallback = Obs.counter "gemm.ukr_fallback_calls"
let obs_native = Obs.counter "gemm.ukr_native_calls"

(* (fast, fallback) with native dispatches counted as fast: the native tier
   serves exactly the calls the Bigarray tier would have, so every existing
   fallbacks-zero gate keeps its meaning; ukr_tier_counts splits them. *)
let ukr_dispatch_counts () =
  (Atomic.get fast_calls + Atomic.get native_calls, Atomic.get fallback_calls)

let ukr_tier_counts () =
  (Atomic.get native_calls, Atomic.get fast_calls, Atomic.get fallback_calls)

let reset_dispatch_counts () =
  Atomic.set fast_calls 0;
  Atomic.set fallback_calls 0;
  Atomic.set native_calls 0

(* Static translation-validation verdicts, counted at table-build time:
   entries Tierlint proves skip the dynamic integer probe; unproved ones
   keep it. Process-wide (builds happen once per domain but verdicts are
   per-build events the bench and CI gates want totals of). *)
let static_proved = Atomic.make 0
let static_unproved = Atomic.make 0
let obs_proved = Obs.counter "registry.tier_proved"
let obs_unproved = Obs.counter "registry.tier_unproved"

let tier_verdict_counts () = (Atomic.get static_proved, Atomic.get static_unproved)

let count_verdict certified =
  if certified then begin
    Atomic.incr static_proved;
    if Obs.enabled () then Obs.incr obs_proved
  end
  else begin
    Atomic.incr static_unproved;
    if Obs.enabled () then Obs.incr obs_unproved
  end

(** Provenance of a table's native-tier upgrade (always present — a
    degraded host records why it serves the Bigarray tier instead). *)
type native_info = {
  ni_enabled : bool;  (** at least one entry serves JIT'd machine code *)
  ni_target : string;  (** ["intrinsics"] | ["portable"] | ["none"] *)
  ni_cc : string;  (** compiler path, or ["none"] *)
  ni_entries : int;  (** entries serving native code (certified) *)
  ni_rejected : int;  (** eligible entries that failed certification *)
  ni_reason : string;  (** ["ok"], or why the tier is degraded *)
}

(** The complete monomorphized table for a kernel family: one entry per
    (mr', nr') with mr' ∈ 1..mr, nr' ∈ 1..nr, flat at index
    [(mr'-1)·nr + nr'-1]. Entries the Bigarray tier certified are direct
    monomorphized executors (upgraded in place to JIT'd machine code where
    the native tier certified); the rest ([t_fast] false — only non-f32
    kits today) copy through the interpreter and count as fallbacks. *)
type table = {
  t_kit : Kits.t;
  t_mr : int;
  t_nr : int;
  t_entries : C.ukr_ba array;
  t_base : C.ukr_ba array;
  t_fast : bool array;
  t_proved : bool array;
  t_native : bool array;
  t_native_info : native_info;
}

let table_holes (t : table) : int =
  Array.fold_left (fun n f -> if f then n else n + 1) 0 t.t_fast

let table_complete (t : table) : bool = table_holes t = 0

let table_entry (t : table) ~(mr : int) ~(nr : int) : C.ukr_ba =
  if mr < 1 || mr > t.t_mr || nr < 1 || nr > t.t_nr then
    invalid_arg "Registry.table_entry: shape outside the table";
  t.t_entries.(((mr - 1) * t.t_nr) + nr - 1)

let table_base_entry (t : table) ~(mr : int) ~(nr : int) : C.ukr_ba =
  if mr < 1 || mr > t.t_mr || nr < 1 || nr > t.t_nr then
    invalid_arg "Registry.table_base_entry: shape outside the table";
  t.t_base.(((mr - 1) * t.t_nr) + nr - 1)

(* A counting wrapper per entry: one closure hop + one atomic add per tile
   call (~30k calls on the 1008³ run — noise next to the kernel work). *)
let count_fast (u : C.ukr_ba) : C.ukr_ba =
 fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
  Atomic.incr fast_calls;
  if Obs.enabled () then Obs.incr obs_fast;
  u ~kc ~ac ~ao ~bc ~bo ~c ~co

let count_native (u : C.ukr_ba) : C.ukr_ba =
 fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
  Atomic.incr native_calls;
  if Obs.enabled () then Obs.incr obs_native;
  u ~kc ~ac ~ao ~bc ~bo ~c ~co

(* Hole filler: the interpreter behind a float-array round trip. Correct
   for every kit (integer-domain exact, like the interpreter itself) but
   slow — its call count is what the bench's fallbacks-zero gate pins at 0
   for f32 runs. *)
let fallback_entry ~(kit : Kits.t) ~(mr : int) ~(nr : int) : C.ukr_ba =
  let u = tile_entry (exo_ukr_interp ~kit ()) ~mr ~nr in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    Atomic.incr fallback_calls;
    if Obs.enabled () then Obs.incr obs_fallback;
    u ~kc ~ac ~ao ~bc ~bo ~c ~co

(* ------------------------------------------------------------------ *)
(* Persistent kernel artifacts (Exo_cache)                             *)

module Store = Exo_cache.Store

(* One serialized table entry: everything a later process needs to re-enter
   service without re-running schedule → certify → lower. [ta_summary] is
   the lowered access summary (the descriptor the executor runs); the
   hydration gate re-proves it with Tierlint before re-materializing the
   executor, so a stale or tampered artifact can never serve silently.
   Bump [entry_abi] whenever this type or executor selection changes
   meaning — old entries then simply miss. *)
type table_artifact = {
  ta_mr : int;
  ta_nr : int;
  ta_fast : bool;  (** the Bigarray tier accepted this entry at build time *)
  ta_proved : bool;  (** Tierlint verdict at build time (informational) *)
  ta_summary : C.Summary.t option;
}

let entry_abi = "regtable-v1"
let entry_kind = "kernel"

(* The content address: kit name + kit content digest (invalidates on any
   kit change), shape, pipeline variant, the kit's declared schedule-step
   count, and the compiler version (Marshal is not stable across compilers). *)
let entry_key (kit : Kits.t) ~(mr : int) ~(nr : int) : string =
  Store.key
    [
      entry_abi;
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int kit.Kits.sched_steps;
      string_of_int mr;
      string_of_int nr;
      "simple";
    ]

(* Cold path: generate + certify + lower one table entry, returning the
   executor, the tier/verdict flags, and the summary to persist. *)
let build_entry ~(kit : Kits.t) ~(mr : int) ~(nr : int) :
    C.ukr_ba * bool * bool * C.Summary.t option =
  let proc = (exo_kernel ~kit ~mr ~nr ()).Family.proc in
  (* static translation validation of the lowered tape:
     a proved entry skips the dynamic integer probe *)
  let summary = C.summarize_ukr proc in
  let certified =
    match summary with
    | Some s -> Tierlint.proved (Tierlint.check s)
    | None -> false
  in
  match C.to_ukr_ba ~certified proc with
  | Some (u, _) -> (count_fast u, true, certified, summary)
  | None -> (fallback_entry ~kit ~mr ~nr, false, certified, summary)

(* Warm path: re-materialize an entry from its stored artifact. The hit
   skips schedule+certify+lower but NOT the verification gate: the stored
   summary is re-proved with Tierlint here, and only a proved summary may
   hydrate a fast executor (the hydrated executor is selected by (mr, nr)
   alone, so it is bit-identical to the cold one). [None] means the
   artifact is inconsistent or no longer proves — the caller drops it and
   rebuilds cold. *)
let hydrate_entry (a : table_artifact) ~(kit : Kits.t) ~(mr : int) ~(nr : int)
    : (C.ukr_ba * bool * bool) option =
  if a.ta_mr <> mr || a.ta_nr <> nr then None
  else
    match a.ta_summary with
    | Some s when s.C.Summary.mr = mr && s.C.Summary.nr = nr ->
        let proved = Tierlint.proved (Tierlint.check s) in
        (* a fast entry must have been statically proved when built AND
           still prove now — probe-only entries carry no static proof we
           could recheck without the proc, so they always rebuild cold *)
        if a.ta_fast then
          if not (a.ta_proved && proved) then None
          else
            Option.map
              (fun u -> (count_fast u, true, true))
              (C.ukr_ba_of_summary s)
        else Some (fallback_entry ~kit ~mr ~nr, false, proved)
    | Some _ -> None
    | None ->
        if a.ta_fast then None
        else Some (fallback_entry ~kit ~mr ~nr, false, false)

(* ------------------------------------------------------------------ *)
(* The native JIT tier                                                 *)

module Native = Exo_native.Jit
module Host = Exo_native.Host
module C_emit = Exo_codegen.C_emit

(* Part of the shared-object content address: bump whenever the emitted
   ABI, the eligibility rule, or symbol naming changes meaning. *)
let native_abi = "native-v1"

(* The vector ISA a kit's intrinsics emission needs, by naming convention
   (kit names lead with their ISA: neon-f32, avx2-f32, ...). *)
let required_isa (kit : Kits.t) : Host.isa option =
  let prefixed p = String.starts_with ~prefix:p kit.Kits.name in
  if prefixed "neon-" then Some Host.Neon
  else if prefixed "avx2-" then Some Host.Avx2
  else if prefixed "avx512-" then Some Host.Avx512
  else if prefixed "rvv-" then Some Host.Rvv
  else None

(** Which native lowering a kit gets on THIS host: its intrinsics when the
    machine executes the kit's ISA, the portable autovectorizable nest
    otherwise. [None] — no native tier — for non-f32 kits (the fixed ABI
    is float32). *)
let native_target_for (kit : Kits.t) : C_emit.native_target option =
  if kit.Kits.dt <> Exo_ir.Dtype.F32 then None
  else
    match required_isa kit with
    | Some isa when Host.supports isa -> Some C_emit.Nat_intrinsics
    | _ -> Some C_emit.Nat_portable

(* The shared object's content address. No source digest on purpose: every
   part that determines the source (kit content, shape, pipeline variant,
   target) is a key part, so a warm hit skips source generation entirely.
   Compiler identity and tuning flags are parts too — a .so built by a
   different compiler, or for a different -march, is a different entry. *)
let native_key (kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(target : C_emit.native_target) : string =
  Store.key
    [
      native_abi;
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int kit.Kits.sched_steps;
      string_of_int mr;
      string_of_int nr;
      "simple";
      C_emit.native_target_name target;
      Host.cc_identity ();
      String.concat " " (Host.march_flags ());
    ]

(** The native-ABI C source for a whole kernel bank — one exported
    [exo_ukr_<mr'>x<nr'>] per table entry. Intrinsics emission pulls each
    scheduled proc from the kernel memo (already populated by the table
    build); the portable lowering needs only the shapes. *)
let native_source ~(kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(target : C_emit.native_target) () : string =
  let kernels =
    List.init (mr * nr) (fun idx ->
        let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
        let proc =
          match target with
          | C_emit.Nat_intrinsics ->
              Some (exo_kernel ~kit ~mr:mr' ~nr:nr' ()).Family.proc
          | C_emit.Nat_portable -> None
        in
        (mr', nr', proc))
  in
  let header_comment =
    Fmt.str "native kernel bank: kit=%s table=%dx%d target=%s abi=%s\ncc=%s"
      kit.Kits.name mr nr
      (C_emit.native_target_name target)
      native_abi (Host.cc_identity ())
  in
  C_emit.native_unit ~header_comment ~target ~kernels ()

(* A bound native kernel as a ukr_ba: the same operand contract as the
   Bigarray tier (ranges checked up front, Invalid_argument on violation)
   in front of the raw no-alloc call. The C tile is the contiguous
   transposed nr×mr layout every blis_ba dispatch site uses, so ldc = mr. *)
let native_raw ~(mr : int) ~(nr : int) ~(slot : int) : C.ukr_ba =
  let module BA1 = Bigarray.Array1 in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    if
      kc < 0 || ao < 0 || bo < 0 || co < 0
      || ao + (kc * mr) > BA1.dim ac
      || bo + (kc * nr) > BA1.dim bc
      || co + (nr * mr) > BA1.dim c
    then invalid_arg "Registry.native: operands out of range";
    Native.call ~slot ~kc ~a:ac ~ao ~b:bc ~bo ~c ~co ~ldc:mr

(* Decision 12's gate: JIT'd code is certified-then-trusted, never
   trusted-on-load. Bit-comparison against the serving Bigarray-tier entry
   on the integer probe domain (values in [-3, 3] — exact in f32 and f64
   alike, so accumulation order and FMA contraction cannot blur a real
   mismatch), over kc spanning 0, the vector widths and an odd tail. *)
let certify_native ~(mr : int) ~(nr : int) ~(base : C.ukr_ba)
    ~(native : C.ukr_ba) : bool =
  let module BA1 = Bigarray.Array1 in
  try
    List.for_all
      (fun kc ->
        let st = Random.State.make [| 0x9a71; mr; nr; kc |] in
        let mk n =
          let ba = BA1.create Bigarray.float32 Bigarray.c_layout (max 1 n) in
          for i = 0 to n - 1 do
            BA1.set ba i (float_of_int (Random.State.int st 7 - 3))
          done;
          ba
        in
        let a = mk (kc * mr) and b = mk (kc * nr) in
        let c1 = mk (nr * mr) in
        let c2 = BA1.create Bigarray.float32 Bigarray.c_layout (nr * mr) in
        BA1.blit c1 c2;
        base ~kc ~ac:a ~ao:0 ~bc:b ~bo:0 ~c:c1 ~co:0;
        native ~kc ~ac:a ~ao:0 ~bc:b ~bo:0 ~c:c2 ~co:0;
        let ok = ref true in
        for i = 0 to (nr * mr) - 1 do
          if not (Float.equal (BA1.get c1 i) (BA1.get c2 i)) then ok := false
        done;
        !ok)
      [ 0; 1; 2; 3; 8; 17 ]
  with _ -> false

let no_native reason =
  {
    ni_enabled = false;
    ni_target = "none";
    ni_cc = "none";
    ni_entries = 0;
    ni_rejected = 0;
    ni_reason = reason;
  }

(* Upgrade a freshly built table's eligible entries to JIT'd machine code:
   one compilation unit for the whole bank (one cc run, one dlopen, one
   dlsym per kernel), cache-first through the ambient store, then each
   bound kernel certified against the Bigarray entry it would replace
   before it may serve. Any failure — no compiler, compile error on both
   targets, a certification mismatch — degrades that scope gracefully to
   the Bigarray tier and says why in the returned info. *)
let native_upgrade ~(kit : Kits.t) ~(mr : int) ~(nr : int)
    ~(store : Store.t option) ~(entries : C.ukr_ba array) ~(fast : bool array)
    ~(proved : bool array) ~(native : bool array) : native_info =
  match native_target_for kit with
  | None -> no_native (Fmt.str "kit %s is not f32" kit.Kits.name)
  | Some primary -> (
      if not (Host.enabled ()) then
        no_native (Fmt.str "disabled (%s=0)" Host.env_native)
      else
        match Host.cc () with
        | None -> no_native "no C compiler on host"
        | Some cc_path -> (
            (* eligibility: entries the Bigarray tier certified AND whose
               lowered tape Tierlint proved — the proof (bounds, write-set,
               accumulation shape) is what justifies emitting the canonical
               nest for the shape *)
            let idxs =
              List.filter
                (fun idx -> fast.(idx) && proved.(idx))
                (List.init (mr * nr) Fun.id)
            in
            if idxs = [] then no_native "no eligible entries"
            else
              let syms =
                List.map
                  (fun idx ->
                    let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
                    C_emit.native_sym ~mr:mr' ~nr:nr')
                  idxs
              in
              let try_target target =
                match
                  Native.get_or_compile ~store
                    ~key:(native_key kit ~mr ~nr ~target)
                    ~src:(fun () -> native_source ~kit ~mr ~nr ~target ())
                    ~syms
                with
                | Ok (slots, _from_cache) -> Some (target, slots)
                | Error _ -> None
              in
              let targets =
                match primary with
                | C_emit.Nat_portable -> [ C_emit.Nat_portable ]
                | C_emit.Nat_intrinsics ->
                    [ C_emit.Nat_intrinsics; C_emit.Nat_portable ]
              in
              match List.find_map try_target targets with
              | None -> no_native "native compilation failed"
              | Some (target, slots) ->
                  let certified = ref 0 and rejected = ref 0 in
                  List.iteri
                    (fun si idx ->
                      let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
                      let cand =
                        native_raw ~mr:mr' ~nr:nr' ~slot:slots.(si)
                      in
                      if
                        certify_native ~mr:mr' ~nr:nr' ~base:entries.(idx)
                          ~native:cand
                      then begin
                        entries.(idx) <- count_native cand;
                        native.(idx) <- true;
                        incr certified
                      end
                      else incr rejected)
                    idxs;
                  {
                    ni_enabled = !certified > 0;
                    ni_target = C_emit.native_target_name target;
                    ni_cc = cc_path;
                    ni_entries = !certified;
                    ni_rejected = !rejected;
                    ni_reason =
                      (if !certified > 0 then "ok"
                       else "all entries failed certification");
                  }))

(** The native-ABI artifacts for a bank without building a table: the
    target this host would pick and the C source ([None] for non-f32
    kits). The CLI's [ukrgen native] writes these out for inspection and
    CI artifact upload. *)
let native_emit ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    (C_emit.native_target * string) option =
  Option.map
    (fun target -> (target, native_source ~kit ~mr ~nr ~target ()))
    (native_target_for kit)

(* One immutable table per (kit, mr, nr) for the whole process. Entries
   are re-entrant (executors allocate their accumulator per call; the
   interpreter fallback keeps no state between runs), so every domain
   of a pool shares the same entry array — no per-domain rebuilds. *)
let table_memo : (string * int * int, table) Memo.t = Memo.create ()

let exo_table ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () : table =
  if mr < 1 || nr < 1 then invalid_arg "Registry.exo_table: mr and nr must be ≥ 1";
  Memo.find_or_add table_memo (kit.Kits.name, mr, nr) (fun () ->
      Obs.with_span
        ~args:
          (if Obs.enabled () then
             [ ("kit", kit.Kits.name); ("shape", Fmt.str "%dx%d" mr nr) ]
           else [])
        "registry.build_table"
        (fun () ->
          let store = Store.ambient () in
          let fast = Array.make (mr * nr) false in
          let proved = Array.make (mr * nr) false in
          let entries =
            Array.init (mr * nr) (fun idx ->
                let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
                let key = entry_key kit ~mr:mr' ~nr:nr' in
                let hydrated =
                  match store with
                  | None -> None
                  | Some st -> (
                      match Store.get st ~kind:entry_kind ~key with
                      | None -> None
                      | Some (a : table_artifact) -> (
                          match hydrate_entry a ~kit ~mr:mr' ~nr:nr' with
                          | Some r -> Some r
                          | None ->
                              (* inconsistent or no-longer-proving artifact:
                                 drop it and rebuild from source *)
                              Store.remove st ~kind:entry_kind ~key;
                              None))
                in
                let u, fast', proved' =
                  match hydrated with
                  | Some r -> r
                  | None ->
                      let u, fast', proved', summary =
                        build_entry ~kit ~mr:mr' ~nr:nr'
                      in
                      (match store with
                      | Some st ->
                          ignore
                            (Store.put st ~kind:entry_kind ~key
                               {
                                 ta_mr = mr';
                                 ta_nr = nr';
                                 ta_fast = fast';
                                 ta_proved = proved';
                                 ta_summary = summary;
                               })
                      | None -> ());
                      (u, fast', proved')
                in
                count_verdict proved';
                fast.(idx) <- fast';
                proved.(idx) <- proved';
                u)
          in
          (* the Bigarray-tier bank, frozen before the native upgrade: the
             certification oracle and the A side of the bench's tier A-B *)
          let base = Array.copy entries in
          let native = Array.make (mr * nr) false in
          let native_info =
            native_upgrade ~kit ~mr ~nr ~store ~entries ~fast ~proved ~native
          in
          {
            t_kit = kit;
            t_mr = mr;
            t_nr = nr;
            t_entries = entries;
            t_base = base;
            t_fast = fast;
            t_proved = proved;
            t_native = native;
            t_native_info = native_info;
          }))

(** Forget every memoized kernel and table so the next {!exo_table} call
    exercises the cold path — the bench's cold/warm A-B harness and the
    cache tests need a genuine rebuild inside one process. Not for
    production paths. *)
let clear_memos_for_bench () =
  Memo.clear cache;
  Memo.clear table_memo

(** The {!Gemm.blis_ba} [kernels] thunk: called once per pool task, it
    resolves the shared table (building it on first use) and hands back
    the flat entry array for O(1) dispatch. *)
let exo_bank ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    unit -> C.ukr_ba array =
 fun () -> (exo_table ~kit ~mr ~nr ()).t_entries

(** The Bigarray-tier bank of the same table (entries as they were before
    the native upgrade): the baseline side of the bench's native-vs-BA
    A-B comparison. *)
let exo_bank_ba ?(kit = Kits.neon_f32) ~(mr : int) ~(nr : int) () :
    unit -> C.ukr_ba array =
 fun () -> (exo_table ~kit ~mr ~nr ()).t_base
