(** Micro-kernel family generation (Section III-B).

    The paper's answer to edge cases is a *collection* of generated kernels,
    one per (MR, NR) the GEMM driver needs, instead of one monolithic kernel
    with fringe logic. [generate] picks a schedule template from the shape
    and the target kit's instruction inventory:

    - [Packed]: MR and NR both multiples of the vector length, lane-indexed
      FMA available — the Section III schedule (Figs. 6–11).
    - [PackedBcast]: MR a multiple of the vector length, any NR — vectorize
      i only and broadcast the B element ([vfmaq_n_f32], or
      [set1] + element-wise FMA on ISAs without a scalar-FMA form, which is
      exactly the AVX-512 retargeting of Section III-C).
    - [Row]: MR = 1, NR a multiple of the vector length — vectorize j
      (C's leading dimension is MR = 1, so the j direction is unit stride)
      and broadcast the A element.
    - [Scalar]: anything else — specialization by partial evaluation only.

    The paper's ResNet50/VGG16 runs use
    8×12, 8×8, 8×4, 4×12, 4×8, 4×4, 1×12 and 1×8 ({!paper_family}). *)

open Exo_ir
module Sched = Exo_sched.Sched
module Obs = Exo_obs.Obs

type style = Packed | PackedBcast | Row | Scalar

let style_name = function
  | Packed -> "packed"
  | PackedBcast -> "packed-bcast"
  | Row -> "row"
  | Scalar -> "scalar"

type kernel = {
  mr : int;
  nr : int;
  kit : Kits.t;
  style : style;
  proc : Ir.proc;  (** signature: (KC, alpha, Ac, Bc, beta, C) *)
  provenance : Obs.Provenance.entry list;
      (** how [proc] was made: every primitive applied (cursor pattern, IR
          node delta, certificate outcome) and every macro-step marker *)
}

let pick_style (kit : Kits.t) ~mr ~nr : style =
  let l = kit.lanes in
  if mr mod l = 0 && nr mod l = 0 && kit.fma_lane <> None then Packed
  else if mr mod l = 0 then PackedBcast
  else if mr = 1 && nr mod l = 0 then Row
  else Scalar

(* ------------------------------------------------------------------ *)
(* Schedule templates                                                  *)

let base (kit : Kits.t) ~mr ~nr : Ir.proc =
  let p = Source.ukernel_ref_simple ~dt:kit.dt () in
  let ident = String.map (function '-' -> '_' | c -> c) kit.name in
  let p = Sched.rename p (Fmt.str "uk_%dx%d_%s" mr nr ident) in
  let p = Sched.partial_eval p [ ("MR", mr); ("NR", nr) ] in
  Obs.Provenance.mark_step "partial_eval: specialize MR, NR";
  p

(** Stage the C tile: divide the copy loops, reshape, vectorize. [cdim] is
    the C_reg dimension carrying the vector lanes (1 in the packed
    schedules, 0 in the row schedule). *)
let stage_c (kit : Kits.t) p ~window ~cdim ~loopname =
  let l = kit.lanes in
  let p = Sched.stage_mem p "for k in _: _" window "C_reg" in
  let inner = loopname ^ "i" in
  let p = Sched.divide_loop p loopname l (loopname ^ "o", inner) ~tail:Sched.Perfect in
  let p = Sched.divide_loop p loopname l (loopname ^ "o", inner) ~tail:Sched.Perfect in
  let p = Sched.divide_dim p "C_reg" cdim l in
  let p = Sched.replace p (Fmt.str "for %s in _: _" inner) kit.vld in
  let p = Sched.replace p (Fmt.str "for %s in _: _" inner) kit.vst in
  Sched.set_memory p "C_reg" kit.mem

(** The full packed schedule (Section III / Fig. 11), renamed with the kit
    suffix for emission alongside other targets' kernels. *)
let packed (kit : Kits.t) ~mr ~nr : Ir.proc =
  let ident = String.map (function '-' -> '_' | c -> c) kit.name in
  Sched.rename (Steps.final (Steps.packed ~kit ~mr ~nr)) (Fmt.str "uk_%dx%d_%s" mr nr ident)

(** MR vectorized, B broadcast per (k, j). *)
let packed_bcast (kit : Kits.t) ~mr ~nr : Ir.proc =
  let l = kit.lanes in
  let p = base kit ~mr ~nr in
  let p = Sched.divide_loop p "i" l ("it", "itt") ~tail:Sched.Perfect in
  Obs.Provenance.mark_step "divide_loop: vectorize i";
  let p = stage_c kit p ~window:(Fmt.str "C[0:%d, 0:%d]" nr mr) ~cdim:1 ~loopname:"s1" in
  Obs.Provenance.mark_step "stage_mem: C tile in vector registers";
  (* A operand staging, as in the packed schedule but with only the j loop
     between k and the tile loops. *)
  let p = Sched.bind_expr p "Ac[_]" "A_reg" in
  let p = Sched.expand_dim p "A_reg" (string_of_int l) "itt" in
  let p = Sched.expand_dim p "A_reg" (string_of_int (mr / l)) "it" in
  (* with NR = 1 the j loop was inlined away by simplification, so the nest
     is one loop shallower *)
  let has_j = nr > 1 in
  let p = Sched.lift_alloc p "A_reg" ~n_lifts:(if has_j then 4 else 3) in
  let p =
    Sched.autofission p ~gap:(Sched.After "A_reg[_] = _")
      ~n_lifts:(if has_j then 3 else 2)
  in
  let p = if has_j then Sched.remove_loop p "j" else p in
  let p = Sched.replace p "for itt in _: _" kit.vld in
  let p = Sched.set_memory p "A_reg" kit.mem in
  Obs.Provenance.mark_step "bind_expr: A operand in vector registers";
  (* Arithmetic: scalar-FMA when the ISA has one, otherwise broadcast B
     into a register and use the element-wise FMA (the AVX-512 path). *)
  let p =
    match kit.fma_scalar_r with
    | Some fma -> Sched.replace p "for itt in _: _" fma
    | None ->
        let p = Sched.bind_expr_bcast p "Bc[_]" "B_bcast" in
        let p = Sched.replace p "for l in _: _" kit.bcast in
        let p = Sched.set_memory p "B_bcast" kit.mem in
        Sched.replace p "for itt in _: _" kit.fma_vv
  in
  Obs.Provenance.mark_step "replace: broadcast-style FMA";
  let p = Sched.unroll_loop p "it" in
  let p = Sched.simplify p in
  Obs.Provenance.mark_step "unroll_loop + simplify";
  p

(** MR = 1: vectorize j, broadcast the A element. *)
let row (kit : Kits.t) ~nr : Ir.proc =
  let l = kit.lanes in
  let p = base kit ~mr:1 ~nr in
  (* partial_eval + simplify already inlined the single-iteration i loop *)
  let p = Sched.divide_loop p "j" l ("jt", "jtt") ~tail:Sched.Perfect in
  Obs.Provenance.mark_step "divide_loop: vectorize j";
  let p = stage_c kit p ~window:(Fmt.str "C[0:%d, 0]" nr) ~cdim:0 ~loopname:"s0" in
  Obs.Provenance.mark_step "stage_mem: C tile in vector registers";
  (* B operand staging *)
  let p = Sched.bind_expr p "Bc[_]" "B_reg" in
  let p = Sched.expand_dim p "B_reg" (string_of_int l) "jtt" in
  let p = Sched.expand_dim p "B_reg" (string_of_int (nr / l)) "jt" in
  let p = Sched.lift_alloc p "B_reg" ~n_lifts:3 in
  let p = Sched.autofission p ~gap:(Sched.After "B_reg[_] = _") ~n_lifts:2 in
  let p = Sched.replace p "for jtt in _: _" kit.vld in
  let p = Sched.set_memory p "B_reg" kit.mem in
  Obs.Provenance.mark_step "bind_expr: B operand in vector registers";
  let p =
    match kit.fma_scalar with
    | Some fma -> Sched.replace p "for jtt in _: _" fma
    | None ->
        let p = Sched.bind_expr_bcast p "Ac[_]" "A_bcast" in
        let p = Sched.replace p "for l in _: _" kit.bcast in
        let p = Sched.set_memory p "A_bcast" kit.mem in
        Sched.replace p "for jtt in _: _" kit.fma_vv
  in
  Obs.Provenance.mark_step "replace: broadcast-style FMA";
  let p = Sched.unroll_loop p "jt" in
  let p = Sched.simplify p in
  Obs.Provenance.mark_step "unroll_loop + simplify";
  p

let scalar (kit : Kits.t) ~mr ~nr : Ir.proc =
  let p = Sched.simplify (base kit ~mr ~nr) in
  Obs.Provenance.mark_step "simplify";
  p

(* ------------------------------------------------------------------ *)

(** Static bounds certificate demanded of every emitted kernel: each buffer
    access [Proved] in range, zero [Unknown]s. The generated kernels are
    entirely affine, so anything short of a full proof is a generator bug. *)
let certify (p : Ir.proc) : Ir.proc =
  let t0 = Obs.now_us () in
  let r = Exo_check.Bounds.check_proc p in
  let cert_us = Obs.now_us () -. t0 in
  let failure =
    match (r.Exo_check.Bounds.violations, r.Exo_check.Bounds.unknowns) with
    | [], [] -> None
    | vs, us ->
        Some
          (Fmt.str "%s: bounds certificate failed: %a" p.Ir.p_name
             Fmt.(list ~sep:(any "; ") Exo_check.Bounds.pp_failure)
             (vs @ us))
  in
  if Obs.Provenance.collecting () then begin
    let n = Exo_sched.Common.node_count p in
    Obs.Provenance.(
      record
        (Prim
           {
             op = "bounds_certificate";
             pattern = None;
             nodes_before = n;
             nodes_after = n;
             cert_us;
             ok = failure = None;
             detail = failure;
           }))
  end;
  match failure with Some m -> raise (Sched.Sched_error m) | None -> p

(** How many provenance macro steps a (kit, style) schedule must record:
    the kit declares the packed pipeline's count; the in-repo templates are
    fixed shapes. CI cross-checks emitted sidecars against this. *)
let declared_steps (kit : Kits.t) (style : style) : int =
  match style with
  | Packed -> kit.Kits.sched_steps
  | PackedBcast | Row -> 6
  | Scalar -> 2

let generate ?(kit = Kits.neon_f32) ~mr ~nr () : kernel =
  if mr < 1 || nr < 1 then invalid_arg "Family.generate: mr and nr must be ≥ 1";
  let style = pick_style kit ~mr ~nr in
  let args =
    if Obs.enabled () then
      [
        ("kit", kit.Kits.name);
        ("shape", Printf.sprintf "%dx%d" mr nr);
        ("style", style_name style);
      ]
    else []
  in
  Obs.with_span ~args "family.generate" (fun () ->
      let proc, provenance =
        Obs.Provenance.collect (fun () ->
            let proc =
              match style with
              | Packed -> packed kit ~mr ~nr
              | PackedBcast -> packed_bcast kit ~mr ~nr
              | Row -> row kit ~nr
              | Scalar -> scalar kit ~mr ~nr
            in
            certify proc)
      in
      let declared = declared_steps kit style in
      let got = Obs.Provenance.step_count provenance in
      if got <> declared then
        raise
          (Sched.Sched_error
             (Fmt.str
                "%s %dx%d (%s): provenance records %d schedule steps, %d declared"
                kit.Kits.name mr nr (style_name style) got declared));
      { mr; nr; kit; style; proc; provenance })

(* ------------------------------------------------------------------ *)
(* Persistent generation (Exo_cache)                                   *)

module Store = Exo_cache.Store

(* A serialized generated kernel: the scheduled proc plus its provenance
   (pure data — primitive records and step markers). The kit itself is
   reattached by the reader; the key's kit digest guarantees it is the
   same kit the artifact was generated with. *)
type artifact = {
  fa_mr : int;
  fa_nr : int;
  fa_style : style;
  fa_proc : Ir.proc;
  fa_provenance : Obs.Provenance.entry list;
}

let artifact_abi = "family-v1"
let artifact_kind = "family"

let artifact_key (kit : Kits.t) ~mr ~nr =
  Store.key
    [
      artifact_abi;
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int kit.Kits.sched_steps;
      string_of_int mr;
      string_of_int nr;
      "simple";
    ]

(* The cheap recheck gate a cache hit still passes: the full static bounds
   certificate, re-proved on the unmarshaled proc. *)
let recheck_ok (p : Ir.proc) : bool =
  let r = Exo_check.Bounds.check_proc p in
  r.Exo_check.Bounds.violations = [] && r.Exo_check.Bounds.unknowns = []

(** {!generate} through the ambient {!Exo_cache.Store}: a hit skips the
    whole schedule+certify pipeline but still re-proves the stored proc's
    bounds certificate before returning it (a stale or tampered artifact
    reads as a miss and is regenerated); a miss generates and persists.
    Without an ambient store this is exactly {!generate}. *)
let generate_cached ?(kit = Kits.neon_f32) ~mr ~nr () : kernel =
  match Store.ambient () with
  | None -> generate ~kit ~mr ~nr ()
  | Some st -> (
      let key = artifact_key kit ~mr ~nr in
      let hit =
        match Store.get st ~kind:artifact_kind ~key with
        | None -> None
        | Some (a : artifact) ->
            (* unmarshaled symbols carry another process's ids: raise the
               counter before any Sym.fresh so later ids cannot collide
               with (and alias) the artifact's binders *)
            Sym.ensure_above (Ir.proc_max_sym_id a.fa_proc);
            if
              a.fa_mr = mr && a.fa_nr = nr
              && a.fa_style = pick_style kit ~mr ~nr
              && recheck_ok a.fa_proc
            then
              Some
                {
                  mr;
                  nr;
                  kit;
                  style = a.fa_style;
                  proc = a.fa_proc;
                  provenance = a.fa_provenance;
                }
            else begin
              Store.remove st ~kind:artifact_kind ~key;
              None
            end
      in
      match hit with
      | Some k -> k
      | None ->
          let k = generate ~kit ~mr ~nr () in
          ignore
            (Store.put st ~kind:artifact_kind ~key
               {
                 fa_mr = mr;
                 fa_nr = nr;
                 fa_style = k.style;
                 fa_proc = k.proc;
                 fa_provenance = k.provenance;
               });
          k)

(** The kernel sizes the paper's evaluation uses (Section IV-C). *)
let paper_shapes = [ (8, 12); (8, 8); (8, 4); (4, 12); (4, 8); (4, 4); (1, 12); (1, 8) ]

let parse_shape (s : string) : (int * int) option =
  match String.split_on_char 'x' s with
  | [ m; n ] -> (
      match (int_of_string_opt m, int_of_string_opt n) with
      | Some mr, Some nr when mr >= 1 && nr >= 1 -> Some (mr, nr)
      | _ -> None)
  | _ -> None

let paper_family ?(kit = Kits.neon_f32) () : kernel list =
  List.map (fun (mr, nr) -> generate ~kit ~mr ~nr ()) paper_shapes
