(** Layer-by-layer replays, timed from outside: each function times the
    benchmark's own calls into one layer's public functions ([Packing],
    [Gemm], the kernel bank, [Family], [Tierlint], [C_emit], [Jit]) on the
    workload's own inputs, walking the same (jc × ic) task grid and k
    blocks as {!Exo_blis.Gemm.blis_ba}. *)

module Gemm = Exo_blis.Gemm
module Packing = Exo_blis.Packing
module Matrix = Exo_blis.Matrix
module Registry = Exo_blis.Registry
module Analytical = Exo_blis.Analytical
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family
module Tierlint = Exo_check.Tierlint
module Compile = Exo_interp.Compile
module C_emit = Exo_codegen.C_emit
module Jit = Exo_native.Jit
module Host = Exo_native.Host
module Store = Exo_cache.Store
module BA1 = Bigarray.Array1

let ba n : Compile.ba32 = BA1.create Bigarray.float32 Bigarray.c_layout (max 1 n)

let dims (p : Gemm.problem) = (p.Gemm.p_a.Matrix.rows, p.Gemm.p_b.Matrix.cols, p.Gemm.p_a.Matrix.cols)

(** The (jc, ic) task count of one GEMM, as [blis_ba] cuts it. *)
let tasks (p : Gemm.problem) : int =
  let m, n, _ = dims p in
  let { Analytical.mc; nc; _ } = p.Gemm.p_blocking in
  ((n + nc - 1) / nc) * ((m + mc - 1) / mc)

(* Every (task, k block) of one GEMM in [blis_ba]'s order. *)
let iter_blocks (p : Gemm.problem) f =
  let m, n, k = dims p in
  let { Analytical.mc; kc; nc } = p.Gemm.p_blocking in
  let n_ic = (m + mc - 1) / mc in
  for t = 0 to tasks p - 1 do
    let jc0 = t / n_ic * nc and ic0 = t mod n_ic * mc in
    let ncb = min nc (n - jc0) and mcb = min mc (m - ic0) in
    for pc = 0 to ((k + kc - 1) / kc) - 1 do
      let pc0 = pc * kc in
      f ~ic0 ~jc0 ~pc0 ~mcb ~ncb ~kcb:(min kc (k - pc0))
    done
  done

(* Pack arenas sized for a problem list, allocated before any timing. *)
let arenas (ps : Gemm.problem list) =
  let need f = List.fold_left (fun acc p -> max acc (f p)) 1 ps in
  let size_a p =
    let m, _, k = dims p and b = p.Gemm.p_blocking in
    Packing.a_arena_size ~mcb:(min b.Analytical.mc m) ~kcb:(min b.Analytical.kc k)
      ~mr:p.Gemm.p_mr
  and size_b p =
    let _, n, k = dims p and b = p.Gemm.p_blocking in
    Packing.b_arena_size ~ncb:(min b.Analytical.nc n) ~kcb:(min b.Analytical.kc k)
      ~nr:p.Gemm.p_nr
  in
  (ba (need size_a), ba (need size_b))

let pack_b aw p ~pc0 ~jc0 ~kcb ~ncb =
  Packing.pack_b_ba_into ~alpha:p.Gemm.p_alpha aw p.Gemm.p_b ~pc:pc0 ~jc:jc0 ~kcb
    ~ncb ~nr:p.Gemm.p_nr

let pack_a aw p ~ic0 ~pc0 ~mcb ~kcb =
  Packing.pack_a_ba_into aw p.Gemm.p_a ~ic:ic0 ~pc:pc0 ~mcb ~kcb ~mr:p.Gemm.p_mr

type packing = {
  pack_a_s : float;
  pack_b_s : float;
  a_elems : int;  (** elements pack-A read and wrote *)
  b_elems : int;
}

(** One iteration's packing, every pack-A and pack-B call timed. *)
let packing ~id (ps : Gemm.problem list) : packing =
  let aw, bw = arenas ps in
  let ta = ref 0.0 and tb = ref 0.0 and ea = ref 0 and eb = ref 0 in
  let s = Spans.start ~id "packing" in
  List.iter
    (fun p ->
      iter_blocks p (fun ~ic0 ~jc0 ~pc0 ~mcb ~ncb ~kcb ->
          let t0 = Util.now () in
          ignore (pack_b bw p ~pc0 ~jc0 ~kcb ~ncb);
          let t1 = Util.now () in
          ignore (pack_a aw p ~ic0 ~pc0 ~mcb ~kcb);
          let t2 = Util.now () in
          tb := !tb +. (t1 -. t0);
          ta := !ta +. (t2 -. t1);
          eb := !eb + (kcb * ncb);
          ea := !ea + (kcb * mcb)))
    ps;
  Spans.finish s;
  { pack_a_s = !ta; pack_b_s = !tb; a_elems = !ea; b_elems = !eb }

(** A kernel table whose every entry does nothing: [blis_ba] over it
    costs exactly its non-kernel work (packing and C-tile movement). *)
let noop_table ~mr ~nr : Compile.ukr_ba array =
  Array.make (mr * nr) (fun ~kc:_ ~ac:_ ~ao:_ ~bc:_ ~bo:_ ~c:_ ~co:_ -> ())

type ukr = { ukr_s : float; calls : int; fringe_calls : int }

(** The iteration's tiles replayed through the bank entries on packed
    arenas: packing untimed, only the kernel calls of each k block timed,
    accumulating into a scratch tile (no C-tile movement). *)
let ukr_replay ~id ~(table : Compile.ukr_ba array) (ps : Gemm.problem list) : ukr =
  Spans.wrap ~id "ukr.replay" @@ fun () ->
  let aw, bw = arenas ps in
  let t = ref 0.0 and calls = ref 0 and fringe = ref 0 in
  List.iter
    (fun p ->
      let mr = p.Gemm.p_mr and nr = p.Gemm.p_nr in
      let tile = ba (mr * nr) in
      iter_blocks p (fun ~ic0 ~jc0 ~pc0 ~mcb ~ncb ~kcb ->
          let bp = pack_b bw p ~pc0 ~jc0 ~kcb ~ncb in
          let ap = pack_a aw p ~ic0 ~pc0 ~mcb ~kcb in
          let s = Spans.start ~id "ukr.block" in
          let t0 = Util.now () in
          for jr = 0 to bp.Packing.num_panels - 1 do
            let nrb = Packing.panel_width bp jr and bo = Packing.panel_off bp jr in
            for ir = 0 to ap.Packing.num_panels - 1 do
              let mrb = Packing.panel_width ap ir in
              table.(((mrb - 1) * nr) + nrb - 1)
                ~kc:kcb ~ac:ap.Packing.data ~ao:(Packing.panel_off ap ir)
                ~bc:bp.Packing.data ~bo ~c:tile ~co:0;
              incr calls;
              if mrb < mr || nrb < nr then incr fringe
            done
          done;
          t := !t +. (Util.now () -. t0);
          Spans.finish s))
    ps;
  { ukr_s = !t; calls = !calls; fringe_calls = !fringe }

(** GFLOP/s of the full mr×nr entry at depth [kc], hot in cache: the
    best of five timed rounds of back-to-back calls. *)
let ukr_gflops ~(table : Compile.ukr_ba array) ~mr ~nr ~kc : float =
  let st = Random.State.make [| 0xf1a; mr; nr; kc |] in
  let fill n =
    let a = ba n in
    for i = 0 to n - 1 do
      BA1.set a i (Random.State.float st 2.0 -. 1.0)
    done;
    a
  in
  let a = fill (kc * mr) and b = fill (kc * nr) and c = ba (mr * nr) in
  let entry = table.((mr * nr) - 1) in
  let calls = max 16 (50_000_000 / max 1 (mr * nr * kc)) in
  let round () =
    BA1.fill c 0.0;
    let (), dt =
      Util.time (fun () ->
          for _ = 1 to calls do
            entry ~kc ~ac:a ~ao:0 ~bc:b ~bo:0 ~c ~co:0
          done)
    in
    2.0 *. float_of_int (mr * nr * kc * calls) /. dt *. 1e-9
  in
  ignore (round ());
  Util.best (List.init 5 (fun _ -> round ()))

(** {1 Set-up layers} *)

type setup = {
  family_s : float;
  tierlint_s : float;
  proved : int;
  c_emit_s : float;
  unit_bytes : int;
  jit_s : float;
}

(** The store key the set-up replay files its compiled bank under. *)
let jit_key (kit : Kits.t) ~mr ~nr ~(target : C_emit.native_target) : string =
  Store.key
    [
      "perfbench-bank-v1";
      Sys.ocaml_version;
      kit.Kits.name;
      Kits.digest kit;
      string_of_int mr;
      string_of_int nr;
      C_emit.native_target_name target;
      Host.cc_identity ();
      String.concat " " (Host.march_flags ());
    ]

(** The bank's set-up pipeline, one layer at a time, against the ambient
    store: generate every (mr', nr') kernel, prove every lowered summary,
    emit the bank's one C unit, then compile-or-load it through the store.
    A warm store makes Family and Jit hits; an empty one pays the full
    generate and [cc] cost. *)
let setup_replay ~id (kit : Kits.t) ~mr ~nr : setup =
  Spans.wrap ~id "setup.replay" @@ fun () ->
  let shapes = List.init (mr * nr) (fun i -> ((i / nr) + 1, (i mod nr) + 1)) in
  let span name f = Spans.wrap ~id name (fun () -> Util.time f) in
  let kernels, family_s =
    span "family.generate" (fun () ->
        List.map (fun (mr, nr) -> Family.generate_cached ~kit ~mr ~nr ()) shapes)
  in
  let summaries =
    List.filter_map (fun k -> Compile.summarize_ukr k.Family.proc) kernels
  in
  let reports, tierlint_s =
    span "tierlint.check" (fun () -> List.map Tierlint.check summaries)
  in
  let target =
    Option.value ~default:C_emit.Nat_portable (Registry.native_target_for kit)
  in
  let bank =
    List.map
      (fun k ->
        ( k.Family.mr,
          k.Family.nr,
          match target with
          | C_emit.Nat_intrinsics -> Some k.Family.proc
          | C_emit.Nat_portable -> None ))
      kernels
  in
  let src, c_emit_s =
    span "c_emit.unit" (fun () -> C_emit.native_unit ~target ~kernels:bank ())
  in
  let syms = List.map (fun (mr, nr, _) -> C_emit.native_sym ~mr ~nr) bank in
  let loaded, jit_s =
    span "jit.get_or_compile" (fun () ->
        Jit.get_or_compile ~store:(Store.ambient ())
          ~key:(jit_key kit ~mr ~nr ~target)
          ~src:(fun () -> src)
          ~syms)
  in
  (match loaded with
  | Ok _ -> ()
  | Error e -> prerr_endline ("perfbench: bank compile failed: " ^ e));
  {
    family_s;
    tierlint_s;
    proved = List.length (List.filter Tierlint.proved reports);
    c_emit_s;
    unit_bytes = String.length src;
    jit_s;
  }
