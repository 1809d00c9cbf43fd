(* The interpreter as the reference the execution tiers are certified
   against: the runtime contracts it enforces on every run (argument and
   precondition checks, instruction preconditions at calls, fresh allocs,
   windows on written operands, dtype rounding on instruction writes), and
   every generated family kernel checked against the C += A·B
   specification it must compute. *)

open Exo_ir
open Ir
open Builder
module B = Exo_interp.Buffer
module I = Exo_interp.Interp
module Kits = Exo_ukr_gen.Kits
module Family = Exo_ukr_gen.Family

let raises_runtime f =
  try
    f ();
    false
  with I.Runtime_error _ -> true

let test_contract_toplevel () =
  (* the argument list is checked before the body runs: arity, kind, and
     the proc's preconditions (the satisfied case runs) *)
  let n = Sym.fresh "N" and b = Sym.fresh "b" in
  let p =
    mk_proc ~name:"t"
      ~preds:[ ge (var n) (int 2) ]
      ~args:[ size_arg n; tensor_arg b Dtype.F32 [ var n ] ]
      [ assign b [ int 1 ] (flt 3.0) ]
  in
  let buf = B.create ~init:0.0 Dtype.F32 [ 2 ] in
  Alcotest.(check bool) "missing argument raises" true
    (raises_runtime (fun () -> I.run p [ I.VInt 2 ]));
  Alcotest.(check bool) "wrong argument kind raises" true
    (raises_runtime (fun () -> I.run p [ I.VBuf buf; I.VBuf buf ]));
  Alcotest.(check bool) "violated precondition raises" true
    (raises_runtime (fun () -> I.run p [ I.VInt 1; I.VBuf buf ]));
  I.run p [ I.VInt 2; I.VBuf buf ];
  Alcotest.(check (float 0.0)) "satisfied precondition runs" 3.0
    (B.get buf [| 1 |])

let test_contract_bad_stride () =
  (* neon_vld requires unit-stride operands; a column view strides by the
     row length and must be rejected at the call *)
  let dst = B.create ~init:0.0 Dtype.F32 [ 4 ] in
  let src2 = B.create ~init:1.0 Dtype.F32 [ 4; 8 ] in
  let strided = B.view src2 [ `Iv (0, 4); `Pt 0 ] in
  Alcotest.(check int) "view is strided" 8 (B.last_stride strided);
  Alcotest.(check bool) "strided src rejected" true
    (raises_runtime (fun () ->
         I.run Exo_isa.Neon.vld_4xf32 [ I.VBuf dst; I.VBuf strided ]));
  let src = B.of_array Dtype.F32 [ 4 ] [| 5.0; 6.0; 7.0; 8.0 |] in
  I.run Exo_isa.Neon.vld_4xf32 [ I.VBuf dst; I.VBuf src ];
  Alcotest.(check (float 0.0)) "contiguous load runs" 8.0 (B.get dst [| 3 |])

let test_contract_bad_lane () =
  (* vfmla's lane selector is asserted to be in [0, lanes) *)
  let mk v = B.create ~init:v Dtype.F32 [ 4 ] in
  let dst = mk 0.0 and lhs = mk 1.0 and rhs = mk 2.0 in
  let run lane =
    I.run Exo_isa.Neon.vfmla_4xf32_4xf32
      [ I.VBuf dst; I.VBuf lhs; I.VBuf rhs; I.VInt lane ]
  in
  Alcotest.(check bool) "lane 4 of 4 rejected" true
    (raises_runtime (fun () -> run 4));
  run 2;
  Alcotest.(check (float 0.0)) "lane 2 accepted" 2.0 (B.get dst [| 0 |])

let test_contract_division_by_zero () =
  let n = Sym.fresh "N" and out = Sym.fresh "out" in
  let p =
    mk_proc ~name:"t"
      ~args:[ size_arg n; tensor_arg out Dtype.F32 [ int 1 ] ]
      [ assign out [ div (int 4) (var n) ] (flt 1.0) ]
  in
  let b = B.create ~init:0.0 Dtype.F32 [ 1 ] in
  Alcotest.(check bool) "division by zero raises" true
    (raises_runtime (fun () -> I.run p [ I.VInt 0; I.VBuf b ]))

let test_contract_alloc_fresh () =
  (* an alloc inside a loop is a fresh NaN-initialized buffer on every
     iteration: the value written in iteration 0 is not visible in 1 *)
  let out = Sym.fresh "out" and t = Sym.fresh "t" and i = Sym.fresh "i" in
  let p =
    mk_proc ~name:"t"
      ~args:[ tensor_arg out Dtype.F32 [ int 2 ] ]
      [
        loopn i (int 2)
          [
            alloc t Dtype.F32 [ int 1 ];
            SIf (eq (var i) (int 0), [ assign t [ int 0 ] (flt 5.0) ], []);
            assign out [ var i ] (rd t [ int 0 ]);
          ];
      ]
  in
  let b = B.create ~init:0.0 Dtype.F32 [ 2 ] in
  I.run p [ I.VBuf b ];
  Alcotest.(check (float 0.0)) "written in iteration 0" 5.0 (B.get b [| 0 |]);
  Alcotest.(check bool) "fresh (NaN) in iteration 1" true
    (Float.is_nan (B.get b [| 1 |]))

let test_contract_call_window_write () =
  (* a window on the callee's written operand: vst through a row window of
     a 2x8 buffer touches exactly that row's slice *)
  let src = Sym.fresh "src" and dst = Sym.fresh "dst" in
  let p =
    mk_proc ~name:"t"
      ~args:
        [
          tensor_arg dst Dtype.F32 [ int 2; int 8 ];
          tensor_arg ~mem:Exo_isa.Neon.mem src Dtype.F32 [ int 4 ];
        ]
      [
        SCall
          ( Exo_isa.Neon.vst_4xf32,
            [ win dst [ pt (int 1); ivn (int 2) (int 4) ]; win src [ ivn (int 0) (int 4) ] ]
          );
      ]
  in
  let d = B.create ~init:0.0 Dtype.F32 [ 2; 8 ] in
  let s = B.of_array Dtype.F32 [ 4 ] [| 1.0; 2.0; 3.0; 4.0 |] in
  I.run p [ I.VBuf d; I.VBuf s ];
  let total = ref 0.0 in
  for r = 0 to 1 do
    for c = 0 to 7 do
      total := !total +. B.get d [| r; c |]
    done
  done;
  Alcotest.(check (float 0.0)) "slice start" 1.0 (B.get d [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "slice end" 4.0 (B.get d [| 1; 5 |]);
  Alcotest.(check (float 0.0)) "nothing else written" 10.0 !total

let test_contract_f16_instr () =
  (* dtype rounding on an instruction's write path: at 2048 the f16
     spacing is 2, so an f16 fma adding 1·1 per lane is absorbed *)
  let mk v = B.create ~init:v Dtype.F16 [ 8 ] in
  let dst = mk 2048.0 and one = mk 1.0 in
  I.run Exo_isa.Neon.vfmadd_8xf16_8xf16 [ I.VBuf dst; I.VBuf one; I.VBuf one ];
  Alcotest.(check (float 0.0)) "f16 fma absorbs +1 at 2048" 2048.0
    (B.get dst [| 7 |])

(* --- the generated family against its specification ------------------- *)

(* Run one generated kernel (KC, alpha, Ac, Bc, beta, C) on integer data and
   compare with the canonical C[j,i] += sum_k Ac[k,i]*Bc[k,j]: values in
   [-3, 3] keep every partial sum exact in f16 and f32 alike. *)
let kernel_matches_spec ~(kit : Kits.t) ~mr ~nr ~kc ~seed =
  let proc = (Exo_blis.Registry.exo_kernel ~kit ~mr ~nr ()).Family.proc in
  let dt = kit.Kits.dt in
  let st = Random.State.make [| seed; mr; nr |] in
  let mk dims =
    let b = B.create ~init:0.0 dt dims in
    B.fill b (fun _ -> float_of_int (Random.State.int st 7 - 3));
    b
  in
  let ac = mk [ kc; mr ] and bc = mk [ kc; nr ] and c = mk [ nr; mr ] in
  let want =
    Array.init (nr * mr) (fun idx ->
        let j = idx / mr and i = idx mod mr in
        let s = ref (B.get c [| j; i |]) in
        for k = 0 to kc - 1 do
          s := !s +. (B.get ac [| k; i |] *. B.get bc [| k; j |])
        done;
        !s)
  in
  let one = B.of_array dt [ 1 ] [| 1.0 |] in
  I.run proc [ I.VInt kc; I.VBuf one; I.VBuf ac; I.VBuf bc; I.VBuf one; I.VBuf c ];
  List.for_all
    (fun idx -> B.get c [| idx / mr; idx mod mr |] = want.(idx))
    (List.init (nr * mr) Fun.id)

let test_family_f32 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f32 kernel computes C += A·B" mr nr)
        true
        (kernel_matches_spec ~kit:Kits.neon_f32 ~mr ~nr ~kc:24 ~seed:7))
    Family.paper_shapes

let test_family_f16 () =
  List.iter
    (fun (mr, nr) ->
      Alcotest.(check bool)
        (Fmt.str "%dx%d f16 kernel computes C += A·B" mr nr)
        true
        (kernel_matches_spec ~kit:Kits.neon_f16 ~mr ~nr ~kc:16 ~seed:9))
    [ (8, 8); (8, 4); (16, 8); (1, 8) ]

let () =
  Alcotest.run "contracts"
    [
      ( "contracts",
        [
          Alcotest.test_case "top-level precondition" `Quick test_contract_toplevel;
          Alcotest.test_case "bad stride rejected" `Quick test_contract_bad_stride;
          Alcotest.test_case "bad lane rejected" `Quick test_contract_bad_lane;
          Alcotest.test_case "division by zero" `Quick test_contract_division_by_zero;
          Alcotest.test_case "alloc scoping" `Quick test_contract_alloc_fresh;
          Alcotest.test_case "call window" `Quick test_contract_call_window_write;
          Alcotest.test_case "f16 rounding" `Quick test_contract_f16_instr;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "paper family f32" `Quick test_family_f32;
          Alcotest.test_case "family f16" `Quick test_family_f16;
        ] );
    ]
