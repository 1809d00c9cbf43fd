(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                 # every table and figure
     dune exec bench/main.exe -- fig13        # one experiment
     dune exec bench/main.exe -- bechamel     # wall-clock Bechamel benches
     dune exec bench/main.exe -- perf-sim     # compressed vs element cache sim
                                              # + 1-vs-N-domain sweeps
                                              # (writes BENCH_sim.json)
     dune exec bench/main.exe -- perf-gemm    # executable GEMM: kernel tiers,
                                              # paper-scale GEMM, pool
                                              # invariance, batched layers
                                              # (writes BENCH_gemm.json)
     dune exec bench/main.exe -- perf-serve   # cold vs cache-hydrated builds,
                                              # warm daemon request latency
                                              # (writes BENCH_serve.json)
     dune exec bench/main.exe -- -j 4 all     # pool width for parallel sweeps
     dune exec bench/main.exe -- -profile lint # obs tracing + profile report
     dune exec bench/main.exe -- -ledger runs.jsonl perf-gemm
                                              # append a run-ledger record
                                              # (or set $UKRGEN_LEDGER)

   Experiments: fig12 fig13 fig14 tab1 tab2 fig15 fig16 fig17 fig18
   ablation bechamel perf-sim[-smoke] perf-gemm[-smoke]
   perf-serve[-smoke] lint all *)

open Bechamel
module Btoolkit = Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel benches: one Test.make per table/figure harness plus core   *)
(* compiler micro-benchmarks.                                           *)

let test_of_fun name f = Test.make ~name (Staged.stage f)

let bench_tests () =
  let module F = Exo_ukr_gen.Family in
  let module S = Exo_ukr_gen.Steps in
  let module D = Exo_blis.Driver in
  let module M = Exo_blis.Matrix in
  let module G = Exo_blis.Gemm in
  let machine = Exo_isa.Machine.carmel in
  let st = Random.State.make [| 17 |] in
  let a24 = M.random_int 24 16 st
  and b24 = M.random_int 16 36 st
  and c24 = M.random_int 24 36 st in
  let blocking = { Exo_blis.Analytical.mc = 16; kc = 8; nc = 24 } in
  let kernels = Exo_blis.Registry.exo_bank ~mr:8 ~nr:12 () in
  let resnet_layer (l : Exo_workloads.Models.layer) s =
    let m, n, k = Exo_workloads.Models.gemm_dims l in
    ignore (D.time machine s ~m ~n ~k)
  in
  [
    (* core compiler *)
    test_of_fun "sched: full 8x12 pipeline (Section III)" (fun () ->
        ignore (S.packed ~kit:Exo_ukr_gen.Kits.neon_f32 ~mr:8 ~nr:12));
    test_of_fun "sched: generate 1x12 row kernel" (fun () ->
        ignore (F.row Exo_ukr_gen.Kits.neon_f32 ~nr:12));
    test_of_fun "codegen: emit 8x12 C" (fun () ->
        ignore
          (Exo_codegen.C_emit.proc_to_c
             (Exo_blis.Registry.exo_kernel ~mr:8 ~nr:12 ()).F.proc));
    (* per-table/figure harness computations *)
    test_of_fun "fig12: census of the generated kernel" (fun () ->
        ignore (Exo_sim.Trace.of_proc (Exo_blis.Registry.exo_kernel ~mr:8 ~nr:12 ()).F.proc));
    test_of_fun "fig13: solo-mode sweep" (fun () ->
        let base = Exo_blis.Registry.base_8x12 () in
        let blis = Exo_sim.Kernel_model.blis_asm_8x12 base in
        List.iter
          (fun (mu, nu) ->
            ignore (Exo_sim.Kernel_model.solo_gflops machine blis ~mu ~nu ~kc:512);
            ignore
              (Exo_sim.Kernel_model.solo_gflops machine
                 (Exo_blis.Registry.exo_impl ~mr:mu ~nr:nu ())
                 ~mu ~nu ~kc:512))
          F.paper_shapes);
    test_of_fun "fig14: squarish sweep (4 sizes x 4 setups)" (fun () ->
        List.iter
          (fun sz ->
            List.iter
              (fun s -> ignore (D.gflops machine s ~m:sz ~n:sz ~k:sz))
              (D.all_setups ()))
          [ 1000; 2000; 4000; 5000 ]);
    test_of_fun "tab1: recompute Table I via im2row dims" (fun () ->
        List.iter
          (fun l -> ignore (Exo_workloads.Models.gemm_dims l))
          Exo_workloads.Models.resnet50);
    test_of_fun "tab2: recompute Table II via im2row dims" (fun () ->
        List.iter
          (fun l -> ignore (Exo_workloads.Models.gemm_dims l))
          Exo_workloads.Models.vgg16);
    test_of_fun "fig15/16: ResNet50 sweep (20 layers x 4 setups)" (fun () ->
        List.iter
          (fun l -> List.iter (resnet_layer l) (D.all_setups ()))
          Exo_workloads.Models.resnet50);
    test_of_fun "fig17/18: VGG16 sweep (9 layers x 4 setups)" (fun () ->
        List.iter
          (fun l -> List.iter (resnet_layer l) (D.all_setups ()))
          Exo_workloads.Models.vgg16);
    (* numeric substrate *)
    test_of_fun "gemm: 24x36x16 blocked + Exo kernel table" (fun () ->
        let c = M.copy c24 in
        G.blis_ba ~blocking ~mr:8 ~nr:12 ~kernels a24 b24 c);
    test_of_fun "gemm: 24x36x16 naive f32" (fun () ->
        let c = M.copy c24 in
        G.naive_f32 a24 b24 c);
    test_of_fun "workloads: im2row 3x3 on 28x28x32" (fun () ->
        let spec =
          { Exo_workloads.Conv.cin = 32; cout = 16; kh = 3; kw = 3; stride = 1; pad = 1 }
        in
        let input = Exo_workloads.Conv.tensor_create ~init:1.0 28 28 32 in
        ignore (Exo_workloads.Conv.im2row spec input));
    test_of_fun "analytical: blocking for 8x12 on Carmel" (fun () ->
        ignore (Exo_blis.Analytical.compute machine ~mr:8 ~nr:12 ~dtype_bytes:4));
    test_of_fun "scoreboard: 64 iterations of the 8x12 k-loop" (fun () ->
        ignore
          (Exo_sim.Scoreboard.cycles_per_iter machine
             (Exo_blis.Registry.exo_kernel ~mr:8 ~nr:12 ()).F.proc));
    test_of_fun "cache-sim: 96^3 GEMM trace through 3-level LRU" (fun () ->
        ignore
          (Exo_sim.Cache_sim.gemm_trace machine ~mc:64 ~kc:64 ~nc:96 ~mr:8 ~nr:12
             ~m:96 ~n:96 ~k:96));
    test_of_fun "tuner: price one candidate on one DL layer" (fun () ->
        ignore (Exo_blis.Tuner.evaluate machine ~mr:8 ~nr:12 ~m:784 ~n:512 ~k:256));
  ]

let run_bechamel () =
  Fmt.pr "Bechamel wall-clock benchmarks (monotonic clock, ns/run)@.";
  Fmt.pr "%s@." (String.make 78 '-');
  let tests = bench_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Btoolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Fmt.pr "%-55s %12.1f ns/run@." name t
          | _ -> Fmt.pr "%-55s %12s@." name "n/a")
        analyzed)
    tests;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Every BENCH_*.json this harness writes is one Json.t, headed by the  *)
(* shared Obs.Meta member (also in ukrgen lint --tiers --json) with the *)
(* ocamlopt flambda flag added — OCaml-side timings depend on it, so    *)
(* GFLOPS numbers are only comparable across hosts with this block.     *)

module Json = Exo_obs.Obs.Json

let host_isa =
  match Exo_native.Host.isas () with
  | [] -> "generic"
  | l -> String.concat "," (List.map Exo_native.Host.isa_name l)

let write_bench file (members : (string * Json.t) list) =
  let host_cc = Option.value ~default:"none" (Exo_native.Host.cc ()) in
  let meta =
    Exo_obs.Obs.Meta.json ~flambda:Config.flambda ~host_cc ~host_isa
      ~pool_jobs:(Exo_par.Pool.default_jobs ()) ()
  in
  let oc = open_out file in
  output_string oc (Json.pretty (Json.Obj (meta :: members)));
  close_out oc

(* ------------------------------------------------------------------ *)
(* The run ledger: when a path is configured ([-ledger FILE] or          *)
(* $UKRGEN_LEDGER), every perf subcommand appends one schema-versioned   *)
(* JSONL record — keyed by the same provenance fields as the meta        *)
(* member — that [ukrgen report] later renders and gates against the     *)
(* host's baseline window.                                               *)

module Ledger = Exo_ledger.Ledger

let ledger_path : string option ref = ref None

let ledger_append ~bench metrics =
  match !ledger_path with
  | None -> ()
  | Some path ->
      let r =
        Ledger.record ~flambda:Config.flambda
          ~pool_jobs:(Exo_par.Pool.default_jobs ()) ~bench metrics
      in
      Ledger.append ~path r;
      Fmt.pr "ledger: appended %S record to %s@." bench path

(** Adaptive timing: run [f] until at least [min_time] CPU-seconds have
    accumulated, return seconds per run. *)
let time_runs ?(min_time = 0.3) (f : unit -> unit) : float =
  f ();
  (* warm-up: caches, compilation *)
  let rec go n =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    if dt >= min_time then dt /. float_of_int n else go (n * 4)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* perf-sim: the simulation/sweep engine benchmark. Measures the        *)
(* stride-compressed cache simulator against the element-level oracle   *)
(* (same statistics, fraction of the work) and the domain-parallel      *)
(* sweep engine at 1 vs N domains (byte-identical outcomes). Writes     *)
(* BENCH_sim.json.                                                      *)

let run_perf_sim ?(smoke = false) () =
  let module CS = Exo_sim.Cache_sim in
  let module L = Exo_ukr_gen.Lint in
  let machine = Exo_isa.Machine.carmel in
  let min_time = if smoke then 0.05 else 0.3 in
  (* headline trace: the real Carmel hierarchy at the paper's ≥1000³ scale
     under the analytical blocking — exactly the cell the cache ablation
     validates. Smoke mode shrinks to a toy hierarchy and 144³ so the CI
     gate stays fast. *)
  let sim_machine, dim =
    if smoke then
      ( {
          machine with
          Exo_isa.Machine.l1 =
            { Exo_isa.Machine.size_kib = 8; assoc = 4; line_bytes = 64 };
          l2 = { Exo_isa.Machine.size_kib = 64; assoc = 8; line_bytes = 64 };
          l3 = { Exo_isa.Machine.size_kib = 256; assoc = 8; line_bytes = 64 };
        },
        144 )
    else (machine, 1008)
  in
  let b = Exo_blis.Analytical.compute sim_machine ~mr:8 ~nr:12 ~dtype_bytes:4 in
  let mc = b.Exo_blis.Analytical.mc
  and kc = b.Exo_blis.Analytical.kc
  and nc = b.Exo_blis.Analytical.nc in
  Fmt.pr "Simulation & sweep-engine benchmark%s@." (if smoke then " (smoke)" else "");
  Fmt.pr "%s@." (String.make 78 '-');
  Fmt.pr "trace: %s %d³, blocking (mc=%d, kc=%d, nc=%d), 8x12 f32 kernel@."
    (if smoke then "toy hierarchy" else "Carmel")
    dim mc kc nc;
  (* 1. compressed vs element-level cache simulation *)
  let trace () = CS.gemm_trace sim_machine ~mc ~kc ~nc ~mr:8 ~nr:12 ~m:dim ~n:dim ~k:dim in
  let trace_element () =
    CS.gemm_trace_element sim_machine ~mc ~kc ~nc ~mr:8 ~nr:12 ~m:dim ~n:dim ~k:dim
  in
  let fast = trace () and slow = trace_element () in
  if fast <> slow then failwith "perf-sim: compressed and element stats disagree";
  Fmt.pr "compressed and element-level paths agree on every statistic@.";
  (* the element oracle at paper scale runs for seconds per trace, so
     adaptive accumulation is replaced by explicit best-of-k trials *)
  let best_of k f =
    let samples = ref [] in
    for _ = 1 to k do
      let t0 = Sys.time () in
      ignore (f ());
      samples := (Sys.time () -. t0) :: !samples
    done;
    (List.fold_left Float.min infinity !samples, List.rev !samples)
  in
  let t_fast, fast_samples = best_of 3 trace in
  let t_slow, _ = best_of 2 trace_element in
  let refs = float_of_int fast.CS.refs in
  let sim_speedup = t_slow /. t_fast in
  Fmt.pr "element oracle  : %10.1f ms/trace  (%8.1f Mrefs/s)@." (t_slow *. 1e3)
    (refs /. t_slow /. 1e6);
  Fmt.pr "compressed runs : %10.1f ms/trace  (%8.1f Mrefs/s)@." (t_fast *. 1e3)
    (refs /. t_fast /. 1e6);
  Fmt.pr "speedup         : %10.1fx %s@." sim_speedup
    (if sim_speedup >= 10.0 then "(>= 10x: ok)" else "(below the 10x target!)");
  (* 2. the parallel sweep engine: lint gate and tuner sweep at 1 vs N *)
  let domains = Domain.recommended_domain_count () in
  let jobs_n = max 2 (Exo_par.Pool.default_jobs ()) in
  let o1 = ref None and on = ref None in
  let t_lint1 = time_runs ~min_time (fun () -> o1 := Some (L.run ~jobs:1 ())) in
  let t_lintn = time_runs ~min_time (fun () -> on := Some (L.run ~jobs:jobs_n ())) in
  if !o1 <> !on then failwith "perf-sim: lint outcomes differ across pool widths";
  Fmt.pr "lint gate (%d kernels): 1 domain %.1f ms | %d domains %.1f ms (%.2fx); \
          outcomes identical@."
    (List.length (Option.get !o1).L.entries)
    (t_lint1 *. 1e3) jobs_n (t_lintn *. 1e3) (t_lint1 /. t_lintn);
  let sweep_problem jobs =
    Exo_blis.Tuner.clear_cache ();
    Exo_blis.Tuner.sweep machine ~jobs ~m:784 ~n:512 ~k:256
  in
  let s1 = ref [] and sn = ref [] in
  let t_sweep1 = time_runs ~min_time (fun () -> s1 := sweep_problem 1) in
  let t_sweepn = time_runs ~min_time (fun () -> sn := sweep_problem jobs_n) in
  if !s1 <> !sn then failwith "perf-sim: tuner rankings differ across pool widths";
  Fmt.pr "tuner sweep: 1 domain %.3f ms | %d domains %.3f ms (%.2fx); rankings \
          identical@."
    (t_sweep1 *. 1e3) jobs_n (t_sweepn *. 1e3) (t_sweep1 /. t_sweepn);
  write_bench "BENCH_sim.json"
    Json.
      [
        ("smoke", Bool smoke);
        ("trace_machine", Str (if smoke then "toy" else "carmel"));
        ("trace_blocking", Arr [ of_int mc; of_int kc; of_int nc ]);
        ("trace_dim", of_int dim);
        ("trace_refs", of_int fast.CS.refs);
        ("element_mrefs_per_sec", Num (refs /. t_slow /. 1e6));
        ("compressed_mrefs_per_sec", Num (refs /. t_fast /. 1e6));
        ("compressed_speedup", Num sim_speedup);
        ("domains_available", of_int domains);
        ("pool_jobs", of_int jobs_n);
        ("lint_ms_1job", Num (t_lint1 *. 1e3));
        ("lint_ms_njobs", Num (t_lintn *. 1e3));
        ("lint_speedup", Num (t_lint1 /. t_lintn));
        ("lint_outcomes_identical", Bool true);
        ("tuner_ms_1job", Num (t_sweep1 *. 1e3));
        ("tuner_ms_njobs", Num (t_sweepn *. 1e3));
        ("tuner_speedup", Num (t_sweep1 /. t_sweepn));
        ("tuner_rankings_identical", Bool true);
      ];
  (* smoke runs trace a toy hierarchy at 144³ — a different scale entirely —
     so they ledger under their own bench name and never mix baselines with
     full runs *)
  ledger_append ~bench:(if smoke then "perf-sim-smoke" else "perf-sim")
    [
      Ledger.metric_of_samples ~unit_:"Mrefs/s" Ledger.Higher
        "sim.compressed_mrefs_per_sec"
        (List.map (fun t -> refs /. t /. 1e6) fast_samples);
      Ledger.metric ~unit_:"Mrefs/s" Ledger.Info "sim.element_mrefs_per_sec"
        (refs /. t_slow /. 1e6);
      Ledger.metric ~unit_:"x" Ledger.Higher "sim.compressed_speedup" sim_speedup;
      Ledger.metric ~unit_:"ms" Ledger.Lower "lint.ms_njobs" (t_lintn *. 1e3);
      Ledger.metric ~unit_:"ms" Ledger.Lower "tuner.ms_njobs" (t_sweepn *. 1e3);
    ];
  Fmt.pr "wrote BENCH_sim.json@.@."

(* ------------------------------------------------------------------ *)
(* perf-gemm: the executable GEMM path. Checks the Bigarray and native  *)
(* kernel tiers bit-exact against the interpreter on one 8x12 call at   *)
(* paper kc and times both, times a full paper-scale GEMM through the   *)
(* macro-kernel (validated exactly against naive f32 and the Bigarray   *)
(* bank, with zero interpreter fallbacks demanded of the complete       *)
(* table), checks bit-identical C at pool widths 1/2/4 over the         *)
(* (jc x ic) task grid —                                                *)
(* including a small-n ResNet50 layer shape where jc alone is one task  *)
(* — and runs a DNN workload slice through Gemm.batch_ba. Writes        *)
(* BENCH_gemm.json; any numeric mismatch, fallback dispatch, or width   *)
(* divergence is a hard process failure so CI can assert via exit code. *)

let run_perf_gemm ?(smoke = false) () =
  let module R = Exo_blis.Registry in
  let module M = Exo_blis.Matrix in
  let module G = Exo_blis.Gemm in
  let module W = Exo_workloads.Models in
  let machine = Exo_isa.Machine.carmel in
  let min_time = if smoke then 0.05 else 0.3 in
  Fmt.pr "Executable-GEMM benchmark%s@." (if smoke then " (smoke)" else "");
  Fmt.pr "%s@." (String.make 78 '-');
  (* 1. one micro-kernel call per tier at the paper blocking's kc, the
     interpreter as the reference tile *)
  let kc = if smoke then 128 else 512 in
  let mr = 8 and nr = 12 in
  let st = Random.State.make [| 42 |] in
  let mk n = Array.init n (fun _ -> float_of_int (Random.State.int st 7 - 3)) in
  let ac = mk (kc * mr) and bc = mk (kc * nr) in
  let c0 = mk (nr * mr) in
  let c1 = Array.copy c0 in
  R.exo_ukr_interp () ~kc ~mr ~nr ~ac ~ao:0 ~bc ~bo:0 ~c:c1;
  (* the monomorphized Bigarray tier on the same tile, through the real
     dispatch table (counting wrapper included) *)
  let table = R.exo_table ~mr ~nr () in
  (* static translation validation, cross-checked against the dynamic
     integer certification: every table entry must prove bounds, write-set
     containment and accumulation shape (tierlint), the registry's own
     build-time verdicts must agree, and the independently re-run dynamic
     probe must accept every statically proved entry. Any disagreement
     between the two certification routes is a hard failure — it means one
     of them is wrong. *)
  let module L = Exo_ukr_gen.Lint in
  let tiers =
    L.run_tiers ~kits:[ Exo_ukr_gen.Kits.neon_f32 ] ~jobs:1 ~mr ~nr ()
  in
  let tk = List.hd tiers.L.tier_kits in
  let reg_certified = Array.for_all Fun.id table.R.t_proved in
  Fmt.pr
    "static tier validation: proved %d/%d, probe disagreements %d; registry \
     build: %s@."
    tk.L.tk_proved tk.L.tk_total tk.L.tk_disagreements
    (if reg_certified then "every entry statically certified"
     else "UNPROVED entries");
  if not (L.tiers_ok tiers) then
    failwith
      "perf-gemm: static tier validation failed or disagreed with the \
       dynamic probe";
  if not reg_certified then
    failwith
      "perf-gemm: registry served a table entry without a static certificate";
  (* the Bigarray-tier entry (pre-upgrade bank): the native tier's A side *)
  let ba_ukr = R.table_base_entry table ~mr ~nr in
  let to_ba arr =
    let b =
      Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout
        (Array.length arr)
    in
    Array.iteri (Bigarray.Array1.set b) arr;
    b
  in
  let ac_ba = to_ba ac and bc_ba = to_ba bc in
  let c3 = to_ba c0 in
  ba_ukr ~kc ~ac:ac_ba ~ao:0 ~bc:bc_ba ~bo:0 ~c:c3 ~co:0;
  Array.iteri
    (fun i v ->
      if not (Float.equal (Bigarray.Array1.get c3 i) v) then
        failwith "perf-gemm: Bigarray and interpreted kernels disagree")
    c1;
  Fmt.pr "kernel tiers agree bit-exactly on the C tile@.";
  let t_ba =
    let c = to_ba c0 in
    time_runs ~min_time (fun () ->
        ba_ukr ~kc ~ac:ac_ba ~ao:0 ~bc:bc_ba ~bo:0 ~c ~co:0)
  in
  (* the serving table entry: JIT'd machine code when the native upgrade
     certified this host, the Bigarray executor otherwise *)
  let nat_info = table.R.t_native_info in
  let serving_ukr = R.table_entry table ~mr ~nr in
  let c4 = to_ba c0 in
  serving_ukr ~kc ~ac:ac_ba ~ao:0 ~bc:bc_ba ~bo:0 ~c:c4 ~co:0;
  Array.iteri
    (fun i v ->
      if not (Float.equal (Bigarray.Array1.get c4 i) v) then
        failwith "perf-gemm: serving (native) and interpreted kernels disagree")
    c1;
  let t_native_ukr =
    let c = to_ba c0 in
    time_runs ~min_time (fun () ->
        serving_ukr ~kc ~ac:ac_ba ~ao:0 ~bc:bc_ba ~bo:0 ~c ~co:0)
  in
  Fmt.pr "native tier        : %s (target %s, cc %s, %d/%d entries, %s)@."
    (if nat_info.R.ni_enabled then "enabled" else "DEGRADED")
    nat_info.R.ni_target nat_info.R.ni_cc nat_info.R.ni_entries (mr * nr)
    nat_info.R.ni_reason;
  Fmt.pr "monomorphized ba   : %12.1f us/call@." (t_ba *. 1e6);
  Fmt.pr "native jit         : %12.1f us/call@." (t_native_ukr *. 1e6);
  Fmt.pr "speedup (native)   : %12.1fx vs bigarray (per ukr call)@."
    (t_ba /. t_native_ukr);
  (* 2. a full paper-scale GEMM through the macro-kernel, validated exactly
     against the f32-rounded naive reference, then re-run at pool widths
     2 and 4 — C must be bit-identical at every width *)
  let dim = if smoke then 144 else 1008 in
  let blocking = Exo_blis.Analytical.compute machine ~mr ~nr ~dtype_bytes:4 in
  let a = M.random_int dim dim st and b = M.random_int dim dim st in
  let c_init = M.random_int dim dim st in
  let kernels = R.exo_bank ~mr ~nr () in
  let run_width jobs =
    let c = M.copy c_init in
    let pool = Exo_par.Pool.create ~jobs () in
    let t0 = Unix.gettimeofday () in
    G.blis_ba ~pool ~blocking ~mr ~nr ~kernels a b c;
    (c, Unix.gettimeofday () -. t0)
  in
  R.reset_dispatch_counts ();
  let c_serial, t_serial = run_width 1 in
  (* the fallbacks-zero gate: with the complete monomorphized table no
     tile of a full f32 GEMM may reach the interpreter *)
  let fast_calls, fallback_calls = R.ukr_dispatch_counts () in
  let native_calls_run, ba_calls_run, _ = R.ukr_tier_counts () in
  Fmt.pr "dispatch: %d monomorphized calls, %d interpreter fallbacks@." fast_calls
    fallback_calls;
  Fmt.pr "tier dispatch: %d native, %d bigarray, %d fallback@." native_calls_run
    ba_calls_run fallback_calls;
  if fallback_calls > 0 then
    failwith "perf-gemm: interpreter fallbacks fired on the full GEMM run";
  (* with the native tier serving, EVERY tile of the full GEMM must
     dispatch into machine code — a Bigarray call here means a hole in the
     upgraded bank *)
  if nat_info.R.ni_enabled && native_calls_run = 0 then
    failwith "perf-gemm: native tier enabled but no native dispatches fired";
  if nat_info.R.ni_enabled && nat_info.R.ni_entries = mr * nr
     && ba_calls_run > 0 then
    failwith
      "perf-gemm: fully upgraded native bank leaked Bigarray-tier dispatches";
  (* two more serial timings: the run ledger's robust statistics
     (median / MAD noise bound) want k >= 3 samples per run *)
  let serial_samples = t_serial :: List.init 2 (fun _ -> snd (run_width 1)) in
  (* re-zero between phases: the width sweep and batch sections below get
     their own fallbacks-zero gate instead of inheriting these counts *)
  R.reset_dispatch_counts ();
  let gflops_of t =
    2.0 *. float_of_int dim *. float_of_int dim *. float_of_int dim /. t /. 1e9
  in
  let gemm_gflops = gflops_of t_serial in
  Fmt.pr "%d^3 GEMM, 1 domain : %8.2f s  (%.3f GFLOPS)@." dim t_serial gemm_gflops;
  let c_ref = M.copy c_init in
  G.naive_f32 a b c_ref;
  if not (M.equal c_serial c_ref) then
    failwith "perf-gemm: macro-kernel disagrees with naive f32 reference";
  Fmt.pr "validated exactly against naive f32@.";
  (* the Bigarray tier on the same problem through the pre-upgrade bank:
     the native tier's before/after A-B — the serving (native) result must
     be bit-identical, and on a full run with the tier serving it must be
     >= 3x faster (the issue's headline gate) *)
  let t_ba_gemm =
    let c = M.copy c_init in
    let pool = Exo_par.Pool.create ~jobs:1 () in
    let t0 = Unix.gettimeofday () in
    G.blis_ba ~pool ~blocking ~mr ~nr ~kernels:(R.exo_bank_ba ~mr ~nr ()) a b c;
    let t = Unix.gettimeofday () -. t0 in
    if not (M.equal c c_serial) then
      failwith "perf-gemm: native and Bigarray tiers disagree on the GEMM result";
    t
  in
  let native_speedup = t_ba_gemm /. t_serial in
  Fmt.pr "%d^3 GEMM, ba tier  : %8.2f s  (%.3f GFLOPS, native %.2fx, \
          bit-identical)@."
    dim t_ba_gemm (gflops_of t_ba_gemm) native_speedup;
  if nat_info.R.ni_enabled && not smoke then begin
    if nat_info.R.ni_rejected > 0 then
      failwith "perf-gemm: native entries failed certification on a full run";
    if nat_info.R.ni_entries <> mr * nr then
      failwith "perf-gemm: native bank is incomplete on a full run";
    if native_speedup < 3.0 then
      failwith
        (Printf.sprintf
           "perf-gemm: native tier speedup %.2fx is below the 3x gate"
           native_speedup)
  end;
  (* the analytical nc/mc can exceed the whole problem (one task), which
     would make the width sweep vacuous — split BOTH n and m into >= 4
     blocks so the (jc × ic) task grid gives several domains real work *)
  let par_blocking =
    let quarter = (dim + 3) / 4 in
    let nc = max nr (quarter / nr * nr) in
    let mc = max mr (quarter / mr * mr) in
    { blocking with Exo_blis.Analytical.nc; mc }
  in
  let par_tasks =
    ((dim + par_blocking.Exo_blis.Analytical.nc - 1)
    / par_blocking.Exo_blis.Analytical.nc)
    * ((dim + par_blocking.Exo_blis.Analytical.mc - 1)
      / par_blocking.Exo_blis.Analytical.mc)
  in
  let run_par jobs =
    let c = M.copy c_init in
    let pool = Exo_par.Pool.create ~jobs () in
    let t0 = Unix.gettimeofday () in
    G.blis_ba ~pool ~blocking:par_blocking ~mr ~nr ~kernels a b c;
    (c, Unix.gettimeofday () -. t0)
  in
  let c_par1, t_par1 = run_par 1 in
  (* nc/mc only tile the output space — they never reorder any element's
     accumulation — so the split run must still match the reference *)
  if not (M.equal c_par1 c_ref) then
    failwith "perf-gemm: block-split blocking changed the result";
  Fmt.pr "width sweep over a %d-task (jc x ic) grid@." par_tasks;
  let par_times, jobs_identical =
    List.fold_left
      (fun (times, ok) jobs ->
        let c, t = run_par jobs in
        let same = M.equal c c_par1 in
        Fmt.pr "%d^3 GEMM, %d domains: %7.2f s  (%.2fx)  %s@." dim jobs t
          (t_par1 /. t)
          (if same then "(bit-identical)" else "(MISMATCH)");
        (times @ [ (jobs, t) ], ok && same))
      ([ (1, t_par1) ], true)
      [ 2; 4 ]
  in
  if not jobs_identical then
    failwith "perf-gemm: pool widths disagree on the GEMM result";
  (* 3. jobs invariance on a small-n GEMM (ResNet50 layer 2: a 1x1 conv's
     im2row shape, n = 64 « the analytical nc): the jc-only split yields a
     single task here, so this exercises — and pins — the ic fan-out *)
  let sn_m, sn_n, sn_k =
    let l2 = List.nth W.resnet50 1 in
    let m, n, k = W.gemm_dims l2 in
    if smoke then (min m 784, n, k) else (m, n, k)
  in
  let sn_blocking =
    (* nc covers all of n (the jc axis degenerates to one block); mc
       quarters m so the task grid still has >= 4 cells *)
    let mc = max mr ((sn_m + 3) / 4 / mr * mr) in
    { blocking with Exo_blis.Analytical.mc; nc = max nr sn_n }
  in
  let sn_jc = (sn_n + sn_blocking.Exo_blis.Analytical.nc - 1)
              / sn_blocking.Exo_blis.Analytical.nc in
  let sn_ic = (sn_m + sn_blocking.Exo_blis.Analytical.mc - 1)
              / sn_blocking.Exo_blis.Analytical.mc in
  if sn_jc <> 1 || sn_ic < 2 then
    failwith "perf-gemm: small-n shape does not exercise the ic fan-out";
  let sn_a = M.random_int sn_m sn_k st and sn_b = M.random_int sn_k sn_n st in
  let sn_c_init = M.random_int sn_m sn_n st in
  let run_small jobs =
    let c = M.copy sn_c_init in
    let pool = Exo_par.Pool.create ~jobs () in
    let t0 = Unix.gettimeofday () in
    G.blis_ba ~pool ~blocking:sn_blocking ~mr ~nr ~kernels sn_a sn_b c;
    (c, Unix.gettimeofday () -. t0)
  in
  let sn_ref = M.copy sn_c_init in
  G.naive_f32 sn_a sn_b sn_ref;
  let sn_c1, sn_t1 = run_small 1 in
  if not (M.equal sn_c1 sn_ref) then
    failwith "perf-gemm: small-n GEMM disagrees with naive f32 reference";
  let sn_times, sn_identical =
    List.fold_left
      (fun (times, ok) jobs ->
        let c, t = run_small jobs in
        (times @ [ (jobs, t) ], ok && M.equal c sn_c1))
      ([ (1, sn_t1) ], true)
      [ 2; 4 ]
  in
  Fmt.pr
    "small-n GEMM %dx%dx%d (ResNet50 layer 2), %d ic-tasks: %s at widths \
     1/2/4@."
    sn_m sn_n sn_k sn_ic
    (if sn_identical then "bit-identical" else "MISMATCH");
  if not sn_identical then
    failwith "perf-gemm: pool widths disagree on the small-n GEMM result";
  (* 4. a DNN workload slice through Gemm.batch_ba: one arena + one pool
     for the whole layer list *)
  let layers =
    let by_flops =
      List.sort
        (fun l1 l2 ->
          let f (l : W.layer) = let m, n, k = W.gemm_dims l in m * n * k in
          compare (f l1) (f l2))
        W.resnet50
    in
    List.filteri (fun i _ -> i < if smoke then 2 else 5) by_flops
  in
  let probs =
    List.map
      (fun (l : W.layer) ->
        let m, n, k = W.gemm_dims l in
        let a = M.random_int m k st and b = M.random_int k n st in
        let c = M.random_int m n st in
        {
          G.p_a = a;
          p_b = b;
          p_c = c;
          p_alpha = 1.0;
          p_beta = 1.0;
          p_blocking = blocking;
          p_mr = mr;
          p_nr = nr;
        })
      layers
  in
  let ws = G.workspace () in
  let t0 = Unix.gettimeofday () in
  G.batch_ba ~ws ~kernels probs;
  let t_batch = Unix.gettimeofday () -. t0 in
  let batch_flops =
    List.fold_left
      (fun acc l ->
        let m, n, k = W.gemm_dims l in
        acc +. (2.0 *. float_of_int (m * n * k)))
      0.0 layers
  in
  let batch_gflops = batch_flops /. t_batch /. 1e9 in
  Fmt.pr "ResNet50 slice (%d layers) via Gemm.batch_ba: %.2f s  (%.3f GFLOPS)@."
    (List.length layers) t_batch batch_gflops;
  (* the post-reset phases (width sweeps, small-n, batch) get the same
     fallbacks-zero gate as the serial run *)
  let _, phase2_fallback = R.ukr_dispatch_counts () in
  if phase2_fallback > 0 then
    failwith
      "perf-gemm: interpreter fallbacks fired in the sweep/batch phases";
  (* 5. measured-vs-model attribution for the run ledger: the analytical
     kernel model's predicted solo GFLOPS and machine peak, the cache
     simulator's DRAM-traffic prediction under this blocking, and a traced
     serial run's per-phase span breakdown *)
  let module KM = Exo_sim.Kernel_model in
  let module CS = Exo_sim.Cache_sim in
  let module Obs = Exo_obs.Obs in
  let impl = R.exo_impl ~mr ~nr () in
  let model_gflops =
    KM.solo_gflops machine impl ~mu:mr ~nu:nr
      ~kc:blocking.Exo_blis.Analytical.kc
  in
  let model_peak = KM.peak machine impl in
  let sim_stats =
    CS.gemm_trace machine ~mc:blocking.Exo_blis.Analytical.mc
      ~kc:blocking.Exo_blis.Analytical.kc ~nc:blocking.Exo_blis.Analytical.nc
      ~mr ~nr ~m:dim ~n:dim ~k:dim
  in
  let sim_dram_mb =
    float_of_int (CS.dram_traffic_bytes machine sim_stats) /. 1e6
  in
  let phases =
    (* one traced serial run; this clobbers any ambient -profile trace,
       which is acceptable — CI never combines -profile with perf-gemm *)
    let was_enabled = Obs.enabled () in
    Obs.reset ();
    Obs.enable ();
    ignore (run_width 1);
    if not was_enabled then Obs.disable ();
    let totals = Obs.Export.span_totals (Obs.drain ()) in
    let tot name =
      match List.assoc_opt name totals with Some (_, t, _) -> t | None -> 0.0
    in
    let self name =
      match List.assoc_opt name totals with Some (_, _, s) -> s | None -> 0.0
    in
    let pack_a = tot "gemm.pack_a" and pack_b = tot "gemm.pack_b" in
    let c_block = tot "gemm.c_block" in
    let other =
      Float.max 0.0
        (tot "gemm.blis_ba" -. pack_a -. pack_b -. c_block
       -. tot "gemm.macro_kernel")
    in
    [
      ("pack_a", pack_a);
      ("pack_b", pack_b);
      ("c_block", c_block);
      ("macro", self "gemm.macro_kernel");
      ("ukr", tot "gemm.ukr");
      ("other", other);
    ]
  in
  let best_gflops =
    List.fold_left (fun acc t -> Float.max acc (gflops_of t)) 0.0 serial_samples
  in
  Fmt.pr
    "attribution: measured %.3f GFLOPS | model %.2f GFLOPS (eff %.4f) | peak \
     %.2f GFLOPS | sim DRAM %.1f MB@."
    best_gflops model_gflops
    (best_gflops /. model_gflops)
    model_peak sim_dram_mb;
  Fmt.pr "phase breakdown (traced serial run): %s@."
    (String.concat ", "
       (List.map (fun (n, s) -> Printf.sprintf "%s %.3fs" n s) phases));
  (* the width sweeps go up to 4 domains whatever the host has: flag runs
     where width 4 was oversubscribed, whose seconds_by_width timings
     measure scheduling pressure rather than parallel speedup *)
  let host_cores = Domain.recommended_domain_count () in
  let oversubscribed = host_cores < 4 in
  let by_width times =
    Json.Obj (List.map (fun (j, t) -> (string_of_int j, Json.Num t)) times)
  in
  write_bench "BENCH_gemm.json"
    Json.
      [
        ("smoke", Bool smoke);
        ( "ukr",
          Obj
            [
              ("kernel", Str (Printf.sprintf "uk_%dx%d_neon-f32" mr nr));
              ("kc", of_int kc);
              ("bigarray_us_per_call", Num (t_ba *. 1e6));
            ] );
        ( "native",
          Obj
            [
              ("native_enabled", Bool nat_info.R.ni_enabled);
              ("target", Str nat_info.R.ni_target);
              ("cc", Str nat_info.R.ni_cc);
              ("isa", Str host_isa);
              ("entries", of_int nat_info.R.ni_entries);
              ("rejected", of_int nat_info.R.ni_rejected);
              ("reason", Str nat_info.R.ni_reason);
              ("native_us_per_call", Num (t_native_ukr *. 1e6));
              ("native_calls", of_int native_calls_run);
              ("bigarray_seconds_1job", Num t_ba_gemm);
              ("speedup_vs_bigarray", Num native_speedup);
              ("bit_exact_vs_bigarray", Bool true);
            ] );
        ( "tierlint",
          Obj
            [
              ("proved", of_int tk.L.tk_proved);
              ("total", of_int tk.L.tk_total);
              ("probe_disagreements", of_int tk.L.tk_disagreements);
              ("registry_certified", Bool reg_certified);
            ] );
        ( "gemm",
          Obj
            [
              ("dim", of_int dim);
              ( "blocking",
                let { Exo_blis.Analytical.mc; kc; nc } = blocking in
                Arr [ of_int mc; of_int kc; of_int nc ] );
              ("seconds_1job", Num t_serial);
              ("gflops_1job", Num gemm_gflops);
              ("fast_calls", of_int fast_calls);
              ("fallback_calls", of_int fallback_calls);
              ("sweep_batch_fallback_calls", of_int phase2_fallback);
              ("validated_vs_naive_f32", Bool true);
            ] );
        ( "jobs_invariance",
          Obj
            [
              ("nc_split", of_int par_blocking.Exo_blis.Analytical.nc);
              ("mc_split", of_int par_blocking.Exo_blis.Analytical.mc);
              ("tasks", of_int par_tasks);
              ("host_cores", of_int host_cores);
              ("oversubscribed", Bool oversubscribed);
              ("seconds_by_width", by_width par_times);
              ("identical", Bool jobs_identical);
            ] );
        ( "small_n",
          Obj
            [
              ("layer", Str "resnet50 layer 2");
              ("m", of_int sn_m);
              ("n", of_int sn_n);
              ("k", of_int sn_k);
              ("jc_tasks", of_int sn_jc);
              ("ic_tasks", of_int sn_ic);
              ("host_cores", of_int host_cores);
              ("oversubscribed", Bool oversubscribed);
              ("seconds_by_width", by_width sn_times);
              ("jobs_identical", Bool sn_identical);
              ("small_n_validated_vs_naive_f32", Bool true);
            ] );
        ( "batch",
          Obj
            [
              ("model", Str "resnet50");
              (* Gemm.batch_ba ran the serving bank: machine code whenever
                 the native tier is enabled *)
              ( "tier",
                Str (if nat_info.R.ni_enabled then "native" else "bigarray") );
              ( "layers",
                Arr
                  (List.map
                     (fun (l : W.layer) ->
                       let m, n, k = W.gemm_dims l in
                       Obj
                         [
                           ("id", of_int l.W.id);
                           ("m", of_int m);
                           ("n", of_int n);
                           ("k", of_int k);
                         ])
                     layers) );
              ("seconds", Num t_batch);
              ("gflops", Num batch_gflops);
            ] );
      ];
  ledger_append ~bench:(if smoke then "perf-gemm-smoke" else "perf-gemm")
    ([
       Ledger.metric_of_samples ~unit_:"GFLOPS" Ledger.Higher "gemm.gflops_1job"
         (List.map gflops_of serial_samples);
       Ledger.metric ~unit_:"us" Ledger.Lower "ukr.bigarray_us_per_call"
         (t_ba *. 1e6);
       Ledger.metric ~unit_:"s" Ledger.Info "gemm.bigarray_seconds_1job"
         t_ba_gemm;
       Ledger.metric ~unit_:"GFLOPS" Ledger.Info "batch.gflops" batch_gflops;
       Ledger.metric Ledger.Info "attr.dim" (float_of_int dim);
       Ledger.metric ~unit_:"GFLOPS" Ledger.Info "attr.measured_gflops"
         best_gflops;
       Ledger.metric ~unit_:"GFLOPS" Ledger.Info "attr.model_gflops"
         model_gflops;
       Ledger.metric ~unit_:"GFLOPS" Ledger.Info "attr.model_peak_gflops"
         model_peak;
       Ledger.metric ~unit_:"MB" Ledger.Info "attr.sim_dram_mb" sim_dram_mb;
     ]
    @ (if nat_info.R.ni_enabled then
         [
           Ledger.metric ~unit_:"x" Ledger.Higher
             "gemm.native_speedup_vs_bigarray" native_speedup;
           Ledger.metric ~unit_:"us" Ledger.Lower "ukr.native_us_per_call"
             (t_native_ukr *. 1e6);
         ]
       else [])
    @ List.map
        (fun (n, s) ->
          Ledger.metric ~unit_:"s" Ledger.Info ("attr.phase." ^ n) s)
        phases);
  Fmt.pr "wrote BENCH_gemm.json@.@."

(* ------------------------------------------------------------------ *)
(* perf-serve: cold-start elimination. Measures (a) the cold kernel-    *)
(* table build against a rebuild hydrated from the content-addressed    *)
(* persistent store — every hydrated executor must be bit-identical to  *)
(* the freshly compiled one and re-prove under tierlint — and the       *)
(* tuner-sweep ranking surviving an in-memory-memo wipe from disk;      *)
(* (b) warm kernel-request latency against a live ukrgen-serve daemon   *)
(* (concurrent clients, per-request Obs spans) vs a cold one-shot       *)
(* ukrgen subprocess, gated at >= 50x. Writes BENCH_serve.json.         *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let run_perf_serve ?(smoke = false) () =
  let module R = Exo_blis.Registry in
  let module Store = Exo_cache.Store in
  let module L = Exo_ukr_gen.Lint in
  let module Serve = Exo_serve.Serve in
  let module Obs = Exo_obs.Obs in
  let machine = Exo_isa.Machine.carmel in
  let mr = 8 and nr = 12 in
  Fmt.pr "Serve & persistent-cache benchmark%s@." (if smoke then " (smoke)" else "");
  Fmt.pr "%s@." (String.make 78 '-');
  (* a private store: the bench must not read or pollute the user's *)
  let cache_root = Filename.temp_file "ukrgen-bench-cache" "" in
  Sys.remove cache_root;
  Store.set_ambient (Some cache_root);
  Fun.protect ~finally:(fun () ->
      Store.set_ambient None;
      rm_rf cache_root)
  @@ fun () ->
  (* 1. cold build: schedule + certify + lower all 96 entries, publishing
     one artifact per entry as it goes *)
  Store.reset_counts ();
  let t0 = Unix.gettimeofday () in
  let table_cold = R.exo_table ~mr ~nr () in
  let t_cold_build = Unix.gettimeofday () -. t0 in
  let cold_hits, cold_misses = Store.hit_miss_counts () in
  let cold_writes, _ = Store.write_counts () in
  Fmt.pr "cold table build    : %8.3f s  (%d misses, %d artifacts written)@."
    t_cold_build cold_misses cold_writes;
  (* 2. hydrated rebuild: wipe every in-memory memo, rebuild from disk *)
  R.clear_memos_for_bench ();
  Store.reset_counts ();
  let t0 = Unix.gettimeofday () in
  let table_warm = R.exo_table ~mr ~nr () in
  let t_warm_build = Unix.gettimeofday () -. t0 in
  let warm_hits, warm_misses = Store.hit_miss_counts () in
  let warm_writes, _ = Store.write_counts () in
  let build_speedup = t_cold_build /. t_warm_build in
  Fmt.pr "hydrated table build: %8.3f s  (%d hits, %d misses; %.1fx)@."
    t_warm_build warm_hits warm_misses build_speedup;
  if warm_hits = 0 || warm_misses > 0 then
    failwith "perf-serve: hydrated rebuild missed the persistent cache";
  if warm_writes > 0 then
    failwith "perf-serve: hydrated rebuild re-published artifacts";
  (* correctness gate A: every hydrated executor bit-identical to the
     freshly compiled one, on every (mr' x nr') entry *)
  let mk_ba st n =
    let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
    for x = 0 to n - 1 do
      Bigarray.Array1.set b x (float_of_int (Random.State.int st 7 - 3))
    done;
    b
  in
  let kc_chk = 16 in
  for i = 1 to mr do
    for j = 1 to nr do
      let st = Random.State.make [| i; j; kc_chk |] in
      let ac = mk_ba st (kc_chk * i) and bc = mk_ba st (kc_chk * j) in
      let c_cold = mk_ba st (i * j) in
      let c_warm = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (i * j) in
      Bigarray.Array1.blit c_cold c_warm;
      (R.table_entry table_cold ~mr:i ~nr:j)
        ~kc:kc_chk ~ac ~ao:0 ~bc ~bo:0 ~c:c_cold ~co:0;
      (R.table_entry table_warm ~mr:i ~nr:j)
        ~kc:kc_chk ~ac ~ao:0 ~bc ~bo:0 ~c:c_warm ~co:0;
      for x = 0 to (i * j) - 1 do
        if
          not
            (Float.equal
               (Bigarray.Array1.get c_cold x)
               (Bigarray.Array1.get c_warm x))
        then
          failwith
            (Printf.sprintf
               "perf-serve: hydrated %dx%d executor diverges from the fresh one"
               i j)
      done
    done
  done;
  Fmt.pr "hydrated executors bit-identical to freshly compiled, all %d entries@."
    (mr * nr);
  (* correctness gate B: the hydrated table's static certification is
     intact — tierlint re-proves all 96 entries and the table agrees *)
  let tiers = L.run_tiers ~kits:[ Exo_ukr_gen.Kits.neon_f32 ] ~jobs:1 ~mr ~nr () in
  let tk = List.hd tiers.L.tier_kits in
  if not (L.tiers_ok tiers) || tk.L.tk_proved <> tk.L.tk_total then
    failwith "perf-serve: tierlint failed on the hydrated build";
  if not (Array.for_all Fun.id table_warm.R.t_proved) then
    failwith "perf-serve: hydrated table entry without a static certificate";
  Fmt.pr "tierlint on the hydrated build: proved %d/%d@." tk.L.tk_proved
    tk.L.tk_total;
  (* 3. tuner-sweep persistence: wipe the in-memory memo, re-rank from disk *)
  let tm, tn, tkk = if smoke then (96, 96, 96) else (784, 512, 256) in
  Exo_blis.Tuner.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let rank_cold = Exo_blis.Tuner.sweep machine ~m:tm ~n:tn ~k:tkk in
  let t_tuner_cold = Unix.gettimeofday () -. t0 in
  Exo_blis.Tuner.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let rank_disk = Exo_blis.Tuner.sweep machine ~m:tm ~n:tn ~k:tkk in
  let t_tuner_disk = Unix.gettimeofday () -. t0 in
  if rank_cold <> rank_disk then
    failwith "perf-serve: persisted tuner ranking differs from the fresh sweep";
  Fmt.pr "tuner sweep %dx%dx%d: fresh %.1f ms, from disk %.1f ms, ranking \
          identical@."
    tm tn tkk (t_tuner_cold *. 1e3) (t_tuner_disk *. 1e3);
  let kernel_entries, family_entries, tuner_entries =
    match Store.ambient () with
    | Some st ->
        ( Store.entry_count st ~kind:"kernel",
          Store.entry_count st ~kind:"family",
          Store.entry_count st ~kind:"tuner" )
    | None -> (0, 0, 0)
  in
  (* 4. the daemon: start it in-process (registry already warm), then
     measure warm kernel-request round-trips *)
  let socket = Filename.temp_file "ukrgen-bench-serve" ".sock" in
  let workers = 2 in
  let t0 = Unix.gettimeofday () in
  let srv = Serve.start ~workers ~socket () in
  let t_daemon_start = Unix.gettimeofday () -. t0 in
  Fun.protect ~finally:(fun () ->
      Serve.stop srv;
      Serve.wait srv)
  @@ fun () ->
  Serve.reset_request_counts ();
  let gen_req = "GENERATE neon-f32 8x12" in
  let round_trip req =
    let t0 = Unix.gettimeofday () in
    let status, _ = Serve.Client.request ~socket req in
    let dt = Unix.gettimeofday () -. t0 in
    if not (Serve.Client.ok status) then
      failwith (Printf.sprintf "perf-serve: daemon rejected %S: %s" req status);
    dt
  in
  ignore (round_trip "PING");
  let warm_requests = if smoke then 10 else 50 in
  let warm_total = ref 0.0 and warm_min = ref infinity in
  let warm_samples = ref [] in
  for _ = 1 to warm_requests do
    let dt = round_trip gen_req in
    warm_samples := dt :: !warm_samples;
    warm_total := !warm_total +. dt;
    if dt < !warm_min then warm_min := dt
  done;
  let warm_mean = !warm_total /. float_of_int warm_requests in
  Fmt.pr "warm GENERATE round-trip: mean %.3f ms, min %.3f ms over %d requests@."
    (warm_mean *. 1e3) (!warm_min *. 1e3) warm_requests;
  (* concurrent clients: every request must still succeed *)
  let burst_clients = 4 and burst_each = if smoke then 5 else 10 in
  let burst_ok =
    List.init burst_clients (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to burst_each do
              let status, _ = Serve.Client.request ~socket gen_req in
              if not (Serve.Client.ok status) then ok := false
            done;
            !ok))
    |> List.for_all Domain.join
  in
  if not burst_ok then
    failwith "perf-serve: a concurrent client request failed";
  Fmt.pr "%d concurrent clients x %d requests: all OK@." burst_clients burst_each;
  (* per-request Obs spans: one traced request must surface a
     serve.request span from the worker domain *)
  Obs.reset ();
  Obs.enable ();
  ignore (round_trip "STATS");
  Unix.sleepf 0.05;
  Obs.disable ();
  let span_observed =
    List.exists
      (fun (e : Obs.event) -> e.Obs.e_name = "serve.request")
      (Obs.drain ()).Obs.events
  in
  if not span_observed then
    failwith "perf-serve: no serve.request span recorded for a traced request";
  let req_total, req_errors, _ = Serve.request_counts () in
  (* 5. the cold baseline: a one-shot ukrgen subprocess generating the
     same kernel with no daemon and no cache *)
  let ukrgen_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ukrgen.exe"
  in
  let cold_mode, t_cold_oneshot =
    if Sys.file_exists ukrgen_exe then begin
      let once () =
        let cmd =
          Printf.sprintf
            "env -u UKRGEN_CACHE_DIR %s generate --kit neon-f32 --mr 8 --nr 12 \
             > /dev/null 2>&1"
            (Filename.quote ukrgen_exe)
        in
        let t0 = Unix.gettimeofday () in
        (match Unix.system cmd with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "perf-serve: cold one-shot ukrgen failed");
        Unix.gettimeofday () -. t0
      in
      let best = ref infinity in
      for _ = 1 to if smoke then 2 else 3 do
        let t = once () in
        if t < !best then best := t
      done;
      ("subprocess", !best)
    end
    else begin
      (* no ukrgen.exe next to the bench: an in-process fresh generate is
         the (conservative — no exec/link cost) cold baseline *)
      let t0 = Unix.gettimeofday () in
      ignore (Exo_ukr_gen.Family.generate ~kit:Exo_ukr_gen.Kits.neon_f32 ~mr ~nr ());
      ("in-process", Unix.gettimeofday () -. t0)
    end
  in
  (* gate on the latency floor (best round-trip): on an oversubscribed
     1-core container the mean is dominated by scheduler noise between the
     worker domains and the client, not by request cost — the min is the
     reproducible number. Both are recorded in the JSON. *)
  let warm_vs_cold = t_cold_oneshot /. !warm_min in
  Fmt.pr
    "cold one-shot (%s): %.1f ms; warm daemon request %.3f ms mean / %.3f ms \
     min — %.0fx@."
    cold_mode (t_cold_oneshot *. 1e3) (warm_mean *. 1e3) (!warm_min *. 1e3)
    warm_vs_cold;
  if warm_vs_cold < 50.0 then
    failwith "perf-serve: warm requests are not >= 50x faster than cold one-shots";
  write_bench "BENCH_serve.json"
    Json.
      [
        ("smoke", Bool smoke);
        ( "cache",
          Obj
            [
              ( "entries",
                Obj
                  [
                    ("kernel", of_int kernel_entries);
                    ("family", of_int family_entries);
                    ("tuner", of_int tuner_entries);
                  ] );
              ("cold_build_seconds", Num t_cold_build);
              ("cold_hits", of_int cold_hits);
              ("cold_misses", of_int cold_misses);
              ("cold_writes", of_int cold_writes);
              ("hydrated_build_seconds", Num t_warm_build);
              ("hydrated_hits", of_int warm_hits);
              ("hydrated_misses", of_int warm_misses);
              ("build_speedup", Num build_speedup);
              ("hydrated_bit_identical", Bool true);
              ("tierlint_proved", of_int tk.L.tk_proved);
              ("tierlint_total", of_int tk.L.tk_total);
              ("tuner_fresh_seconds", Num t_tuner_cold);
              ("tuner_disk_seconds", Num t_tuner_disk);
              ("tuner_ranking_identical", Bool true);
            ] );
        ( "serve",
          Obj
            [
              ("workers", of_int workers);
              ("daemon_start_seconds", Num t_daemon_start);
              ("warm_requests", of_int warm_requests);
              ("warm_mean_seconds", Num warm_mean);
              ("warm_min_seconds", Num !warm_min);
              ("concurrent_clients", of_int burst_clients);
              ("concurrent_requests_each", of_int burst_each);
              ("concurrent_ok", Bool burst_ok);
              ("request_span_observed", Bool span_observed);
              ("requests_total", of_int req_total);
              ("request_errors", of_int req_errors);
            ] );
        ("cold_oneshot_mode", Str cold_mode);
        ("cold_oneshot_seconds", Num t_cold_oneshot);
        ("warm_vs_cold_speedup", Num warm_vs_cold);
      ];
  ledger_append ~bench:(if smoke then "perf-serve-smoke" else "perf-serve")
    [
      Ledger.metric_of_samples ~unit_:"us" Ledger.Lower "serve.warm_rt_us"
        (List.map (fun t -> t *. 1e6) !warm_samples);
      Ledger.metric ~unit_:"x" Ledger.Higher "serve.warm_vs_cold_speedup"
        warm_vs_cold;
      Ledger.metric ~unit_:"s" Ledger.Info "cache.hydrated_build_seconds"
        t_warm_build;
      Ledger.metric ~unit_:"x" Ledger.Info "cache.build_speedup" build_speedup;
    ];
  Fmt.pr "wrote BENCH_serve.json@.@."

(* ------------------------------------------------------------------ *)
(* lint: the static Fig. 12 gate — every generated kernel must carry    *)
(* its bounds certificate, fit the register file, match the expected    *)
(* steady-state census and write only C. Exits 1 on any failure.        *)

let run_lint () =
  let module L = Exo_ukr_gen.Lint in
  Fmt.pr "Static kernel lint (Fig. 12 properties, no simulation)@.";
  Fmt.pr "%s@." (String.make 78 '-');
  let o = L.run () in
  Fmt.pr "%a@.@." L.pp_outcome o;
  if not (L.all_ok o) then begin
    Fmt.epr "lint gate FAILED: %d kernel(s)@." (L.failures o);
    exit 1
  end

let () =
  let module Obs = Exo_obs.Obs in
  (* global flags: [-j N] fixes the domain-pool width for every parallel
     sweep in this run (default: EXO_JOBS or the core count); [-profile]
     records obs spans/counters during the run and prints the profile
     report at the end; [-ledger FILE] appends one run-ledger record per
     perf subcommand (default: $UKRGEN_LEDGER, else no ledger) *)
  let args = Array.to_list Sys.argv |> List.tl in
  let profile = ref false in
  ledger_path := Ledger.env_path ();
  let rec parse_flags acc = function
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j -> Exo_par.Pool.set_default_jobs j
        | None ->
            Fmt.epr "-j expects an integer, got %S@." n;
            exit 2);
        parse_flags acc rest
    | "-profile" :: rest ->
        profile := true;
        parse_flags acc rest
    | "-ledger" :: path :: rest ->
        ledger_path := Some path;
        parse_flags acc rest
    | a :: rest -> parse_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = parse_flags [] args in
  if !profile then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let report_profile () =
    if !profile then begin
      Obs.disable ();
      Fmt.pr "%s@?" (Obs.Export.text_report (Obs.drain ()))
    end
  in
  at_exit report_profile;
  let run = function
    | "fig12" -> Experiments.fig12 ()
    | "fig13" -> Experiments.fig13 ()
    | "fig14" -> Experiments.fig14 ()
    | "tab1" -> Experiments.tab1 ()
    | "tab2" -> Experiments.tab2 ()
    | "fig15" -> Experiments.fig15 ()
    | "fig16" -> Experiments.fig16 ()
    | "fig17" -> Experiments.fig17 ()
    | "fig18" -> Experiments.fig18 ()
    | "ablation" -> Experiments.ablation ()
    | "bechamel" -> run_bechamel ()
    | "perf-sim" -> run_perf_sim ()
    | "perf-sim-smoke" -> run_perf_sim ~smoke:true ()
    | "perf-gemm" -> run_perf_gemm ()
    | "perf-gemm-smoke" -> run_perf_gemm ~smoke:true ()
    | "perf-serve" -> run_perf_serve ()
    | "perf-serve-smoke" -> run_perf_serve ~smoke:true ()
    | "lint" -> run_lint ()
    | "all" ->
        run_lint ();
        Experiments.all ();
        run_bechamel ()
    | other ->
        Fmt.epr
          "unknown experiment %S (expected figNN, tabN, ablation, bechamel, \
           perf-sim[-smoke], perf-gemm[-smoke], perf-serve[-smoke], lint, all)@."
          other;
        exit 2
  in
  match args with [] -> run "all" | l -> List.iter run l
