(** The benchmark: one workload, one seed, one run.

    {v bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> v}

    Workloads:
    - [gemm-square] — one 1008³ [C += A·B] per iteration through
      [Gemm.blis_ba] on the host's widest native bank, one domain;
    - [dnn-resnet50] — one ResNet-50 v1.5 inference pass (53 conv GEMMs,
      β = 0) per iteration through [Gemm.batch_ba], same bank and width.

    An untraced run prints the end-to-end metrics; a traced run replays
    each layer from outside and prints the per-layer metrics. The last
    stdout line is the result object ({!Metrics.result}); the line before
    it records the run's identity. Run from the root of a checkout; state
    lives under [.bench_build/perfbench]. *)

open Perfbench
module Gemm = Exo_blis.Gemm
module Matrix = Exo_blis.Matrix
module Registry = Exo_blis.Registry
module Analytical = Exo_blis.Analytical
module Machine = Exo_isa.Machine
module Kits = Exo_ukr_gen.Kits
module Store = Exo_cache.Store
module Host = Exo_native.Host
module Pool = Exo_par.Pool
module Serve = Exo_serve.Serve
module Json = Exo_ledger.Ledger.Json
module Meta = Exo_obs.Obs.Meta

let work = Filename.concat ".bench_build" "perfbench"

(* ------------------------------------------------------------------ *)
(* The bank and its primed store                                        *)

(** The host's widest native bank: (kit, mr, nr). *)
let host_bank () =
  if Host.supports Host.Avx512 then (Kits.avx512_f32, 16, 12)
  else if Host.supports Host.Avx2 then (Kits.avx2_f32, 8, 12)
  else (Kits.neon_f32, 8, 12)

let blocking ~mr ~nr = Analytical.compute Machine.carmel ~mr ~nr ~dtype_bytes:4

let store_dir (kit : Kits.t) ~mr ~nr =
  Filename.concat work (Printf.sprintf "store-%s-%dx%d" kit.Kits.name mr nr)

let primed_marker dir = Filename.concat dir "primed"

(* [--prime]: fill the bank's store cold — the bank's table and the
   daemon's neon-f32 8×12 table (served in-process by traced runs). *)
let prime () =
  let kit, mr, nr = host_bank () in
  let dir = store_dir kit ~mr ~nr in
  Util.mkdir_p dir;
  Store.set_ambient (Some dir);
  ignore (Registry.exo_table ~kit ~mr ~nr ());
  ignore (Registry.exo_table ~kit:Kits.neon_f32 ~mr:8 ~nr:12 ());
  close_out (open_out (primed_marker dir))

(* Prime once per checkout, in a child process, so no run's timed set-up
   shares a process with a cold build. *)
let ensure_primed dir =
  if not (Sys.file_exists (primed_marker dir)) then begin
    prerr_endline "perfbench: priming the kernel store (first run only)";
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--prime" |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "priming the kernel store failed"
  end

(* ------------------------------------------------------------------ *)
(* Identity and output                                                  *)

let identity ~workload ~seed ~trace ~(kit : Kits.t) ~mr ~nr ~target ~pool_jobs =
  let b = blocking ~mr ~nr in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ("kit", Json.Str kit.Kits.name);
      ("shape", Json.Str (Printf.sprintf "%dx%d" mr nr));
      ( "blocking",
        Json.Str
          (Printf.sprintf "carmel mc=%d kc=%d nc=%d" b.Analytical.mc b.Analytical.kc
             b.Analytical.nc) );
      ("native_target", Json.Str target);
      ("cc", Json.Str (Host.cc_identity ()));
      ("host_isa", Json.Str (String.concat "," (List.map Host.isa_name (Host.isas ()))));
      ("pool_jobs", Json.Num (float_of_int pool_jobs));
      ("commit", Json.Str (Meta.git_commit ()));
    ]

let finish ~workload ~trace ~ident ~correct ~attempted ~failed values =
  if trace then
    Spans.write
      (Filename.concat work (Printf.sprintf "trace-%s.json" workload))
      ~meta:[ ("identity", ident) ];
  print_endline (Json.to_string (Json.Obj [ ("identity", ident) ]));
  print_endline
    (Json.to_string (Metrics.result ~trace ~correct ~attempted ~failed values))

(* The traced run's self-check: the layer parts must account for the
   iteration, or a layer is missing from the attribution. *)
let self_check ~workload ~coverage ~overhead =
  let flagged = coverage < 0.85 || coverage > 1.15 in
  Printf.eprintf "perfbench: %s trace.coverage=%.3f trace.overhead_frac=%.4f%s\n%!"
    workload coverage overhead
    (if flagged then "  FLAGGED: layer parts do not account for the iteration" else "");
  if flagged then 1.0 else 0.0

(* ------------------------------------------------------------------ *)
(* The Serve layer: an in-process daemon and one client connection      *)

type outcome = Good | Refused | Bad

type record = {
  req : Mix.request;
  rtt : float;
  server_s : float;  (** RUN's reported [seconds]; nan otherwise *)
  outcome : outcome;
}

let checksums : (int * int * int, float) Hashtbl.t = Hashtbl.create 32

let expected_checksum (m, n, k) =
  match Hashtbl.find_opt checksums (m, n, k) with
  | Some v -> v
  | None ->
      let v = Oracle.run_checksum ~m ~n ~k in
      Hashtbl.replace checksums (m, n, k) v;
      v

(* Judge one reply against what the request must produce. A RUN beyond
   the daemon's size cap must be refused with the cap error — or, should
   the cap be lifted, succeed with the right checksum. *)
let judge (req : Mix.request) ((status, payload) : string * string list) :
    outcome * float =
  let fs = Daemon.fields payload in
  match req with
  | Mix.Lookup (verb, mr, nr) ->
      let want =
        Printf.sprintf "OK %s neon-f32 %dx%d"
          (if verb = "GENERATE" then "generated" else "lint")
          mr nr
      in
      if status = want && List.mem "proved true" payload then (Good, Float.nan)
      else (Bad, Float.nan)
  | Mix.Run (m, n, k) -> (
      match (status, Daemon.field_float fs "checksum", Daemon.field_float fs "seconds") with
      | "OK ran 1 problem", Some sum, Some secs
        when Float.equal sum (expected_checksum (m, n, k)) ->
          (Good, secs)
      | s, _, _
        when (not (Mix.within_cap (m, n, k)))
             && String.starts_with ~prefix:"ERR dimensions capped at" s ->
          (Refused, Float.nan)
      | _ -> (Bad, Float.nan))

(* Send [reqs] one at a time on [c], timing each round trip; in a traced
   run every other request is wrapped in a span. *)
let drive ~trace (c : Daemon.conn) (reqs : Mix.request Seq.t) : record list =
  List.of_seq
    (Seq.mapi
       (fun i req ->
         let traced = trace && i mod 2 = 1 in
         let s = if traced then Spans.start ~id:i "request" else -1 in
         let t0 = Util.now () in
         let status, payload =
           try Daemon.request c (Mix.line req)
           with End_of_file | Sys_error _ -> failwith "daemon connection lost"
         in
         let rtt = Util.now () -. t0 in
         Spans.finish s;
         let outcome, server_s = judge req (status, payload) in
         if outcome = Bad then
           Printf.eprintf "perfbench: wrong reply to %S: %s | %s\n%!" (Mix.line req)
             status (String.concat " | " payload);
         { req; rtt; server_s; outcome })
       reqs)

let is_run_in_class r =
  match r.req with Mix.Run (m, n, k) -> Mix.within_cap (m, n, k) | _ -> false

let good_runs rs = List.filter (fun r -> is_run_in_class r && r.outcome = Good) rs
let lookups rs = List.filter (fun r -> match r.req with Mix.Lookup _ -> true | _ -> false) rs

(* p50 of the daemon's own GENERATE+LINT latency histograms (µs), from
   the STATS lines "latency_<verb>_us count N p50 X ..." — weighted by
   count. *)
let server_lookup_p50 (stats : (string * string) list) : float =
  let one verb =
    match List.assoc_opt (Printf.sprintf "latency_%s_us" verb) stats with
    | Some v -> (
        match Scanf.sscanf_opt v "count %d p50 %f" (fun n p -> (n, p)) with
        | Some r -> r
        | None -> (0, 0.0))
    | None -> (0, 0.0)
  in
  let ng, pg = one "generate" and nl, pl = one "lint" in
  if ng + nl = 0 then Float.nan
  else ((float_of_int ng *. pg) +. (float_of_int nl *. pl)) /. float_of_int (ng + nl)

let stat_int stats key =
  match List.assoc_opt key stats with
  | Some v -> Option.value ~default:0 (int_of_string_opt (String.trim v))
  | None -> 0

(** The Serve layer's per-layer metrics from a request log and STATS
    taken before and after it. *)
let serve_layer (rs : record list) ~(stats0 : (string * string) list) ~stats1 =
  let ms = List.map (fun r -> r.rtt) in
  let runs = good_runs rs in
  let lookup_p50_us = Util.median (ms (lookups rs)) *. 1e6 in
  let server_us = server_lookup_p50 stats1 in
  [
    ("serve.lookup_server_us_p50", server_us);
    ("serve.transport_us_p50", lookup_p50_us -. server_us);
    ("serve.run_server_ms_p50", Util.median (List.map (fun r -> r.server_s) runs) *. 1e3);
    ("serve.run_prep_ms_p50",
      Util.median (List.map (fun r -> r.rtt -. r.server_s) runs) *. 1e3);
    ( "serve.refused_cap",
      float_of_int (List.length (List.filter (fun r -> r.outcome = Refused) rs)) );
    ("serve.errors", float_of_int (stat_int stats1 "errors" - stat_int stats0 "errors"));
  ]

let stats c = Daemon.fields (snd (Daemon.request c "STATS"))

(* ------------------------------------------------------------------ *)
(* GEMM workloads                                                       *)

(* One replay of an iteration's GEMM layers: its packing, the same GEMM
   over a no-op kernel table, and its kernel calls on packed arenas.
   [Gemm.blis_ba] asks its [kernels] thunk for the table once per pool
   task, so the no-op GEMM also counts the tasks the program cut. *)
type replay = { pk : Layers.packing; nonukr_s : float; ukr : Layers.ukr; tasks : int }

let replay_once ~id ~(table : Registry.table) ~run_with ~reset problems : replay =
  let pk = Layers.packing ~id problems in
  let noop = Layers.noop_table ~mr:table.Registry.t_mr ~nr:table.Registry.t_nr in
  let tasks = Atomic.make 0 in
  reset ();
  let nonukr_s =
    Spans.wrap ~id "gemm.noop_kernels" (fun () ->
        snd (Util.time (fun () -> run_with (fun () -> Atomic.incr tasks; noop))))
  in
  { pk; nonukr_s; ukr = Layers.ukr_replay ~id ~table:table.Registry.t_entries problems;
    tasks = Atomic.get tasks }

(* The GEMM-layer metrics from several replays, the best of each layer as
   the best iteration is end to end; also their sum, the iteration's
   accounted time. *)
let gemm_layer_metrics ~(table : Registry.table) ~iter_s (problems : Gemm.problem list)
    (replays : replay list) =
  let mr = table.Registry.t_mr and nr = table.Registry.t_nr in
  let best f = Util.best (List.map f replays) in
  let pa = best (fun r -> r.pk.Layers.pack_a_s) and pb = best (fun r -> r.pk.Layers.pack_b_s) in
  let nonukr = best (fun r -> r.nonukr_s) and ukr_s = best (fun r -> r.ukr.Layers.ukr_s) in
  let r0 = List.hd replays in
  let kc =
    min (blocking ~mr ~nr).Analytical.kc
      (List.fold_left (fun acc p -> max acc p.Gemm.p_a.Matrix.cols) 1 problems)
  in
  let gbps elems s = 12.0 *. float_of_int elems /. s *. 1e-9 in
  let n = float_of_int (List.length problems) in
  ( [
      ("packing.pack_a_ms", pa *. 1e3);
      ("packing.pack_b_ms", pb *. 1e3);
      ("packing.pack_a_gbps", gbps r0.pk.Layers.a_elems pa);
      ("packing.pack_b_gbps", gbps r0.pk.Layers.b_elems pb);
      ("gemm.nonukr_ms", nonukr *. 1e3);
      ("gemm.nonukr_share", nonukr /. iter_s);
      ("gemm.ctile_ms", (nonukr -. pa -. pb) *. 1e3);
      ("ukr.ms", ukr_s *. 1e3);
      ("ukr.gflops", Layers.ukr_gflops ~table:table.Registry.t_entries ~mr ~nr ~kc);
      ("ukr.calls", float_of_int r0.ukr.Layers.calls);
      ("ukr.fringe_calls", float_of_int r0.ukr.Layers.fringe_calls);
      ("pool.tasks", float_of_int r0.tasks /. n);
    ],
    nonukr +. ukr_s )

(* The Serve layer for a GEMM workload: an in-process daemon (warm from
   the primed store) asked for lookups and for the workload's own GEMMs
   as RUN requests. *)
let inproc_serve ~seed ~shapes =
  let socket = Filename.concat work "inproc.sock" in
  let srv = Serve.start ~workers:1 ~socket () in
  Serve.reset_request_counts ();
  let c =
    match Daemon.connect socket with Some c -> c | None -> failwith "in-process daemon"
  in
  let next = Mix.lookups seed in
  let reqs = List.init 200 (fun _ -> next ()) @ List.map (fun (m, n, k) -> Mix.Run (m, n, k)) shapes in
  let stats0 = stats c in
  let rs = drive ~trace:true c (List.to_seq reqs) in
  let stats1 = stats c in
  Daemon.close c;
  Serve.stop srv;
  Serve.wait srv;
  (rs, serve_layer rs ~stats0 ~stats1)

let gemm_workload ~workload ~seed ~seconds ~trace =
  let kit, mr, nr = host_bank () in
  let blk = blocking ~mr ~nr in
  let dir = store_dir kit ~mr ~nr in
  ensure_primed dir;
  let operands = Mix.gemm_operands ~seed workload in
  let problems =
    List.map
      (fun (a, b, c0, beta) ->
        { Gemm.p_a = a; p_b = b; p_c = (if beta = 0.0 then c0 else Matrix.copy c0);
          p_alpha = 1.0; p_beta = beta; p_blocking = blk; p_mr = mr; p_nr = nr })
      operands
  in
  let c0s = List.map (fun (_, _, c0, _) -> c0) operands in
  let reset () =
    List.iter2
      (fun p c0 ->
        if p.Gemm.p_beta <> 0.0 then
          Array.blit c0.Matrix.data 0 p.Gemm.p_c.Matrix.data 0
            (Array.length c0.Matrix.data))
      problems c0s
  in
  let pool = Pool.create ~jobs:1 () in
  let run_with kernels =
    match problems with
    | [ p ] ->
        Gemm.blis_ba ~alpha:p.Gemm.p_alpha ~beta:p.Gemm.p_beta ~pool
          ~blocking:p.Gemm.p_blocking ~mr ~nr ~kernels p.Gemm.p_a p.Gemm.p_b p.Gemm.p_c
    | ps -> Gemm.batch_ba ~pool ~kernels ps
  in
  (* set-up: the timed hydrate of the bank's table against the primed
     store, from cleared memos — three at the start of every round, so
     setup_s is the median of 30 spread across the run *)
  let setup_times = ref [] and store_counts = ref (0, 0) in
  let hydrate () =
    Registry.clear_memos_for_bench ();
    Store.set_ambient (Some dir);
    Store.reset_counts ();
    let t, dt = Util.time (fun () -> Registry.exo_table ~kit ~mr ~nr ()) in
    setup_times := dt :: !setup_times;
    store_counts := Store.hit_miss_counts ();
    t
  in
  let setup () =
    ignore (hydrate ());
    ignore (hydrate ());
    hydrate ()
  in
  let table = ref (setup ()) in
  let bank = Registry.exo_bank ~kit ~mr ~nr () in
  let ident =
    identity ~workload ~seed ~trace ~kit ~mr ~nr
      ~target:!table.Registry.t_native_info.Registry.ni_target ~pool_jobs:1
  in
  (* first iteration: the sampled-cell oracle *)
  reset ();
  run_with bank;
  let cst = Random.State.make [| seed; 0xce11 |] in
  let samples = if List.length problems = 1 then 512 else 32 in
  let bad_cells =
    List.fold_left2
      (fun acc p c0 ->
        acc + Oracle.check_cells ~st:cst ~samples ~beta:p.Gemm.p_beta p.Gemm.p_a p.Gemm.p_b c0 p.Gemm.p_c)
      0 problems c0s
  in
  if bad_cells > 0 then
    Printf.eprintf "perfbench: %d sampled cells outside the f32 error bound\n%!" bad_cells;
  let firsts = List.map (fun p -> Array.copy p.Gemm.p_c.Matrix.data) problems in
  let failed = ref (if bad_cells > 0 then 1 else 0) in
  let iters = ref 1 in
  (* per-tier kernel dispatches of the iterations alone (set-up
     certification also calls the entries) *)
  let dispatch = Array.make 3 0 in
  (* one iteration, its output bitwise equal to the first *)
  let iterate () =
    reset ();
    incr iters;
    let n0, b0, f0 = Registry.ukr_tier_counts () in
    let (), dt = Util.time (fun () -> run_with bank) in
    let n1, b1, f1 = Registry.ukr_tier_counts () in
    List.iteri (fun i d -> dispatch.(i) <- dispatch.(i) + d) [ n1 - n0; b1 - b0; f1 - f0 ];
    if not (List.for_all2 (fun p f -> Oracle.same_bits p.Gemm.p_c.Matrix.data f) problems firsts)
    then incr failed;
    dt
  in
  (* the timed phase: [rounds] rounds, each a fresh set-up, one untimed
     warm-up iteration, then timed iterations until the round's share of
     [seconds] is spent. A traced run wraps every other iteration in a
     span and ends each round with one replay of the GEMM layers, so the
     replays sample the same stretch of the run as the iterations. *)
  let rounds = 10 in
  let samples = ref [] and replays = ref [] in
  let t_start = Util.now () in
  for round = 1 to rounds do
    if round > 1 then begin
      table := setup ();
      ignore (iterate ())
    end;
    let round_end = t_start +. (seconds *. float_of_int round /. float_of_int rounds) in
    let timed = ref 0 in
    while Util.now () < round_end || !timed = 0 do
      let span = trace && !iters mod 2 = 0 in
      let s = if span then Spans.start ~id:!iters "iteration" else -1 in
      let dt = iterate () in
      Spans.finish s;
      samples := (dt, span) :: !samples;
      incr timed
    done;
    if trace then
      replays := replay_once ~id:(1_000_000 + round) ~table:!table ~run_with ~reset problems
                 :: !replays
  done;
  let table = !table and setup_s = Util.median !setup_times in
  let hits, misses = !store_counts in
  let plain = List.filter_map (fun (dt, span) -> if span then None else Some dt) !samples in
  let attempted = !iters in
  if not trace then
    finish ~workload ~trace ~ident ~correct:(!failed = 0) ~attempted ~failed:!failed
      [
        ("setup_s", setup_s);
        ("iter_ms_p90", Util.percentile 90.0 plain *. 1e3);
        ("peak_rss_mb", Util.peak_rss_mb ());
      ]
  else begin
    (* the layer replays report their best, so they account for the best iteration *)
    let iter_best = Util.best plain in
    let layer_values, parts = gemm_layer_metrics ~table ~iter_s:iter_best problems !replays in
    let coverage = parts /. iter_best in
    (* tracing overhead: each traced iteration against its untraced
       neighbour, so slow stretches of the run cancel *)
    let rec pairs acc = function
      | (a, sa) :: ((b, sb) :: _ as rest) when sa <> sb ->
          pairs (((if sa then a /. b else b /. a) -. 1.0) :: acc) rest
      | _ :: rest -> pairs acc rest
      | [] -> acc
    in
    let overhead = Util.median (pairs [] !samples) in
    let flagged = self_check ~workload ~coverage ~overhead in
    let rs, serve_values = inproc_serve ~seed ~shapes:(List.map Layers.dims problems) in
    if List.exists (fun r -> r.outcome = Bad) rs then incr failed;
    (* set-up layers, cold: from cleared memos against an empty store, so
       Family generates and Jit runs cc *)
    Registry.clear_memos_for_bench ();
    let cold = Util.fresh_dir (Filename.concat work "replay-store") in
    Store.set_ambient (Some cold);
    let su = Layers.setup_replay ~id:2_000_000 kit ~mr ~nr in
    Store.set_ambient None;
    Util.rm_rf cold;
    let per_iter i = float_of_int dispatch.(i) /. float_of_int (!iters - 1) in
    let native = per_iter 0 and ba = per_iter 1 and fb = per_iter 2 in
    let info = table.Registry.t_native_info in
    finish ~workload ~trace ~ident ~correct:(!failed = 0)
      ~attempted:(attempted + List.length rs) ~failed:!failed
      ([
         ("family.generate_s", su.Layers.family_s);
         ("tierlint.check_s", su.Layers.tierlint_s);
         ("tierlint.proved", float_of_int su.Layers.proved);
         ("c_emit.unit_s", su.Layers.c_emit_s);
         ("c_emit.unit_kb", float_of_int su.Layers.unit_bytes /. 1024.0);
         ("jit.compile_s", su.Layers.jit_s);
         ("store.hits", float_of_int hits);
         ("store.misses", float_of_int misses);
         ("registry.table_hydrated_s", setup_s);
         ("registry.native_entries", float_of_int info.Registry.ni_entries);
         ("registry.native_rejected", float_of_int info.Registry.ni_rejected);
         ("registry.native_calls", native);
         ("registry.ba_calls", ba);
         ("registry.fallback_calls", fb);
         ("registry.native_frac", native /. Float.max 1.0 (native +. ba +. fb));
         ("trace.overhead_frac", overhead);
         ("trace.coverage", coverage);
         ("trace.flagged", flagged);
       ]
      @ layer_values @ serve_values)
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload gemm-square|dnn-resnet50 --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--prime" ] then prime ()
  else begin
    let rec parse acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
    let workload = get "--workload" and seed = int "--seed" in
    let seconds = float_of_int (int "--seconds") in
    let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    if not (Sys.file_exists work && Sys.is_directory work) then begin
      prerr_endline ("perfbench: missing " ^ work ^ " (run through perfbench/run.sh)");
      exit 2
    end;
    if trace then Spans.enable ();
    match workload with
    | "gemm-square" | "dnn-resnet50" -> gemm_workload ~workload ~seed ~seconds ~trace
    | _ -> usage ()
  end
