(* The observability layer: Exo_obs.Obs.

   Three contracts are load-bearing and pinned here:

   1. Determinism — the merged trace of a pure workload run through
      Exo_par.Pool is identical at every pool width, up to span ids and
      (monotonic, per-domain) timestamps. Everything that makes traces
      diffable across `-j` settings rides on this (qcheck property).

   2. Cost — with tracing disabled the span/counter/histogram hot paths
      are a single atomic branch and allocate NOTHING. The <2% perf gate
      on bench/main.exe rides on this (Gc.minor_words test).

   3. Honesty — a span left open at drain time is reported as unclosed,
      never silently dropped.

   Plus the provenance collector (the sidecar every generated kernel
   ships) and the CLI exit-code contract of bin/ukrgen.exe. *)

module Obs = Exo_obs.Obs
module Pool = Exo_par.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* Every test owns the global collector: start from a clean, disabled
   state and leave one behind. *)
let fresh () =
  Obs.disable ();
  Obs.reset ()

(* --- determinism across pool widths -------------------------------------- *)

(* What "identical up to span ids and timestamps" means concretely: keep
   (epoch, task, name, depth, args, kind tag), drop (tid, seq, t0, dur). *)
type norm = int * int * string * int * (string * string) list * string

let normalize (tr : Obs.trace) : norm list * (string * int) list =
  let ev (e : Obs.event) : norm =
    let k =
      match e.Obs.e_kind with
      | Obs.KComplete _ -> "complete"
      | Obs.KInstant -> "instant"
      | Obs.KUnclosed -> "unclosed"
    in
    (e.Obs.e_epoch, e.Obs.e_task, e.Obs.e_name, e.Obs.e_depth, e.Obs.e_args, k)
  in
  (List.map ev tr.Obs.events, tr.Obs.counters)

(* A deterministic multi-span workload: item [x] opens a task span, then
   [x mod 3] nested inner spans each with an instant and a counter bump. *)
let ticks = Obs.counter "test.ticks"

let work x =
  Obs.with_span ~args:[ ("x", string_of_int x) ] "obs-test.task" (fun () ->
      for i = 1 to x mod 3 do
        Obs.with_span "obs-test.inner" (fun () ->
            Obs.instant ~args:[ ("i", string_of_int i) ] "obs-test.tick";
            Obs.incr ticks)
      done;
      x * 2)

let run_at_width xs jobs =
  fresh ();
  Obs.enable ();
  let pool = Pool.create ~jobs () in
  let out = Pool.map pool work xs in
  Obs.disable ();
  let tr = Obs.drain () in
  (out, normalize tr)

let prop_width_invariant =
  QCheck.Test.make ~count:30 ~name:"merged trace identical at widths 1/2/4"
    QCheck.(list_of_size Gen.(int_range 0 12) small_nat)
    (fun xs ->
      let o1, t1 = run_at_width xs 1 in
      let o2, t2 = run_at_width xs 2 in
      let o4, t4 = run_at_width xs 4 in
      o1 = o2 && o2 = o4 && t1 = t2 && t2 = t4)

let test_trace_shape () =
  (* sanity on the normalized form itself: nesting depths and task ids *)
  let _, (evs, counters) = run_at_width [ 5; 4 ] 2 in
  let tasks =
    List.filter (fun (_, _, n, _, _, _) -> n = "obs-test.task") evs
  in
  check_int "one task span per item" 2 (List.length tasks);
  List.iteri
    (fun i (_, task, _, depth, _, _) ->
      check_int "task spans carry their item index" i task;
      check_int "task span at depth 0" 0 depth)
    tasks;
  let inners =
    List.filter (fun (_, _, n, _, _, _) -> n = "obs-test.inner") evs
  in
  check_int "5 mod 3 + 4 mod 3 inner spans" 3 (List.length inners);
  List.iter
    (fun (_, _, _, depth, _, _) -> check_int "inner nested at depth 1" 1 depth)
    inners;
  check_bool "counter drained" true
    (List.mem_assoc "test.ticks" counters
    && List.assoc "test.ticks" counters = 3)

(* --- disabled hot path allocates nothing ---------------------------------- *)

let test_disabled_no_alloc () =
  fresh ();
  check_bool "tracing disabled" false (Obs.enabled ());
  let c = Obs.counter "test.noalloc" and h = Obs.histogram "test.noalloc_h" in
  let hot () =
    for i = 1 to 10_000 do
      let sp = Obs.begin_span "hot" in
      Obs.instant "hot.instant";
      Obs.incr c;
      Obs.add c 3;
      Obs.observe h i;
      Obs.end_span sp
    done
  in
  hot ();
  (* warm-up: any one-time lazy setup *)
  let w0 = Gc.minor_words () in
  hot ();
  let dw = Gc.minor_words () -. w0 in
  check_bool
    (Fmt.str "10k disabled span+metric rounds allocated %.0f words" dw)
    true (dw <= 8.0);
  check_int "disabled mutations dropped" 0 (Obs.counter_value c)

(* --- unclosed spans are reported, not dropped ----------------------------- *)

let test_unclosed_reported () =
  fresh ();
  Obs.enable ();
  let _leak = Obs.begin_span "obs-test.leaky" in
  let closed = Obs.begin_span "obs-test.closed" in
  Obs.end_span closed;
  Obs.disable ();
  let tr = Obs.drain () in
  check_bool "unclosed list names the leak" true
    (List.exists (fun (n, _) -> n = "obs-test.leaky") tr.Obs.unclosed);
  check_bool "leak surfaces as a KUnclosed event" true
    (List.exists
       (fun (e : Obs.event) ->
         e.Obs.e_name = "obs-test.leaky" && e.Obs.e_kind = Obs.KUnclosed)
       tr.Obs.events);
  check_bool "the closed sibling is still a complete span" true
    (List.exists
       (fun (e : Obs.event) ->
         e.Obs.e_name = "obs-test.closed"
         && match e.Obs.e_kind with Obs.KComplete _ -> true | _ -> false)
       tr.Obs.events);
  (* the exporter flags it too *)
  let report = Obs.Export.text_report tr in
  check_bool "text report has an UNCLOSED section" true
    (contains ~affix:"obs-test.leaky" report)

(* --- counters and histograms ---------------------------------------------- *)

let test_metrics () =
  fresh ();
  Obs.enable ();
  let c = Obs.counter "test.metric_c" in
  Obs.incr c;
  Obs.add c 41;
  check_int "counter accumulates" 42 (Obs.counter_value c);
  check_bool "same name, same cell" true
    (Obs.counter_value (Obs.counter "test.metric_c") = 42);
  let h = Obs.histogram "test.metric_h" in
  List.iter (Obs.observe h) [ 1; 2; 4; 100 ];
  Obs.disable ();
  let tr = Obs.drain () in
  check_int "counter snapshot" 42 (List.assoc "test.metric_c" tr.Obs.counters);
  let hs = List.assoc "test.metric_h" tr.Obs.histograms in
  check_int "histogram count" 4 hs.Obs.h_count;
  check_int "histogram sum" 107 hs.Obs.h_sum;
  Obs.reset ();
  check_int "reset zeroes counters" 0 (Obs.counter_value c)

(* --- histogram snapshots and quantile estimation -------------------------- *)

(* The log2 bucket that owns a value: 0 for 0, else its bit length. *)
let bucket_of v =
  let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
  go 0 v

let test_bucket_bounds () =
  check_bool "bucket 0 holds only the value 0" true (Obs.bucket_bounds 0 = (0, 0));
  check_bool "bucket 1 = [1,1]" true (Obs.bucket_bounds 1 = (1, 1));
  check_bool "bucket 2 = [2,3]" true (Obs.bucket_bounds 2 = (2, 3));
  check_bool "bucket 7 = [64,127]" true (Obs.bucket_bounds 7 = (64, 127));
  check_bool "top bucket clamps at max_int" true
    (snd (Obs.bucket_bounds 62) = max_int);
  (* bounds partition: hi of i is lo of i+1 minus one *)
  for i = 1 to 60 do
    let _, hi = Obs.bucket_bounds i and lo', _ = Obs.bucket_bounds (i + 1) in
    check_bool "buckets tile the naturals" true (hi + 1 = lo')
  done

let test_quantile_pins () =
  fresh ();
  let h = Obs.histogram "test.quantile_pins" in
  Obs.reset_histogram h;
  (* observe_always records with tracing off — the serve latency path *)
  check_bool "tracing stays off" false (Obs.enabled ());
  for _ = 1 to 100 do
    Obs.observe_always h 10
  done;
  let s = Obs.snapshot h in
  check_int "always-on count" 100 s.Obs.h_count;
  check_int "always-on sum" 1000 s.Obs.h_sum;
  let inside q =
    let v = Obs.quantile s q in
    v >= 8.0 && v <= 15.0
  in
  check_bool "p50 inside the owning bucket [8,15]" true (inside 0.5);
  check_bool "p95 inside the owning bucket" true (inside 0.95);
  check_bool "p99 inside the owning bucket" true (inside 0.99);
  (* bimodal latencies: 90 fast (~100us), 10 slow (~100ms) *)
  Obs.reset_histogram h;
  for _ = 1 to 90 do
    Obs.observe_always h 100
  done;
  for _ = 1 to 10 do
    Obs.observe_always h 100_000
  done;
  let s = Obs.snapshot h in
  let p50 = Obs.quantile s 0.5 and p95 = Obs.quantile s 0.95 in
  check_bool "p50 lands in the fast mode [64,127]" true
    (p50 >= 64.0 && p50 <= 127.0);
  check_bool "p95 lands in the slow mode [65536,131071]" true
    (p95 >= 65536.0 && p95 <= 131071.0);
  Obs.reset_histogram h;
  check_int "reset_histogram zeroes in place" 0 (Obs.snapshot h).Obs.h_count;
  check_bool "empty histogram quantile is 0" true
    (Obs.quantile (Obs.snapshot h) 0.5 = 0.0)

(* the estimator contract: the estimate always lands inside the bucket
   that holds the true rank-based quantile, i.e. within one bucket of the
   exact sample quantile *)
let prop_quantile_brackets =
  QCheck.Test.make ~count:300
    ~name:"quantile estimate lands in the true quantile's bucket"
    QCheck.(
      pair (list_of_size Gen.(int_range 1 60) (int_bound 100_000)) (int_bound 99))
    (fun (xs, qi) ->
      let q = float_of_int (qi + 1) /. 100.0 in
      let h = Obs.histogram "test.quantile_prop" in
      Obs.reset_histogram h;
      List.iter (Obs.observe_always h) xs;
      let est = Obs.quantile (Obs.snapshot h) q in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let true_q = List.nth sorted (rank - 1) in
      let lo, hi = Obs.bucket_bounds (bucket_of true_q) in
      est >= float_of_int lo && est <= float_of_int hi)

(* --- exporters ------------------------------------------------------------ *)

let test_chrome_json () =
  fresh ();
  Obs.enable ();
  Obs.with_span ~args:[ ("k", "v") ] "obs-test.outer" (fun () ->
      Obs.instant "obs-test.mark");
  Obs.disable ();
  let js = Obs.Export.chrome_json (Obs.drain ()) in
  let has affix = contains ~affix js in
  check_bool "top-level traceEvents array" true (has "\"traceEvents\"");
  check_bool "complete event" true (has "\"ph\":\"X\"");
  check_bool "instant event" true (has "\"ph\":\"i\"");
  check_bool "span name present" true (has "\"obs-test.outer\"");
  check_bool "args preserved" true (has "\"k\":\"v\"")

(* --- provenance ----------------------------------------------------------- *)

let prim ?pattern ?(ok = true) op =
  Obs.Provenance.Prim
    {
      op;
      pattern;
      nodes_before = 10;
      nodes_after = 12;
      cert_us = 1.5;
      ok;
      detail = (if ok then None else Some "boom");
    }

let test_provenance_collect () =
  fresh ();
  check_bool "no collector by default" false (Obs.Provenance.collecting ());
  Obs.Provenance.record (prim "dropped");
  (* no-op, no collector *)
  let (), entries =
    Obs.Provenance.collect (fun () ->
        Obs.Provenance.mark_step ~figure:"Fig. 6" "divide_loop: vectorize i";
        Obs.Provenance.record (prim ~pattern:"for i in _: _" "divide_loop");
        Obs.Provenance.record (prim "replace");
        (* nested collectors do not steal from the outer one *)
        let (), inner = Obs.Provenance.collect (fun () ->
            Obs.Provenance.record (prim "inner_only"))
        in
        check_int "inner collector sees its entry" 1
          (Obs.Provenance.prim_count inner))
  in
  check_int "steps" 1 (Obs.Provenance.step_count entries);
  (* the nested collector's entry also lands in the outer log (nesting
     appends to every active cell) *)
  check_int "prims" 3 (Obs.Provenance.prim_count entries);
  check_bool "all ok" true (Obs.Provenance.all_ok entries);
  check_bool "failure flips all_ok" false
    (Obs.Provenance.all_ok [ prim ~ok:false "bad" ])

let test_provenance_json () =
  let entries =
    [
      Obs.Provenance.Step { title = "divide_loop: vectorize i"; figure = Some "Fig. 6" };
      prim ~pattern:"for i in _: _" "divide_loop";
      prim "replace";
    ]
  in
  let js =
    Obs.Json.pretty
      (Obs.Provenance.to_json ~kernel:"uk_test" ~kit:"neon-f32" ~style:"packed"
         ~declared_steps:1 entries)
  in
  let has affix = contains ~affix js in
  (* exact grep-able shapes CI relies on *)
  check_bool "step kind line" true (has "\"kind\": \"step\"");
  check_bool "prim kind line" true (has "\"kind\": \"prim\"");
  check_bool "declared_steps header" true (has "\"declared_steps\": 1");
  check_bool "step_count header" true (has "\"step_count\": 1");
  check_bool "cursor pattern recorded" true (has "for i in _: _");
  check_bool "certificates_ok" true (has "\"certificates_ok\": true");
  let lines = Obs.Provenance.header_lines entries in
  check_bool "header summary line" true
    (List.exists
       (fun l -> contains ~affix:"1 schedule steps" l)
       lines)

let test_family_provenance () =
  (* the real producer: every generated kernel carries a log whose step
     count equals the kit's declaration (generate enforces this; we pin
     the observable) *)
  let module F = Exo_ukr_gen.Family in
  let k = F.generate ~kit:Exo_ukr_gen.Kits.neon_f32 ~mr:8 ~nr:12 () in
  check_bool "provenance non-empty" true (k.F.provenance <> []);
  check_int "recorded steps = declared"
    (F.declared_steps k.F.kit k.F.style)
    (Obs.Provenance.step_count k.F.provenance);
  check_bool "every certificate passed" true
    (Obs.Provenance.all_ok k.F.provenance);
  check_bool "bounds certificate in the log" true
    (List.exists
       (function
         | Obs.Provenance.Prim { op = "bounds_certificate"; ok; _ } -> ok
         | _ -> false)
       k.F.provenance)

(* --- the ukrgen CLI exit-code contract ------------------------------------ *)

(* cmdliner's term-evaluation errors exit with 124; success with 0. Pin
   both so an unknown subcommand or flag can never silently "succeed"
   in a script or CI pipeline. *)
let ukrgen = "../bin/ukrgen.exe"

let run_cli args =
  Sys.command (Filename.quote_command ukrgen args ^ " >/dev/null 2>&1")

let test_cli_exit_codes () =
  check_int "unknown subcommand exits 124" 124 (run_cli [ "frobnicate" ]);
  check_int "unknown flag exits 124" 124
    (run_cli [ "generate"; "--no-such-flag" ]);
  check_int "bad kit value exits 124" 124
    (run_cli [ "generate"; "--kit"; "bogus"; "--mr"; "8"; "--nr"; "12" ]);
  check_int "missing positional exits 124" 124 (run_cli [ "trace" ]);
  check_int "--help exits 0" 0 (run_cli [ "--help" ]);
  check_int "a good invocation exits 0" 0
    (run_cli [ "generate"; "--kit"; "neon-f32"; "--mr"; "8"; "--nr"; "12" ]);
  (* a [lint --tiers] proof failure has its own exit code, distinct from
     both the generic CLI error (123) and cmdliner's usage errors (124) *)
  check_int "lint --tiers failure exits 3" 3
    (run_cli [ "lint"; "--tiers"; "--selftest-fail" ]);
  check_int "lint --tiers success exits 0" 0
    (run_cli
       [ "lint"; "--tiers"; "--table-mr"; "2"; "--table-nr"; "2"; "--jobs"; "1" ])

(* [report --check] failing the regression/efficiency gate exits 4 —
   distinct from lint's 3, the generic 123, and cmdliner's 124 — so CI
   can tell "perf regressed" apart from "tool broke" *)
let test_report_exit_codes () =
  let module L = Exo_ledger.Ledger in
  let path = Filename.temp_file "ukrgen_report" ".jsonl" in
  let steady v =
    L.record ~pool_jobs:1 ~bench:"unit" [ L.metric L.Higher "unit.gflops" v ]
  in
  L.append ~path (steady 100.0);
  L.append ~path (steady 101.0);
  check_int "clean ledger: report --check exits 0" 0
    (run_cli [ "report"; "--ledger"; path; "--check" ]);
  L.append ~path (steady 10.0);
  check_int "regression: report --check exits 4" 4
    (run_cli [ "report"; "--ledger"; path; "--check" ]);
  check_int "same regression without --check still exits 0" 0
    (run_cli [ "report"; "--ledger"; path ]);
  Sys.remove path;
  check_int "missing ledger exits 123" 123
    (run_cli [ "report"; "--ledger"; path; "--check" ])

(* --- the one JSON printer ---------------------------------------------------- *)

module Json = Obs.Json

let reparse what text =
  match Json.parse text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not reparse: %s" what e

(* a string every writer must escape: quote, backslash, newline, tab, a raw
   control byte, and UTF-8 that must pass through untouched *)
let nasty = "q\"b\\s\nt\tc\001 caf\xc3\xa9"

let test_writers_reparse () =
  fresh ();
  Obs.enable ();
  Obs.with_span ~args:[ ("k", nasty); (nasty, "v") ] nasty (fun () ->
      Obs.instant nasty);
  ignore (Obs.begin_span "obs-test.left-open");
  Obs.disable ();
  let chrome = reparse "chrome trace" (Obs.Export.chrome_json (Obs.drain ())) in
  fresh ();
  check_bool "chrome trace carries the escaped span name" true
    (match Option.bind (Json.member "traceEvents" chrome) Json.list_ with
    | Some evs ->
        List.exists (fun e -> Option.bind (Json.member "name" e) Json.str = Some nasty) evs
    | None -> false);
  let prov =
    [
      Obs.Provenance.Step { title = nasty; figure = Some nasty };
      prim ~pattern:nasty nasty;
      prim ~ok:false "failing";
    ]
  in
  let pj =
    reparse "provenance"
      (Json.pretty (Obs.Provenance.to_json ~kernel:nasty ~kit:nasty ~declared_steps:1 prov))
  in
  check_bool "provenance kernel round-trips" true
    (Option.bind (Json.member "kernel" pj) Json.str = Some nasty);
  let meta = reparse "meta" (Json.pretty (Json.Obj [ Obs.Meta.json ~pool_jobs:2 () ])) in
  check_bool "meta schema_version" true
    (Option.bind (Json.member "meta" meta) (Json.member "schema_version")
    = Some (Json.of_int Obs.Meta.schema_version));
  let module L = Exo_ukr_gen.Lint in
  let o = L.run_tiers ~kits:[ Exo_ukr_gen.Kits.neon_f32 ] ~jobs:1 ~mr:2 ~nr:2 () in
  let tj = reparse "tiers_json" (L.tiers_json o) in
  check_bool "tiers_json all_proved" true
    (Option.bind (Json.member "all_proved" tj) Json.bool_ = Some true);
  let module Ledger = Exo_ledger.Ledger in
  let r =
    Ledger.record ~pool_jobs:1 ~bench:nasty [ Ledger.metric Ledger.Info nasty Float.nan ]
  in
  let rj = reparse "ledger record" (Ledger.to_json r) in
  check_bool "ledger bench round-trips" true
    (Option.bind (Json.member "bench" rj) Json.str = Some nasty)

let test_utf8_and_non_finite () =
  let cc = "/usr/local/caf\xc3\xa9/cc" in
  let doc = Json.Obj [ Obs.Meta.json ~host_cc:cc ~pool_jobs:1 () ] in
  List.iter
    (fun text ->
      check_bool "host_cc round-trips" true
        (Option.bind
           (Option.bind (Json.member "meta" (reparse "meta" text)) (Json.member "host_cc"))
           Json.str
        = Some cc))
    [ Json.to_string doc; Json.pretty doc ];
  let nf = Json.Obj [ ("nan", Json.Num Float.nan); ("inf", Json.Arr [ Json.Num infinity; Json.Num neg_infinity ]) ] in
  Alcotest.(check string) "non-finite prints null" {|{"nan":null,"inf":[null,null]}|} (Json.to_string nf);
  check_bool "non-finite reparses as null" true
    (reparse "non-finite" (Json.pretty nf)
    = Json.Obj [ ("nan", Json.Null); ("inf", Json.Arr [ Json.Null; Json.Null ]) ])

(* the ledger's and the access log's line format, byte for byte *)
let test_compact_fixture () =
  let j =
    Json.Obj
      [
        ("s", Json.Str nasty);
        ("int", Json.Num 42.0);
        ("neg", Json.Num (-3.0));
        ("frac", Json.Num 1.25);
        ("third", Json.Num (1.0 /. 3.0));
        ("big", Json.Num 1e15);
        ("tiny", Json.Num 1.5e-7);
        ("ts", Json.Num 1760760000.123456);
        ("a", Json.Arr [ Json.Bool false; Json.Null; Json.Bool true ]);
        ("o", Json.Obj [ ("e", Json.Arr []); ("f", Json.Obj []) ]);
      ]
  in
  Alcotest.(check string) "compact bytes"
    ({|{"s":"q\"b\\s\nt\tc\u0001 caf|} ^ "\xc3\xa9"
    ^ {|","int":42,"neg":-3,"frac":1.25,"third":0.333333333333,"big":1e+15,"tiny":1.5e-07,"ts":1760760000.12,"a":[false,null,true],"o":{"e":[],"f":{}}}|})
    (Json.to_string j);
  Alcotest.(check string) "pretty layout"
    "{\n  \"a\": [1, 2],\n  \"o\": {\n    \"k\": \"v\"\n  },\n  \"l\": [\n    {\n      \"x\": null\n    }\n  ],\n  \"e\": []\n}\n"
    (Json.pretty
       (Json.Obj
          [
            ("a", Json.Arr [ Json.of_int 1; Json.of_int 2 ]);
            ("o", Json.Obj [ ("k", Json.Str "v") ]);
            ("l", Json.Arr [ Json.Obj [ ("x", Json.Null) ] ]);
            ("e", Json.Arr []);
          ]))

let () =
  fresh ();
  Alcotest.run "obs"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_width_invariant;
          Alcotest.test_case "trace shape across a pool" `Quick
            test_trace_shape;
        ] );
      ( "cost",
        [
          Alcotest.test_case "disabled hot path allocates nothing" `Quick
            test_disabled_no_alloc;
        ] );
      ( "honesty",
        [
          Alcotest.test_case "unclosed span reported, not dropped" `Quick
            test_unclosed_reported;
        ] );
      ( "metrics",
        [ Alcotest.test_case "counters and histograms" `Quick test_metrics ] );
      ( "quantiles",
        [
          Alcotest.test_case "log2 bucket bounds" `Quick test_bucket_bounds;
          Alcotest.test_case "pinned p50/p95/p99 units" `Quick
            test_quantile_pins;
          QCheck_alcotest.to_alcotest prop_quantile_brackets;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace_event JSON" `Quick test_chrome_json ]
      );
      ( "provenance",
        [
          Alcotest.test_case "scoped collection" `Quick test_provenance_collect;
          Alcotest.test_case "sidecar JSON shapes" `Quick test_provenance_json;
          Alcotest.test_case "Family.generate carries its schedule" `Quick
            test_family_provenance;
        ] );
      ( "cli",
        [
          Alcotest.test_case "ukrgen exit codes" `Quick test_cli_exit_codes;
          Alcotest.test_case "report exit codes" `Quick test_report_exit_codes;
        ] );
      ( "json",
        [
          Alcotest.test_case "every writer reparses" `Quick test_writers_reparse;
          Alcotest.test_case "UTF-8 host_cc and non-finite numbers" `Quick
            test_utf8_and_non_finite;
          Alcotest.test_case "compact output fixture" `Quick test_compact_fixture;
        ] );
    ]
