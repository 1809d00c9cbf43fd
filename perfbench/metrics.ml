(** Every metric the benchmark prints, with its unit, and the result line.
    [BENCHMARK.json] lists the same names (a self-test keeps the two in
    step). An untraced run prints exactly {!end_to_end}, a traced run
    exactly {!per_layer}. *)

module Json = Exo_ledger.Ledger.Json

let end_to_end =
  [
    ("setup_s", "s");
    ("iter_ms_p90", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("family.generate_s", "s");
    ("tierlint.check_s", "s");
    ("tierlint.proved", "count");
    ("c_emit.unit_s", "s");
    ("c_emit.unit_kb", "KB");
    ("jit.compile_s", "s");
    ("store.hits", "count");
    ("store.misses", "count");
    ("registry.table_hydrated_s", "s");
    ("registry.native_entries", "count");
    ("registry.native_rejected", "count");
    ("packing.pack_a_ms", "ms");
    ("packing.pack_b_ms", "ms");
    ("packing.pack_a_gbps", "GB/s");
    ("packing.pack_b_gbps", "GB/s");
    ("gemm.nonukr_ms", "ms");
    ("gemm.nonukr_share", "fraction");
    ("gemm.ctile_ms", "ms");
    ("ukr.ms", "ms");
    ("ukr.gflops", "GFLOP/s");
    ("ukr.calls", "count");
    ("ukr.fringe_calls", "count");
    ("registry.native_calls", "count");
    ("registry.ba_calls", "count");
    ("registry.fallback_calls", "count");
    ("registry.native_frac", "fraction");
    ("pool.tasks", "count");
    ("serve.lookup_server_us_p50", "us");
    ("serve.transport_us_p50", "us");
    ("serve.run_server_ms_p50", "ms");
    ("serve.run_prep_ms_p50", "ms");
    ("serve.refused_cap", "count");
    ("serve.errors", "count");
    ("trace.overhead_frac", "fraction");
    ("trace.coverage", "fraction");
    ("trace.flagged", "count");
  ]

(** The result object: [correct], [attempted], [failed] and every metric
    of the run's kind with its unit. Raises [Invalid_argument] if
    [values] misses, repeats or adds a metric, or holds a non-finite
    value — a malformed result is never printed. *)
let result ~trace ~correct ~attempted ~failed (values : (string * float) list) :
    Json.t =
  let spec = if trace then per_layer else end_to_end in
  let names = List.map fst values in
  List.iter
    (fun (n, v) ->
      if not (List.mem_assoc n spec) then invalid_arg ("unknown metric " ^ n);
      if List.length (List.filter (( = ) n) names) > 1 then
        invalid_arg ("metric twice: " ^ n);
      if not (Float.is_finite v) then invalid_arg ("non-finite metric " ^ n))
    values;
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, unit) ->
               match List.assoc_opt n values with
               | Some v -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
               | None -> invalid_arg ("missing metric " ^ n))
             spec) );
    ]
