(* The ukrgen-serve daemon: line protocol, request counters, and a full
   socket round trip with graceful shutdown.

   handle_request is exercised directly for the protocol contract (it
   never raises — malformed input becomes an ERR response and an error
   count, not a dead worker), then a real daemon is started on a temp
   socket and driven through the Client to pin the wire format, the warm
   second-request cache hit, and SHUTDOWN draining. *)

module Serve = Exo_serve.Serve
module Store = Exo_cache.Store

let req line = Serve.handle_request (Atomic.make false) line

let status line =
  match req line with [] -> Alcotest.fail "empty response" | s :: _ -> s

let test_ping () =
  Alcotest.(check (list string)) "pong" [ "OK pong" ] (req "PING");
  Alcotest.(check (list string)) "case-insensitive verb" [ "OK pong" ] (req "ping")

let test_protocol_errors () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Fmt.str "%S answers ERR" line)
        true
        (String.length (status line) >= 3
        && String.sub (status line) 0 3 = "ERR"))
    [
      "";
      "   ";
      "BOGUS";
      "GENERATE";
      "GENERATE neon-f32";
      "GENERATE no-such-kit 8x12";
      "GENERATE neon-f32 8by12";
      "GENERATE neon-f32 0x12";
      "TUNE 1 2";
      "TUNE a b c";
      "RUN 99999 4 4";
    ]

let test_generate () =
  match req "GENERATE neon-f32 8x12" with
  | s :: payload ->
      Alcotest.(check string) "status" "OK generated neon-f32 8x12" s;
      List.iter
        (fun want ->
          Alcotest.(check bool) (want ^ " reported") true (List.mem want payload))
        [ "kit neon-f32"; "shape 8x12"; "style packed"; "fast true"; "proved true" ]
  | [] -> Alcotest.fail "empty response"

let test_lint_and_tune () =
  (match req "LINT neon-f32 4x4" with
  | s :: payload ->
      Alcotest.(check string) "lint status" "OK lint neon-f32 4x4" s;
      Alcotest.(check bool) "proved" true (List.mem "proved true" payload)
  | [] -> Alcotest.fail "empty response");
  match req "TUNE 96 96 96" with
  | s :: payload ->
      Alcotest.(check bool) "tune status" true
        (String.length s >= 8 && String.sub s 0 8 = "OK tuned");
      Alcotest.(check bool) "a ranking line per shape" true (List.length payload > 0)
  | [] -> Alcotest.fail "empty response"

let test_shutdown_sets_stop () =
  let stop = Atomic.make false in
  Alcotest.(check (list string))
    "bye" [ "OK bye" ]
    (Serve.handle_request stop "SHUTDOWN");
  Alcotest.(check bool) "stop flag raised" true (Atomic.get stop)

let test_request_counters () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "NOPE");
  let total, errors, verbs = Serve.request_counts () in
  Alcotest.(check int) "total" 3 total;
  Alcotest.(check int) "errors" 1 errors;
  Alcotest.(check (option int)) "ping count" (Some 2) (List.assoc_opt "PING" verbs)

(* --- latency histograms, STATS lines, METRICS exposition ------------------ *)

let payload line =
  match req line with [] -> Alcotest.fail "empty response" | _ :: p -> p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find_line ~prefix lines =
  match List.find_opt (starts_with ~prefix) lines with
  | Some l -> l
  | None -> Alcotest.fail (Fmt.str "no line starting with %S" prefix)

let test_stats_latency_lines () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "GENERATE");
  (* malformed but a known verb: the per-verb error counter must move *)
  let p = payload "STATS" in
  Alcotest.(check string) "per-verb request count" "requests_ping 2"
    (find_line ~prefix:"requests_ping" p);
  Alcotest.(check string) "per-verb error count" "errors_generate 1"
    (find_line ~prefix:"errors_generate" p);
  Alcotest.(check string) "a healthy verb reports zero errors" "errors_ping 0"
    (find_line ~prefix:"errors_ping" p);
  (* latency_ping_us count 2 p50 F p95 F p99 F — quantiles in microseconds,
     nonnegative, and monotone p50 <= p95 <= p99 *)
  let l = find_line ~prefix:"latency_ping_us " p in
  (match String.split_on_char ' ' l with
  | [ _; "count"; "2"; "p50"; a; "p95"; b; "p99"; c ] ->
      let a = float_of_string a
      and b = float_of_string b
      and c = float_of_string c in
      Alcotest.(check bool) "quantiles nonnegative" true (a >= 0.0);
      Alcotest.(check bool) "quantiles monotone" true (a <= b && b <= c)
  | _ -> Alcotest.fail (Fmt.str "unexpected latency line %S" l))

let test_metrics_exposition () =
  Serve.reset_request_counts ();
  ignore (req "PING");
  ignore (req "PING");
  ignore (req "GENERATE");
  let p = payload "METRICS" in
  let has affix = List.exists (starts_with ~prefix:affix) p in
  Alcotest.(check bool) "histogram TYPE line" true
    (List.mem "# TYPE ukrgen_request_latency_us histogram" p);
  Alcotest.(check bool) "a ping bucket series" true
    (has "ukrgen_request_latency_us_bucket{verb=\"ping\",le=\"");
  Alcotest.(check bool) "+Inf closes the ping series" true
    (List.mem "ukrgen_request_latency_us_bucket{verb=\"ping\",le=\"+Inf\"} 2" p);
  Alcotest.(check bool) "count matches observations" true
    (List.mem "ukrgen_request_latency_us_count{verb=\"ping\"} 2" p);
  Alcotest.(check bool) "per-verb error counter" true
    (List.mem "ukrgen_request_errors{verb=\"generate\"} 1" p);
  Alcotest.(check bool) "cache counters exposed" true
    (has "ukrgen_cache_hits ");
  (* cumulative buckets never decrease along the le bounds *)
  let cums =
    List.filter_map
      (fun l ->
        if starts_with ~prefix:"ukrgen_request_latency_us_bucket{verb=\"ping\"" l
        then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some
                (int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      p
  in
  Alcotest.(check bool) "cumulative series is monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) n -> (ok && n >= prev, n))
          (true, 0) cums))

(* --- the JSONL access log -------------------------------------------------- *)

module Ledger = Exo_ledger.Ledger

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let with_access_log ?max_bytes f =
  let path = Filename.temp_file "exo-serve-access" ".jsonl" in
  Sys.remove path;
  Serve.set_access_log ?max_bytes (Some path);
  Fun.protect
    ~finally:(fun () ->
      Serve.set_access_log None;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1" ])
  @@ fun () -> f path

let test_access_log_lines () =
  with_access_log @@ fun path ->
  Alcotest.(check (option string))
    "path queryable" (Some path)
    (Serve.access_log_path ());
  ignore (req "PING");
  ignore (req "NOPE");
  let lines = read_lines path in
  Alcotest.(check int) "one line per request" 2 (List.length lines);
  List.iter
    (fun l ->
      match Ledger.Json.parse l with
      | Error e -> Alcotest.fail (Fmt.str "unparseable access line %S: %s" l e)
      | Ok j ->
          Alcotest.(check bool) "ts present" true
            (Option.is_some Ledger.Json.(Option.bind (member "ts" j) num));
          Alcotest.(check bool) "us present" true
            (Option.is_some Ledger.Json.(Option.bind (member "us" j) num)))
    lines;
  let verb_ok l =
    Ledger.Json.(
      match parse l with
      | Ok j ->
          ( Option.bind (member "verb" j) str,
            Option.bind (member "ok" j) bool_ )
      | Error _ -> (None, None))
  in
  (match lines with
  | [ a; b ] ->
      Alcotest.(check (pair (option string) (option bool)))
        "ping succeeds" (Some "PING", Some true) (verb_ok a);
      Alcotest.(check (pair (option string) (option bool)))
        "unknown verb logged as failed" (Some "NOPE", Some false) (verb_ok b)
  | _ -> Alcotest.fail "expected exactly two lines")

let test_access_log_rotation () =
  with_access_log ~max_bytes:256 @@ fun path ->
  for _ = 1 to 40 do
    ignore (req "PING")
  done;
  Alcotest.(check bool) "live file present" true (Sys.file_exists path);
  Alcotest.(check bool) "rotated file present" true
    (Sys.file_exists (path ^ ".1"));
  (* rotation bounds each file near max_bytes (one line of slack) and
     every surviving line is whole — rename never tears a record *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "%s bounded" (Filename.basename p))
        true
        ((Unix.stat p).Unix.st_size <= 256 + 128);
      List.iter
        (fun l ->
          match Ledger.Json.parse l with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Fmt.str "torn line %S: %s" l e))
        (read_lines p))
    [ path; path ^ ".1" ]

(* --- the socket ---------------------------------------------------------- *)

let temp_dir () =
  let f = Filename.temp_file "exo-serve-test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_socket_round_trip () =
  let dir = temp_dir () in
  Store.set_ambient (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Store.set_ambient None;
      rm_rf dir)
  @@ fun () ->
  let socket = Filename.temp_file "exo-serve-test" ".sock" in
  let t = Serve.start ~workers:2 ~socket () in
  Fun.protect ~finally:(fun () ->
      Serve.stop t;
      Serve.wait t)
  @@ fun () ->
  let s, _ = Serve.Client.request ~socket "PING" in
  Alcotest.(check string) "ping over the wire" "OK pong" s;
  (* identical requests: the first warms the in-memory memo (the daemon
     start already built the table, so the ambient store reports hits) *)
  let s1, p1 = Serve.Client.request ~socket "GENERATE neon-f32 8x12" in
  let s2, p2 = Serve.Client.request ~socket "GENERATE neon-f32 8x12" in
  Alcotest.(check string) "generate ok" "OK generated neon-f32 8x12" s1;
  Alcotest.(check string) "repeat identical status" s1 s2;
  Alcotest.(check (list string)) "repeat identical payload" p1 p2;
  (* a concurrent pair of clients (the daemon has two accept workers) *)
  let d1 = Domain.spawn (fun () -> Serve.Client.request ~socket "STATS") in
  let d2 = Domain.spawn (fun () -> Serve.Client.request ~socket "PING") in
  let st1, _ = Domain.join d1 and st2, _ = Domain.join d2 in
  Alcotest.(check bool) "concurrent stats ok" true (Serve.Client.ok st1);
  Alcotest.(check string) "concurrent ping ok" "OK pong" st2;
  (* graceful shutdown over the wire: the daemon answers, then drains *)
  let s, _ = Serve.Client.request ~socket "SHUTDOWN" in
  Alcotest.(check string) "shutdown acknowledged" "OK bye" s;
  Serve.wait t;
  Alcotest.(check bool) "socket unlinked after drain" false (Sys.file_exists socket)

(* a request line past the bound: ERR, counted, connection dropped — and
   the daemon still answers the next connection *)
let test_oversized_request_line () =
  let socket = Filename.temp_file "exo-serve-test" ".sock" in
  let t = Serve.start ~workers:1 ~warm_kits:[] ~socket () in
  Fun.protect ~finally:(fun () ->
      Serve.stop t;
      Serve.wait t)
  @@ fun () ->
  let _, errors0, _ = Serve.request_counts () in
  let s, payload = Serve.Client.request ~socket (String.make 10_000 'A') in
  Alcotest.(check string) "oversized line answers ERR" "ERR request line too long" s;
  Alcotest.(check (list string)) "no payload" [] payload;
  let _, errors1, _ = Serve.request_counts () in
  Alcotest.(check int) "counted as an error" (errors0 + 1) errors1;
  let s, _ = Serve.Client.request ~socket "PING" in
  Alcotest.(check string) "a new connection still answers" "OK pong" s

(* a client that hangs up before reading its reply: the write fails with
   EPIPE, which must drop that connection only — the one worker still
   answers the next client *)
let test_client_hang_up () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = Filename.temp_file "exo-serve-test" ".sock" in
  let t = Serve.start ~workers:1 ~warm_kits:[] ~socket () in
  Fun.protect ~finally:(fun () ->
      Serve.stop t;
      Serve.wait t)
  @@ fun () ->
  (* raw connections with a receive timeout: a dead worker fails the test
     instead of hanging it *)
  let send line =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    let b = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write fd b 0 (Bytes.length b));
    fd
  in
  Unix.close (send "TUNE 500 500 500");
  let fd = send "PING" in
  let buf = Bytes.create 64 in
  let n = try Unix.read fd buf 0 64 with Unix.Unix_error _ -> 0 in
  Unix.close fd;
  Alcotest.(check string) "the worker survives the hang-up" "OK pong\n.\n"
    (Bytes.sub_string buf 0 n)

let test_access_log_escapes () =
  with_access_log @@ fun path ->
  let verb = "B\"AD\\VERB\001" in
  ignore (req verb);
  match read_lines path with
  | [ l ] -> (
      match Ledger.Json.parse l with
      | Ok j ->
          Alcotest.(check (option string)) "verb round-trips" (Some verb)
            (Option.bind (Ledger.Json.member "verb" j) Ledger.Json.str)
      | Error e -> Alcotest.fail (Fmt.str "unparseable access line %S: %s" l e))
  | _ -> Alcotest.fail "expected exactly one line"

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "malformed requests answer ERR" `Quick
            test_protocol_errors;
          Alcotest.test_case "generate payload" `Quick test_generate;
          Alcotest.test_case "lint and tune payloads" `Quick test_lint_and_tune;
          Alcotest.test_case "shutdown raises the stop flag" `Quick
            test_shutdown_sets_stop;
          Alcotest.test_case "request counters" `Quick test_request_counters;
        ] );
      ( "observability",
        [
          Alcotest.test_case "STATS latency and per-verb error lines" `Quick
            test_stats_latency_lines;
          Alcotest.test_case "METRICS Prometheus exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "access log lines" `Quick test_access_log_lines;
          Alcotest.test_case "access log rotation" `Quick
            test_access_log_rotation;
          Alcotest.test_case "access log escapes the verb" `Quick
            test_access_log_escapes;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round trip, concurrency, graceful drain" `Quick
            test_socket_round_trip;
          Alcotest.test_case "oversized request line" `Quick
            test_oversized_request_line;
          Alcotest.test_case "client hang-up before the reply" `Quick
            test_client_hang_up;
        ] );
    ]
