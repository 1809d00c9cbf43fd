(* The benchmark's own tests:
     dune test --root . --profile release perfbench
   Seeds reproduce inputs and request sequences, the percentile helper
   counts samples correctly, the sampled-cell oracle rejects a perturbed
   kernel table, and the printed metric names match BENCHMARK.json. *)

open Perfbench
module Gemm = Exo_blis.Gemm
module Matrix = Exo_blis.Matrix
module Analytical = Exo_blis.Analytical
module Json = Exo_ledger.Ledger.Json
module BA1 = Bigarray.Array1

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* --- seeds ---------------------------------------------------------- *)

let requests seed n =
  let next = Mix.lookups seed in
  List.init n (fun _ -> Mix.line (next ()))

let operands_equal x y =
  List.for_all2
    (fun (a, b, c, beta) (a', b', c', beta') ->
      Matrix.equal a a' && Matrix.equal b b' && Matrix.equal c c' && beta = beta')
    x y

let seeds () =
  check "same seed, same request sequence" (requests 7 500 = requests 7 500);
  check "other seed, other request sequence" (requests 7 500 <> requests 8 500);
  let mix = requests 7 5000 in
  let lints = List.length (List.filter (String.starts_with ~prefix:"LINT") mix) in
  check "one lookup in four is LINT" (lints = 1250);
  List.iter
    (fun w ->
      let ops s = Mix.gemm_operands ~seed:s w in
      check (w ^ ": same seed, same operands") (operands_equal (ops 3) (ops 3));
      check (w ^ ": other seed, other operands") (not (operands_equal (ops 3) (ops 4))))
    [ "gemm-square"; "dnn-resnet50" ];
  check "dnn-resnet50 is the 53 conv GEMMs of one pass"
    (List.length (Mix.gemm_operands ~seed:1 "dnn-resnet50") = 53)

(* --- percentiles ---------------------------------------------------- *)

(* Nearest rank: at least ⌈p·n/100⌉ samples at or below the value, fewer
   strictly below it — so at most n − ⌈p·n/100⌉ samples lie beyond it. *)
let percentiles () =
  let st = Random.State.make [| 0x9e7c |] in
  let ok = ref true in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int st 300 in
    (* few distinct values, so ties are common *)
    let xs = List.init n (fun _ -> float_of_int (Random.State.int st 20)) in
    List.iter
      (fun p ->
        let v = Util.percentile p xs in
        let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
        let at_or_below = List.length (List.filter (fun x -> x <= v) xs) in
        let below = List.length (List.filter (fun x -> x < v) xs) in
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        if not (at_or_below >= rank && below < rank && beyond <= n - rank) then ok := false)
      [ 0.0; 10.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]
  done;
  check "percentile counts samples beyond each percentile" !ok;
  check "percentile of 1..100" (Util.percentile 90.0 (List.init 100 (fun i -> float_of_int (i + 1))) = 90.0)

(* --- the sampled-cell oracle ---------------------------------------- *)

(* A reference kernel table in the [blis_ba] tile layout: entry
   (mr'-1)·nr + nr'-1 does C[j·mr'+i] += Σₖ A[k·mr'+i]·B[k·nr'+j] in f32. *)
let reference_table ~mr ~nr : Gemm.ukr_ba array =
  Array.init (mr * nr) (fun idx ->
      let mr' = (idx / nr) + 1 and nr' = (idx mod nr) + 1 in
      fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
        for j = 0 to nr' - 1 do
          for i = 0 to mr' - 1 do
            let acc = ref (BA1.get c (co + (j * mr') + i)) in
            for k = 0 to kc - 1 do
              acc :=
                Util.r32
                  (!acc +. Util.r32 (BA1.get ac (ao + (k * mr') + i) *. BA1.get bc (bo + (k * nr') + j)))
            done;
            BA1.set c (co + (j * mr') + i) !acc
          done
        done)

(* Entry [idx] adds 2⁻⁶ to every cell of its tile after computing it. *)
let perturb (table : Gemm.ukr_ba array) ~nr ~idx =
  let t = Array.copy table in
  let u = table.(idx) in
  let cells = ((idx / nr) + 1) * ((idx mod nr) + 1) in
  t.(idx) <-
    (fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
      u ~kc ~ac ~ao ~bc ~bo ~c ~co;
      for i = 0 to cells - 1 do
        BA1.set c (co + i) (BA1.get c (co + i) +. 0.015625)
      done);
  t

let oracle () =
  let mr = 4 and nr = 6 in
  let blocking = { Analytical.mc = 16; kc = 8; nc = 24 } in
  let rejects ~name ~m ~n ~k ~table ~expect_bad =
    let st = Random.State.make [| m; n; k |] in
    let a = Oracle.f32_matrix m k st and b = Oracle.f32_matrix k n st in
    let c0 = Oracle.f32_matrix m n st in
    let c = Matrix.copy c0 in
    Gemm.blis_ba ~blocking ~mr ~nr ~kernels:(fun () -> table) a b c;
    let bad = Oracle.check_cells ~st:(Random.State.make [| 1 |]) ~samples:64 ~beta:1.0 a b c0 c in
    check name (if expect_bad then bad > 0 else bad = 0)
  in
  let clean = reference_table ~mr ~nr in
  rejects ~name:"oracle accepts the reference table" ~m:40 ~n:30 ~k:20 ~table:clean
    ~expect_bad:false;
  rejects ~name:"oracle rejects a perturbed full-tile entry" ~m:40 ~n:36 ~k:20
    ~table:(perturb clean ~nr ~idx:((mr * nr) - 1))
    ~expect_bad:true;
  rejects ~name:"oracle rejects a perturbed fringe entry" ~m:3 ~n:5 ~k:20
    ~table:(perturb clean ~nr ~idx:((2 * nr) + 4))
    ~expect_bad:true;
  check "run checksum matches a naive GEMM"
    (let m, n, k = (49, 30, 17) in
     let a, b = Oracle.run_inputs ~m ~n ~k in
     let c = Matrix.create m n in
     Gemm.naive ~beta:0.0 a b c;
     Float.equal (Array.fold_left ( +. ) 0.0 c.Matrix.data) (Oracle.run_checksum ~m ~n ~k))

(* --- metric names ---------------------------------------------------- *)

let names path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = match Json.parse text with Ok d -> d | Error e -> failwith e in
  let section key =
    match Option.bind (Json.member key doc) Json.list_ with
    | Some l ->
        List.filter_map
          (fun m ->
            match (Option.bind (Json.member "name" m) Json.str, Option.bind (Json.member "unit" m) Json.str) with
            | Some n, Some u -> Some (n, u)
            | _ -> None)
          l
    | None -> []
  in
  let sorted = List.sort compare in
  check "end-to-end metrics match BENCHMARK.json"
    (sorted (section "end_to_end") = sorted Metrics.end_to_end);
  check "per-layer metrics match BENCHMARK.json"
    (sorted (section "per_layer") = sorted Metrics.per_layer);
  check "a result missing a metric is refused"
    (match Metrics.result ~trace:false ~correct:true ~attempted:1 ~failed:0 [ ("setup_s", 1.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  seeds ();
  percentiles ();
  oracle ();
  names Sys.argv.(1);
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
