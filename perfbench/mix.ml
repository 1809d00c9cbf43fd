(** Workload shapes, operands and the seeded daemon lookups. *)

module Models = Exo_workloads.Models
module Matrix = Exo_blis.Matrix

(** The 53 conv GEMMs (m, n, k) of one ResNet-50 v1.5 pass at batch 1:
    Table I's 20 shapes, each repeated by its multiplicity, in layer order. *)
let resnet50_pass : (int * int * int) list =
  List.concat_map
    (fun (l : Models.layer) -> List.init l.Models.count (fun _ -> Models.gemm_dims l))
    Models.resnet50

(** The largest dimension a shape may have and still be in the
    "within cap" class of [RUN]. The class is a property of the shape,
    fixed here; it does not follow the daemon's replies. *)
let run_dim_class = 2048

let within_cap (m, n, k) = m <= run_dim_class && n <= run_dim_class && k <= run_dim_class

type request =
  | Lookup of string * int * int  (** [GENERATE]/[LINT] of neon-f32 mr×nr *)
  | Run of int * int * int

let line = function
  | Lookup (verb, mr, nr) -> Printf.sprintf "%s neon-f32 %dx%d" verb mr nr
  | Run (m, n, k) -> Printf.sprintf "RUN %d %d %d" m n k

(* Draws from a shuffled deck of [cards], reshuffled whenever it runs
   out: every stretch of the sequence keeps the deck's proportions, and
   only the order depends on the seed. *)
let deck (st : Random.State.t) (cards : 'a list) : unit -> 'a =
  let d = Array.of_list cards in
  let pos = ref (Array.length d) in
  fun () ->
    if !pos = Array.length d then begin
      for i = Array.length d - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = d.(i) in
        d.(i) <- d.(j);
        d.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    d.(!pos - 1)

(** The in-process daemon's lookups: [GENERATE] or [LINT] (3 to 1) of
    one of the 96 neon-f32 shapes within 8×12. Each choice draws from its
    own shuffled deck, so a run's proportions do not depend on the seed.
    [LINT] re-lowers and re-proves and takes several times longer than
    [GENERATE]. [lookups seed] returns the request generator; the same
    seed yields the same sequence. *)
let lookups (seed : int) : unit -> request =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let verb = deck st [ "GENERATE"; "GENERATE"; "GENERATE"; "LINT" ] in
  let shape = deck st (List.init 96 (fun i -> ((i / 12) + 1, (i mod 12) + 1))) in
  fun () ->
    let mr, nr = shape () in
    Lookup (verb (), mr, nr)

(** The GEMM workloads' operands, from the seed alone: one (A, B, C₀, β)
    per GEMM. [gemm-square] is one 1008³ GEMM accumulating into a general
    C₀ (β = 1); [dnn-resnet50] is the pass above written through β = 0
    (C₀ zero), with the layers of one shape sharing A and B. Every value
    is a general float exactly representable in binary32. *)
let gemm_operands ~seed (workload : string) :
    (Matrix.t * Matrix.t * Matrix.t * float) list =
  let st = Random.State.make [| seed; 0x9e33 |] in
  let gen = Oracle.f32_matrix in
  if workload = "gemm-square" then
    let n = 1008 in
    let a = gen n n st in
    let b = gen n n st in
    [ (a, b, gen n n st, 1.0) ]
  else begin
    let shared = Hashtbl.create 32 in
    List.map
      (fun (m, n, k) ->
        let a, b =
          match Hashtbl.find_opt shared (m, n, k) with
          | Some ab -> ab
          | None ->
              let a = gen m k st in
              let ab = (a, gen k n st) in
              Hashtbl.replace shared (m, n, k) ab;
              ab
        in
        (a, b, Matrix.create m n, 0.0))
      resnet50_pass
  end
