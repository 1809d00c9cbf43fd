(** Micro-kernel tape lowering and the Bigarray execution tier.

    The generated micro-kernel is symbolically executed once ({!Ukr_lower})
    into a tape of straight-line memory operations with addresses affine in
    the k-loop counter. That tape is the auditable {!Summary} the static
    certifier ({!Exo_check.Tierlint}) proves, and it decides whether a proc
    enters the Bigarray tier: a monomorphized OCaml loop nest over float32
    Bigarrays, specialized to (mr, nr). The tree-walking {!Interp} is the
    reference semantics: the integer probe that certifies an unproved proc
    runs it, and procs this tier refuses run it too. *)

open Exo_ir
open Ir

(** The interpreter's [num] tag is statically determined: [Var] only ever
    holds integers (buffers read through [Read]), [Read] always yields data.
    Mixed binops promote to float exactly like [Interp.to_float]. *)
let rec is_int (e : expr) : bool =
  match e with
  | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> true
  | Float _ | Read _ -> false
  | Neg a -> is_int a
  | Binop (_, a, b) -> is_int a && is_int b

(* ------------------------------------------------------------------ *)
(* Micro-kernel tape lowering                                          *)

(** The lowering behind the Bigarray tier and its certificates, for the
    one proc shape the GEMM hot path runs tens of thousands of times per
    matrix: the generated micro-kernel signature [(KC: size, alpha: dt[1],
    Ac: dt[KC,MR], Bc: dt[KC,NR], beta: dt[1], C: dt[NR,MR])].

    The proc is {e symbolically executed} at lowering time: every loop
    except the single KC-trip k loop is fully unrolled, every instruction
    call is inlined with its window geometry folded to constants, and every
    register-memory cell ([SAlloc]) becomes a fixed slot in one flat scratch
    slab. What survives is a tape of straight-line memory operations whose
    addresses are affine in k alone ([base + k*step] into Ac, Bc, C or the
    slab) — the {!Summary} that {!Exo_check.Tierlint} proves and from which
    {!to_ukr_ba} selects its executor.

    Soundness: the lowering refuses anything it cannot describe exactly.
    Structural refusals (non-affine indices, data reads of alpha or beta, a
    read of a slab cell the tape has not provably written — the
    interpreter's NaN-init semantics — symbolic loop nests, unsupported
    expression shapes) return [None]; KC-dependent preconditions and a
    kc > 0 requirement are recorded, and the Bigarray tier refuses procs
    that carry either. *)
module Ukr_lower = struct
  exception Bail

  let op_budget = 200_000

  type space = SpA | SpB | SpC | SpSlab

  (** Affine integer value [ak*k + akc*KC + a0] over the k-loop counter and
      the runtime depth KC. *)
  type aff = { ak : int; akc : int; a0 : int }

  let aconst n = { ak = 0; akc = 0; a0 = n }
  let aadd x y = { ak = x.ak + y.ak; akc = x.akc + y.akc; a0 = x.a0 + y.a0 }
  let asub x y = { ak = x.ak - y.ak; akc = x.akc - y.akc; a0 = x.a0 - y.a0 }
  let aneg x = { ak = -x.ak; akc = -x.akc; a0 = -x.a0 }
  let ascale n x = { ak = n * x.ak; akc = n * x.akc; a0 = n * x.a0 }
  let aisconst x = x.ak = 0 && x.akc = 0
  let aconstv x = if aisconst x then x.a0 else raise Bail

  (** A lowering-time view: which memory space it aliases ([None] for the
      alpha/beta scalars, whose data reads we refuse), its flat offset, and
      constant per-dimension strides. *)
  type uview = { vsp : space option; voff : aff; vstr : int list }

  type sval = SInt of aff | SView of uview

  (** One memory operand of a tape op: space, base, per-k step. *)
  type operand = { osp : space; ob : int; ok : int }

  type rt =
    | RConst of float
    | RRead of operand
    | RBin of binop * rt * rt
    | RNeg of rt

  type op = { o_dst : operand; o_red : bool; o_rhs : rt }
  type seg = { s_loop : bool; s_ops : op list }
  type wstat = WUncond | WInLoop
  type bval = BConst of bool | BKc of (int -> bool)

  type st = {
    env : sval Sym.Tbl.t;
    mutable slab_len : int;
    written : (int, wstat) Hashtbl.t;
    body_writes : (int, unit) Hashtbl.t;
    mutable in_loop : bool;
    mutable needs_kc_pos : bool;
    mutable rt_preds : (int -> bool) list;
    mutable cur : op list;  (* reversed ops of the open segment *)
    mutable segs : seg list;  (* reversed finished segments *)
    mutable nops : int;
    dt : Dtype.t;
  }

  let strides_of_const (ds : int list) : int list =
    let n = List.length ds in
    let a = Array.of_list ds in
    let s = Array.make n 1 in
    for i = n - 2 downto 0 do
      s.(i) <- s.(i + 1) * a.(i + 1)
    done;
    Array.to_list s

  (* ---------------- symbolic evaluation ---------------- *)

  let rec eint st (e : expr) : aff =
    match e with
    | Int n -> aconst n
    | Var v -> (
        match Sym.Tbl.find_opt st.env v with
        | Some (SInt a) -> a
        | _ -> raise Bail)
    | Binop (Add, a, b) -> aadd (eint st a) (eint st b)
    | Binop (Sub, a, b) -> asub (eint st a) (eint st b)
    | Binop (Mul, a, b) ->
        let x = eint st a and y = eint st b in
        if aisconst x then ascale x.a0 y
        else if aisconst y then ascale y.a0 x
        else raise Bail
    | Binop (Div, a, b) ->
        let x = aconstv (eint st a) and y = aconstv (eint st b) in
        if y = 0 then raise Bail;
        aconst (x / y)
    | Binop (Mod, a, b) ->
        let x = aconstv (eint st a) and y = aconstv (eint st b) in
        if y = 0 then raise Bail;
        aconst (x mod y)
    | Neg a -> aneg (eint st a)
    | Stride (b, d) -> (
        match Sym.Tbl.find_opt st.env b with
        | Some (SView v) -> (
            match List.nth_opt v.vstr d with
            | Some s -> aconst s
            | None -> raise Bail)
        | _ -> raise Bail)
    | Cmp _ | And _ | Or _ | Not _ -> (
        match ebool st e with
        | BConst b -> aconst (if b then 1 else 0)
        | BKc _ -> raise Bail)
    | Float _ | Read _ -> raise Bail

  and ebool st (e : expr) : bval =
    match e with
    | Cmp (op, a, b) ->
        let x = eint st a and y = eint st b in
        if x.ak <> 0 || y.ak <> 0 then raise Bail;
        let f kc =
          let c = compare ((x.akc * kc) + x.a0) ((y.akc * kc) + y.a0) in
          match op with
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | Eq -> c = 0
          | Ne -> c <> 0
        in
        if x.akc = 0 && y.akc = 0 then BConst (f 0) else BKc f
    | And (a, b) -> (
        match ebool st a with
        | BConst false -> BConst false
        | BConst true -> ebool st b
        | BKc f -> (
            match ebool st b with
            | BConst false -> BConst false
            | BConst true -> BKc f
            | BKc g -> BKc (fun kc -> f kc && g kc)))
    | Or (a, b) -> (
        match ebool st a with
        | BConst true -> BConst true
        | BConst false -> ebool st b
        | BKc f -> (
            match ebool st b with
            | BConst true -> BConst true
            | BConst false -> BKc f
            | BKc g -> BKc (fun kc -> f kc || g kc)))
    | Not a -> (
        match ebool st a with
        | BConst b -> BConst (not b)
        | BKc f -> BKc (fun kc -> not (f kc)))
    | _ ->
        let x = eint st e in
        if x.ak <> 0 then raise Bail
        else if x.akc = 0 then BConst (x.a0 <> 0)
        else BKc (fun kc -> (x.akc * kc) + x.a0 <> 0)

  let eview st (w : window) : uview =
    let base =
      match Sym.Tbl.find_opt st.env w.wbuf with
      | Some (SView v) -> v
      | _ -> raise Bail
    in
    if List.length w.widx <> List.length base.vstr then raise Bail;
    let voff = ref base.voff and kept = ref [] in
    List.iter2
      (fun wa stride ->
        match wa with
        | Pt e -> voff := aadd !voff (ascale stride (eint st e))
        | Iv (lo, _hi) ->
            voff := aadd !voff (ascale stride (eint st lo));
            kept := stride :: !kept)
      w.widx base.vstr;
    { vsp = base.vsp; voff = !voff; vstr = List.rev !kept }

  let operand_of st (v : uview) (idx : aff list) : operand =
    if List.length idx <> List.length v.vstr then raise Bail;
    let a = List.fold_left2 (fun acc i s -> aadd acc (ascale s i)) v.voff idx v.vstr in
    if a.akc <> 0 then raise Bail;
    match v.vsp with
    | None -> raise Bail
    | Some SpSlab ->
        if a.ak <> 0 then raise Bail;
        if a.a0 < 0 || a.a0 >= st.slab_len then raise Bail;
        { osp = SpSlab; ob = a.a0; ok = 0 }
    | Some sp -> { osp = sp; ob = a.a0; ok = a.ak }

  (* Slab reads must be provably preceded by a write: the interpreter
     allocates register memory NaN-initialized, so a read of a never-written
     cell is observable. A cell written only inside the k loop and read
     after it needs kc >= 1 at runtime (flagged, guarded per call). *)
  let check_read st (o : operand) =
    if o.osp = SpSlab then
      if Hashtbl.mem st.body_writes o.ob then ()
      else
        match Hashtbl.find_opt st.written o.ob with
        | Some WUncond -> ()
        | Some WInLoop -> if not st.in_loop then st.needs_kc_pos <- true
        | None -> raise Bail

  let mark_write st (o : operand) =
    if o.osp = SpSlab then
      if st.in_loop then Hashtbl.replace st.body_writes o.ob ()
      else Hashtbl.replace st.written o.ob WUncond

  let rec edata st (e : expr) : rt =
    if is_int e then RConst (float_of_int (aconstv (eint st e)))
    else
      match e with
      | Float f -> RConst f
      | Read (b, idx) ->
          let v =
            match Sym.Tbl.find_opt st.env b with
            | Some (SView v) -> v
            | _ -> raise Bail
          in
          let o = operand_of st v (List.map (eint st) idx) in
          check_read st o;
          RRead o
      | Binop (bop, a, b) -> (
          match bop with
          | Add | Sub | Mul | Div -> RBin (bop, edata st a, edata st b)
          | Mod -> raise Bail (* "% on data values" is a runtime error *))
      | Neg a -> RNeg (edata st a)
      | Int _ | Var _ | Stride _ | Cmp _ | And _ | Or _ | Not _ -> raise Bail

  (* ---------------- statement execution ---------------- *)

  let emit st o =
    st.nops <- st.nops + 1;
    if st.nops > op_budget then raise Bail;
    st.cur <- o :: st.cur

  let flush st ~loop =
    let ops = List.rev st.cur in
    st.cur <- [];
    if ops <> [] then st.segs <- { s_loop = loop; s_ops = ops } :: st.segs

  let rec estmt st (s : stmt) : unit =
    match s with
    | SAssign (b, idx, rhs) -> write st b idx rhs false
    | SReduce (b, idx, rhs) -> write st b idx rhs true
    | SAlloc (b, dt, dims, _mem) ->
        if dt <> st.dt then raise Bail;
        let ds = List.map (fun d -> aconstv (eint st d)) dims in
        if List.exists (fun d -> d < 0) ds then raise Bail;
        Sym.Tbl.replace st.env b
          (SView
             {
               vsp = Some SpSlab;
               voff = aconst st.slab_len;
               vstr = strides_of_const ds;
             });
        st.slab_len <- st.slab_len + List.fold_left ( * ) 1 ds
    | SFor (v, lo, hi, body) ->
        let l = eint st lo and h = eint st hi in
        if aisconst l && aisconst h then begin
          (* constant trip count: unroll *)
          for i = l.a0 to h.a0 - 1 do
            Sym.Tbl.replace st.env v (SInt (aconst i));
            List.iter (estmt st) body
          done;
          Sym.Tbl.remove st.env v
        end
        else begin
          (* the (single, non-nested) symbolic KC loop *)
          if st.in_loop then raise Bail;
          if not (aisconst l && l.a0 = 0 && h.ak = 0 && h.akc = 1 && h.a0 = 0)
          then raise Bail;
          flush st ~loop:false;
          st.in_loop <- true;
          Sym.Tbl.replace st.env v (SInt { ak = 1; akc = 0; a0 = 0 });
          List.iter (estmt st) body;
          Sym.Tbl.remove st.env v;
          st.in_loop <- false;
          Hashtbl.iter
            (fun a () ->
              match Hashtbl.find_opt st.written a with
              | Some WUncond -> ()
              | _ -> Hashtbl.replace st.written a WInLoop)
            st.body_writes;
          Hashtbl.reset st.body_writes;
          flush st ~loop:true
        end
    | SCall (p, args) ->
        if List.length args <> List.length p.p_args then raise Bail;
        List.iter2
          (fun (a : arg) ca ->
            match (a.a_typ, ca) with
            | (TSize | TIndex | TBool), AExpr e ->
                Sym.Tbl.replace st.env a.a_name (SInt (eint st e))
            | (TScalar _ | TTensor _), AWin w ->
                Sym.Tbl.replace st.env a.a_name (SView (eview st w))
            | _ -> raise Bail)
          p.p_args args;
        List.iter
          (fun pr ->
            match ebool st pr with
            | BConst true -> ()
            | BConst false -> raise Bail
            | BKc f -> st.rt_preds <- f :: st.rt_preds)
          p.p_preds;
        List.iter (estmt st) p.p_body
    | SIf (c, t, e) -> (
        match ebool st c with
        | BConst true -> List.iter (estmt st) t
        | BConst false -> List.iter (estmt st) e
        | BKc _ -> raise Bail)

  and write st b idx rhs red =
    let v =
      match Sym.Tbl.find_opt st.env b with
      | Some (SView v) -> v
      | _ -> raise Bail
    in
    let dst = operand_of st v (List.map (eint st) idx) in
    (* the interpreter evaluates the RHS before the store *)
    let r = edata st rhs in
    if red then check_read st dst (* += reads the old value *);
    mark_write st dst;
    emit st { o_dst = dst; o_red = red; o_rhs = r }

  (* ---------------- signature and lowering ---------------- *)

  type lowered = {
    lo_segs : seg array;
    lo_slab : int;
    lo_kc_pos : bool;
    lo_preds : (int -> bool) array;
    lo_mr : int;
    lo_nr : int;
    lo_dt : Dtype.t;
  }

  let lower (p : proc) : lowered option =
    match
      (match p.p_args with
      | [ kc_a; alpha_a; ac_a; bc_a; beta_a; c_a ] ->
          (match kc_a.a_typ with TSize -> () | _ -> raise Bail);
          let dt, mr, nr =
            match (ac_a.a_typ, bc_a.a_typ, c_a.a_typ) with
            | ( TTensor (d1, [ Var s1; Int mr ]),
                TTensor (d2, [ Var s2; Int nr ]),
                TTensor (d3, [ Int nr'; Int mr' ]) )
              when Sym.equal s1 kc_a.a_name
                   && Sym.equal s2 kc_a.a_name
                   && d1 = d2 && d2 = d3 && nr' = nr && mr' = mr && mr > 0
                   && nr > 0 ->
                (d1, mr, nr)
            | _ -> raise Bail
          in
          let scal_strides (a : arg) =
            match a.a_typ with
            | TTensor (d, [ Int 1 ]) when d = dt -> [ 1 ]
            | TScalar d when d = dt -> []
            | _ -> raise Bail
          in
          let st =
            {
              env = Sym.Tbl.create 64;
              slab_len = 0;
              written = Hashtbl.create 256;
              body_writes = Hashtbl.create 64;
              in_loop = false;
              needs_kc_pos = false;
              rt_preds = [];
              cur = [];
              segs = [];
              nops = 0;
              dt;
            }
          in
          Sym.Tbl.replace st.env kc_a.a_name (SInt { ak = 0; akc = 1; a0 = 0 });
          let bind_view (a : arg) sp str =
            Sym.Tbl.replace st.env a.a_name
              (SView { vsp = sp; voff = aconst 0; vstr = str })
          in
          bind_view alpha_a None (scal_strides alpha_a);
          bind_view beta_a None (scal_strides beta_a);
          bind_view ac_a (Some SpA) [ mr; 1 ];
          bind_view bc_a (Some SpB) [ nr; 1 ];
          bind_view c_a (Some SpC) [ mr; 1 ];
          List.iter
            (fun pr ->
              match ebool st pr with
              | BConst true -> ()
              | BConst false -> raise Bail
              | BKc f -> st.rt_preds <- f :: st.rt_preds)
            p.p_preds;
          List.iter (estmt st) p.p_body;
          flush st ~loop:false;
          {
            lo_segs = Array.of_list (List.rev st.segs);
            lo_slab = st.slab_len;
            lo_kc_pos = st.needs_kc_pos;
            lo_preds = Array.of_list (List.rev st.rt_preds);
            lo_mr = mr;
            lo_nr = nr;
            lo_dt = dt;
          }
      | _ -> raise Bail)
    with
    | exception Bail -> None
    | l -> Some l
end

(* ------------------------------------------------------------------ *)
(* The auditable access summary of a lowered tape                      *)

module Summary = struct
  (** The address spaces a tape operand can touch: the packed A and B
      panels, the C tile, and the kernel's private scratch slab. *)
  type space = A | B | C | Slab

  (** One memory operand: element [base + kstep·k] of [sp], with [k] the
      k-loop counter ([kstep] is 0 for every operand outside the loop —
      addresses there are compile-time constants). *)
  type operand = { sp : space; base : int; kstep : int }

  type rhs =
    | Const of float
    | Read of operand
    | Bin of binop * rhs * rhs
    | Neg of rhs

  (** One tape statement: [dst = rhs], or [dst += rhs] when [reduce]. *)
  type op = { dst : operand; reduce : bool; rhs : rhs }

  (** A maximal run of statements, either straight-line ([in_loop] false,
      executed once per call) or the k-loop body (executed for
      k = 0 .. kc-1). *)
  type seg = { in_loop : bool; ops : op list }

  type t = {
    mr : int;
    nr : int;
    dt : Dtype.t;
    slab : int;  (** scratch slab length (register-memory flattening) *)
    kc_pos : bool;  (** tape demands kc ≥ 1 (loop-carried post-loop read) *)
    n_preds : int;  (** residual KC-dependent runtime predicates *)
    segs : seg list;
  }

  let space_name = function A -> "A" | B -> "B" | C -> "C" | Slab -> "slab"
end

(* The summary is a direct transcription of the [lowered] value the
   Bigarray tier's eligibility gate reads — faithful by construction, not a
   re-derivation. *)
let summary_of_lowered (l : Ukr_lower.lowered) : Summary.t =
  let open Ukr_lower in
  let space = function
    | SpA -> Summary.A
    | SpB -> Summary.B
    | SpC -> Summary.C
    | SpSlab -> Summary.Slab
  in
  let operand (o : operand) =
    { Summary.sp = space o.osp; base = o.ob; kstep = o.ok }
  in
  let rec rhs = function
    | RConst f -> Summary.Const f
    | RRead o -> Summary.Read (operand o)
    | RBin (b, x, y) -> Summary.Bin (b, rhs x, rhs y)
    | RNeg x -> Summary.Neg (rhs x)
  in
  let op (o : op) =
    { Summary.dst = operand o.o_dst; reduce = o.o_red; rhs = rhs o.o_rhs }
  in
  let seg (s : seg) = { Summary.in_loop = s.s_loop; ops = List.map op s.s_ops } in
  {
    Summary.mr = l.lo_mr;
    nr = l.lo_nr;
    dt = l.lo_dt;
    slab = l.lo_slab;
    kc_pos = l.lo_kc_pos;
    n_preds = Array.length l.lo_preds;
    segs = List.map seg (Array.to_list l.lo_segs);
  }

let summarize_ukr (p : proc) : Summary.t option =
  Option.map summary_of_lowered (Ukr_lower.lower p)

(* ------------------------------------------------------------------ *)
(* The Bigarray monomorphized tier                                     *)

type ba32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type ukr_ba =
  kc:int -> ac:ba32 -> ao:int -> bc:ba32 -> bo:int -> c:ba32 -> co:int -> unit

module BA1 = Bigarray.Array1

(* The one up-front range check of the Bigarray tier: every access of the
   executors below stays inside [ao, ao + kc*mr), [bo, bo + kc*nr) and
   [co, co + nr*mr), so after this guard they run unsafe loads/stores. *)
let ukr_ba_check ~mr ~nr ~kc ~(ac : ba32) ~ao ~(bc : ba32) ~bo ~(c : ba32) ~co =
  if
    kc < 0 || ao < 0 || bo < 0 || co < 0
    || ao + (kc * mr) > BA1.dim ac
    || bo + (kc * nr) > BA1.dim bc
    || co + (nr * mr) > BA1.dim c
  then invalid_arg "Compile.ukr_ba: operands out of range"

(* Hand-monomorphized 8x12 executor: every index expression is built from
   literal constants, which is what lets the non-flambda compiler keep the
   whole k-block in registers (a closure-captured mr/nr costs ~2x here).
   Shape: j outer; the C column lives in an unboxed float-array accumulator
   loaded once and stored once per column; the k loop runs 4-wide with the
   B operands hoisted; f32 rounding happens at the single Bigarray store.
   On integer-valued data (the repo's entire test and bench domain) the
   deferred rounding is exact, which [to_ukr_ba]'s probe gate certifies. *)
let ukr_ba_8x12 () : ukr_ba =
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    ukr_ba_check ~mr:8 ~nr:12 ~kc ~ac ~ao ~bc ~bo ~c ~co;
    (* the accumulator is allocated per call, not captured: the executor is
       re-entrant, so one table entry can serve every domain of a pool (the
       8 floats are a minor-heap blip against the kc*96 fmas that follow) *)
    let acc = Array.create_float 8 in
    for j = 0 to 11 do
      let cj = co + (j * 8) in
      for i = 0 to 7 do
        Array.unsafe_set acc i (BA1.unsafe_get c (cj + i))
      done;
      let k = ref 0 in
      while !k + 3 < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * 12) + j)
        and b1 = BA1.unsafe_get bc (bo + ((k0 + 1) * 12) + j)
        and b2 = BA1.unsafe_get bc (bo + ((k0 + 2) * 12) + j)
        and b3 = BA1.unsafe_get bc (bo + ((k0 + 3) * 12) + j) in
        let a0 = ao + (k0 * 8) in
        for i = 0 to 7 do
          let v = Array.unsafe_get acc i in
          Array.unsafe_set acc i
            (v
            +. (BA1.unsafe_get ac (a0 + i) *. b0)
            +. (BA1.unsafe_get ac (a0 + 8 + i) *. b1)
            +. (BA1.unsafe_get ac (a0 + 16 + i) *. b2)
            +. (BA1.unsafe_get ac (a0 + 24 + i) *. b3))
        done;
        k := k0 + 4
      done;
      while !k < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * 12) + j) in
        let a0 = ao + (k0 * 8) in
        for i = 0 to 7 do
          Array.unsafe_set acc i
            (Array.unsafe_get acc i +. (BA1.unsafe_get ac (a0 + i) *. b0))
        done;
        incr k
      done;
      for i = 0 to 7 do
        BA1.unsafe_set c (cj + i) (Array.unsafe_get acc i)
      done
    done

(* The same shape for every other (mr, nr): the table's fringe entries.
   mr/nr and their small multiples are closure-captured constants — about
   2x the hand-specialized 8x12 per fma, and fringe tiles are a small
   fraction of any full GEMM. *)
let ukr_ba_generic ~(mr : int) ~(nr : int) : ukr_ba =
  let mr2 = 2 * mr and mr3 = 3 * mr in
  let nr2 = 2 * nr and nr3 = 3 * nr in
  fun ~kc ~ac ~ao ~bc ~bo ~c ~co ->
    ukr_ba_check ~mr ~nr ~kc ~ac ~ao ~bc ~bo ~c ~co;
    (* per-call accumulator — re-entrant, shareable across domains *)
    let acc = Array.create_float mr in
    for j = 0 to nr - 1 do
      let cj = co + (j * mr) in
      for i = 0 to mr - 1 do
        Array.unsafe_set acc i (BA1.unsafe_get c (cj + i))
      done;
      let k = ref 0 in
      while !k + 3 < kc do
        let k0 = !k in
        let bb = bo + (k0 * nr) + j in
        let b0 = BA1.unsafe_get bc bb
        and b1 = BA1.unsafe_get bc (bb + nr)
        and b2 = BA1.unsafe_get bc (bb + nr2)
        and b3 = BA1.unsafe_get bc (bb + nr3) in
        let a0 = ao + (k0 * mr) in
        for i = 0 to mr - 1 do
          let v = Array.unsafe_get acc i in
          Array.unsafe_set acc i
            (v
            +. (BA1.unsafe_get ac (a0 + i) *. b0)
            +. (BA1.unsafe_get ac (a0 + mr + i) *. b1)
            +. (BA1.unsafe_get ac (a0 + mr2 + i) *. b2)
            +. (BA1.unsafe_get ac (a0 + mr3 + i) *. b3))
        done;
        k := k0 + 4
      done;
      while !k < kc do
        let k0 = !k in
        let b0 = BA1.unsafe_get bc (bo + (k0 * nr) + j) in
        let a0 = ao + (k0 * mr) in
        for i = 0 to mr - 1 do
          Array.unsafe_set acc i
            (Array.unsafe_get acc i +. (BA1.unsafe_get ac (a0 + i) *. b0))
        done;
        incr k
      done;
      for i = 0 to mr - 1 do
        BA1.unsafe_set c (cj + i) (Array.unsafe_get acc i)
      done
    done

(* Build-time semantic certificate for the Bigarray tier: run the proc
   through the interpreter on integer-valued probes and demand the
   canonical C[j,i] += sum_k Ac[k,i]*Bc[k,j] answer, bit for bit.
   Integer inputs (|v| <= 1000, kc <= 8, so every partial sum is an exact
   binary32 integer) make each f32 rounding step the identity, so a
   schedule that reassociates the k-sum still matches; any proc computing
   a different function is rejected here and is served by the
   interpreter. *)
let probe_ukr_ba (p : proc) ~(mr : int) ~(nr : int) : bool =
  let one = Buffer.of_array Dtype.F32 [ 1 ] [| 1.0 |] in
  let bufview data dims =
    {
      Buffer.data;
      dtype = Dtype.F32;
      dims = Array.of_list dims;
      strides = Array.of_list (Ukr_lower.strides_of_const dims);
      offset = 0;
    }
  in
  let probe kc seed =
    let st = Random.State.make [| 0x6ba; seed; kc; mr; nr |] in
    let rnd () = float_of_int (Random.State.int st 2001 - 1000) in
    let ac = Array.init (max 1 (kc * mr)) (fun _ -> rnd ()) in
    let bc = Array.init (max 1 (kc * nr)) (fun _ -> rnd ()) in
    let c = Array.init (nr * mr) (fun _ -> rnd ()) in
    let expect =
      Array.init (nr * mr) (fun idx ->
          let j = idx / mr and i = idx mod mr in
          let s = ref c.(idx) in
          for k = 0 to kc - 1 do
            s := !s +. (ac.((k * mr) + i) *. bc.((k * nr) + j))
          done;
          !s)
    in
    match
      Interp.run p
        [
          Interp.VInt kc;
          Interp.VBuf one;
          Interp.VBuf (bufview ac [ kc; mr ]);
          Interp.VBuf (bufview bc [ kc; nr ]);
          Interp.VBuf one;
          Interp.VBuf (bufview c [ nr; mr ]);
        ]
    with
    | () -> c = expect
    | exception _ -> false
  in
  probe 1 17 && probe 3 29 && probe 8 41

let to_ukr_ba ?(certified = false) (p : proc) : (ukr_ba * Summary.t) option =
  match Ukr_lower.lower p with
  | None -> None
  | Some l ->
      let open Ukr_lower in
      (* F32 only (the Bigarray element type IS the storage rounding);
         no runtime predicates and no kc>0 requirement, so the executor's
         single up-front range check is the complete guard. [certified]
         callers carry a static Tierlint proof that the tape computes the
         canonical Σ A·B reduction, which is exactly what the integer
         probe establishes dynamically — the probe is skipped for them. *)
      if
        l.lo_dt = Dtype.F32
        && Array.length l.lo_preds = 0
        && (not l.lo_kc_pos)
        && (certified || probe_ukr_ba p ~mr:l.lo_mr ~nr:l.lo_nr)
      then
        let u =
          match (l.lo_mr, l.lo_nr) with
          | 8, 12 -> ukr_ba_8x12 ()
          | mr, nr -> ukr_ba_generic ~mr ~nr
        in
        Some (u, summary_of_lowered l)
      else None

(** Re-materialize a Bigarray executor from a stored access summary alone —
    the cache-hydration path. Sound because the executors above are chosen
    by (mr, nr) only and the summary carries the full eligibility gate
    (dt / preds / kc>0) the lowering checked; the hydrating caller is
    responsible for re-running {!Exo_check.Tierlint} over the summary so a
    stale or tampered artifact is caught before entering service. The
    result is definitionally bit-identical to what {!to_ukr_ba} would
    return for the proc the summary came from. *)
let ukr_ba_of_summary (s : Summary.t) : ukr_ba option =
  if s.Summary.dt = Dtype.F32 && s.Summary.n_preds = 0 && not s.Summary.kc_pos
  then
    Some
      (match (s.Summary.mr, s.Summary.nr) with
      | 8, 12 -> ukr_ba_8x12 ()
      | mr, nr -> ukr_ba_generic ~mr ~nr)
  else None
