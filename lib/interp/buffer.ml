(** Runtime buffers for the reference interpreter.

    Values are stored as OCaml floats but every write rounds through the
    buffer's dtype, so f32 and f16 kernels compute bit-faithful results.
    Views (windows) share the underlying storage — instruction calls receive
    strided views, matching Exo's window semantics. *)

open Exo_ir

type t = {
  data : float array;
  dtype : Dtype.t;
  dims : int array;
  strides : int array;  (** in elements *)
  offset : int;
}

exception Bounds of string

let err fmt = Fmt.kstr (fun s -> raise (Bounds s)) fmt

let row_major_strides (dims : int array) : int array =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

(** Fresh buffer initialized to [init] (default NaN: reading an element that
    was never written poisons the result, so tests catch missing stores). *)
let create ?(init = Float.nan) (dtype : Dtype.t) (dims : int list) : t =
  let dims = Array.of_list dims in
  let total = Array.fold_left ( * ) 1 dims in
  {
    data = Array.make (max total 1) init;
    dtype;
    dims;
    strides = row_major_strides dims;
    offset = 0;
  }

(** Wrap an existing array (shared storage, row-major, no copy) — lets the
    macro-kernel drive interpreted micro-kernels over its own buffers. *)
let of_array (dtype : Dtype.t) (dims : int list) (data : float array) : t =
  let dims = Array.of_list dims in
  let total = Array.fold_left ( * ) 1 dims in
  if Array.length data < total then
    err "of_array: need %d elements, array has %d" total (Array.length data);
  { data; dtype; dims; strides = row_major_strides dims; offset = 0 }

let rank (b : t) = Array.length b.dims
let size (b : t) = Array.fold_left ( * ) 1 b.dims

(** Round a value through a dtype (f32 via bit truncation, f16 via
    {!F16.round}, integers with C cast semantics). *)
let round_dtype (dt : Dtype.t) (v : float) : float =
  match dt with
  | Dtype.F64 -> v
  | Dtype.F32 -> Int32.float_of_bits (Int32.bits_of_float v)
  | Dtype.F16 -> F16.round v
  | Dtype.I32 -> Int32.to_float (Int32.of_float v)
  | Dtype.I8 ->
      let i = int_of_float v land 0xff in
      float_of_int (if i >= 128 then i - 256 else i)

let addr (b : t) (idx : int array) : int =
  if Array.length idx <> Array.length b.dims then
    err "rank mismatch: %d indices for rank %d" (Array.length idx) (Array.length b.dims);
  let a = ref b.offset in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= b.dims.(d) then
        err "index %d out of bounds for dimension %d (extent %d)" i d b.dims.(d);
      a := !a + (i * b.strides.(d)))
    idx;
  !a

let get (b : t) (idx : int array) : float = b.data.(addr b idx)

let set (b : t) (idx : int array) (v : float) : unit =
  b.data.(addr b idx) <- round_dtype b.dtype v

let reduce (b : t) (idx : int array) (v : float) : unit =
  let a = addr b idx in
  b.data.(a) <- round_dtype b.dtype (b.data.(a) +. v)

(** A window view. [spec] per dimension: [`Pt i] drops the dimension at
    index [i]; [`Iv (lo, len)] keeps it with extent [len]. *)
let view (b : t) (spec : [ `Pt of int | `Iv of int * int ] list) : t =
  if List.length spec <> Array.length b.dims then
    err "window rank mismatch on a rank-%d buffer" (Array.length b.dims);
  let offset = ref b.offset in
  let dims = ref [] and strides = ref [] in
  List.iteri
    (fun d s ->
      match s with
      | `Pt i ->
          if i < 0 || i >= b.dims.(d) then
            err "window point %d out of bounds in dimension %d (extent %d)" i d b.dims.(d);
          offset := !offset + (i * b.strides.(d))
      | `Iv (lo, len) ->
          if lo < 0 || len < 0 || lo + len > b.dims.(d) then
            err "window [%d, %d) out of bounds in dimension %d (extent %d)" lo (lo + len)
              d b.dims.(d);
          offset := !offset + (lo * b.strides.(d));
          dims := len :: !dims;
          strides := b.strides.(d) :: !strides)
    spec;
  {
    b with
    offset = !offset;
    dims = Array.of_list (List.rev !dims);
    strides = Array.of_list (List.rev !strides);
  }

(** Innermost-dimension stride of a view (what Exo's [stride(b, last)]
    assertions constrain). *)
let last_stride (b : t) : int =
  let n = Array.length b.strides in
  if n = 0 then 1 else b.strides.(n - 1)

let fill (b : t) (f : int array -> float) : unit =
  let idx = Array.make (rank b) 0 in
  let rec go d =
    if d = rank b then set b idx (f idx)
    else
      for i = 0 to b.dims.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  if size b > 0 then go 0

let iteri (b : t) (f : int array -> float -> unit) : unit =
  let idx = Array.make (rank b) 0 in
  let rec go d =
    if d = rank b then f idx (get b idx)
    else
      for i = 0 to b.dims.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  if size b > 0 then go 0

(** Deep copy (fresh storage, compacted). *)
let copy (b : t) : t =
  let fresh = create ~init:0.0 b.dtype (Array.to_list b.dims) in
  iteri b (fun idx v -> fresh.data.(addr fresh idx) <- v);
  fresh

let equal (a : t) (b : t) : bool =
  a.dims = b.dims
  &&
  let ok = ref true in
  iteri a (fun idx v ->
      let w = get b idx in
      if not (Float.equal v w || (Float.is_nan v && Float.is_nan w)) then ok := false);
  !ok

(** Max absolute difference; NaNs compare as infinitely different unless
    both NaN. *)
let max_abs_diff (a : t) (b : t) : float =
  let m = ref 0.0 in
  iteri a (fun idx v ->
      let w = get b idx in
      let d =
        if Float.is_nan v && Float.is_nan w then 0.0
        else if Float.is_nan v || Float.is_nan w then infinity
        else Float.abs (v -. w)
      in
      if d > !m then m := d);
  !m

let pp ppf (b : t) =
  Fmt.pf ppf "@[<v>buffer %a%a:@," Exo_ir.Dtype.pp b.dtype
    Fmt.(brackets (array ~sep:(any ", ") int))
    b.dims;
  iteri b (fun idx v ->
      Fmt.pf ppf "  [%a] = %g@," Fmt.(array ~sep:(any ",") int) idx v);
  Fmt.pf ppf "@]"
