(** The traced run's span recorder. Spans live in memory while the run
    measures and are written once, when the benchmark ends. Each span has
    a name, a start and end on the monotonic clock, its parent span (or
    -1) and the id of the iteration or request it belongs to. Spans wrap
    only the benchmark's own calls into a layer's public functions; the
    library's own [Obs] tracing stays off. *)

module Json = Exo_ledger.Ledger.Json

type span = {
  name : string;
  id : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let spans : span array ref = ref [||]
let len = ref 0

let enable () = on := true

(* Indices of the open spans, innermost first: a new span's parent. *)
let open_spans : int list ref = ref []

(* Open a span; its index (the handle [finish] takes), -1 when off. *)
let start ~id name : int =
  if not !on then -1
  else begin
    if !len = Array.length !spans then begin
      let bigger =
        Array.make (max 256 (2 * !len))
          { name = ""; id = 0; parent = -1; t0 = 0.0; t1 = 0.0 }
      in
      Array.blit !spans 0 bigger 0 !len;
      spans := bigger
    end;
    let i = !len in
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    !spans.(i) <- { name; id; parent; t0 = Util.now (); t1 = Float.nan };
    incr len;
    open_spans := i :: !open_spans;
    i
  end

let finish (i : int) =
  if i >= 0 then begin
    !spans.(i).t1 <- Util.now ();
    open_spans := List.filter (( <> ) i) !open_spans
  end

(** [wrap ~id name f] — run [f] inside a span. *)
let wrap ~id name f =
  let s = start ~id name in
  Fun.protect ~finally:(fun () -> finish s) f

(** Every span recorded so far, in start order. *)
let all () = Array.to_list (Array.sub !spans 0 !len)

(** Write the recorded spans as one JSON document (times in seconds from
    the first span's start). *)
let write (path : string) ~(meta : (string * Json.t) list) : unit =
  let base = match all () with s :: _ -> s.t0 | [] -> 0.0 in
  let span_json s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("id", Json.Num (float_of_int s.id));
        ("parent", Json.Num (float_of_int s.parent));
        ("start_s", Json.Num (s.t0 -. base));
        ("end_s", Json.Num (s.t1 -. base));
      ]
  in
  let doc =
    Json.Obj (meta @ [ ("spans", Json.Arr (List.map span_json (all ()))) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string doc ^ "\n"))
