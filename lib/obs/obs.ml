(** Structured tracing + metrics + kernel provenance. See the interface for
    the cost and determinism contracts; the load-bearing implementation
    choices are:

    - the master switch is one [bool Atomic.t]; every recording entry point
      is [if Atomic.get enabled_flag then slow_path else ()] so a disabled
      build pays exactly one branch and zero allocations;
    - each domain owns a buffer ([Domain.DLS]) it alone mutates — recording
      is lock-free; the only lock guards the buffer registry (taken once
      per domain lifetime) and the metric registries (taken once per
      counter/histogram name);
    - merge determinism: {!Exo_par.Pool} brackets regions with
      {!region_begin} (a global epoch) and items with {!task_scope}, every
      event carries [(epoch, task, seq)], and {!drain} sorts on that key —
      which domain executed an item stops mattering. *)

(* ------------------------------------------------------------------ *)
(* Master switch                                                       *)

let enabled_flag : bool Atomic.t = Atomic.make false
let[@inline] enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Per-domain buffers                                                  *)

type kind = KComplete of float | KInstant | KUnclosed

type event = {
  e_name : string;
  e_args : (string * string) list;
  e_t0 : float;
  e_kind : kind;
  e_tid : int;
  e_epoch : int;
  e_task : int;
  e_seq : int;
  e_depth : int;
  e_parent : int;
}

type open_span = {
  os_name : string;
  os_args : (string * string) list;
  os_t0 : float;
  os_seq : int;
  os_epoch : int;
  os_task : int;
  os_depth : int;
  os_parent : int;
}

type dbuf = {
  db_tid : int;
  mutable db_task : int;  (* max_int outside a task *)
  mutable db_epoch : int;  (* valid only inside a task *)
  mutable db_seq : int;
  mutable db_last : float;  (* per-domain monotonic clamp *)
  mutable db_depth_base : int;  (* open-span count at task entry *)
  mutable db_events : event list;  (* newest first *)
  mutable db_open : open_span list;  (* innermost first *)
}

let registry_lock = Mutex.create ()
let registry : dbuf list ref = ref []
let region_ctr : int Atomic.t = Atomic.make 0

let dbuf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          db_tid = (Domain.self () :> int);
          db_task = max_int;
          db_epoch = 0;
          db_seq = 0;
          db_last = 0.0;
          db_depth_base = 0;
          db_events = [];
          db_open = [];
        }
      in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let[@inline] buf () = Domain.DLS.get dbuf_key

(* clamped so timestamps never run backwards within a domain *)
let tick (b : dbuf) : float =
  let t = Unix.gettimeofday () in
  if t > b.db_last then b.db_last <- t;
  b.db_last

(* events outside any task carry the current region count as their epoch,
   so main-domain events slot before/after the regions they surround *)
let[@inline] cur_epoch (b : dbuf) =
  if b.db_task = max_int then Atomic.get region_ctr else b.db_epoch

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = int (* 0 = none; else 1 + depth of the opened span *)

let none : span = 0

let begin_slow (args : (string * string) list) (name : string) : span =
  let b = buf () in
  let t = tick b in
  let seq = b.db_seq in
  b.db_seq <- seq + 1;
  let parent = match b.db_open with [] -> -1 | os :: _ -> os.os_seq in
  let depth = List.length b.db_open in
  b.db_open <-
    {
      os_name = name;
      os_args = args;
      os_t0 = t;
      os_seq = seq;
      os_epoch = cur_epoch b;
      os_task = b.db_task;
      os_depth = depth - b.db_depth_base;
      os_parent = parent;
    }
    :: b.db_open;
  depth + 1

let push_event (b : dbuf) (e : event) = b.db_events <- e :: b.db_events

let end_slow (h : span) : unit =
  let b = buf () in
  match b.db_open with
  | [] -> ()
  | os :: rest ->
      (* LIFO discipline: a mismatched handle still closes the top span so
         nothing leaks, but the mismatch is recorded, not swallowed *)
      let depth = List.length b.db_open in
      if depth <> h then begin
        let seq = b.db_seq in
        b.db_seq <- seq + 1;
        push_event b
          {
            e_name = "obs.span_mismatch";
            e_args = [ ("open", os.os_name) ];
            e_t0 = tick b;
            e_kind = KInstant;
            e_tid = b.db_tid;
            e_epoch = cur_epoch b;
            e_task = b.db_task;
            e_seq = seq;
            e_depth = depth - b.db_depth_base;
            e_parent = os.os_seq;
          }
      end;
      b.db_open <- rest;
      push_event b
        {
          e_name = os.os_name;
          e_args = os.os_args;
          e_t0 = os.os_t0;
          e_kind = KComplete (tick b);
          e_tid = b.db_tid;
          e_epoch = os.os_epoch;
          e_task = os.os_task;
          e_seq = os.os_seq;
          e_depth = os.os_depth;
          e_parent = os.os_parent;
        }

let begin_span ?(args = []) (name : string) : span =
  if Atomic.get enabled_flag then begin_slow args name else 0

let end_span (s : span) : unit = if s <> 0 then end_slow s

let with_span ?(args = []) (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let h = begin_slow args name in
    match f () with
    | v ->
        end_slow h;
        v
    | exception e ->
        end_slow h;
        raise e
  end

let instant ?(args = []) (name : string) : unit =
  if Atomic.get enabled_flag then begin
    let b = buf () in
    let seq = b.db_seq in
    b.db_seq <- seq + 1;
    let parent = match b.db_open with [] -> -1 | os :: _ -> os.os_seq in
    push_event b
      {
        e_name = name;
        e_args = args;
        e_t0 = tick b;
        e_kind = KInstant;
        e_tid = b.db_tid;
        e_epoch = cur_epoch b;
        e_task = b.db_task;
        e_seq = seq;
        e_depth = List.length b.db_open - b.db_depth_base;
        e_parent = parent;
      }
  end

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)

type counter = { c_name : string; c_cell : int Atomic.t }

let counters_lock = Mutex.create ()
let counters : counter list ref = ref []

let counter (name : string) : counter =
  Mutex.protect counters_lock (fun () ->
      match List.find_opt (fun c -> String.equal c.c_name name) !counters with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          counters := c :: !counters;
          c)

let add (c : counter) (n : int) : unit =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell n)

let incr (c : counter) : unit = add c 1
let counter_value (c : counter) : int = Atomic.get c.c_cell

type histogram = {
  h_name : string;
  h_cnt : int Atomic.t;
  h_tot : int Atomic.t;
  h_bkt : int Atomic.t array;  (* bucket i: samples v with bits_of v = i *)
}

let histograms_lock = Mutex.create ()
let histograms : histogram list ref = ref []

let histogram (name : string) : histogram =
  Mutex.protect histograms_lock (fun () ->
      match List.find_opt (fun h -> String.equal h.h_name name) !histograms with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_cnt = Atomic.make 0;
              h_tot = Atomic.make 0;
              h_bkt = Array.init 63 (fun _ -> Atomic.make 0);
            }
          in
          histograms := h :: !histograms;
          h)

let bits_of n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* the always-on variant: no master-switch gate — for metrics whose
   contract is "always counted" (serve request latency) *)
let observe_always (h : histogram) (v : int) : unit =
  if v >= 0 then begin
    ignore (Atomic.fetch_and_add h.h_cnt 1);
    ignore (Atomic.fetch_and_add h.h_tot v);
    ignore (Atomic.fetch_and_add h.h_bkt.(min 62 (bits_of v)) 1)
  end

let observe (h : histogram) (v : int) : unit =
  if Atomic.get enabled_flag then observe_always h v

let reset_histogram (h : histogram) : unit =
  Atomic.set h.h_cnt 0;
  Atomic.set h.h_tot 0;
  Array.iter (fun b -> Atomic.set b 0) h.h_bkt

(* ------------------------------------------------------------------ *)
(* Pool integration                                                    *)

let region_begin () : int = Atomic.fetch_and_add region_ctr 1 + 1

let task_scope ~(epoch : int) (task : int) (f : unit -> 'a) : 'a =
  let b = buf () in
  let old_task = b.db_task and old_epoch = b.db_epoch in
  let old_base = b.db_depth_base in
  b.db_task <- task;
  b.db_epoch <- epoch;
  b.db_depth_base <- List.length b.db_open;
  let restore () =
    b.db_task <- old_task;
    b.db_epoch <- old_epoch;
    b.db_depth_base <- old_base
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* ------------------------------------------------------------------ *)
(* Drain and reset                                                     *)

type hsnap = { h_count : int; h_sum : int; h_buckets : int array }

let snapshot (h : histogram) : hsnap =
  {
    h_count = Atomic.get h.h_cnt;
    h_sum = Atomic.get h.h_tot;
    h_buckets = Array.map Atomic.get h.h_bkt;
  }

(* bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]; the
   top bucket absorbs everything observe clamped into it *)
let bucket_bounds (i : int) : int * int =
  if i <= 0 then (0, 0)
  else if i >= 62 then (1 lsl 61, max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let quantile (h : hsnap) (q : float) : float =
  if h.h_count <= 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let n = Array.length h.h_buckets in
    let rec go i cum =
      if i >= n then float_of_int max_int
      else
        let c = h.h_buckets.(i) in
        if c > 0 && rank <= cum + c then begin
          (* the r-th of c samples spread evenly across the bucket: the
             estimate always lands inside the true quantile's bucket *)
          let lo, hi = bucket_bounds i in
          let r = rank - cum in
          float_of_int lo
          +. (float_of_int (hi - lo) *. (float_of_int r -. 0.5) /. float_of_int c)
        end
        else go (i + 1) (cum + c)
    in
    go 0 0
  end

type trace = {
  events : event list;
  counters : (string * int) list;
  histograms : (string * hsnap) list;
  unclosed : (string * int) list;
}

let event_order (a : event) (b : event) =
  let c = compare a.e_epoch b.e_epoch in
  if c <> 0 then c
  else
    let c = compare a.e_task b.e_task in
    if c <> 0 then c
    else
      let c = compare a.e_seq b.e_seq in
      if c <> 0 then c else compare a.e_tid b.e_tid

let drain () : trace =
  let bufs = Mutex.protect registry_lock (fun () -> !registry) in
  let events =
    List.concat_map
      (fun b ->
        let uncl =
          List.map
            (fun os ->
              {
                e_name = os.os_name;
                e_args = os.os_args;
                e_t0 = os.os_t0;
                e_kind = KUnclosed;
                e_tid = b.db_tid;
                e_epoch = os.os_epoch;
                e_task = os.os_task;
                e_seq = os.os_seq;
                e_depth = os.os_depth;
                e_parent = os.os_parent;
              })
            b.db_open
        in
        let es = List.rev_append b.db_events uncl in
        b.db_events <- [];
        b.db_open <- [];
        es)
      bufs
  in
  let events = List.sort event_order events in
  let by_name f = List.sort (fun a b -> compare (f a) (f b)) in
  {
    events;
    counters =
      Mutex.protect counters_lock (fun () ->
          List.map (fun c -> (c.c_name, Atomic.get c.c_cell)) !counters)
      |> by_name fst;
    histograms =
      Mutex.protect histograms_lock (fun () ->
          List.map (fun h -> (h.h_name, snapshot h)) !histograms)
      |> by_name fst;
    unclosed =
      List.filter_map
        (fun e ->
          match e.e_kind with
          | KUnclosed -> Some (e.e_name, e.e_tid)
          | KComplete _ | KInstant -> None)
        events;
  }

let reset () : unit =
  ignore (drain ());
  Mutex.protect counters_lock (fun () ->
      List.iter (fun c -> Atomic.set c.c_cell 0) !counters);
  Mutex.protect histograms_lock (fun () -> List.iter reset_histogram !histograms);
  Atomic.set region_ctr 0

(* ------------------------------------------------------------------ *)
(* JSON: the one tree, printer and parser every artifact goes through   *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* the one escaper: quotes, backslash and control characters; UTF-8
     passes through *)
  let add_string (b : Buffer.t) (s : string) : unit =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let num_to_string (v : float) : string =
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.12g" v

  (* [indent = None]: compact, one line. [Some n]: one object member or
     array element per line at depth [n + 2]; an array of scalars stays on
     one line *)
  let rec write (b : Buffer.t) (indent : int option) (j : t) : unit =
    let scalar = function Arr _ | Obj _ -> false | _ -> true in
    let block opn cls item xs =
      Buffer.add_char b opn;
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          match indent with
          | None -> item None x
          | Some n ->
              Buffer.add_string b ("\n" ^ String.make (n + 2) ' ');
              item (Some (n + 2)) x)
        xs;
      Option.iter (fun n -> Buffer.add_string b ("\n" ^ String.make n ' ')) indent;
      Buffer.add_char b cls
    in
    match j with
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num v -> Buffer.add_string b (num_to_string v)
    | Str s -> add_string b s
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr xs when indent <> None && List.for_all scalar xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ", ";
            write b None x)
          xs;
        Buffer.add_char b ']'
    | Arr xs -> block '[' ']' (fun ind x -> write b ind x) xs
    | Obj kvs ->
        block '{' '}'
          (fun ind (k, v) ->
            add_string b k;
            Buffer.add_string b (if ind = None then ":" else ": ");
            write b ind v)
          kvs

  let of_int (n : int) : t = Num (float_of_int n)
  let opt k f = function Some v -> [ (k, f v) ] | None -> []

  let to_string (j : t) : string =
    let b = Buffer.create 256 in
    write b None j;
    Buffer.contents b

  let pretty (j : t) : string =
    let b = Buffer.create 1024 in
    write b (Some 0) j;
    Buffer.add_char b '\n';
    Buffer.contents b

  exception Bad of string

  (* recursive descent over a string; [pos] is the cursor *)
  let parse (s : string) : (t, string) result =
    let n = String.length s and pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then fail "unexpected end of input";
      Stdlib.incr pos;
      s.[!pos - 1]
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          Stdlib.incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      skip_ws ();
      if next () <> c then fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (
        pos := !pos + l;
        v)
      else fail ("expected " ^ word)
    in
    let string_body () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
            (match next () with
            | ('"' | '\\' | '/') as c -> Buffer.add_char b c
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' when !pos + 4 <= n -> (
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some cp ->
                    pos := !pos + 4;
                    (* a lone surrogate decodes to U+FFFD *)
                    Buffer.add_utf_8_uchar b
                      (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
                | None -> fail "bad \\u escape")
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let number () =
      let start = !pos in
      while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
        Stdlib.incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          Obj
            (items '}' (fun () ->
                 let k = string_body () in
                 expect ':';
                 (k, value ())))
      | Some '[' -> Arr (items ']' value)
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    (* past the opening bracket: [item]s separated by ',' up to [close] *)
    and items : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      Stdlib.incr pos;
      skip_ws ();
      if peek () = Some close then (
        Stdlib.incr pos;
        [])
      else
        let rec more acc =
          let acc = item () :: acc in
          skip_ws ();
          match next () with
          | ',' -> more acc
          | c when c = close -> List.rev acc
          | _ -> fail (Printf.sprintf "expected , or %c" close)
        in
        more []
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let str = function Str s -> Some s | _ -> None
  let num = function Num v -> Some v | _ -> None
  let bool_ = function Bool b -> Some b | _ -> None
  let list_ = function Arr xs -> Some xs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

module Export = struct
  let chrome_json (tr : trace) : string =
    let open Json in
    let t_base =
      List.fold_left (fun acc e -> Float.min acc e.e_t0) infinity tr.events
    in
    let t_base = if Float.is_finite t_base then t_base else 0.0 in
    let us t = Num ((t -. t_base) *. 1e6) in
    let t_end =
      List.fold_left
        (fun acc e ->
          Float.max acc (match e.e_kind with KComplete t1 -> t1 | _ -> e.e_t0))
        t_base tr.events
    in
    (* one trace_event: phase, domain, then the phase's own fields *)
    let ev ph tid fields =
      Obj (("ph", Str ph) :: ("pid", of_int 0) :: ("tid", of_int tid) :: fields)
    in
    let args kvs = ("args", Obj (List.map (fun (k, v) -> (k, Str v)) kvs)) in
    let event e =
      let span ph extra cat kvs =
        ev ph e.e_tid
          ((("ts", us e.e_t0) :: extra)
          @ [ ("name", Str e.e_name); ("cat", Str cat); args kvs ])
      in
      match e.e_kind with
      | KComplete t1 ->
          span "X" [ ("dur", Num ((t1 -. e.e_t0) *. 1e6)) ] "span" e.e_args
      | KInstant -> span "i" [ ("s", Str "t") ] "instant" e.e_args
      | KUnclosed ->
          span "i" [ ("s", Str "t") ] "instant"
            (("error", "unclosed span") :: e.e_args)
    in
    (* thread-name metadata, one per domain seen *)
    let thread tid =
      ev "M" tid
        [
          ("name", Str "thread_name");
          args [ ("name", Printf.sprintf "domain %d" tid) ];
        ]
    in
    let counter (name, v) =
      ev "C" 0
        [ ("ts", us t_end); ("name", Str name); ("args", Obj [ ("value", of_int v) ]) ]
    in
    let tids = List.sort_uniq compare (List.map (fun e -> e.e_tid) tr.events) in
    to_string
      (Obj
         [
           ("displayTimeUnit", Str "ms");
           ( "traceEvents",
             Arr
               (List.map thread tids @ List.map event tr.events
              @ List.map counter tr.counters) );
         ])
    ^ "\n"

  (* self time: each closed span's duration is charged against its parent
     via the recorded per-domain parent links — exact, no heuristics *)
  let span_totals (tr : trace) : (string * (int * float * float)) list =
    let closed =
      List.filter_map
        (fun e ->
          match e.e_kind with
          | KComplete t1 -> Some (e, t1 -. e.e_t0)
          | KInstant | KUnclosed -> None)
        tr.events
    in
    let child : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ((e : event), dur) ->
        if e.e_parent >= 0 then begin
          let key = (e.e_tid, e.e_parent) in
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt child key) in
          Hashtbl.replace child key (cur +. dur)
        end)
      closed;
    let agg : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ((e : event), dur) ->
        let kids =
          Option.value ~default:0.0 (Hashtbl.find_opt child (e.e_tid, e.e_seq))
        in
        let self = Float.max 0.0 (dur -. kids) in
        let n, tot, slf =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg e.e_name)
        in
        Hashtbl.replace agg e.e_name (n + 1, tot +. dur, slf +. self))
      closed;
    Hashtbl.fold (fun name row acc -> (name, row) :: acc) agg []
    |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a)

  let text_report ?(top = 20) (tr : trace) : string =
    let b = Buffer.create 2048 in
    let rows =
      List.map (fun (name, (n, tot, slf)) -> (name, n, tot, slf)) (span_totals tr)
    in
    Buffer.add_string b "span profile (wall seconds)\n";
    Buffer.add_string b
      (Printf.sprintf "%-44s %8s %12s %12s\n" "label" "count" "total" "self");
    List.iter
      (fun (name, n, tot, slf) ->
        Buffer.add_string b (Printf.sprintf "%-44s %8d %12.6f %12.6f\n" name n tot slf))
      rows;
    let nonzero = List.filter (fun (_, v) -> v <> 0) tr.counters in
    if nonzero <> [] then begin
      Buffer.add_string b (Printf.sprintf "\ncounters (top %d)\n" top);
      nonzero
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filteri (fun i _ -> i < top)
      |> List.iter (fun (name, v) ->
             Buffer.add_string b (Printf.sprintf "%-44s %16d\n" name v))
    end;
    let live = List.filter (fun (_, h) -> h.h_count > 0) tr.histograms in
    if live <> [] then begin
      Buffer.add_string b "\nhistograms\n";
      List.iter
        (fun (name, h) ->
          let top_bits = ref 0 in
          Array.iteri (fun i n -> if n > 0 then top_bits := i + 1) h.h_buckets;
          Buffer.add_string b
            (Printf.sprintf "%-44s count %-10d mean %-12.1f max<2^%d\n" name
               h.h_count
               (float_of_int h.h_sum /. float_of_int (max 1 h.h_count))
               !top_bits))
        live
    end;
    if tr.unclosed <> [] then begin
      Buffer.add_string b "\nUNCLOSED spans (begin without end)\n";
      List.iter
        (fun (name, tid) ->
          Buffer.add_string b (Printf.sprintf "  %s (domain %d)\n" name tid))
        tr.unclosed
    end;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

module Provenance = struct
  type entry =
    | Prim of {
        op : string;
        pattern : string option;
        nodes_before : int;
        nodes_after : int;
        cert_us : float;
        ok : bool;
        detail : string option;
      }
    | Step of { title : string; figure : string option }

  (* a stack of active collectors per domain; [record] feeds them all so
     an outer collector still sees entries from a nested [collect] *)
  let stack_key : entry list ref list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let collecting () = !(Domain.DLS.get stack_key) <> []

  let record (e : entry) : unit =
    List.iter (fun cell -> cell := e :: !cell) !(Domain.DLS.get stack_key)

  let mark_step ?figure (title : string) : unit =
    if collecting () then record (Step { title; figure })

  let collect (f : unit -> 'a) : 'a * entry list =
    let st = Domain.DLS.get stack_key in
    let cell = ref [] in
    st := cell :: !st;
    let finish () = st := List.filter (fun c -> c != cell) !st in
    match f () with
    | v ->
        finish ();
        (v, List.rev !cell)
    | exception e ->
        finish ();
        raise e

  let step_count (es : entry list) : int =
    List.length (List.filter (function Step _ -> true | Prim _ -> false) es)

  let prim_count (es : entry list) : int =
    List.length (List.filter (function Prim _ -> true | Step _ -> false) es)

  let all_ok (es : entry list) : bool =
    List.for_all (function Prim p -> p.ok | Step _ -> true) es

  let str s = Json.Str s
  let opt = Json.opt

  let entry_json (e : entry) : Json.t =
    match e with
    | Step { title; figure } ->
        Json.Obj
          ([ ("kind", Json.Str "step"); ("title", Json.Str title) ]
          @ opt "figure" str figure)
    | Prim p ->
        Json.Obj
          ([
             ("kind", Json.Str "prim");
             ("op", Json.Str p.op);
             ("pattern", Option.fold ~none:Json.Null ~some:str p.pattern);
             ("nodes_before", Json.of_int p.nodes_before);
             ("nodes_after", Json.of_int p.nodes_after);
             ("cert_us", Json.Num p.cert_us);
             ("ok", Json.Bool p.ok);
           ]
          @ opt "detail" str p.detail)

  let to_json ~(kernel : string) ?kit ?style ?declared_steps (es : entry list) :
      Json.t =
    Json.Obj
      ((("kernel", Json.Str kernel) :: opt "kit" str kit)
      @ opt "style" str style
      @ opt "declared_steps" Json.of_int declared_steps
      @ [
          ("step_count", Json.of_int (step_count es));
          ("primitive_count", Json.of_int (prim_count es));
          ("certificates_ok", Json.Bool (all_ok es));
          ("log", Json.Arr (List.map entry_json es));
        ])

  let header_lines (es : entry list) : string list =
    let summary =
      Printf.sprintf "provenance: %d schedule steps, %d primitives, certificates %s"
        (step_count es) (prim_count es)
        (if all_ok es then "ok" else "FAILED")
    in
    let steps =
      List.filter_map
        (function
          | Step { title; figure } ->
              Some
                (Printf.sprintf "  step: %s%s" title
                   (match figure with Some f -> " (" ^ f ^ ")" | None -> ""))
          | Prim _ -> None)
        es
    in
    summary :: steps
end

(* ------------------------------------------------------------------ *)

module Meta = struct
  let schema_version = 6

  let git_commit () =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"

  let json ?flambda ?host_cc ?host_isa ~pool_jobs () : string * Json.t =
    let str s = Json.Str s and opt = Json.opt in
    ( "meta",
      Json.Obj
        ([
           ("schema_version", Json.of_int schema_version);
           ("git_commit", Json.Str (git_commit ()));
           ("host_cores", Json.of_int (Domain.recommended_domain_count ()));
           ("pool_jobs", Json.of_int pool_jobs);
           ("ocaml_version", Json.Str Sys.ocaml_version);
         ]
        @ opt "flambda" (fun f -> Json.Bool f) flambda
        @ opt "host_cc" str host_cc
        @ opt "host_isa" str host_isa) )
end
