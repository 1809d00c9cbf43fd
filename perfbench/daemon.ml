(** A closed-loop client connection to a [Serve] daemon's socket and the
    parsing of its replies. *)

type conn = { ic : in_channel; oc : out_channel }

let connect (socket : string) : conn option =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close (c : conn) = close_out_noerr c.oc

(** One round trip on the connection: the status line and the payload
    lines up to the ["."] terminator. Raises [End_of_file] if the daemon
    hangs up. *)
let request (c : conn) (line : string) : string * string list =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let status = input_line c.ic in
  let rec payload acc =
    match input_line c.ic with "." -> List.rev acc | l -> payload (l :: acc)
  in
  (status, payload [])

(** The payload lines of a reply as (first word, rest) pairs. *)
let fields (payload : string list) : (string * string) list =
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> None)
    payload

let field_float (fs : (string * string) list) key : float option =
  Option.bind (List.assoc_opt key fs) (fun v ->
      Scanf.sscanf_opt v "%f" Fun.id)
