(** Small shared helpers: the monotonic clock, order statistics, f32
    rounding, process memory and file-system chores. *)

(** Monotonic seconds (nanosecond clock). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [time f] — [(result, seconds)]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Nearest-rank percentile: the smallest sample with at least [p]% of the
    samples at or below it ([p] in 0..100). [nan] on no samples. *)
let percentile (p : float) (xs : float list) : float =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(** Round to binary32, the precision every f32 tier stores. *)
let r32 v = Int32.float_of_bits (Int32.bits_of_float v)

(** A [/proc/self/status] field in kB (e.g. ["VmHWM"]), or [None]. *)
let proc_status_kb (field : string) : int option =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l ->
            let prefix = field ^ ":" in
            if String.starts_with ~prefix l then
              let v = String.sub l (String.length prefix)
                  (String.length l - String.length prefix) in
              Scanf.sscanf_opt (String.trim v) "%d" Fun.id
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(** Peak resident set of this process in MB. *)
let peak_rss_mb () =
  match proc_status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> Float.nan

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(** A fresh empty directory (removed first if present). *)
let fresh_dir d =
  rm_rf d;
  mkdir_p d;
  d

let sum = List.fold_left ( +. ) 0.0

(** The smallest sample: the best of a run's repetitions. *)
let best xs = percentile 0.0 xs
