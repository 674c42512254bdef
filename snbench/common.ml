(* What every workload shares: the run's settings, the correctness
   tally, clocks, and the order statistics the report prints. *)

type settings = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** pool width of every timed phase: the host's CPU count *)
  work : string;  (** scratch directory inside the checkout *)
}

(* Operations attempted and failed, plus failed correctness checks —
   [failed_share] is [failed / attempted]. *)
let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failed;
        Printf.printf "check-failed %s\n%!" msg
      end)
    fmt

let fail fmt = check false fmt

(* Run one operation; an exception counts it as failed instead of
   ending the run. *)
let attempt name f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
    fail "%s raised %s" name (Printexc.to_string e);
    None

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* CPU time the hypervisor gave other guests ("steal", summed over
   CPUs, USER_HZ = 100), in seconds since boot.  A run that lost much
   of it ran on a busy host. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let fields = String.split_on_char ' ' (input_line ic) in
        match List.filter (( <> ) "") fields with
        | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value ~default:0.0 (float_of_string_opt steal) /. 100.0
        | _ -> 0.0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a non-empty sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile 50.0 xs

(* A percentile is supported when at least ten samples lie beyond it;
   with fewer it is the order statistic of a few outliers. *)
let supported p n = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A seeded permutation: the same seed always yields the same order. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let log_uniform rng lo hi =
  exp (log lo +. Random.State.float rng (log hi -. log lo))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir parent name =
  let d = Filename.concat parent name in
  remove_tree d;
  Sys.mkdir d 0o755;
  d

(* Time-boxed repetition: run [pass] until [seconds] have elapsed, at
   least once.  Returns each pass's wall time and the phase's wall and
   CPU time. *)
let passes ~seconds pass =
  let t0 = now () and c0 = cpu_now () in
  let walls = ref [] in
  while !walls = [] || now () -. t0 < seconds do
    let (), dt = time pass in
    walls := dt :: !walls
  done;
  (List.rev !walls, now () -. t0, cpu_now () -. c0)

(* What a workload hands back to the report. *)
type measurement = {
  setup_s : float;  (** median set-up time *)
  walls : float list;  (** wall time of each pass of fixed work *)
  elapsed : float;  (** wall time of the timed phase *)
  cpu : float;  (** process user + sys time over the timed phase *)
  lat_ms : float list;  (** one latency per operation *)
  tile_cache : string;  (** tile-cache state the timed phase ran with *)
}
