(* Content-addressed macromodel cache.

   A reduced tile model is a pure function of the branch list it was
   reduced from (grid slice geometry and technology numbers are folded
   into the branch conductances), the retained-node labels and the
   solver settings — so the cache key is a digest over exactly that
   serialized content, and a hit can skip the tile reduction entirely.
   Entries persist as versioned Marshal payloads behind a magic
   header; anything unreadable (truncated file, stale version, label
   mismatch) is treated as a miss and recomputed. *)

let log_src = Logs.Src.create "sn.subcache" ~doc:"substrate macromodel cache"

module Log = (val Logs.src_log log_src : Logs.LOG)

module N = Sn_numerics

(* 3: a signed passivity certificate rides alongside each entry, so a
   warm artifact can be re-verified (psd + untampered) by hashing
   alone — no re-extraction, no refactorization.  The version field
   is first in [payload] and checked before any other field is
   touched, so older entries are clean misses. *)
let format_version = 3

type t = { dir : string }

type tile_model = {
  labels : string array;
  matrix : float array;
  iterations : int;
  form : string;
}

(* payload written to disk; [version] is checked on read so a format
   bump invalidates old entries instead of misreading them *)
type payload = {
  version : int;
  model : tile_model;
  cert : N.Passivity.cert option;
      (** [None] only when the matrix failed certification at store
          time — recorded rather than refused, so the verify pass can
          point at it *)
}

let magic = "snoise-tile-cache\n"

let dir t = t.dir

let create ~dir =
  (* best-effort mkdir -p over the last two path components; an
     unreachable directory degrades to a cache that never hits *)
  let rec ensure d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()
    end
  in
  ensure dir;
  { dir }

let hex_key material = Digest.to_hex (Digest.string material)

let path t ~key = Filename.concat t.dir (key ^ ".tile")

let model_mat model =
  let dim = Array.length model.labels in
  N.Mat.of_flat ~rows:dim ~cols:dim model.matrix

let read_payload file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if not (String.equal m magic) then None
      else
        let (p : payload) = Marshal.from_channel ic in
        if p.version = format_version then Some p else None)

(* process-wide counters, reported by [snoise runtime] and the
   server's stats / verify verbs *)
let n_lookups = Atomic.make 0
let n_hits = Atomic.make 0
let n_rejected = Atomic.make 0
let n_stores = Atomic.make 0

type counters = { lookups : int; hits : int; rejected : int; stores : int }

let counters () =
  {
    lookups = Atomic.get n_lookups;
    hits = Atomic.get n_hits;
    rejected = Atomic.get n_rejected;
    stores = Atomic.get n_stores;
  }

let reset_counters () =
  List.iter (fun c -> Atomic.set c 0) [ n_lookups; n_hits; n_rejected; n_stores ]

let lookup t ~key =
  Atomic.incr n_lookups;
  let file = path t ~key in
  match read_payload file with
  | Some p -> (
    (* a certified entry must still verify against its own bytes: a
       corrupted matrix or a certificate pasted from another artifact
       is a miss, not a wrong answer *)
    match p.cert with
    | Some cert when not (N.Passivity.verify ~context:key (model_mat p.model) cert)
      ->
      Atomic.incr n_rejected;
      Log.warn (fun m ->
          m "cache entry %s fails certificate verification: recomputing" file);
      None
    | _ ->
      Atomic.incr n_hits;
      Some p.model)
  | None -> None
  | exception _ ->
    (* missing, truncated or corrupted entry: fall back to recompute *)
    if Sys.file_exists file then
      Log.warn (fun m -> m "unreadable cache entry %s: recomputing" file);
    None

let store t ~key model =
  (* write-to-temp + rename so concurrent readers never observe a
     partial entry; failures only cost the caching, never the result *)
  try
    Atomic.incr n_stores;
    let file = path t ~key in
    let cert = N.Passivity.certify ~context:key (model_mat model) in
    if cert = None then
      Log.warn (fun m ->
          m "tile model %s is not passive: stored without certificate" key);
    let tmp =
      Filename.temp_file ~temp_dir:t.dir "tile-"
        ("." ^ string_of_int (Unix.getpid ()))
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        Marshal.to_channel oc { version = format_version; model; cert } []);
    Sys.rename tmp file
  with _ -> Log.warn (fun m -> m "cache store failed under %s" t.dir)

(* ------------------------------------------------------------------ *)
(* certificate verification of a whole cache directory: every entry is
   re-judged from its bytes alone — signature hashing for certified
   entries, a fresh LDL^T for uncertified ones — with no extraction
   and no CG work, which is the point of storing certificates. *)

type entry_status =
  | Certified  (** signature verifies against the entry's own bytes *)
  | Recertified
      (** no stored certificate, but the matrix passes a fresh PSD
          check now *)
  | Stale  (** older format version: a clean miss for the extractor *)
  | Bad of string  (** corrupt, tampered, or genuinely non-passive *)

type verification = {
  vf_entries : (string * entry_status) list;  (** key, judgement *)
  vf_certified : int;
  vf_recertified : int;
  vf_stale : int;
  vf_bad : int;
}

let verify_entry t ~key =
  let file = path t ~key in
  match read_payload file with
  | Some p -> (
    let mat = model_mat p.model in
    match p.cert with
    | Some cert ->
      if N.Passivity.verify ~context:key mat cert then Certified
      else Bad "certificate signature does not match entry bytes"
    | None ->
      let v = N.Passivity.psd mat in
      if N.Passivity.passes v then Recertified
      else
        Bad
          (Printf.sprintf
             "matrix is not passive (LDL^T pivot %.3g at index %d)"
             v.N.Passivity.defect v.N.Passivity.index))
  | None -> Stale
  | exception _ -> Bad "unreadable entry (truncated or corrupt)"

let status_name = function
  | Certified -> "certified"
  | Recertified -> "recertified"
  | Stale -> "stale"
  | Bad _ -> "bad"

let verification_to_json ~header v =
  let module J = Sn_json.Json in
  let num i = J.Num (float_of_int i) in
  let entry (key, status) =
    J.Obj
      (("key", J.Str key)
       :: ("status", J.Str (status_name status))
       :: (match status with Bad why -> [ ("detail", J.Str why) ] | _ -> []))
  in
  J.Obj
    (header
    @ [
        ("entries", J.Arr (List.map entry v.vf_entries));
        ("certified", num v.vf_certified);
        ("recertified", num v.vf_recertified);
        ("stale", num v.vf_stale);
        ("bad", num v.vf_bad);
        ("failing", J.Bool (v.vf_bad > 0));
      ])

let verify_dir t =
  let keys =
    (try Sys.readdir t.dir with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".tile" f)
    |> List.sort String.compare
  in
  let entries = List.map (fun key -> (key, verify_entry t ~key)) keys in
  let count p = List.length (List.filter (fun (_, s) -> p s) entries) in
  {
    vf_entries = entries;
    vf_certified = count (fun s -> s = Certified);
    vf_recertified = count (fun s -> s = Recertified);
    vf_stale = count (fun s -> s = Stale);
    vf_bad = count (function Bad _ -> true | _ -> false);
  }

(* process-wide default, the CLI / SNOISE_CACHE_DIR knob.
   Unset reads the environment on first use; Disabled (--no-cache)
   wins over the environment.  Each resolved state remembers where it
   came from so `snoise runtime` and the server's stats request can
   report why a run was warm or cold. *)

type origin = Flag | Env | No_cache_flag | Unset_default

type resolution = { origin : origin; dir : string option }

let origin_name = function
  | Flag -> "--cache-dir"
  | Env -> "SNOISE_CACHE_DIR"
  | No_cache_flag -> "--no-cache"
  | Unset_default -> "unset"

type selection = Unset | Disabled of origin | Selected of t * origin

let selection = Atomic.make Unset

let set_default_dir = function
  | None -> Atomic.set selection (Disabled No_cache_flag)
  | Some d -> Atomic.set selection (Selected (create ~dir:d, Flag))

let default () =
  match Atomic.get selection with
  | Selected (c, _) -> Some c
  | Disabled _ -> None
  | Unset -> (
    match Sys.getenv_opt "SNOISE_CACHE_DIR" with
    | Some d when String.trim d <> "" ->
      let c = create ~dir:d in
      Atomic.set selection (Selected (c, Env));
      Some c
    | _ ->
      Atomic.set selection (Disabled Unset_default);
      None)

let resolution () =
  (* force the lazy environment read so the answer matches what
     Extractor.extract would actually consult *)
  ignore (default ());
  match Atomic.get selection with
  | Selected (c, origin) -> { origin; dir = Some c.dir }
  | Disabled origin -> { origin; dir = None }
  | Unset -> { origin = Unset_default; dir = None }

let pp_resolution fmt r =
  match r.dir with
  | Some d -> Format.fprintf fmt "%s (from %s)" d (origin_name r.origin)
  | None ->
    if r.origin = No_cache_flag then
      Format.fprintf fmt "disabled (%s)" (origin_name r.origin)
    else
      Format.fprintf fmt
        "disabled (no --cache-dir and no SNOISE_CACHE_DIR set)"
