open Sn_json

let log_src = Logs.Src.create "sn.server.socket" ~doc:"snoise socket server"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* a line longer than this is answered with a parse-error and skipped;
   it bounds per-client buffering so one peer cannot balloon the
   daemon's memory *)
let max_line = 8 * 1024 * 1024

type client = {
  id : int;
  fd : Unix.file_descr;
  peer : string;
  buf : Buffer.t;  (* bytes read, not yet terminated by '\n' *)
  out : Buffer.t;  (* replies waiting for the fd to be writable *)
  mutable skipping : bool;  (* discarding the rest of an oversized line *)
  requires_auth : bool;  (* TCP client while --auth-token is set *)
  mutable authed : bool;
}

type t = {
  service : Service.t;
  listeners : Unix.file_descr list;
  tcp_listener : Unix.file_descr option;
  auth_token : string option;
  socket_path : string;
  clients : (Unix.file_descr, client) Hashtbl.t;
  mutable next_client : int;
  stop_flag : bool Atomic.t;
}

let service t = t.service

let stop t = Atomic.set t.stop_flag true

let unlink_stale path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ ->
    invalid_arg
      (Printf.sprintf "refusing to replace %s: existing file is not a socket"
         path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let create ?config ?tcp ?auth_token ~socket () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  unlink_stale socket;
  let unix_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_fd (Unix.ADDR_UNIX socket);
  Unix.listen unix_fd 64;
  let listeners, tcp_listener =
    match tcp with
    | None -> ([ unix_fd ], None)
    | Some (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            invalid_arg (Printf.sprintf "cannot resolve host %S" host))
      in
      let tcp_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt tcp_fd Unix.SO_REUSEADDR true;
      Unix.bind tcp_fd (Unix.ADDR_INET (addr, port));
      Unix.listen tcp_fd 64;
      ([ unix_fd; tcp_fd ], Some tcp_fd)
  in
  {
    service = Service.create ?config ();
    listeners;
    tcp_listener;
    auth_token = (match auth_token with Some "" -> None | other -> other);
    socket_path = socket;
    clients = Hashtbl.create 16;
    next_client = 0;
    stop_flag = Atomic.make false;
  }

(* the ephemeral port when --tcp was given port 0 (tests) *)
let tcp_port t =
  match t.tcp_listener with
  | None -> None
  | Some fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> Some p
    | _ -> None)

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "?"

let accept_client t listener =
  match Unix.accept listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.next_client <- t.next_client + 1;
    let is_tcp =
      match t.tcp_listener with Some l -> l == listener | None -> false
    in
    let c =
      {
        id = t.next_client;
        fd;
        peer = peer_name fd;
        buf = Buffer.create 256;
        out = Buffer.create 256;
        skipping = false;
        requires_auth = is_tcp && t.auth_token <> None;
        authed = false;
      }
    in
    Hashtbl.replace t.clients fd c;
    Log.info (fun m -> m "client %d connected (%s)" c.id c.peer)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let close_client t (c : client) =
  Hashtbl.remove t.clients c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "client %d disconnected" c.id)

module Fault = Sn_engine.Fault

(* chaos points on the reply path: a delayed, corrupted or dropped
   reply must leave the server consistent — the client re-issues and
   gets byte-identical results *)
let enqueue_reply t c json =
  if Fault.fire Fault.Server_drop then begin
    Log.err (fun m -> m "injected fault: dropping client %d" c.id);
    close_client t c
  end
  else begin
    if Fault.fire Fault.Server_delay then begin
      Log.err (fun m -> m "injected fault: delaying reply to client %d" c.id);
      Unix.sleepf 0.2
    end;
    let line = Json.to_string json in
    let line =
      if Fault.fire Fault.Server_garble then begin
        Log.err (fun m -> m "injected fault: garbling reply to client %d" c.id);
        String.sub line 0 (String.length line / 2) ^ "#garbled#"
      end
      else line
    in
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n'
  end

(* A TCP client under --auth-token must present the shared secret as a
   top-level ["auth_token"] member; the first valid token authenticates
   the connection.  Unknown members are ignored by the request parser,
   so authenticated lines flow through unchanged.  The Unix socket is
   local and file-permission-guarded — it never requires a token. *)
let check_auth t (c : client) line =
  if (not c.requires_auth) || c.authed then `Ok
  else begin
    let expected = Option.value t.auth_token ~default:"" in
    match Json.parse (String.trim line) with
    | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match Json.member "auth_token" json with
      | Some (Json.Str given) when Auth.equal_const expected given ->
        c.authed <- true;
        `Ok
      | Some _ ->
        `Denied
          (Protocol.error ~id Protocol.Unauthorized "invalid auth token")
      | None ->
        `Denied
          (Protocol.error ~id Protocol.Unauthorized
             "this endpoint requires \"auth_token\""))
    | Error _ ->
      (* not parseable: let the service answer parse-error without
         leaking whether a token would have been accepted *)
      `Ok
  end

(* returns [`Shutdown] when a shutdown request was accepted *)
let feed_line t (c : client) line =
  if String.trim line = "" then `Continue
  else
    match check_auth t c line with
    | `Denied reply ->
      enqueue_reply t c reply;
      `Continue
    | `Ok -> (
      match Service.submit t.service ~client:c.id line with
      | `Replied reply ->
        enqueue_reply t c reply;
        `Continue
      | `Queued -> `Continue
      | `Shutdown reply ->
        enqueue_reply t c reply;
        `Shutdown)

(* split [c.buf] into complete lines, respecting the oversized-line
   skip state *)
let drain_buffer t (c : client) =
  let verdict = ref `Continue in
  let rec next () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None ->
      if c.skipping then Buffer.clear c.buf
      else if Buffer.length c.buf > max_line then begin
        Buffer.clear c.buf;
        c.skipping <- true;
        enqueue_reply t c
          (Protocol.error Protocol.Parse_error
             (Printf.sprintf "request line exceeds %d bytes" max_line))
      end
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      if c.skipping then c.skipping <- false
      else if String.length line > max_line then
        enqueue_reply t c
          (Protocol.error Protocol.Parse_error
             (Printf.sprintf "request line exceeds %d bytes" max_line))
      else begin
        match feed_line t c line with
        | `Continue -> ()
        | `Shutdown -> verdict := `Shutdown
      end;
      next ()
  in
  next ();
  !verdict

let read_chunk = Bytes.create 65536

let handle_readable t (c : client) =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
    close_client t c;
    `Continue
  | n ->
    Buffer.add_subbytes c.buf read_chunk 0 n;
    drain_buffer t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    `Continue
  | exception Unix.Unix_error _ ->
    close_client t c;
    `Continue

let handle_writable t (c : client) =
  let s = Buffer.contents c.out in
  if s <> "" then (
    match Unix.write_substring c.fd s 0 (String.length s) with
    | n ->
      Buffer.clear c.out;
      if n < String.length s then
        Buffer.add_substring c.out s n (String.length s - n)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> close_client t c)

(* route drained service replies back onto their client's out buffer;
   replies for clients that disconnected mid-queue are dropped *)
let route_replies t replies =
  let by_id = Hashtbl.create 8 in
  Hashtbl.iter (fun _ c -> Hashtbl.replace by_id c.id c) t.clients;
  List.iter
    (fun (client_id, reply) ->
      match Hashtbl.find_opt by_id client_id with
      | Some c -> enqueue_reply t c reply
      | None ->
        Log.debug (fun m -> m "dropping reply for gone client %d" client_id))
    replies

(* Liveness probe used by the service at dispatch time: a zero-byte
   MSG_PEEK distinguishes a hung-up peer (EOF) from one that is merely
   quiet, without consuming pipelined request bytes.  This runs on the
   reactor thread between reads, so the client table is stable. *)
let peek_buf = Bytes.create 1

let client_alive t client_id =
  let found =
    Hashtbl.fold
      (fun _ c acc -> if c.id = client_id then Some c else acc)
      t.clients None
  in
  match found with
  | None -> false
  | Some c -> (
    match Unix.recv c.fd peek_buf 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> false
    | _ -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      true
    | exception Unix.Unix_error _ -> false)

let select_retry reads writes timeout =
  try Unix.select reads writes [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])

let flush_all t =
  (* best-effort: give sockets a short window to accept the final
     replies (the shutdown acknowledgement in particular) *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec loop () =
    let pending =
      Hashtbl.fold
        (fun _ c acc -> if Buffer.length c.out > 0 then c :: acc else acc)
        t.clients []
    in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      let _, ws, _ =
        select_retry [] (List.map (fun c -> c.fd) pending) 0.2
      in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.clients fd with
          | Some c -> handle_writable t c
          | None -> ())
        ws;
      loop ()
    end
  in
  loop ()

let shutdown_loop t =
  flush_all t;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  Hashtbl.reset t.clients;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "server stopped")

let serve ?on_ready t =
  (match on_ready with Some f -> f () | None -> ());
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      let client_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.clients [] in
      let writable =
        Hashtbl.fold
          (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
          t.clients []
      in
      let rs, ws, _ =
        select_retry (t.listeners @ client_fds) writable 0.2
      in
      let stop_requested = ref false in
      List.iter
        (fun fd ->
          if List.memq fd t.listeners then accept_client t fd
          else
            match Hashtbl.find_opt t.clients fd with
            | Some c -> (
              match handle_readable t c with
              | `Continue -> ()
              | `Shutdown -> stop_requested := true)
            | None -> ())
        rs;
      (* everything read this round is queued; dispatch it (the
         coalescing window is exactly one read round) *)
      if Service.queue_depth t.service > 0 then
        route_replies t
          (Service.drain ~alive:(fun id -> client_alive t id) t.service);
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.clients fd with
          | Some c -> handle_writable t c
          | None -> ())
        ws;
      if !stop_requested then Atomic.set t.stop_flag true;
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> shutdown_loop t) loop
