(* The selest wire protocol, version 3.

   Frame = 4-byte big-endian payload length, then the payload.
   Payload = version byte, opcode byte, opcode-specific body.  All
   multi-byte integers are big-endian; floats travel as the 8 bytes of
   their IEEE-754 representation, so selectivities survive the wire
   bit-for-bit.  Strings carry a 16-bit length prefix; arrays a 32-bit
   count.

   Version 2 added the adaptivity pair: [Insert] (0x06) streams fresh
   attribute values into an entry's reservoir, [Observe] (0x07) feeds
   back an executed query's true selectivity.  Version 3 adds the
   multidimensional pair — [Estimate_rect] (0x08) asks a rectangle
   selectivity of a 2-D grid entry, [Estimate_join] (0x09) asks an
   estimated join size (predicate byte: 0 eq, 1 lt, 2 le) of a join
   entry — and extends each [Ls_reply] row with a kind byte (0 range,
   1 rect, 2 join) and an optional y-axis domain.  Everything carried
   over from version 2 is byte-identical except the version byte
   itself.

   Decoding is total: every malformed input — wrong version, unknown
   opcode, truncated body, trailing bytes, oversized counts — comes back
   as [Error], never as an exception. *)

type address = Unix_socket of string | Tcp of { host : string; port : int }

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let sockaddr_of_address = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp { host; port } -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let version = 3
let max_frame_bytes = 1 lsl 24

type request =
  | Ping
  | Ls
  | Estimate of { entry : string; a : float; b : float; spec : string }
  | Batch_estimate of (string * float * float) array
  | Invalidate of string
  | Insert of { entry : string; values : float array }
  | Observe of { entry : string; a : float; b : float; actual : float }
  | Estimate_rect of {
      entry : string;
      x_lo : float;
      x_hi : float;
      y_lo : float;
      y_hi : float;
    }
  | Estimate_join of { entry : string; pred : Selest.Stored.join_pred }

type error_code =
  | Bad_request
  | Unknown_entry
  | Spec_mismatch
  | Overloaded
  | Timeout
  | Draining
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_entry -> "unknown_entry"
  | Spec_mismatch -> "spec_mismatch"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Draining -> "draining"
  | Internal -> "internal"

type entry_info = {
  name : string;
  spec : string;
  cells : int;
  stale : bool;
  domain : float * float;
  kind : Selest.Stored.kind;
  domain_y : (float * float) option;
}

type response =
  | Pong
  | Ls_reply of entry_info list
  | Estimate_reply of float
  | Batch_reply of float array
  | Invalidated
  | Inserted of { sampled : int; seen : int }
  | Observed of float
  | Error_reply of { code : error_code; message : string }

(* ---------------- encoding ---------------- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  add_u8 buf (v lsr 24);
  add_u8 buf (v lsr 16);
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let add_string16 buf s =
  if String.length s > 0xffff then
    invalid_arg "Server.Wire: string field longer than 65535 bytes";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

let add_triple buf (entry, a, b) =
  add_string16 buf entry;
  add_f64 buf a;
  add_f64 buf b

let code_of_error = function
  | Bad_request -> 0
  | Unknown_entry -> 1
  | Spec_mismatch -> 2
  | Overloaded -> 3
  | Timeout -> 4
  | Draining -> 5
  | Internal -> 6

let code_of_pred = function
  | Selest.Stored.Join_eq -> 0
  | Selest.Stored.Join_lt -> 1
  | Selest.Stored.Join_le -> 2

let code_of_kind = function
  | Selest.Stored.Range_kind -> 0
  | Selest.Stored.Rect_kind -> 1
  | Selest.Stored.Join_kind -> 2

(* [_into] encoders append to a caller-owned buffer, so a connection can
   reuse one buffer for every frame it writes (see [writer] below); the
   string-returning forms below them keep the original API. *)

let encode_request_into buf req =
  add_u8 buf version;
  match req with
  | Ping -> add_u8 buf 0x01
  | Ls -> add_u8 buf 0x02
  | Estimate { entry; a; b; spec } ->
    add_u8 buf 0x03;
    add_string16 buf entry;
    add_f64 buf a;
    add_f64 buf b;
    add_string16 buf spec
  | Batch_estimate triples ->
    add_u8 buf 0x04;
    add_u32 buf (Array.length triples);
    Array.iter (add_triple buf) triples
  | Invalidate name ->
    add_u8 buf 0x05;
    add_string16 buf name
  | Insert { entry; values } ->
    add_u8 buf 0x06;
    add_string16 buf entry;
    add_u32 buf (Array.length values);
    Array.iter (add_f64 buf) values
  | Observe { entry; a; b; actual } ->
    add_u8 buf 0x07;
    add_string16 buf entry;
    add_f64 buf a;
    add_f64 buf b;
    add_f64 buf actual
  | Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } ->
    add_u8 buf 0x08;
    add_string16 buf entry;
    add_f64 buf x_lo;
    add_f64 buf x_hi;
    add_f64 buf y_lo;
    add_f64 buf y_hi
  | Estimate_join { entry; pred } ->
    add_u8 buf 0x09;
    add_string16 buf entry;
    add_u8 buf (code_of_pred pred)

let encode_response_into buf resp =
  add_u8 buf version;
  match resp with
  | Pong -> add_u8 buf 0x81
  | Ls_reply entries ->
    add_u8 buf 0x82;
    add_u32 buf (List.length entries);
    List.iter
      (fun e ->
        add_string16 buf e.name;
        add_string16 buf e.spec;
        add_u32 buf e.cells;
        add_u8 buf (if e.stale then 1 else 0);
        add_f64 buf (fst e.domain);
        add_f64 buf (snd e.domain);
        add_u8 buf (code_of_kind e.kind);
        match e.domain_y with
        | None -> add_u8 buf 0
        | Some (lo, hi) ->
          add_u8 buf 1;
          add_f64 buf lo;
          add_f64 buf hi)
      entries
  | Estimate_reply v ->
    add_u8 buf 0x83;
    add_f64 buf v
  | Batch_reply vs ->
    add_u8 buf 0x84;
    add_u32 buf (Array.length vs);
    Array.iter (add_f64 buf) vs
  | Invalidated -> add_u8 buf 0x85
  | Inserted { sampled; seen } ->
    add_u8 buf 0x86;
    add_u32 buf sampled;
    add_u32 buf seen
  | Observed v ->
    add_u8 buf 0x87;
    add_f64 buf v
  | Error_reply { code; message } ->
    add_u8 buf 0x8f;
    add_u8 buf (code_of_error code);
    add_string16 buf message

let encode_request req =
  let buf = Buffer.create 64 in
  encode_request_into buf req;
  Buffer.contents buf

let encode_response resp =
  let buf = Buffer.create 64 in
  encode_response_into buf resp;
  Buffer.contents buf

(* ---------------- decoding ---------------- *)

(* A cursor over the payload bytes.  Readers raise [Malformed]
   internally; the public decoders catch it, which keeps the total-decode
   contract in one place.  The cursor works on [bytes] rather than
   [string] so it can decode straight out of a connection's reusable
   [reader] buffer (below) without first copying the payload into a
   fresh string; string payloads wrap through [Bytes.unsafe_of_string],
   which is safe here because the cursor only reads. *)
exception Malformed of string

type cursor = { data : Bytes.t; mutable pos : int; limit : int }

let need cur n what =
  if cur.pos + n > cur.limit then
    raise (Malformed (Printf.sprintf "truncated %s at byte %d" what cur.pos))

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code (Bytes.get cur.data cur.pos) in
  cur.pos <- cur.pos + 1;
  v

let get_u16 cur what =
  let hi = get_u8 cur what in
  let lo = get_u8 cur what in
  (hi lsl 8) lor lo

let get_u32 cur what =
  let a = get_u16 cur what in
  let b = get_u16 cur what in
  (a lsl 16) lor b

let get_f64 cur what =
  need cur 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_be cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_string16 cur what =
  let len = get_u16 cur what in
  need cur len what;
  let s = Bytes.sub_string cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* Like [get_string16], but when the field's bytes equal [prev], return
   [prev] itself instead of a fresh copy — so a connection decoding the
   same entry name frame after frame allocates it once.  The comparison
   is byte-for-byte; a miss costs one extra scan over at most 64 KiB. *)
(* Top level (not a local loop) so the repeat-frame path stays
   allocation-free: a local [ref] counter or [let rec] closure would
   cost two minor words per string field, which is exactly the kind of
   leak the micro gate's wire.decode row exists to catch. *)
let rec bytes_eq_string data pos s i len =
  i = len
  || (Bytes.unsafe_get data (pos + i) = String.unsafe_get s i
     && bytes_eq_string data pos s (i + 1) len)

let intern_string data pos len prev =
  if String.length prev = len && bytes_eq_string data pos prev 0 len then prev
  else Bytes.sub_string data pos len

(* Counts are bounded by what could physically fit in a maximal frame, so
   a corrupt length cannot make the decoder allocate gigabytes. *)
let get_count cur ~item_bytes what =
  let n = get_u32 cur what in
  if n * item_bytes > max_frame_bytes then
    raise (Malformed (Printf.sprintf "implausible %s count %d" what n));
  n

let get_triple cur =
  let entry = get_string16 cur "batch entry" in
  let a = get_f64 cur "batch bound a" in
  let b = get_f64 cur "batch bound b" in
  (entry, a, b)

let error_of_code = function
  | 0 -> Bad_request
  | 1 -> Unknown_entry
  | 2 -> Spec_mismatch
  | 3 -> Overloaded
  | 4 -> Timeout
  | 5 -> Draining
  | 6 -> Internal
  | c -> raise (Malformed (Printf.sprintf "unknown error code %d" c))

let pred_of_code = function
  | 0 -> Selest.Stored.Join_eq
  | 1 -> Selest.Stored.Join_lt
  | 2 -> Selest.Stored.Join_le
  | c -> raise (Malformed (Printf.sprintf "unknown join predicate %d" c))

let kind_of_code = function
  | 0 -> Selest.Stored.Range_kind
  | 1 -> Selest.Stored.Rect_kind
  | 2 -> Selest.Stored.Join_kind
  | c -> raise (Malformed (Printf.sprintf "unknown entry kind %d" c))

let check_version cur =
  let v = get_u8 cur "version byte" in
  if v <> version then
    raise (Malformed (Printf.sprintf "unsupported protocol version %d (want %d)" v version))

let check_consumed kind cur =
  if cur.pos <> cur.limit then
    raise
      (Malformed (Printf.sprintf "%d trailing bytes after %s" (cur.limit - cur.pos) kind))

let decode_bytes kind data ~len parse_op =
  let cur = { data; pos = 0; limit = len } in
  match
    check_version cur;
    let op = get_u8 cur "opcode" in
    let msg = parse_op cur op in
    check_consumed kind cur;
    msg
  with
  | msg -> Ok msg
  | exception Malformed why -> Error why

let decode kind payload parse_op =
  decode_bytes kind (Bytes.unsafe_of_string payload) ~len:(String.length payload) parse_op

let parse_request_op cur = function
  | 0x01 -> Ping
  | 0x02 -> Ls
  | 0x03 ->
    let entry = get_string16 cur "entry name" in
    let a = get_f64 cur "bound a" in
    let b = get_f64 cur "bound b" in
    let spec = get_string16 cur "spec" in
    Estimate { entry; a; b; spec }
  | 0x04 ->
    let n = get_count cur ~item_bytes:18 "batch" in
    Batch_estimate (Array.init n (fun _ -> get_triple cur))
  | 0x05 -> Invalidate (get_string16 cur "entry name")
  | 0x06 ->
    let entry = get_string16 cur "entry name" in
    let n = get_count cur ~item_bytes:8 "insert" in
    Insert { entry; values = Array.init n (fun _ -> get_f64 cur "insert value") }
  | 0x07 ->
    let entry = get_string16 cur "entry name" in
    let a = get_f64 cur "bound a" in
    let b = get_f64 cur "bound b" in
    let actual = get_f64 cur "observed selectivity" in
    Observe { entry; a; b; actual }
  | 0x08 ->
    let entry = get_string16 cur "entry name" in
    let x_lo = get_f64 cur "rect bound x_lo" in
    let x_hi = get_f64 cur "rect bound x_hi" in
    let y_lo = get_f64 cur "rect bound y_lo" in
    let y_hi = get_f64 cur "rect bound y_hi" in
    Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }
  | 0x09 ->
    let entry = get_string16 cur "entry name" in
    let pred = pred_of_code (get_u8 cur "join predicate") in
    Estimate_join { entry; pred }
  | op -> raise (Malformed (Printf.sprintf "unknown request opcode 0x%02x" op))

let decode_request payload = decode "request" payload parse_request_op

(* ---- the reusable-scratch decode (the served read fast path) ----

   [decode_request_scratch] is [decode_request] restructured so that the
   hot opcode — a single Estimate — deposits its fields into a
   caller-owned scratch record instead of building a fresh request value.
   The float fields live in an all-float sub-record (unboxed by the
   runtime's float-record representation), the strings are interned
   against the previous frame's, and the result on the hot path is a
   preallocated constant — so a connection asking single estimates for
   the same entry decodes with zero allocation.  Every other frame,
   malformed single estimates included, goes to [parse_request_op], so
   each opcode has exactly one parser and one set of error messages. *)

type qnums = { mutable sa : float; mutable sb : float }

type scratch = {
  mutable s_entry : string;
  mutable s_spec : string;
  s_q : qnums;
}

let create_scratch () = { s_entry = ""; s_spec = ""; s_q = { sa = 0.0; sb = 0.0 } }

type incoming = Fast_estimate | Decoded of request

let ok_fast_estimate : (incoming, string) result = Ok Fast_estimate

(* [Bytes.get_int64_be] is an ordinary stdlib function, so without
   cross-module inlining each call returns a {e boxed} int64 — 2 minor
   words per bound, the last allocation left on the read path.  Reading
   through the compiler primitives instead keeps the whole
   load-swap-reinterpret chain unboxed (the bounds are range-checked by
   [need] first, so the unsafe load is safe). *)
external get_64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap_64 : int64 -> int64 = "%bswap_int64"

let u16_at data pos =
  (Char.code (Bytes.unsafe_get data pos) lsl 8) lor Char.code (Bytes.unsafe_get data (pos + 1))

(* The hot path parses a single estimate with raw offsets — even the
   4-word cursor record would show up in the micro gate's wire.decode
   row.  Every length is validated before the scratch is touched, and
   the checks accept exactly the well-formed estimate frames (version,
   opcode, two length-prefixed strings around 16 bytes of bounds, no
   trailing bytes).  Every other frame goes to [parse_request_op]; its
   cursor record is fine there, as that path builds request values
   anyway. *)
let decode_request_scratch data ~len scratch =
  let elen = if len >= 4 then u16_at data 2 else 0 in
  if
    len >= 22 + elen
    && Bytes.unsafe_get data 0 = '\x03' (* the version byte *)
    && Bytes.unsafe_get data 1 = '\x03' (* the Estimate opcode *)
    && len = 22 + elen + u16_at data (20 + elen) (* the spec ends the frame *)
  then begin
    scratch.s_entry <- intern_string data 4 elen scratch.s_entry;
    let bits_a = get_64u data (4 + elen) in
    scratch.s_q.sa <- Int64.float_of_bits (if Sys.big_endian then bits_a else swap_64 bits_a);
    let bits_b = get_64u data (12 + elen) in
    scratch.s_q.sb <- Int64.float_of_bits (if Sys.big_endian then bits_b else swap_64 bits_b);
    scratch.s_spec <- intern_string data (22 + elen) (len - 22 - elen) scratch.s_spec;
    ok_fast_estimate
  end
  else
    match decode_bytes "request" data ~len parse_request_op with
    | Ok req -> Ok (Decoded req)
    | Error why -> Error why

let decode_response payload =
  decode "response" payload (fun cur -> function
    | 0x81 -> Pong
    | 0x82 ->
      let n = get_count cur ~item_bytes:27 "ls" in
      Ls_reply
        (List.init n (fun _ ->
             let name = get_string16 cur "ls name" in
             let spec = get_string16 cur "ls spec" in
             let cells = get_u32 cur "ls cells" in
             let stale =
               match get_u8 cur "ls stale flag" with
               | 0 -> false
               | 1 -> true
               | v -> raise (Malformed (Printf.sprintf "malformed stale flag %d" v))
             in
             let lo = get_f64 cur "ls domain lo" in
             let hi = get_f64 cur "ls domain hi" in
             let kind = kind_of_code (get_u8 cur "ls kind") in
             let domain_y =
               match get_u8 cur "ls domain_y flag" with
               | 0 -> None
               | 1 ->
                 let ylo = get_f64 cur "ls domain_y lo" in
                 let yhi = get_f64 cur "ls domain_y hi" in
                 Some (ylo, yhi)
               | v -> raise (Malformed (Printf.sprintf "malformed domain_y flag %d" v))
             in
             { name; spec; cells; stale; domain = (lo, hi); kind; domain_y }))
    | 0x83 -> Estimate_reply (get_f64 cur "estimate reply")
    | 0x84 ->
      let n = get_count cur ~item_bytes:8 "batch reply" in
      Batch_reply (Array.init n (fun _ -> get_f64 cur "batch reply value"))
    | 0x85 -> Invalidated
    | 0x86 ->
      let sampled = get_u32 cur "inserted sampled count" in
      let seen = get_u32 cur "inserted seen count" in
      Inserted { sampled; seen }
    | 0x87 -> Observed (get_f64 cur "observed reply")
    | 0x8f ->
      let code = error_of_code (get_u8 cur "error code") in
      let message = get_string16 cur "error message" in
      Error_reply { code; message }
    | op -> raise (Malformed (Printf.sprintf "unknown response opcode 0x%02x" op)))

(* ---------------- frame I/O ---------------- *)

let really_write fd bytes =
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    let n = Unix.write fd bytes !written (len - !written) in
    if n = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    written := !written + n
  done

(* A peer that hangs up mid-write must surface as EPIPE on that write —
   the caller's per-connection error path — not as a process-killing
   SIGPIPE.  Process-global, so done once; both endpoints call this
   before their first socket I/O. *)
let ignore_sigpipe =
  let done_ = lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore) in
  fun () -> Lazy.force done_

let set_frame_header frame len =
  Bytes.set frame 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (len land 0xff))

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then invalid_arg "Server.Wire.write_frame: payload too large";
  let frame = Bytes.create (4 + len) in
  set_frame_header frame len;
  Bytes.blit_string payload 0 frame 4 len;
  really_write fd frame

(* A per-connection frame writer: one Buffer for encoding, one byte
   buffer for the framed bytes, both reused (and grown geometrically)
   across frames, so a steady-state reply costs zero fresh buffers —
   only the encoded bytes move.  Single-owner like the connection it
   belongs to. *)
type writer = { wbuf : Buffer.t; mutable frame : Bytes.t }

let create_writer () = { wbuf = Buffer.create 256; frame = Bytes.create 256 }

let really_write_sub fd bytes len =
  let written = ref 0 in
  while !written < len do
    let n = Unix.write fd bytes !written (len - !written) in
    if n = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    written := !written + n
  done

let write_encoded w fd =
  let len = Buffer.length w.wbuf in
  if len > max_frame_bytes then invalid_arg "Server.Wire: payload too large";
  if Bytes.length w.frame < 4 + len then begin
    let cap = ref (2 * Bytes.length w.frame) in
    while !cap < 4 + len do
      cap := 2 * !cap
    done;
    w.frame <- Bytes.create !cap
  end;
  set_frame_header w.frame len;
  Buffer.blit w.wbuf 0 w.frame 4 len;
  really_write_sub fd w.frame (4 + len)

let write_response w fd resp =
  Buffer.clear w.wbuf;
  encode_response_into w.wbuf resp;
  write_encoded w fd

let write_request w fd req =
  Buffer.clear w.wbuf;
  encode_request_into w.wbuf req;
  write_encoded w fd

(* Reads exactly [n] bytes; [`Eof k] reports how many arrived before the
   peer closed. *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
  in
  go 0

let read_frame fd =
  match really_read fd 4 with
  | `Eof 0 -> Ok None
  | `Eof _ -> Error "connection closed inside a frame header"
  | `Ok header ->
    let len =
      (Char.code header.[0] lsl 24)
      lor (Char.code header.[1] lsl 16)
      lor (Char.code header.[2] lsl 8)
      lor Char.code header.[3]
    in
    if len > max_frame_bytes then Error (Printf.sprintf "frame of %d bytes exceeds limit" len)
    else if len < 2 then Error (Printf.sprintf "frame of %d bytes is below the 2-byte header" len)
    else (
      match really_read fd len with
      | `Eof _ -> Error "connection closed inside a frame body"
      | `Ok payload -> Ok (Some payload))

(* A per-connection frame reader, the read-side twin of [writer]: a
   fixed 4-byte header buffer and a payload buffer reused (and grown
   geometrically, never shrunk) across frames.  [read_frame_into]
   signals through an integer instead of a result value so the
   steady-state read loop allocates nothing at all; the error message of
   a [-2] return waits in [reader_error]. *)
type reader = {
  r_head : Bytes.t;
  mutable r_buf : Bytes.t;
  mutable r_error : string;
}

let create_reader () =
  { r_head = Bytes.create 4; r_buf = Bytes.create 256; r_error = "" }

let reader_buffer r = r.r_buf
let reader_error r = r.r_error

(* Reads exactly [n] bytes into [buf]; returns how many arrived (short
   only when the peer closed mid-read). *)
let really_read_into fd buf n =
  let off = ref 0 in
  let eof = ref false in
  while !off < n && not !eof do
    match Unix.read fd buf !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  !off

let read_frame_into r fd =
  match really_read_into fd r.r_head 4 with
  | 0 -> -1
  | k when k < 4 ->
    r.r_error <- "connection closed inside a frame header";
    -2
  | _ ->
    let len =
      (Char.code (Bytes.unsafe_get r.r_head 0) lsl 24)
      lor (Char.code (Bytes.unsafe_get r.r_head 1) lsl 16)
      lor (Char.code (Bytes.unsafe_get r.r_head 2) lsl 8)
      lor Char.code (Bytes.unsafe_get r.r_head 3)
    in
    if len > max_frame_bytes then begin
      r.r_error <- Printf.sprintf "frame of %d bytes exceeds limit" len;
      -2
    end
    else if len < 2 then begin
      r.r_error <- Printf.sprintf "frame of %d bytes is below the 2-byte header" len;
      -2
    end
    else begin
      if Bytes.length r.r_buf < len then begin
        let cap = ref (2 * Bytes.length r.r_buf) in
        while !cap < len do
          cap := 2 * !cap
        done;
        r.r_buf <- Bytes.create !cap
      end;
      if really_read_into fd r.r_buf len < len then begin
        r.r_error <- "connection closed inside a frame body";
        -2
      end
      else len
    end

(* ---------------- equality and printing ---------------- *)

let float_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let triple_eq (n1, a1, b1) (n2, a2, b2) = String.equal n1 n2 && float_eq a1 a2 && float_eq b1 b2

let equal_request r1 r2 =
  match (r1, r2) with
  | Ping, Ping | Ls, Ls -> true
  | Estimate e1, Estimate e2 ->
    String.equal e1.entry e2.entry && float_eq e1.a e2.a && float_eq e1.b e2.b
    && String.equal e1.spec e2.spec
  | Batch_estimate t1, Batch_estimate t2 ->
    Array.length t1 = Array.length t2 && Array.for_all2 triple_eq t1 t2
  | Invalidate n1, Invalidate n2 -> String.equal n1 n2
  | Insert i1, Insert i2 ->
    String.equal i1.entry i2.entry
    && Array.length i1.values = Array.length i2.values
    && Array.for_all2 float_eq i1.values i2.values
  | Observe o1, Observe o2 ->
    String.equal o1.entry o2.entry && float_eq o1.a o2.a && float_eq o1.b o2.b
    && float_eq o1.actual o2.actual
  | Estimate_rect r1, Estimate_rect r2 ->
    String.equal r1.entry r2.entry && float_eq r1.x_lo r2.x_lo
    && float_eq r1.x_hi r2.x_hi && float_eq r1.y_lo r2.y_lo
    && float_eq r1.y_hi r2.y_hi
  | Estimate_join j1, Estimate_join j2 ->
    String.equal j1.entry j2.entry && j1.pred = j2.pred
  | ( ( Ping | Ls | Estimate _ | Batch_estimate _ | Invalidate _ | Insert _ | Observe _
      | Estimate_rect _ | Estimate_join _ ),
      _ ) ->
    false

let entry_info_eq e1 e2 =
  String.equal e1.name e2.name && String.equal e1.spec e2.spec && e1.cells = e2.cells
  && Bool.equal e1.stale e2.stale
  && float_eq (fst e1.domain) (fst e2.domain)
  && float_eq (snd e1.domain) (snd e2.domain)
  && e1.kind = e2.kind
  && (match (e1.domain_y, e2.domain_y) with
     | None, None -> true
     | Some (l1, h1), Some (l2, h2) -> float_eq l1 l2 && float_eq h1 h2
     | None, Some _ | Some _, None -> false)

let equal_response r1 r2 =
  match (r1, r2) with
  | Pong, Pong | Invalidated, Invalidated -> true
  | Ls_reply l1, Ls_reply l2 -> List.length l1 = List.length l2 && List.for_all2 entry_info_eq l1 l2
  | Estimate_reply v1, Estimate_reply v2 -> float_eq v1 v2
  | Batch_reply v1, Batch_reply v2 ->
    Array.length v1 = Array.length v2 && Array.for_all2 float_eq v1 v2
  | Inserted i1, Inserted i2 -> i1.sampled = i2.sampled && i1.seen = i2.seen
  | Observed v1, Observed v2 -> float_eq v1 v2
  | Error_reply e1, Error_reply e2 -> e1.code = e2.code && String.equal e1.message e2.message
  | ( ( Pong | Ls_reply _ | Estimate_reply _ | Batch_reply _ | Invalidated | Inserted _
      | Observed _ | Error_reply _ ),
      _ ) ->
    false

let request_to_string = function
  | Ping -> "ping"
  | Ls -> "ls"
  | Estimate { entry; a; b; spec } ->
    Printf.sprintf "estimate %S [%h, %h] spec=%S" entry a b spec
  | Batch_estimate triples -> Printf.sprintf "batch_estimate(%d)" (Array.length triples)
  | Invalidate name -> Printf.sprintf "invalidate %S" name
  | Insert { entry; values } -> Printf.sprintf "insert %S (%d values)" entry (Array.length values)
  | Observe { entry; a; b; actual } ->
    Printf.sprintf "observe %S [%h, %h] actual=%h" entry a b actual
  | Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } ->
    Printf.sprintf "estimate_rect %S [%h, %h] x [%h, %h]" entry x_lo x_hi y_lo y_hi
  | Estimate_join { entry; pred } ->
    Printf.sprintf "estimate_join %S pred=%s" entry
      (match pred with
      | Selest.Stored.Join_eq -> "eq"
      | Selest.Stored.Join_lt -> "lt"
      | Selest.Stored.Join_le -> "le")

let response_to_string = function
  | Pong -> "pong"
  | Ls_reply entries -> Printf.sprintf "ls_reply(%d)" (List.length entries)
  | Estimate_reply v -> Printf.sprintf "estimate_reply %h" v
  | Batch_reply vs -> Printf.sprintf "batch_reply(%d)" (Array.length vs)
  | Invalidated -> "invalidated"
  | Inserted { sampled; seen } -> Printf.sprintf "inserted sampled=%d seen=%d" sampled seen
  | Observed v -> Printf.sprintf "observed %h" v
  | Error_reply { code; message } ->
    Printf.sprintf "error %s: %s" (error_code_to_string code) message
