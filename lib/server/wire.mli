(** The versioned, length-prefixed binary protocol of the estimate server.

    A conversation is a sequence of frames in each direction: a 4-byte
    big-endian payload length followed by the payload, whose first two
    bytes are the protocol {!version} and an opcode.  Integers are
    big-endian, floats are the 8 bytes of their IEEE-754 representation
    (selectivities cross the wire bit-for-bit), strings carry a 16-bit
    length prefix and arrays a 32-bit count.  The full frame layout, with
    a worked hex example, is documented in [docs/SERVING.md].

    Decoding is {e total}: a malformed payload — wrong version, unknown
    opcode, truncated field, implausible count, trailing bytes — always
    yields [Error], never an exception, so a hostile or buggy peer cannot
    crash the server.  [test/test_server.ml] holds the qcheck round-trip
    and totality properties. *)

type address = Unix_socket of string | Tcp of { host : string; port : int }
(** A serving endpoint: a Unix-domain socket path, or a TCP host/port
    (the host must be a literal address, e.g. ["127.0.0.1"]). *)

val address_to_string : address -> string
(** Human-readable endpoint, e.g. ["unix:/tmp/selest.sock"] or
    ["127.0.0.1:7979"]. *)

val sockaddr_of_address : address -> Unix.sockaddr
(** The [Unix.sockaddr] to bind or connect to.
    @raise Failure on a [Tcp] host that is not a literal IP address. *)

val version : int
(** Protocol version spoken by this build ([3]); both decoders reject
    payloads carrying any other version byte.  Version 2 added the
    adaptivity pair {!request.Insert}/{!request.Observe} (and their
    replies); version 3 adds the multidimensional pair
    {!request.Estimate_rect}/{!request.Estimate_join} and extends each
    {!entry_info} row with its summary kind and optional y-axis domain.
    Every frame carried over from the previous version is byte-identical
    except the version byte itself. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (16 MiB).  {!write_frame} refuses
    larger payloads; {!read_frame} rejects larger headers without
    allocating. *)

type request =
  | Ping  (** liveness probe; answered without touching the catalog *)
  | Ls  (** list the served entries with spec, staleness and domain *)
  | Estimate of { entry : string; a : float; b : float; spec : string }
      (** one range-selectivity query [Q(a,b)] against a named entry;
          [spec] may pin the estimator spec the entry must have been
          built with ([""] = any) *)
  | Batch_estimate of (string * float * float) array
      (** many [(entry, a, b)] queries answered in one frame, in order *)
  | Invalidate of string  (** force-stale an entry, as [Service.invalidate] *)
  | Insert of { entry : string; values : float array }
      (** stream freshly inserted attribute values of the entry's
          relation into its reservoir sample and staleness budget
          (adaptive servers only; see [docs/ADAPTIVITY.md]).  {e Not}
          idempotent: a retried insert offers its values again. *)
  | Observe of { entry : string; a : float; b : float; actual : float }
      (** feed back the true selectivity [actual] of an executed query
          [Q(a,b)], refining the entry's ST-histogram (adaptive servers
          only) *)
  | Estimate_rect of {
      entry : string;
      x_lo : float;
      x_hi : float;
      y_lo : float;
      y_hi : float;
    }
      (** one rectangle-selectivity query
          [[x_lo, x_hi] x [y_lo, y_hi]] against a rect entry (opcode
          0x08); answered with {!response.Estimate_reply} *)
  | Estimate_join of { entry : string; pred : Selest.Stored.join_pred }
      (** one join-size query against a join entry (opcode 0x09; the
          predicate travels as one byte — 0 eq, 1 lt, 2 le); answered
          with {!response.Estimate_reply} carrying the estimated join
          {e size}, not a selectivity *)

type error_code =
  | Bad_request  (** malformed frame or unparseable payload *)
  | Unknown_entry  (** no catalog entry of that name *)
  | Spec_mismatch  (** the entry exists but was built with another spec *)
  | Overloaded  (** admission control: too many requests in flight *)
  | Timeout  (** the request sat past its deadline before evaluation *)
  | Draining  (** the server is shutting down and refuses new work *)
  | Internal  (** unexpected server-side failure *)

val error_code_to_string : error_code -> string
(** Stable lower-case label (["overloaded"], ["timeout"], ...), used as
    the error-class key in load-generator reports and telemetry labels. *)

type entry_info = {
  name : string;  (** catalog entry name *)
  spec : string;  (** compact estimator spec the entry was built with *)
  cells : int;  (** summary grid resolution *)
  stale : bool;  (** past its insert budget or explicitly invalidated *)
  domain : float * float;
      (** estimation domain, for query generation (the x-axis domain for
          rect entries, the shared attribute domain for join entries) *)
  kind : Selest.Stored.kind;  (** range, rect or join *)
  domain_y : (float * float) option;  (** rect entries: the y-axis domain *)
}
(** One row of an {!response.Ls_reply} — the metadata a client needs to
    address (and generate load against) an entry. *)

type response =
  | Pong  (** answer to {!request.Ping} *)
  | Ls_reply of entry_info list  (** answer to {!request.Ls}, sorted by name *)
  | Estimate_reply of float  (** the selectivity, bit-identical to a direct call *)
  | Batch_reply of float array  (** per-query selectivities in request order *)
  | Invalidated  (** acknowledgement of {!request.Invalidate} *)
  | Inserted of { sampled : int; seen : int }
      (** acknowledgement of {!request.Insert}: current reservoir
          occupancy and lifetime offered count for the entry *)
  | Observed of float
      (** acknowledgement of {!request.Observe}: the refined in-memory
          estimate for the observed range, which converges toward the
          fed-back values over repeated observations *)
  | Error_reply of { code : error_code; message : string }
      (** typed failure; [message] is human-readable detail *)

val encode_request : request -> string
(** Serialize a request payload (version and opcode included, frame
    header excluded).  @raise Invalid_argument on a string field longer
    than 65535 bytes. *)

val decode_request : string -> (request, string) result
(** Total inverse of {!encode_request}: [Error] describes the first
    malformed field and trailing bytes are rejected.  Never raises. *)

val encode_response : response -> string
(** Serialize a response payload.  @raise Invalid_argument on a string
    field longer than 65535 bytes. *)

val decode_response : string -> (response, string) result
(** Total inverse of {!encode_response}; same contract as
    {!decode_request}. *)

val encode_request_into : Buffer.t -> request -> unit
(** Append the serialized request payload to a caller-owned buffer —
    {!encode_request} without the fresh string, for callers that reuse
    one buffer across frames.  Same contract otherwise. *)

val encode_response_into : Buffer.t -> response -> unit
(** Like {!encode_request_into}, for responses. *)

type writer
(** A per-connection frame writer: one encode buffer and one framed-bytes
    buffer, both reused (and grown geometrically, never shrunk) across
    frames, so steady-state replies allocate no fresh buffers.
    Single-owner, like the connection it serves. *)

val create_writer : unit -> writer
(** A fresh writer with small initial buffers. *)

val write_response : writer -> Unix.file_descr -> response -> unit
(** Encode into the writer's buffers and write one framed response,
    looping until every byte is out.  Equivalent on the wire to
    [write_frame fd (encode_response resp)].
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}.
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)

val write_request : writer -> Unix.file_descr -> request -> unit
(** Like {!write_response}, for the client side of the conversation. *)

val ignore_sigpipe : unit -> unit
(** Set the process-wide SIGPIPE disposition to ignore (idempotent), so
    a peer hanging up mid-write surfaces as [EPIPE] on that write — a
    per-connection error — instead of killing the process.  {!Engine}
    and {!Client} call it before their first socket I/O. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame, looping until every byte is out.
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}.
    @raise Unix.Unix_error on I/O failure (e.g. [EPIPE]). *)

val read_frame : Unix.file_descr -> (string option, string) result
(** Read one frame: [Ok (Some payload)], or [Ok None] on a clean EOF at a
    frame boundary, or [Error] on a truncated or oversized frame.
    Allocates a fresh payload string per frame — fine for clients; the
    serving engine reads through a {!reader} instead.
    @raise Unix.Unix_error on I/O failure, including [EAGAIN] when the
    descriptor carries a receive timeout that expires. *)

type reader
(** A per-connection frame reader, the read-side twin of {!writer}: a
    fixed header buffer and a payload buffer reused (and grown
    geometrically, never shrunk) across frames, so steady-state reads
    allocate nothing.  Single-owner, like the connection it serves. *)

val create_reader : unit -> reader
(** A fresh reader with a small initial payload buffer. *)

val read_frame_into : reader -> Unix.file_descr -> int
(** Read one frame into the reader's buffers.  Returns the payload
    length (>= 0) with the payload in {!reader_buffer}; [-1] on a clean
    EOF at a frame boundary; [-2] on a truncated or oversized frame,
    with the message in {!reader_error}.  The integer signalling (rather
    than a result value) is what keeps the steady-state read loop
    allocation-free.  Wire-equivalent to {!read_frame}.
    @raise Unix.Unix_error on I/O failure, as {!read_frame}. *)

val reader_buffer : reader -> Bytes.t
(** The payload buffer; only the first [len] bytes of the last
    successful {!read_frame_into} are meaningful, and the next call
    overwrites them.  Pass it straight to {!decode_request_scratch}. *)

val reader_error : reader -> string
(** The framing-error message of the last [-2] return. *)

type qnums = { mutable sa : float; mutable sb : float }
(** The scratch record's range bounds, split into an all-float record so
    the runtime stores them unboxed and redecoding touches no
    allocator. *)

type scratch = {
  mutable s_entry : string;  (** entry name of the last fast estimate *)
  mutable s_spec : string;  (** spec pin of the last fast estimate *)
  s_q : qnums;  (** range bounds of the last fast estimate *)
}
(** A reusable decoded-request record for the hot opcode (single
    estimate).  String fields are interned against the previous frame —
    a connection querying the same entry repeatedly decodes with zero
    allocation. *)

val create_scratch : unit -> scratch
(** A fresh scratch with empty strings (so the first frame always
    allocates its field values once). *)

type incoming =
  | Fast_estimate
      (** the frame was a single estimate; its fields are in the scratch *)
  | Decoded of request  (** any other opcode, parsed as {!decode_request} *)

val decode_request_scratch :
  Bytes.t -> len:int -> scratch -> (incoming, string) result
(** [decode_request_scratch buf ~len scratch] decodes the request in
    [buf.[0..len-1]] — {!decode_request} restructured so the hot opcode
    deposits into [scratch] (returning a preallocated [Ok Fast_estimate])
    instead of building a request value.  On every input it agrees with
    {!decode_request}: the same accept/reject decision, the same field
    values, and on [Error] the same message, because every frame other
    than a well-formed single estimate goes through {!decode_request}'s
    own parser.  Never raises. *)

val equal_request : request -> request -> bool
(** Structural equality with floats compared by their IEEE-754 bits, so
    NaN payloads and negative zeros round-trip honestly in tests. *)

val equal_response : response -> response -> bool
(** Like {!equal_request}, for responses. *)

val request_to_string : request -> string
(** One-line rendering for logs and test failure messages. *)

val response_to_string : response -> string
(** One-line rendering for logs and test failure messages. *)
