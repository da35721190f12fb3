(* The network serving layer: wire-protocol round trips and totality,
   engine request/reply semantics over real sockets, backpressure and
   deadline error channels, 32-connection load-generator bit-identity,
   and the SIGTERM kill-and-reconnect drain contract. *)

module Wire = Server.Wire
module Engine = Server.Engine
module Client = Server.Client
module Loadgen = Server.Loadgen
module Service = Catalog.Service

let check = Alcotest.check

let fresh_dir () =
  let base = Filename.temp_file "selest_server_test" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  base

let sock_path () =
  let p = Filename.temp_file "selest_srv" ".sock" in
  Sys.remove p;
  p

let or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let or_fail_client = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected client error: %s" (Client.error_to_string e)

let sample_a = Array.init 500 (fun i -> float_of_int (i * i mod 97))
let sample_b = Array.init 400 (fun i -> float_of_int (i mod 61))
let domain_a = (-0.5, 96.5)
let domain_b = (-0.5, 60.5)

let build_two svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build svc ~name:"users/age" ~spec:"sampling" ~domain:domain_b
          ~sample:sample_b))

(* Run [f client address] against a freshly built two-entry catalog served
   on a Unix socket, by [shards] shards (default 1); always drains the
   server afterwards. *)
let with_server ?config ?(shards = 1) f =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let services = if shards = 1 then [| svc |] else fst (Service.open_sharded ~shards dir) in
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ?config ~services address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client address dir))

(* ---------------- Wire: generators ---------------- *)

(* Floats are drawn from raw bit patterns so NaNs, infinities and negative
   zero must survive the trip; equality is bit-level throughout. *)
let gen_float = QCheck.Gen.(map Int64.float_of_bits int64)
let gen_str = QCheck.Gen.(string_size (int_bound 30))

let gen_request =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.Ping);
      (1, return Wire.Ls);
      ( 3,
        gen_str >>= fun entry ->
        gen_float >>= fun a ->
        gen_float >>= fun b ->
        gen_str >>= fun spec -> return (Wire.Estimate { entry; a; b; spec }) );
      ( 3,
        list_size (int_bound 16) (triple gen_str gen_float gen_float) >>= fun l ->
        return (Wire.Batch_estimate (Array.of_list l)) );
      (1, gen_str >>= fun s -> return (Wire.Invalidate s));
      ( 2,
        gen_str >>= fun entry ->
        list_size (int_bound 16) gen_float >>= fun l ->
        return (Wire.Insert { entry; values = Array.of_list l }) );
      ( 2,
        gen_str >>= fun entry ->
        gen_float >>= fun a ->
        gen_float >>= fun b ->
        gen_float >>= fun actual -> return (Wire.Observe { entry; a; b; actual }) );
      ( 2,
        gen_str >>= fun entry ->
        gen_float >>= fun x_lo ->
        gen_float >>= fun x_hi ->
        gen_float >>= fun y_lo ->
        gen_float >>= fun y_hi ->
        return (Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi }) );
      ( 2,
        gen_str >>= fun entry ->
        oneofl [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ]
        >>= fun pred -> return (Wire.Estimate_join { entry; pred }) );
    ]

let gen_entry_info =
  let open QCheck.Gen in
  gen_str >>= fun name ->
  gen_str >>= fun spec ->
  int_bound 100000 >>= fun cells ->
  bool >>= fun stale ->
  gen_float >>= fun lo ->
  gen_float >>= fun hi ->
  oneofl [ Selest.Stored.Range_kind; Selest.Stored.Rect_kind; Selest.Stored.Join_kind ]
  >>= fun kind ->
  oneof
    [
      return None;
      (gen_float >>= fun ylo -> gen_float >>= fun yhi -> return (Some (ylo, yhi)));
    ]
  >>= fun domain_y ->
  return { Wire.name; spec; cells; stale; domain = (lo, hi); kind; domain_y }

let gen_error_code =
  QCheck.Gen.oneofl
    [
      Wire.Bad_request; Wire.Unknown_entry; Wire.Spec_mismatch; Wire.Overloaded;
      Wire.Timeout; Wire.Draining; Wire.Internal;
    ]

let gen_response =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.Pong);
      (2, list_size (int_bound 8) gen_entry_info >>= fun l -> return (Wire.Ls_reply l));
      (3, gen_float >>= fun x -> return (Wire.Estimate_reply x));
      ( 3,
        list_size (int_bound 16) gen_float >>= fun l ->
        return (Wire.Batch_reply (Array.of_list l)) );
      (1, return Wire.Invalidated);
      ( 2,
        int_bound 100000 >>= fun sampled ->
        int_bound 1000000 >>= fun seen -> return (Wire.Inserted { sampled; seen }) );
      (2, gen_float >>= fun x -> return (Wire.Observed x));
      ( 2,
        gen_error_code >>= fun code ->
        gen_str >>= fun message -> return (Wire.Error_reply { code; message }) );
    ]

let request_arb = QCheck.make gen_request ~print:Wire.request_to_string
let response_arb = QCheck.make gen_response ~print:Wire.response_to_string

let qcheck_request_round_trip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round trip (bit-level)"
    request_arb (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> Wire.equal_request req req'
      | Error _ -> false)

let qcheck_response_round_trip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode round trip (bit-level)"
    response_arb (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> Wire.equal_response resp resp'
      | Error _ -> false)

let qcheck_decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode is total on arbitrary bytes"
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      (* Any outcome is fine; raising is the only failure. *)
      ignore (Wire.decode_request s);
      ignore (Wire.decode_response s);
      true)

(* The serving engine reads through [decode_request_scratch]; its
   contract is bit-for-bit agreement with [decode_request] on every
   input — same accept/reject decision, same field values, same error
   message. *)
let scratch_agrees payload =
  let sc = Wire.create_scratch () in
  let buf = Bytes.of_string payload in
  match (Wire.decode_request payload, Wire.decode_request_scratch buf ~len:(Bytes.length buf) sc) with
  | Ok (Wire.Estimate { entry; a; b; spec }), Ok Wire.Fast_estimate ->
    String.equal sc.Wire.s_entry entry
    && String.equal sc.Wire.s_spec spec
    && Int64.bits_of_float sc.Wire.s_q.Wire.sa = Int64.bits_of_float a
    && Int64.bits_of_float sc.Wire.s_q.Wire.sb = Int64.bits_of_float b
  | Ok (Wire.Estimate _), _ -> false
  | Ok req, Ok (Wire.Decoded req') -> Wire.equal_request req req'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* Truncated frames are where the two decoders could drift apart: each
   prefix must be rejected, by both, with the same message. *)
let qcheck_truncation_is_error =
  QCheck.Test.make ~count:200 ~name:"every strict prefix of an encoding is an Error"
    request_arb (fun req ->
      let payload = Wire.encode_request req in
      let ok = ref true in
      for len = 0 to String.length payload - 1 do
        let prefix = String.sub payload 0 len in
        match Wire.decode_request prefix with
        | Error _ -> if not (scratch_agrees prefix) then ok := false
        | Ok _ -> ok := false
      done;
      !ok)

let qcheck_scratch_decode_agrees =
  QCheck.Test.make ~count:500 ~name:"scratch decode agrees with decode_request"
    request_arb (fun req -> scratch_agrees (Wire.encode_request req))

let qcheck_scratch_decode_agrees_on_noise =
  QCheck.Test.make ~count:1000 ~name:"scratch decode agrees on arbitrary bytes"
    QCheck.(string_gen QCheck.Gen.char)
    scratch_agrees

let test_scratch_interning () =
  (* Re-decoding a frame for the same entry must reuse the previous
     string values physically — that reuse is what makes the steady-state
     read path allocation-free (the micro gate's wire.decode row). *)
  let payload =
    Wire.encode_request (Wire.Estimate { entry = "orders/amount"; a = 1.0; b = 2.0; spec = "ewh:16" })
  in
  let buf = Bytes.of_string payload in
  let len = Bytes.length buf in
  let sc = Wire.create_scratch () in
  (match Wire.decode_request_scratch buf ~len sc with
  | Ok Wire.Fast_estimate -> ()
  | _ -> Alcotest.fail "first decode rejected");
  let entry1 = sc.Wire.s_entry and spec1 = sc.Wire.s_spec in
  (match Wire.decode_request_scratch buf ~len sc with
  | Ok Wire.Fast_estimate -> ()
  | _ -> Alcotest.fail "second decode rejected");
  check Alcotest.bool "entry string reused physically" true (sc.Wire.s_entry == entry1);
  check Alcotest.bool "spec string reused physically" true (sc.Wire.s_spec == spec1)

let test_wire_malformed_cases () =
  let expect_error label s =
    match Wire.decode_request s with
    | Error _ -> ()
    | Ok req -> Alcotest.failf "%s decoded to %s" label (Wire.request_to_string req)
  in
  expect_error "empty payload" "";
  expect_error "version only" "\x03";
  (* Valid ping is version 3, opcode 0x01. *)
  (match Wire.decode_request "\x03\x01" with
  | Ok Wire.Ping -> ()
  | other ->
    Alcotest.failf "ping payload rejected: %s"
      (match other with
      | Ok r -> Wire.request_to_string r
      | Error m -> m));
  expect_error "old protocol version" "\x02\x01";
  expect_error "future protocol version" "\x04\x01";
  expect_error "unknown opcode" "\x03\x7f";
  expect_error "trailing bytes" "\x03\x01\x00";
  (* Batch count far beyond what the frame could carry. *)
  expect_error "implausible array count" "\x03\x04\xff\xff\xff\xff";
  (* Insert value count far beyond what the frame could carry. *)
  expect_error "implausible insert count" "\x03\x06\x00\x00\xff\xff\xff\xff";
  (* String length past the end of the payload. *)
  expect_error "truncated string" "\x03\x05\x00\x10ab";
  (* Rect frame cut off inside its fourth coordinate. *)
  expect_error "truncated rect"
    "\x03\x08\x00\x01a\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
  (* Join frame with an out-of-range predicate code. *)
  expect_error "unknown join predicate" "\x03\x09\x00\x01a\x07";
  (* A well-formed estimate plus one byte: the scratch decoder's
     raw-offset path must refuse it exactly as decode_request does. *)
  let extended =
    Wire.encode_request (Wire.Estimate { entry = "e"; a = 0.0; b = 1.0; spec = "" }) ^ "\x00"
  in
  expect_error "estimate with a trailing byte" extended;
  check Alcotest.bool "scratch decoder agrees on the trailing byte" true (scratch_agrees extended)

(* ---------------- Engine + Client ---------------- *)

let expect_refusal code label = function
  | Error (Client.Server (c, _)) when c = code -> ()
  | Ok _ -> Alcotest.failf "%s: answered, expected %s" label (Wire.error_code_to_string code)
  | Error e ->
    Alcotest.failf "%s: expected %s, got %s" label (Wire.error_code_to_string code)
      (Client.error_to_string e)

let test_basic_requests () =
  with_server (fun client _address dir ->
      or_fail_client (Client.ping client);
      let entries = or_fail_client (Client.ls client) in
      check (Alcotest.list Alcotest.string) "ls names" [ "orders/amount"; "users/age" ]
        (List.map (fun (e : Wire.entry_info) -> e.Wire.name) entries);
      check (Alcotest.list Alcotest.string) "ls specs" [ "ewh:16"; "sampling" ]
        (List.map (fun (e : Wire.entry_info) -> e.Wire.spec) entries);
      (* Served estimates are bit-identical to direct Service.answer. *)
      let direct_svc, _ = Service.open_dir dir in
      let requests =
        [| ("orders/amount", 3.0, 40.0); ("users/age", 0.0, 30.5); ("users/age", 59.0, 60.0) |]
      in
      let direct = Service.answer direct_svc requests in
      Array.iteri
        (fun i (entry, a, b) ->
          let served = or_fail_client (Client.estimate client ~entry ~a ~b) in
          check Alcotest.bool
            (Printf.sprintf "estimate %d bit-identical" i)
            true
            (Int64.bits_of_float served = Int64.bits_of_float direct.(i)))
        requests;
      let batch = or_fail_client (Client.batch_estimate client requests) in
      check Alcotest.bool "batch bit-identical" true
        (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) batch direct);
      (* Typed errors for bad addressing. *)
      (match Client.estimate client ~entry:"nope" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
      | other ->
        Alcotest.failf "unknown entry: %s"
          (match other with
          | Ok v -> Printf.sprintf "Ok %g" v
          | Error e -> Client.error_to_string e));
      (match Client.estimate ~spec:"sampling" client ~entry:"orders/amount" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Spec_mismatch, _)) -> ()
      | _ -> Alcotest.fail "spec pin did not trip");
      let pinned =
        or_fail_client (Client.estimate ~spec:"ewh:16" client ~entry:"orders/amount" ~a:0.0 ~b:1.0)
      in
      check Alcotest.bool "matching spec pin answers" true (Float.is_finite pinned);
      (* Invalidate round-trips and shows in ls. *)
      or_fail_client (Client.invalidate client "users/age");
      let entries = or_fail_client (Client.ls client) in
      check Alcotest.bool "invalidate marks stale" true
        (List.exists (fun (e : Wire.entry_info) -> e.Wire.name = "users/age" && e.Wire.stale) entries);
      (match Client.invalidate client "ghost" with
      | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
      | _ -> Alcotest.fail "invalidate of unknown entry not typed");
      (* Adaptive ops against a non-adaptive server are typed refusals,
         not protocol errors. *)
      (match Client.insert client ~entry:"users/age" [| 30.0 |] with
      | Error (Client.Server (Wire.Bad_request, _)) -> ()
      | Ok _ -> Alcotest.fail "insert accepted by a non-adaptive server"
      | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
      (match Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.5 with
      | Error (Client.Server (Wire.Bad_request, _)) -> ()
      | Ok _ -> Alcotest.fail "observe accepted by a non-adaptive server"
      | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
      (* ...whatever the entry: a non-adaptive server checks adaptivity
         before it looks the name up. *)
      expect_refusal Wire.Bad_request "non-adaptive insert into an unknown entry"
        (Client.insert client ~entry:"ghost" [| 30.0 |]);
      expect_refusal Wire.Bad_request "non-adaptive observe of an unknown entry"
        (Client.observe client ~entry:"ghost" ~a:0.0 ~b:30.0 ~actual:0.5));
  (* A batch naming an unknown entry is refused whole, typed, whether
     the frame stays on one shard or is split across two. *)
  List.iter
    (fun shards ->
      with_server ~shards (fun client _address _dir ->
          expect_refusal Wire.Unknown_entry
            (Printf.sprintf "batch with an unknown entry at %d shard(s)" shards)
            (Client.batch_estimate client
               [| ("orders/amount", 3.0, 40.0); ("ghost", 0.0, 1.0); ("users/age", 0.0, 30.5) |])))
    [ 1; 2 ]

let test_tcp_round_trip () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let engine = Engine.create ~services:[| svc |] (Wire.Tcp { host = "127.0.0.1"; port = 0 }) in
  let port = Option.get (Engine.bound_port engine) in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client =
        or_fail_client (Client.connect (Wire.Tcp { host = "127.0.0.1"; port }))
      in
      let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
      let direct_svc, _ = Service.open_dir dir in
      let direct = Service.answer direct_svc [| ("users/age", 0.0, 30.5) |] in
      check Alcotest.bool "tcp estimate bit-identical" true
        (Int64.bits_of_float x = Int64.bits_of_float direct.(0));
      Client.close client)

let test_malformed_payload_keeps_connection () =
  with_server (fun client address _dir ->
      ignore client;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Wire.sockaddr_of_address address);
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A well-framed but malformed payload: typed bad_request, and the
             connection keeps serving. *)
          Wire.write_frame fd "\x01\x7f";
          (match Wire.read_frame fd with
          | Ok (Some payload) -> (
            match Wire.decode_response payload with
            | Ok (Wire.Error_reply { code = Wire.Bad_request; _ }) -> ()
            | other ->
              Alcotest.failf "expected bad_request, got %s"
                (match other with
                | Ok r -> Wire.response_to_string r
                | Error m -> m))
          | _ -> Alcotest.fail "no reply to malformed payload");
          Wire.write_frame fd (Wire.encode_request Wire.Ping);
          match Wire.read_frame fd with
          | Ok (Some payload) -> (
            match Wire.decode_response payload with
            | Ok Wire.Pong -> ()
            | _ -> Alcotest.fail "connection did not survive a malformed payload")
          | _ -> Alcotest.fail "connection did not survive a malformed payload"))

(* Regression: an empty batch is a legal frame; it must answer an empty
   reply immediately (it once enqueued a zero-length job the dispatcher
   never completed, parking the connection forever and leaking its
   admission slot) and leave the connection serving. *)
let test_empty_batch () =
  with_server
    ~config:{ Engine.default_config with Engine.max_inflight = 1 }
    (fun client _address dir ->
      let answers = or_fail_client (Client.batch_estimate client [||]) in
      check Alcotest.int "empty batch answers empty" 0 (Array.length answers);
      (* No admission slot leaked: with max_inflight = 1 a real query
         still runs, and it answers bit-identically. *)
      let direct_svc, _ = Service.open_dir dir in
      let direct = Service.answer direct_svc [| ("users/age", 0.0, 30.5) |] in
      let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
      check Alcotest.bool "connection still serves, bit-identical" true
        (Int64.bits_of_float x = Int64.bits_of_float direct.(0)))

let test_overload_backpressure () =
  (* max_inflight = 0: admission control refuses every catalog-bound
     request with the typed reply, while ping still answers. *)
  with_server
    ~config:{ Engine.default_config with Engine.max_inflight = 0 }
    (fun client _address _dir ->
      or_fail_client (Client.ping client);
      match Client.estimate client ~entry:"users/age" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Overloaded, _)) -> ()
      | Ok _ -> Alcotest.fail "estimate admitted past max_inflight=0"
      | Error e -> Alcotest.failf "expected overloaded, got %s" (Client.error_to_string e))

let test_deadline_timeout () =
  (* The dispatcher pauses longer than the deadline, so the request is
     expired (typed) instead of evaluated. *)
  with_server
    ~config:
      { Engine.default_config with Engine.deadline_s = 0.05; dispatch_delay_s = 0.2 }
    (fun client _address _dir ->
      match Client.estimate client ~entry:"users/age" ~a:0.0 ~b:1.0 with
      | Error (Client.Server (Wire.Timeout, _)) -> ()
      | Ok _ -> Alcotest.fail "request evaluated past its deadline"
      | Error e -> Alcotest.failf "expected timeout, got %s" (Client.error_to_string e))

let test_loadgen_32_connections () =
  with_server (fun client address dir ->
      let entries = or_fail_client (Client.ls client) in
      let requests = Loadgen.synthetic_requests ~entries ~count:640 ~seed:11L in
      let report = Loadgen.run ~connections:32 ~address requests in
      check Alcotest.int "32 connections" 32 report.Loadgen.connections;
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
        report.Loadgen.errors;
      check Alcotest.int "every query answered" 640 report.Loadgen.ok;
      check Alcotest.bool "percentiles ordered" true
        (report.Loadgen.p50_ms <= report.Loadgen.p95_ms
        && report.Loadgen.p95_ms <= report.Loadgen.p99_ms
        && report.Loadgen.p99_ms <= report.Loadgen.max_ms);
      check Alcotest.bool "throughput positive" true (report.Loadgen.throughput_qps > 0.0);
      (* Acceptance gate: every served answer bit-identical to a direct
         Catalog.Service.answer on the same snapshot dir, whatever the
         interleaving and batching across 32 connections. *)
      let direct_svc, _ = Service.open_dir dir in
      let direct = Service.answer direct_svc requests in
      Array.iteri
        (fun i served ->
          if Int64.bits_of_float served <> Int64.bits_of_float direct.(i) then
            Alcotest.failf "request %d: served %h, direct %h" i served direct.(i))
        report.Loadgen.answers;
      (* Batched frames hit the same answers. *)
      let batched = Loadgen.run ~batch:8 ~connections:32 ~address requests in
      check Alcotest.int "batched all answered" 640 batched.Loadgen.ok;
      Array.iteri
        (fun i served ->
          if Int64.bits_of_float served <> Int64.bits_of_float direct.(i) then
            Alcotest.failf "batched request %d: served %h, direct %h" i served direct.(i))
        batched.Loadgen.answers)

(* Satellite: kill-and-reconnect.  Loadgen traffic is in flight when
   SIGTERM lands; the drain must answer everything already admitted,
   refuse later requests with the typed draining reply, refuse new
   connects once the listener closes, and a restarted server over the
   same snapshot dir must serve bit-identical answers. *)
let test_sigterm_drain_and_reconnect () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let path = sock_path () in
  let address = Wire.Unix_socket path in
  let config =
    (* Slow dispatch so requests are verifiably mid-flight at SIGTERM. *)
    { Engine.default_config with Engine.dispatch_delay_s = 0.15; tick_s = 0.005 }
  in
  let engine = Engine.create ~config ~services:[| svc |] address in
  Engine.install_sigterm engine;
  let server = Thread.create Engine.serve engine in
  let probe = ("users/age", 0.0, 30.5) in
  let in_flight = ref (Error (Client.Protocol "never ran")) in
  let client_a = or_fail_client (Client.connect address) in
  let client_b = or_fail_client (Client.connect address) in
  (* The steps below are ordered by the engine's own counters, not by
     sleeps, so a loaded host cannot reorder them. *)
  let wait_for what ready =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (ready ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.002
    done;
    if not (ready ()) then Alcotest.failf "timed out waiting for %s" what
  in
  (* [Client.connect] pings, so the two connects are already counted. *)
  let before = (Engine.stats engine).Engine.requests in
  let flight_thread =
    Thread.create
      (fun () ->
        let entry, a, b = probe in
        in_flight := Client.estimate client_a ~entry ~a ~b)
      ()
  in
  wait_for "client_a's request" (fun () ->
      (Engine.stats engine).Engine.requests > before);
  (* Background loadgen traffic during the kill: each connection sends
     its 16 queries as one batched frame.  The frame is either admitted
     before the signal (and answered by the drain) or refused with the
     typed draining reply; with single-query frames a connection could
     still have queries to send when the drain closed it. *)
  let traffic_requests =
    Array.init 64 (fun i -> ("orders/amount", 1.0 +. float_of_int (i mod 13), 50.0))
  in
  let traffic = ref None in
  let traffic_thread =
    Thread.create
      (fun () ->
        traffic := Some (Loadgen.run ~batch:16 ~connections:4 ~address traffic_requests))
      ()
  in
  (* client_a, client_b and loadgen's four connections, each of which
     connects by sending its frame. *)
  wait_for "six accepted connections and four loadgen frames" (fun () ->
      let s = Engine.stats engine in
      s.Engine.connections >= 6 && s.Engine.requests >= before + 5);
  (* SIGTERM mid-flight, through the real signal path. *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  wait_for "the SIGTERM handler" (fun () -> Engine.draining engine);
  check Alcotest.bool "drain initiated by SIGTERM" true (Engine.draining engine);
  (* Requests arriving during the drain get the typed refusal. *)
  (match Client.estimate client_b ~entry:"users/age" ~a:0.0 ~b:1.0 with
  | Error (Client.Server (Wire.Draining, _)) -> ()
  | Ok _ -> Alcotest.fail "request admitted during drain"
  | Error e -> Alcotest.failf "expected draining, got %s" (Client.error_to_string e));
  Thread.join flight_thread;
  Thread.join traffic_thread;
  Thread.join server;
  (* The in-flight request drained to a real answer, not an error. *)
  let direct_svc, _ = Service.open_dir dir in
  let expected = Service.answer direct_svc [| probe |] in
  (match !in_flight with
  | Ok x ->
    check Alcotest.bool "in-flight answer bit-identical" true
      (Int64.bits_of_float x = Int64.bits_of_float expected.(0))
  | Error e -> Alcotest.failf "in-flight request not drained: %s" (Client.error_to_string e));
  (* Traffic answered before the drain is bit-identical; later queries
     failed with the typed draining class only. *)
  let traffic_expected = Service.answer direct_svc traffic_requests in
  (match !traffic with
  | None -> Alcotest.fail "loadgen traffic never finished"
  | Some r ->
    Array.iteri
      (fun i served ->
        if not (Float.is_nan served) then
          check Alcotest.bool
            (Printf.sprintf "traffic answer %d bit-identical" i)
            true
            (Int64.bits_of_float served = Int64.bits_of_float traffic_expected.(i)))
      r.Loadgen.answers;
    List.iter
      (fun (cls, _) ->
        if cls <> "draining" then Alcotest.failf "unexpected traffic error class %s" cls)
      r.Loadgen.errors);
  check Alcotest.int "drained with no protocol errors" 0
    (Engine.stats engine).Engine.protocol_errors;
  (* The socket is gone: new connects are refused. *)
  check Alcotest.bool "socket removed" false (Sys.file_exists path);
  (match
     Client.connect
       ~config:{ Client.default_config with Client.retries = 0; connect_timeout_s = 0.2 }
       address
   with
  | Error (Client.Transport _) -> ()
  | Error e -> Alcotest.failf "expected transport failure, got %s" (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "connected to a drained server");
  Client.close client_a;
  Client.close client_b;
  (* Restart over the same snapshot dir: identical answers. *)
  let svc2, _ = Service.open_dir dir in
  let engine2 = Engine.create ~services:[| svc2 |] address in
  let server2 = Thread.create Engine.serve engine2 in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine2;
      Thread.join server2)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      let entry, a, b = probe in
      let x = or_fail_client (Client.estimate client ~entry ~a ~b) in
      check Alcotest.bool "restarted server serves identical answers" true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(0));
      Client.close client)

(* ---------------- sharded engine ---------------- *)

let entry_names =
  [ "orders/amount"; "users/age"; "events/ts"; "fleet/fuel"; "sensors/temp" ]

let build_many svc =
  List.iter
    (fun name ->
      ignore
        (or_fail (Service.build svc ~name ~spec:"ewh:16" ~domain:domain_a ~sample:sample_a)))
    entry_names

let copy_flat_dir src dst =
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

(* Tentpole acceptance: for arbitrary batch shapes, the sharded router's
   split-and-reassemble serves exactly the bytes the single-shard engine
   serves — same entries, same snapshots (byte-copied), [shards = 1] vs
   [shards = 3].  Order preservation falls out of bit-identity: a
   reassembly that permuted replies would mismatch slot-for-slot. *)
let test_sharded_split_reassemble () =
  let dir1 = fresh_dir () in
  let svc1, _ = Service.open_dir dir1 in
  build_many svc1;
  let dir3 = fresh_dir () in
  copy_flat_dir dir1 dir3;
  let services, skipped = Service.open_sharded ~shards:3 dir3 in
  check Alcotest.int "sharded open skips nothing" 0 (List.length skipped);
  check Alcotest.int "three shards" 3 (Array.length services);
  let addr1 = Wire.Unix_socket (sock_path ()) in
  let addr3 = Wire.Unix_socket (sock_path ()) in
  let engine1 = Engine.create ~services:[| svc1 |] addr1 in
  let engine3 = Engine.create ~services addr3 in
  let server1 = Thread.create Engine.serve engine1 in
  let server3 = Thread.create Engine.serve engine3 in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine1;
      Engine.initiate_drain engine3;
      Thread.join server1;
      Thread.join server3)
    (fun () ->
      let client1 = or_fail_client (Client.connect addr1) in
      let client3 = or_fail_client (Client.connect addr3) in
      Fun.protect
        ~finally:(fun () ->
          Client.close client1;
          Client.close client3)
        (fun () ->
          (* The five entries must actually span more than one shard, or
             the router's multi-shard path goes untested. *)
          let owners =
            List.sort_uniq compare
              (List.map (Service.shard_of_name ~shards:3) entry_names)
          in
          check Alcotest.bool "entries span multiple shards" true (List.length owners > 1);
          let gen_batch =
            QCheck.Gen.(
              list_size (int_bound 40)
                (triple (oneofl entry_names)
                   (float_bound_inclusive 96.5)
                   (float_bound_inclusive 96.5))
              >>= fun l ->
              return
                (Array.of_list
                   (List.map (fun (n, x, y) -> if x <= y then (n, x, y) else (n, y, x)) l)))
          in
          let print_batch b =
            String.concat ";"
              (Array.to_list (Array.map (fun (n, a, b) -> Printf.sprintf "%s[%h,%h]" n a b) b))
          in
          let prop batch =
            let r1 = Client.batch_estimate client1 batch in
            let r3 = Client.batch_estimate client3 batch in
            match (r1, r3) with
            | Ok a1, Ok a3 ->
              Array.length a1 = Array.length a3
              && Array.for_all2
                   (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                   a1 a3
            | Error e, _ | _, Error e ->
              QCheck.Test.fail_reportf "batch errored: %s" (Client.error_to_string e)
          in
          QCheck.Test.check_exn
            (QCheck.Test.make ~count:60
               ~name:"sharded batch replies bit-identical to shards=1"
               (QCheck.make gen_batch ~print:print_batch)
               prop);
          (* Single estimates agree too, and the sharded stats show the
             work spread across shards. *)
          List.iter
            (fun entry ->
              let x1 = or_fail_client (Client.estimate client1 ~entry ~a:3.0 ~b:40.0) in
              let x3 = or_fail_client (Client.estimate client3 ~entry ~a:3.0 ~b:40.0) in
              check Alcotest.bool (entry ^ " single estimate bit-identical") true
                (Int64.bits_of_float x1 = Int64.bits_of_float x3))
            entry_names;
          let s = Engine.stats engine3 in
          check Alcotest.int "stats report 3 shards" 3 s.Engine.shards;
          let per_shard_sum =
            Array.fold_left (fun n ps -> n + ps.Engine.shard_answered) 0 s.Engine.per_shard
          in
          check Alcotest.int "per-shard answered sums to total" s.Engine.answered per_shard_sum;
          check Alcotest.bool "more than one shard answered queries" true
            (Array.length
               (Array.of_seq
                  (Seq.filter
                     (fun ps -> ps.Engine.shard_answered > 0)
                     (Array.to_seq s.Engine.per_shard)))
            > 1)))

(* Satellite: killing one shard's dispatcher degrades that shard to the
   typed [Internal] refusal while the others keep serving bit-identical
   answers, and a drain still completes. *)
let test_kill_shard_dispatcher () =
  let dir = fresh_dir () in
  let build_svc, _ = Service.open_dir dir in
  build_many build_svc;
  let services, _ = Service.open_sharded ~shards:3 dir in
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let victim_entry = List.hd entry_names in
          let victim = Service.shard_of_name ~shards:3 victim_entry in
          let healthy_entry =
            List.find
              (fun n -> Service.shard_of_name ~shards:3 n <> victim)
              entry_names
          in
          (* Answers before the kill, for the bit-identity check after. *)
          let before =
            or_fail_client (Client.estimate client ~entry:healthy_entry ~a:3.0 ~b:40.0)
          in
          Engine.kill_shard_dispatcher engine victim;
          (* The victim's entries get the typed internal refusal... *)
          (match Client.estimate client ~entry:victim_entry ~a:3.0 ~b:40.0 with
          | Error (Client.Server (Wire.Internal, msg)) ->
            check Alcotest.bool "refusal names the shard" true
              (let needle = Printf.sprintf "shard %d" victim in
               let len = String.length needle in
               let found = ref false in
               for i = 0 to String.length msg - len do
                 if String.sub msg i len = needle then found := true
               done;
               !found)
          | Ok _ -> Alcotest.fail "dead shard answered an estimate"
          | Error e -> Alcotest.failf "expected internal, got %s" (Client.error_to_string e));
          (* ...a batch touching the dead shard errors as a whole... *)
          (match
             Client.batch_estimate client
               [| (healthy_entry, 3.0, 40.0); (victim_entry, 3.0, 40.0) |]
           with
          | Error (Client.Server (Wire.Internal, _)) -> ()
          | Ok _ -> Alcotest.fail "batch touching the dead shard answered"
          | Error e -> Alcotest.failf "expected internal, got %s" (Client.error_to_string e));
          (* ...and the surviving shards keep serving the same bits. *)
          let after =
            or_fail_client (Client.estimate client ~entry:healthy_entry ~a:3.0 ~b:40.0)
          in
          check Alcotest.bool "healthy shard bit-identical after the kill" true
            (Int64.bits_of_float before = Int64.bits_of_float after);
          or_fail_client (Client.ping client)));
  (* Fun.protect's drain above returning at all is the drain-completes
     assertion; killing it twice must be harmless. *)
  Engine.kill_shard_dispatcher engine 0

(* ---------------- adaptive serving ---------------- *)

(* Tentpole acceptance, end to end: an adaptive engine accepts insert
   and observe frames, routes them through the shard dispatcher into the
   reservoir and the feedback histogram, swaps a rebuilt summary in the
   background, and still drains cleanly.  Typed refusals for bad
   adaptive traffic ride along. *)
let test_adaptive_insert_observe_e2e () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 100 }
      dir
  in
  build_two svc;
  Service.enable_adaptive svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services:[| svc |] address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* Inserts are acknowledged with reservoir accounting. *)
          let values = Array.init 200 (fun i -> float_of_int (i mod 61)) in
          let sampled, seen = or_fail_client (Client.insert client ~entry:"users/age" values) in
          check Alcotest.int "seen counts every offered value" 200 seen;
          check Alcotest.bool "reservoir retained some values" true
            (sampled > 0 && sampled <= 200);
          (* 200 inserts tripped the 100-insert budget: a background
             rebuild must swap in without any manual rebuild call. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            (Engine.stats engine).Engine.swaps = 0 && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          check Alcotest.bool "background rebuild swapped a summary in" true
            ((Engine.stats engine).Engine.swaps > 0);
          (* The swapped summary still serves sane estimates. *)
          let x = or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5) in
          check Alcotest.bool "estimate after swap in [0,1]" true
            (Float.is_finite x && x >= 0.0 && x <= 1.0);
          (* Observes refine toward the fed-back truth. *)
          let r1 =
            or_fail_client (Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.9)
          in
          let r2 =
            or_fail_client (Client.observe client ~entry:"users/age" ~a:0.0 ~b:30.0 ~actual:0.9)
          in
          check Alcotest.bool "refined estimates in [0,1]" true
            (r1 >= 0.0 && r1 <= 1.0 && r2 >= 0.0 && r2 <= 1.0);
          check Alcotest.bool "repeat observation converges toward actual" true
            (Float.abs (r2 -. 0.9) <= Float.abs (r1 -. 0.9) +. 1e-9);
          (* Typed refusals: unknown entry, non-finite value, actual
             outside [0, 1]. *)
          (match Client.insert client ~entry:"ghost" [| 1.0 |] with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "insert into unknown entry accepted"
          | Error e -> Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (match Client.insert client ~entry:"users/age" [| Float.nan |] with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "non-finite insert accepted"
          | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (match Client.observe client ~entry:"users/age" ~a:0.0 ~b:1.0 ~actual:1.5 with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "out-of-range actual accepted"
          | Error e -> Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          expect_refusal Wire.Unknown_entry "adaptive observe of an unknown entry"
            (Client.observe client ~entry:"ghost" ~a:0.0 ~b:1.0 ~actual:0.5)));
  (* The drain above completing with adaptive maintenance enabled (and
     possibly a rebuild in flight) is itself the adaptive-drain
     assertion. *)
  check Alcotest.bool "drained" true (Engine.draining engine)

(* A persist that fails on the shard owner (its generation's temp name
   is taken by a directory) answers that request [Internal]; the entry
   keeps serving its old bits at its old generation, and every other
   request is served. *)
let test_failed_persist_is_internal () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let file = Option.get (Service.snapshot_file svc "users/age") in
  Sys.mkdir (Catalog.Snapshot.path ~gen:1 ~dir "users/age" ^ ".tmp") 0o755;
  let direct name a b = or_fail (Service.answer_one svc ~name ~a ~b) in
  let expected = [ direct "users/age" 0.0 30.5; direct "orders/amount" 3.0 40.0 ] in
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services:[| svc |] address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          expect_refusal Wire.Internal "invalidate whose write fails"
            (Client.invalidate client "users/age");
          let served =
            [
              or_fail_client (Client.estimate client ~entry:"users/age" ~a:0.0 ~b:30.5);
              or_fail_client (Client.estimate client ~entry:"orders/amount" ~a:3.0 ~b:40.0);
            ]
          in
          check Alcotest.bool "both entries still serve their bits" true
            (List.for_all2
               (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
               expected served);
          or_fail_client (Client.invalidate client "orders/amount")));
  check Alcotest.string "the failed entry kept its generation" file
    (Option.get (Service.snapshot_file svc "users/age"));
  check Alcotest.bool "the other entry persisted" true
    (Option.get (Service.info svc "orders/amount")).Service.stale

(* The rebuild domain runs beside the dispatcher, so a fast rebuild (a
   [sampling] entry's is a sort) can finish before the dispatcher is back
   in its wait.  Its wake must still be seen: on an otherwise idle shard
   every round's swap lands without another request arriving. *)
let test_adaptive_idle_shard_reaps () =
  let dir = fresh_dir () in
  let budget = 100 in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = budget }
      dir
  in
  build_two svc;
  Service.enable_adaptive svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services:[| svc |] address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let values = Array.init budget (fun i -> float_of_int (i mod 61)) in
          for round = 1 to 100 do
            ignore (or_fail_client (Client.insert client ~entry:"users/age" values));
            let deadline = Unix.gettimeofday () +. 2.0 in
            while
              (Engine.stats engine).Engine.swaps < round && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.001
            done;
            check Alcotest.int
              (Printf.sprintf "round %d swapped in with no further request" round)
              round (Engine.stats engine).Engine.swaps
          done))

(* An adaptive engine drained while rebuild swaps are in flight: the
   drain lands them, each shard's snapshot janitor commits and exits,
   and the dispatcher domains join (a systhread still running would
   hold [Domain.join] forever).  Afterwards each entry has one file. *)
let test_adaptive_drain_joins () =
  let dir = fresh_dir () in
  let config = { Service.default_config with Service.rebuild_after_inserts = 64 } in
  let svc, _ = Service.open_dir ~config dir in
  build_two svc;
  let services, _ = Service.open_sharded ~config ~shards:2 dir in
  Array.iter Service.enable_adaptive services;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services address in
  let server = Thread.create Engine.serve engine in
  let client = or_fail_client (Client.connect address) in
  for round = 1 to 4 do
    List.iter
      (fun entry ->
        ignore
          (or_fail_client
             (Client.insert client ~entry
                (Array.init 200 (fun i -> float_of_int ((i * round) mod 61))))))
      [ "orders/amount"; "users/age" ]
  done;
  Client.close client;
  Engine.initiate_drain engine;
  let joined = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Thread.join server;
         Atomic.set joined true)
       ());
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (not (Atomic.get joined)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check Alcotest.bool "drained, dispatcher domains joined" true (Atomic.get joined);
  check Alcotest.bool "rebuilds swapped in" true ((Engine.stats engine).Engine.swaps > 0);
  List.iter
    (fun name ->
      let shard = Service.shard_of_name ~shards:2 name in
      let sdir = Filename.concat dir (Service.shard_dir_name shard) in
      let files =
        List.filter
          (fun f -> Catalog.Snapshot.decode_file_name f = Some name)
          (Array.to_list (Sys.readdir sdir))
      in
      check
        Alcotest.(list string)
        (name ^ ": one file, the served one")
        [ Filename.basename (Option.get (Service.snapshot_file services.(shard) name)) ]
        files)
    [ "orders/amount"; "users/age" ];
  let _, skipped = Service.open_sharded ~config ~shards:2 dir in
  check Alcotest.int "clean reopen" 0 (List.length skipped)

(* ---------------- rect and join serving ---------------- *)

let rect_points =
  Array.init 600 (fun i ->
      (float_of_int (i * 7 mod 97), float_of_int (i * i mod 61)))

let join_r = Array.init 300 (fun i -> float_of_int (i * 5 mod 89))
let join_s = Array.init 250 (fun i -> float_of_int (i * 11 mod 89))

(* One entry of each kind, so mixed workloads and kind-mismatch errors
   are exercised against the same catalog. *)
let build_three_kinds svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build_rect svc ~name:"orders/amount_x_qty" ~spec:"hist2d:16"
          ~domain_x:(-0.5, 96.5) ~domain_y:(-0.5, 60.5) ~points:rect_points));
  ignore
    (or_fail
       (Service.build_join svc ~name:"orders_join_users" ~spec:"edh:24"
          ~domain:(-0.5, 88.5) ~n_r:3000 ~n_s:2500 ~sample_r:join_r
          ~sample_s:join_s))

(* Tentpole acceptance: served rectangle and join answers are
   bit-identical to the direct Catalog.Service calls (which are aliases
   of Multidim.Hist2d.selectivity / Join.Ineqjoin.estimate), kind
   mismatches are typed Bad_request, unknown entries typed
   Unknown_entry, and ls reports kind and domain_y. *)
let test_rect_join_requests () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_three_kinds svc;
  let address = Wire.Unix_socket (sock_path ()) in
  let engine = Engine.create ~services:[| svc |] address in
  let server = Thread.create Engine.serve engine in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine;
      Thread.join server)
    (fun () ->
      let client = or_fail_client (Client.connect address) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let direct_svc, _ = Service.open_dir dir in
          (* Rectangles, including a degenerate zero-width one. *)
          List.iter
            (fun (x_lo, x_hi, y_lo, y_hi) ->
              let served =
                or_fail_client
                  (Client.estimate_rect client ~entry:"orders/amount_x_qty" ~x_lo
                     ~x_hi ~y_lo ~y_hi)
              in
              let direct =
                or_fail
                  (Service.answer_rect direct_svc ~name:"orders/amount_x_qty"
                     ~x_lo ~x_hi ~y_lo ~y_hi)
              in
              check Alcotest.bool
                (Printf.sprintf "rect [%g,%g]x[%g,%g] bit-identical" x_lo x_hi
                   y_lo y_hi)
                true
                (Int64.bits_of_float served = Int64.bits_of_float direct))
            [
              (3.0, 40.0, 5.0, 30.0);
              (0.0, 96.0, 0.0, 60.0);
              (17.0, 17.0, 4.0, 4.0);
              (50.0, 10.0, 0.0, 60.0);
            ];
          (* Joins under all three predicates. *)
          List.iter
            (fun pred ->
              let served =
                or_fail_client
                  (Client.estimate_join client ~entry:"orders_join_users" ~pred)
              in
              let direct =
                or_fail
                  (Service.answer_join direct_svc ~name:"orders_join_users" ~pred)
              in
              check Alcotest.bool
                (Selest.Stored.join_pred_to_string pred ^ " join bit-identical")
                true
                (Int64.bits_of_float served = Int64.bits_of_float direct))
            [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ];
          (* Kind mismatches are typed Bad_request, not Unknown_entry. *)
          (match
             Client.estimate_rect client ~entry:"orders/amount" ~x_lo:0.0
               ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0
           with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "rect query answered by a range entry"
          | Error e ->
            Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (match
             Client.estimate_join client ~entry:"orders/amount_x_qty"
               ~pred:Selest.Stored.Join_eq
           with
          | Error (Client.Server (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "join query answered by a rect entry"
          | Error e ->
            Alcotest.failf "expected bad_request, got %s" (Client.error_to_string e));
          (match
             Client.estimate_rect client ~entry:"ghost" ~x_lo:0.0 ~x_hi:1.0
               ~y_lo:0.0 ~y_hi:1.0
           with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "rect query against unknown entry answered"
          | Error e ->
            Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (match
             Client.estimate_join client ~entry:"ghost" ~pred:Selest.Stored.Join_lt
           with
          | Error (Client.Server (Wire.Unknown_entry, _)) -> ()
          | Ok _ -> Alcotest.fail "join query against unknown entry answered"
          | Error e ->
            Alcotest.failf "expected unknown_entry, got %s" (Client.error_to_string e));
          (* Ls reports the kinds and the rect y-domain. *)
          let entries = or_fail_client (Client.ls client) in
          let find n = List.find (fun (e : Wire.entry_info) -> e.Wire.name = n) entries in
          check Alcotest.bool "range kind" true
            ((find "orders/amount").Wire.kind = Selest.Stored.Range_kind);
          check Alcotest.bool "rect kind" true
            ((find "orders/amount_x_qty").Wire.kind = Selest.Stored.Rect_kind);
          check Alcotest.bool "join kind" true
            ((find "orders_join_users").Wire.kind = Selest.Stored.Join_kind);
          check Alcotest.bool "rect entry carries domain_y" true
            ((find "orders/amount_x_qty").Wire.domain_y = Some (-0.5, 60.5));
          check Alcotest.bool "range entry has no domain_y" true
            ((find "orders/amount").Wire.domain_y = None)))

(* Satellite acceptance: a mixed range/rect/join workload served at
   shards = 1 and shards = 4 over byte-copied snapshot dirs answers
   bit-identically, and run_mixed reports per-kind latency groups. *)
let test_mixed_sharded_bit_identity () =
  let dir1 = fresh_dir () in
  let svc1, _ = Service.open_dir dir1 in
  build_three_kinds svc1;
  let dir4 = fresh_dir () in
  copy_flat_dir dir1 dir4;
  let services4, skipped = Service.open_sharded ~shards:4 dir4 in
  check Alcotest.int "sharded open skips nothing" 0 (List.length skipped);
  let addr1 = Wire.Unix_socket (sock_path ()) in
  let addr4 = Wire.Unix_socket (sock_path ()) in
  let engine1 = Engine.create ~services:[| svc1 |] addr1 in
  let engine4 = Engine.create ~services:services4 addr4 in
  let server1 = Thread.create Engine.serve engine1 in
  let server4 = Thread.create Engine.serve engine4 in
  Fun.protect
    ~finally:(fun () ->
      Engine.initiate_drain engine1;
      Engine.initiate_drain engine4;
      Thread.join server1;
      Thread.join server4)
    (fun () ->
      let client = or_fail_client (Client.connect addr1) in
      let entries = or_fail_client (Client.ls client) in
      Client.close client;
      let requests = Loadgen.synthetic_mixed_requests ~entries ~count:240 ~seed:17L in
      check Alcotest.bool "workload mixes all three kinds" true
        (let kinds =
           List.sort_uniq compare
             (Array.to_list (Array.map Loadgen.mixed_kind requests))
         in
         kinds = [ "join"; "range"; "rect" ]);
      let r1 = Loadgen.run_mixed ~connections:8 ~address:addr1 requests in
      let r4 = Loadgen.run_mixed ~connections:8 ~address:addr4 requests in
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors at shards=1"
        [] r1.Loadgen.errors;
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors at shards=4"
        [] r4.Loadgen.errors;
      check Alcotest.int "all answered at shards=1" 240 r1.Loadgen.ok;
      check Alcotest.int "all answered at shards=4" 240 r4.Loadgen.ok;
      (* Served equals served across shard counts, slot for slot... *)
      Array.iteri
        (fun i x1 ->
          let x4 = r4.Loadgen.answers.(i) in
          if Int64.bits_of_float x1 <> Int64.bits_of_float x4 then
            Alcotest.failf "request %d: shards=1 %h, shards=4 %h" i x1 x4)
        r1.Loadgen.answers;
      (* ...and both equal the direct library answer. *)
      let direct_svc, _ = Service.open_dir dir1 in
      Array.iteri
        (fun i req ->
          let direct =
            match req with
            | Loadgen.Mix_range (entry, a, b) ->
              or_fail (Service.answer_one direct_svc ~name:entry ~a ~b)
            | Loadgen.Mix_rect { m_entry; m_x_lo; m_x_hi; m_y_lo; m_y_hi } ->
              or_fail
                (Service.answer_rect direct_svc ~name:m_entry ~x_lo:m_x_lo
                   ~x_hi:m_x_hi ~y_lo:m_y_lo ~y_hi:m_y_hi)
            | Loadgen.Mix_join { m_entry; m_pred } ->
              or_fail (Service.answer_join direct_svc ~name:m_entry ~pred:m_pred)
          in
          if Int64.bits_of_float r1.Loadgen.answers.(i) <> Int64.bits_of_float direct
          then
            Alcotest.failf "request %d (%s): served %h, direct %h" i
              (Loadgen.mixed_kind req) r1.Loadgen.answers.(i) direct)
        requests;
      (* Per-kind latency groups are always on for mixed runs. *)
      let group_names = List.map fst r1.Loadgen.groups in
      check (Alcotest.list Alcotest.string) "per-kind groups reported"
        [ "join"; "range"; "rect" ] group_names;
      List.iter
        (fun (_, g) -> check Alcotest.bool "group populated" true (g.Loadgen.g_n > 0))
        r1.Loadgen.groups)

(* Open-loop generator sanity: the arrival schedule is honored (offered
   ~= rate * duration), accounting is consistent, and at a tame rate
   everything is answered. *)
let test_open_loop_smoke () =
  with_server (fun client address _dir ->
      let entries = or_fail_client (Client.ls client) in
      let requests = Loadgen.synthetic_requests ~entries ~count:64 ~seed:5L in
      let r = Loadgen.run_open_loop ~max_clients:8 ~rate:200.0 ~duration_s:0.5 ~address requests in
      check Alcotest.bool "offered matches the schedule" true
        (r.Loadgen.offered >= 90 && r.Loadgen.offered <= 110);
      check Alcotest.int "sent + dropped = offered" r.Loadgen.offered
        (r.Loadgen.sent + r.Loadgen.dropped);
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "zero errors" []
        r.Loadgen.o_errors;
      check Alcotest.int "every sent arrival answered" r.Loadgen.sent r.Loadgen.o_ok;
      check Alcotest.bool "achieved rate positive" true (r.Loadgen.achieved_qps > 0.0);
      check Alcotest.bool "percentiles ordered" true
        (r.Loadgen.o_p50_ms <= r.Loadgen.o_p95_ms
        && r.Loadgen.o_p95_ms <= r.Loadgen.o_p99_ms
        && r.Loadgen.o_p99_ms <= r.Loadgen.o_max_ms))

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest qcheck_request_round_trip;
          QCheck_alcotest.to_alcotest qcheck_response_round_trip;
          QCheck_alcotest.to_alcotest qcheck_decode_total;
          QCheck_alcotest.to_alcotest qcheck_truncation_is_error;
          QCheck_alcotest.to_alcotest qcheck_scratch_decode_agrees;
          QCheck_alcotest.to_alcotest qcheck_scratch_decode_agrees_on_noise;
          Alcotest.test_case "scratch decode interns repeated strings" `Quick
            test_scratch_interning;
          Alcotest.test_case "malformed payload cases" `Quick test_wire_malformed_cases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "requests, typed errors, bit-identity" `Quick
            test_basic_requests;
          Alcotest.test_case "tcp round trip on an ephemeral port" `Quick
            test_tcp_round_trip;
          Alcotest.test_case "malformed payload keeps the connection" `Quick
            test_malformed_payload_keeps_connection;
          Alcotest.test_case "empty batch answers immediately" `Quick test_empty_batch;
          Alcotest.test_case "admission control backpressure" `Quick
            test_overload_backpressure;
          Alcotest.test_case "deadline expiry is typed" `Quick test_deadline_timeout;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "32 connections, zero errors, bit-identical" `Quick
            test_loadgen_32_connections;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM kill-and-reconnect" `Quick
            test_sigterm_drain_and_reconnect;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "insert/observe end to end, background swap, drain" `Quick
            test_adaptive_insert_observe_e2e;
          Alcotest.test_case "drain with swaps in flight joins every domain" `Quick
            test_adaptive_drain_joins;
          Alcotest.test_case "an idle shard reaps every rebuild" `Quick
            test_adaptive_idle_shard_reaps;
          Alcotest.test_case "a failed persist answers Internal, the rest serve" `Quick
            test_failed_persist_is_internal;
        ] );
      ( "rect-join",
        [
          Alcotest.test_case "served rect/join bit-identical, typed kind errors"
            `Quick test_rect_join_requests;
          Alcotest.test_case "mixed workload bit-identical at shards=1 vs 4" `Quick
            test_mixed_sharded_bit_identity;
        ] );
      ( "shards",
        [
          Alcotest.test_case "split/reassemble bit-identical to shards=1" `Quick
            test_sharded_split_reassemble;
          Alcotest.test_case "kill one shard dispatcher, others serve, drain completes"
            `Quick test_kill_shard_dispatcher;
          Alcotest.test_case "open-loop schedule and accounting" `Quick
            test_open_loop_smoke;
        ] );
    ]
