(* The catalog serving layer: LRU residency policy, atomic snapshot
   persistence with skip-and-report recovery, staleness tracking, the
   batch query front ends, and the shard hash. *)

module Lru = Catalog.Lru
module Snapshot = Catalog.Snapshot
module Service = Catalog.Service

let check = Alcotest.check

let fresh_dir () =
  let base = Filename.temp_file "selest_catalog_test" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  base

(* A deterministic skewed sample on the integer domain [0, 96]. *)
let sample_a = Array.init 500 (fun i -> float_of_int (i * i mod 97))
let sample_b = Array.init 400 (fun i -> float_of_int (i mod 61))
let domain_a = (-0.5, 96.5)
let domain_b = (-0.5, 60.5)

let or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ---------------- Lru ---------------- *)

let test_lru_eviction () =
  let c = Lru.create ~cache_name:"t-evict" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check (Alcotest.option Alcotest.int) "promote a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  check (Alcotest.list Alcotest.string) "b evicted, a survived" [ "c"; "a" ] (Lru.keys c);
  check (Alcotest.option Alcotest.int) "b gone" None (Lru.find c "b");
  let s = Lru.stats c in
  check Alcotest.int "hits" 1 s.Lru.hits;
  check Alcotest.int "misses" 1 s.Lru.misses;
  check Alcotest.int "evictions" 1 s.Lru.evictions

let test_lru_replace () =
  let c = Lru.create ~cache_name:"t-replace" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  check Alcotest.int "still two entries" 2 (Lru.length c);
  check Alcotest.int "no eviction on replace" 0 (Lru.stats c).Lru.evictions;
  check (Alcotest.option Alcotest.int) "replaced value" (Some 10) (Lru.find c "a");
  Lru.remove c "a";
  check Alcotest.int "removed" 1 (Lru.length c);
  check Alcotest.int "remove is not an eviction" 0 (Lru.stats c).Lru.evictions;
  check (Alcotest.list Alcotest.string) "peek does not promote" [ "b" ]
    (ignore (Lru.peek c "b");
     Lru.keys c)

(* ---------------- Snapshot ---------------- *)

let stored_of sample domain =
  Selest.Stored.Range
    (Selest.Stored.of_sample ~cells:32 ~spec:Selest.Estimator.Sampling ~domain sample)

let test_snapshot_round_trip () =
  let dir = fresh_dir () in
  let entry =
    {
      Snapshot.name = "orders/amount n(20)";
      spec = "ewh:16";
      inserts = 123;
      stale = true;
      provenance = Some "advisor v1 spec=ewh:16 regret=1.020";
      summary = stored_of sample_a domain_a;
    }
  in
  Snapshot.save ~dir entry;
  let p = Snapshot.path ~dir entry.Snapshot.name in
  check Alcotest.bool "snapshot file exists" true (Sys.file_exists p);
  check Alcotest.bool "file name is sanitized" true
    (String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '%' -> true
         | _ -> false)
       (Snapshot.file_name entry.Snapshot.name));
  check Alcotest.bool "no tmp file left behind" false (Sys.file_exists (p ^ ".tmp"));
  let loaded = or_fail (Snapshot.load ~path:p) in
  check Alcotest.string "name" entry.Snapshot.name loaded.Snapshot.name;
  check Alcotest.string "spec" "ewh:16" loaded.Snapshot.spec;
  check Alcotest.int "inserts" 123 loaded.Snapshot.inserts;
  check Alcotest.bool "stale" true loaded.Snapshot.stale;
  check (Alcotest.option Alcotest.string) "provenance survives the round trip"
    entry.Snapshot.provenance loaded.Snapshot.provenance;
  check Alcotest.string "summary bit-identical"
    (Selest.Stored.any_to_string entry.Snapshot.summary)
    (Selest.Stored.any_to_string loaded.Snapshot.summary)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_snapshot_corrupt_skip () =
  let dir = fresh_dir () in
  Snapshot.save ~dir
    { Snapshot.name = "good1"; spec = "ewh:8"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_a domain_a };
  Snapshot.save ~dir
    { Snapshot.name = "good2"; spec = "sampling"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_b domain_b };
  write_file (Filename.concat dir "corrupt.summary") "selest-catalog v1\nname broken\n";
  write_file (Filename.concat dir "badspec.summary")
    "selest-catalog v1\nname x\nspec nosuchspec\ninserts 0\nstale 0\nselest-stored v1\ndomain 0 1\ncells 1\n1\n";
  write_file (Filename.concat dir "notes.txt") "not a snapshot; ignored by extension";
  let entries, skipped = Snapshot.load_dir ~dir () in
  check (Alcotest.list Alcotest.string) "survivors load" [ "good1"; "good2" ]
    (List.map (fun (e : Snapshot.entry) -> e.Snapshot.name) entries);
  check (Alcotest.list Alcotest.string) "corrupt files reported"
    [ "badspec.summary"; "corrupt.summary" ]
    (List.sort String.compare (List.map fst skipped))

let test_snapshot_orphan_tmp_sweep () =
  let dir = fresh_dir () in
  Snapshot.save ~dir
    { Snapshot.name = "good"; spec = "ewh:8"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_a domain_a };
  (* A crash between temp-write and rename leaves the temp file behind. *)
  let orphan = Filename.concat dir ("dead" ^ Snapshot.tmp_extension) in
  write_file orphan "selest-catalog v1\nname dead\ntruncated mid-write";
  let entries, skipped = Snapshot.load_dir ~dir () in
  check (Alcotest.list Alcotest.string) "survivor loads" [ "good" ]
    (List.map (fun (e : Snapshot.entry) -> e.Snapshot.name) entries);
  check (Alcotest.list Alcotest.string) "orphan reported in the skip list"
    [ "dead" ^ Snapshot.tmp_extension ]
    (List.map fst skipped);
  check Alcotest.bool "orphan deleted from disk" false (Sys.file_exists orphan);
  (* The sweep reaches Service.open_dir's warning channel too. *)
  write_file orphan "again";
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "open_dir reports the sweep" 1 (List.length warnings);
  check Alcotest.bool "swept before serving" false (Sys.file_exists orphan);
  check (Alcotest.list Alcotest.string) "catalog unaffected" [ "good" ] (Service.names svc)

(* ---------------- Snapshot format v2 ---------------- *)

module Stored = Selest.Stored

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_bin path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The frame checksum, restated from the format description so the test
   pins it: FNV-1a-64 over little-endian 8-byte words, the last one
   zero-padded, then over the length. *)
let reference_checksum body =
  let len = String.length body in
  let step h w = Int64.mul (Int64.logxor h w) 0x100000001b3L in
  let word i =
    let w = ref 0L in
    for k = Int.min len (i + 8) - 1 downto i do
      w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (Char.code body.[k]))
    done;
    !w
  in
  let rec go h i = if i + 8 <= len then go (step h (word i)) (i + 8) else step h (word i) in
  step (go 0xcbf29ce484222325L 0) (Int64.of_int len)

(* [body] framed the way a v2 file ends: its checksum as 8 LE bytes. *)
let with_checksum body =
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (reference_checksum body);
  body ^ Bytes.to_string sum

(* Hand encoders for the binary payload, one 8-byte word per field. *)
let payload_of words =
  let b = Bytes.create (8 * List.length words) in
  List.iteri
    (fun i w ->
      Bytes.set_int64_le b (8 * i)
        (match w with `F v -> Int64.bits_of_float v | `I n -> Int64.of_int n))
    words;
  Bytes.to_string b

let floats a = List.map (fun v -> `F v) (Array.to_list a)
let counted a = `I (Array.length a) :: floats a

(* One small entry of each kind; the join carries a provenance line. *)
let small_entries () =
  let points = [| (1.0, 1.0); (3.0, 3.0); (2.5, 0.5) |] in
  [
    {
      Snapshot.name = "small/range";
      spec = "ewh:4";
      inserts = 7;
      stale = false;
      provenance = None;
      summary =
        Stored.Range
          (Stored.of_sample ~cells:4 ~spec:Selest.Estimator.Sampling ~domain:(0.0, 4.0)
             [| 0.5; 1.5; 1.7; 3.2 |]);
    };
    {
      Snapshot.name = "small/rect";
      spec = "hist2d:2";
      inserts = 0;
      stale = true;
      provenance = None;
      summary =
        Stored.Rect
          (Stored.rect_of_points ~domain_x:(0.0, 4.0) ~domain_y:(0.0, 4.0) ~bins_x:2 ~bins_y:2
             points);
    };
    {
      Snapshot.name = "small/join";
      spec = "edh:2";
      inserts = 3;
      stale = false;
      provenance = Some "hand-built";
      summary =
        Stored.Join
          (Stored.join_of_samples ~domain:(0.0, 8.0) ~buckets:2 ~n_r:100 ~n_s:90
             [| 1.0; 2.0; 6.0 |] [| 4.0; 5.0 |]);
    };
  ]

let expect_load_error what path =
  match Snapshot.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: damaged snapshot accepted" what
  | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)

(* Every truncation and every single-byte change of a v2 file is an
   Error: the declared payload length catches a cut, the checksum a
   changed byte anywhere, header lines included. *)
let test_v2_damage_is_error () =
  let dir = fresh_dir () in
  List.iter
    (fun (e : Snapshot.entry) ->
      Snapshot.save ~dir e;
      let p = Snapshot.path ~dir e.Snapshot.name in
      let good = read_file p in
      check Alcotest.string (e.name ^ ": magic line") "selest-catalog v2\n"
        (String.sub good 0 18);
      let body = String.sub good 0 (String.length good - 8) in
      check Alcotest.string (e.name ^ ": trailer is the reference checksum") good
        (with_checksum body);
      (* Each variant gets a new file, removed after: replacing a file
         that holds data can cost a disk flush on some filesystems. *)
      let expect_error what contents =
        let damaged = Filename.concat dir "damaged.summary" in
        write_bin damaged contents;
        expect_load_error what damaged;
        Sys.remove damaged
      in
      for len = 0 to String.length good - 1 do
        expect_error (Printf.sprintf "%s cut to %d bytes" e.name len) (String.sub good 0 len)
      done;
      String.iteri
        (fun i c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string good in
              Bytes.set b i (Char.chr (Char.code c lxor mask));
              expect_error
                (Printf.sprintf "%s byte %d xor 0x%02x" e.name i mask)
                (Bytes.to_string b))
            [ 0x01; 0x80 ])
        good;
      let loaded = or_fail (Snapshot.load ~path:p) in
      check Alcotest.string (e.name ^ ": intact file still loads")
        (Stored.any_to_string e.summary) (Stored.any_to_string loaded.Snapshot.summary))
    (small_entries ())

let test_v2_damage_skipped () =
  let dir = fresh_dir () in
  let entries = small_entries () in
  List.iter (Snapshot.save ~dir) entries;
  let good = read_file (Snapshot.path ~dir "small/join") in
  write_bin (Filename.concat dir "torn.summary") (String.sub good 0 (String.length good - 1));
  let flipped = Bytes.of_string good in
  Bytes.set flipped 40 (Char.chr (Char.code good.[40] lxor 0x80));
  write_bin (Filename.concat dir "flipped.summary") (Bytes.to_string flipped);
  let loaded, skipped = Snapshot.load_dir ~dir () in
  check (Alcotest.list Alcotest.string) "intact entries load"
    [ "small/join"; "small/range"; "small/rect" ]
    (List.sort String.compare (List.map (fun (e : Snapshot.entry) -> e.Snapshot.name) loaded));
  check (Alcotest.list Alcotest.string) "damaged files reported"
    [ "flipped.summary"; "torn.summary" ]
    (List.sort String.compare (List.map fst skipped));
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "open_dir reports both" 2 (List.length warnings);
  check Alcotest.bool "survivors answer" true
    (Result.is_ok (Service.answer_join svc ~name:"small/join" ~pred:Stored.Join_eq))

(* Counts larger than the bytes that follow them are refused before
   anything is allocated: the frame's payload length against the file,
   and a join array's length prefix against the payload — the latter
   with a valid checksum, so the decoder itself must refuse it. *)
let test_v2_oversized_counts () =
  let dir = fresh_dir () in
  let e = List.nth (small_entries ()) 2 in
  Snapshot.save ~dir e;
  let p = Snapshot.path ~dir e.Snapshot.name in
  let good = read_file p in
  let body = String.sub good 0 (String.length good - 8) in
  let marker = "payload join " in
  let at =
    let rec find i =
      if String.sub body i (String.length marker) = marker then i else find (i + 1)
    in
    find 0
  in
  let line_end = String.index_from body at '\n' in
  let header = String.sub body 0 at in
  let payload = String.sub body (line_end + 1) (String.length body - line_end - 1) in
  let frame declared payload =
    with_checksum (Printf.sprintf "%spayload join %d\n%s" header declared payload)
  in
  write_bin p (frame (String.length payload) payload);
  ignore (or_fail (Snapshot.load ~path:p));
  write_bin p (frame (String.length payload + 8) payload);
  expect_load_error "payload length past the end of the file" p;
  write_bin p (frame (1 lsl 40) payload);
  expect_load_error "payload length 2^40" p;
  (* lo, hi, n_r, n_s, then the length of bounds_r *)
  let huge = Bytes.of_string payload in
  Bytes.set_int64_le huge 32 (Int64.shift_left 1L 40);
  let huge = Bytes.to_string huge in
  (match Stored.any_of_binary Stored.Join_kind huge ~pos:0 ~len:(String.length huge) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a 2^40 array length was accepted");
  write_bin p (frame (String.length huge) huge);
  expect_load_error "array length 2^40 under a valid checksum" p;
  let rect =
    payload_of
      [ `F 0.0; `F 0.0; `F 1.0; `F 1.0; `I (1 lsl 40); `I (1 lsl 40); `F 1.0; `F 1.0 ]
  in
  match Stored.any_of_binary Stored.Rect_kind rect ~pos:0 ~len:(String.length rect) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2^40 x 2^40 bins over one count accepted"

(* The text and binary decoders go through one validator per kind, so
   on the same hand-built field values they accept or reject together,
   and what they accept is the same summary. *)
let test_text_binary_agree () =
  let agree label kind text binary =
    let t = Stored.any_of_string text in
    let b = Stored.any_of_binary kind binary ~pos:0 ~len:(String.length binary) in
    match (t, b) with
    | Ok t, Ok b ->
      check Alcotest.string (label ^ ": same summary") (Stored.any_to_string t)
        (Stored.any_to_string b)
    | Error _, Error _ -> ()
    | Ok _, Error e -> Alcotest.failf "%s: text accepts, binary rejects (%s)" label e
    | Error e, Ok _ -> Alcotest.failf "%s: binary accepts, text rejects (%s)" label e
  in
  let lines a = String.concat "" (List.map (Printf.sprintf "%.17g\n") (Array.to_list a)) in
  let nan = Float.nan and inf = Float.infinity in
  List.iter
    (fun (label, lo, hi, w) ->
      agree ("range " ^ label) Stored.Range_kind
        (Printf.sprintf "selest-stored v1\ndomain %.17g %.17g\ncells %d\n%s" lo hi
           (Array.length w) (lines w))
        (payload_of ((`F lo :: `F hi :: floats w))))
    [
      ("valid", 0.0, 4.0, [| 0.1; 0.2; 0.3; 0.4 |]);
      ("denormal and -0 weights", -1.5, 2.5, [| 4.9e-324; -0.0; 1e-300 |]);
      ("infinite lo", Float.neg_infinity, 1.0, [| 0.5 |]);
      ("empty domain", 3.0, 3.0, [| 0.5 |]);
      ("inverted domain", 9.0, 3.0, [| 0.5 |]);
      ("nan bound", nan, 1.0, [| 0.5 |]);
      ("no cells", 0.0, 1.0, [||]);
      ("negative weight", 0.0, 1.0, [| 0.5; -0.1 |]);
      ("nan weight", 0.0, 1.0, [| nan |]);
      ("infinite weight", 0.0, 1.0, [| 0.5; inf |]);
    ];
  List.iter
    (fun (label, x_lo, y_lo, wx, wy, bx, by, total, counts) ->
      agree ("rect " ^ label) Stored.Rect_kind
        (Printf.sprintf
           "selest-stored-rect v1\ndomain_x %.17g %.17g\ndomain_y %.17g %.17g\n\
            bins %d %d\ntotal %.17g\n%s"
           x_lo
           (x_lo +. (wx *. float_of_int bx))
           y_lo
           (y_lo +. (wy *. float_of_int by))
           bx by total (lines counts))
        (payload_of
           ([ `F x_lo; `F y_lo; `F wx; `F wy; `I bx; `I by; `F total ] @ floats counts)))
    [
      ("valid", 0.0, -2.0, 1.0, 0.5, 2, 2, 4.0, [| 1.0; 0.0; 2.0; 1.0 |]);
      ("zero width", 0.0, 0.0, 0.0, 1.0, 2, 1, 1.0, [| 1.0; 0.0 |]);
      ("negative width", 0.0, 0.0, 1.0, -1.0, 1, 1, 1.0, [| 1.0 |]);
      ("nan origin", nan, 0.0, 1.0, 1.0, 1, 1, 1.0, [| 1.0 |]);
      ("infinite origin", 0.0, inf, 1.0, 1.0, 1, 1, 1.0, [| 1.0 |]);
      ("zero bins", 0.0, 0.0, 1.0, 1.0, 0, 1, 1.0, [||]);
      ("negative bins", 0.0, 0.0, 1.0, 1.0, -2, -2, 1.0, [| 1.0; 1.0; 1.0; 1.0 |]);
      ("too few counts", 0.0, 0.0, 1.0, 1.0, 2, 2, 1.0, [| 1.0; 1.0; 1.0 |]);
      ("overflowing bins", 0.0, 0.0, 1.0, 1.0, 1 lsl 61, 4, 1.0, [||]);
      ("zero total", 0.0, 0.0, 1.0, 1.0, 1, 1, 0.0, [| 1.0 |]);
      ("infinite total", 0.0, 0.0, 1.0, 1.0, 1, 1, inf, [| 1.0 |]);
      ("negative count", 0.0, 0.0, 1.0, 1.0, 1, 2, 1.0, [| 1.0; -1.0 |]);
      ("nan count", 0.0, 0.0, 1.0, 1.0, 1, 1, 1.0, [| nan |]);
    ];
  let valid_join =
    (0.0, 8.0, 100, 90, [| 0.0; 4.0; 8.0 |], [| 0.5; 0.5 |], [| 0.0; 8.0 |], [| 1.0 |],
     [| 1.0; 6.0 |], [| 4.0 |])
  in
  let with_r (lo, hi, n_r, n_s, _, _, bs, ms, sr, ss) br mr =
    (lo, hi, n_r, n_s, br, mr, bs, ms, sr, ss)
  in
  let (lo0, hi0, nr0, ns0, br0, mr0, bs0, ms0, sr0, ss0) = valid_join in
  List.iter
    (fun (label, (lo, hi, n_r, n_s, br, mr, bs, ms, sr, ss)) ->
      let section name a = Printf.sprintf "%s %d\n%s" name (Array.length a) (lines a) in
      agree ("join " ^ label) Stored.Join_kind
        (Printf.sprintf "selest-stored-join v1\ndomain %.17g %.17g\nsizes %d %d\n%s%s%s%s%s%s"
           lo hi n_r n_s (section "bounds_r" br) (section "mass_r" mr)
           (section "bounds_s" bs) (section "mass_s" ms) (section "sample_r" sr)
           (section "sample_s" ss))
        (payload_of
           ([ `F lo; `F hi; `I n_r; `I n_s ]
           @ List.concat_map counted [ br; mr; bs; ms; sr; ss ])))
    [
      ("valid", valid_join);
      ("empty domain", (4.0, 4.0, nr0, ns0, br0, mr0, bs0, ms0, sr0, ss0));
      ("infinite domain", (lo0, inf, nr0, ns0, br0, mr0, bs0, ms0, sr0, ss0));
      ("zero n_r", (lo0, hi0, 0, ns0, br0, mr0, bs0, ms0, sr0, ss0));
      ("negative n_s", (lo0, hi0, nr0, -3, br0, mr0, bs0, ms0, sr0, ss0));
      ("bounds start past lo", with_r valid_join [| 1.0; 4.0; 8.0 |] mr0);
      ("bounds end before hi", with_r valid_join [| 0.0; 4.0; 7.0 |] mr0);
      ("repeated bound", with_r valid_join [| 0.0; 0.0; 8.0 |] mr0);
      ("descending bounds", with_r valid_join [| 0.0; 9.0; 8.0 |] mr0);
      ("mass length mismatch", with_r valid_join br0 [| 1.0 |]);
      ("negative mass", with_r valid_join br0 [| 1.5; -0.5 |]);
      ("nan mass", with_r valid_join br0 [| nan; 0.5 |]);
      ("empty sample_r", (lo0, hi0, nr0, ns0, br0, mr0, bs0, ms0, [||], ss0));
      ("nan sample_s", (lo0, hi0, nr0, ns0, br0, mr0, bs0, ms0, sr0, [| nan |]));
    ]

(* What the parent format looked like on disk: the v1 text header, then
   the text payload (written here exactly as the v1 writer wrote it). *)
let write_v1 ~dir (e : Snapshot.entry) =
  let oc = open_out (Snapshot.path ~dir e.Snapshot.name) in
  Printf.fprintf oc "%s\nname %s\nspec %s\ninserts %d\nstale %d\n" "selest-catalog v1" e.name
    e.spec e.inserts
    (if e.stale then 1 else 0);
  (match e.provenance with Some p -> Printf.fprintf oc "provenance %s\n" p | None -> ());
  output_string oc (Stored.any_to_string e.summary);
  close_out oc

(* Legacy v1 files open beside v2 ones, answer as a v1 reader answers
   them, and turn into v2 files with unchanged answers at their next
   persist. *)
let test_v1_compat () =
  let dir = fresh_dir () in
  let rd = (-3.25, 117.8) and rx = (-10.3, 50.9) and ry = (2.2, 33.7) in
  let sample = Array.init 200 (fun i -> -3.0 +. float_of_int (i * 37 mod 120) +. 0.31) in
  let points =
    Array.init 200 (fun i ->
        (-10.0 +. float_of_int (i * 13 mod 60) +. 0.7, 2.5 +. float_of_int (i * 7 mod 31)))
  in
  let mk name ?provenance spec summary =
    { Snapshot.name; spec; inserts = 11; stale = false; provenance; summary }
  in
  let range =
    Stored.Range (Stored.of_sample ~cells:64 ~spec:Selest.Estimator.Sampling ~domain:rd sample)
  in
  let rect =
    Stored.Rect (Stored.rect_of_points ~domain_x:rx ~domain_y:ry ~bins_x:7 ~bins_y:9 points)
  in
  let join =
    Stored.Join
      (Stored.join_of_samples ~domain:rd ~buckets:8 ~n_r:5000 ~n_s:4000 sample
         (Array.map (fun v -> v *. 0.9) sample))
  in
  let v1 =
    [
      mk "v1/range" ~provenance:"advisor v1 spec=sampling" "sampling" range;
      mk "v1/rect" "hist2d:7x9" rect;
      mk "v1/join" ~provenance:"hand-built" "edh:8" join;
    ]
  in
  let v2 =
    [ mk "v2/range" "sampling" range; mk "v2/rect" "hist2d:7x9" rect; mk "v2/join" "edh:8" join ]
  in
  List.iter (write_v1 ~dir) v1;
  List.iter (Snapshot.save ~dir) v2;
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "mixed v1/v2 directory opens clean" 0 (List.length warnings);
  check (Alcotest.list Alcotest.string) "every entry indexed"
    [ "v1/join"; "v1/range"; "v1/rect"; "v2/join"; "v2/range"; "v2/rect" ] (Service.names svc);
  let range_q = [ (-1.0, 40.3); (17.17, 17.9); (50.0, 200.0); (-100.0, 0.1) ] in
  let rect_q = [ (-4.3, 20.6, 5.1, 30.2); (0.0, 0.0, 10.0, 10.0); (-20.0, 60.0, 0.0, 40.0) ] in
  let preds = [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ] in
  (* What a reader answers from [summary]: directly, or through the v1
     text path for a v1 file. *)
  let expected ~v1 summary =
    let s =
      if v1 then or_fail (Stored.any_of_string (Stored.any_to_string summary)) else summary
    in
    match s with
    | Stored.Range t -> List.map (fun (a, b) -> Stored.selectivity t ~a ~b) range_q
    | Stored.Rect r ->
      List.map
        (fun (x_lo, x_hi, y_lo, y_hi) -> Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi)
        rect_q
    | Stored.Join j -> List.map (fun pred -> Stored.join_estimate j ~pred) preds
  in
  let served svc (e : Snapshot.entry) =
    let name = e.Snapshot.name in
    match e.summary with
    | Stored.Range _ ->
      Array.to_list
        (Service.answer svc (Array.of_list (List.map (fun (a, b) -> (name, a, b)) range_q)))
    | Stored.Rect _ ->
      List.map
        (fun (x_lo, x_hi, y_lo, y_hi) ->
          or_fail (Service.answer_rect svc ~name ~x_lo ~x_hi ~y_lo ~y_hi))
        rect_q
    | Stored.Join _ -> List.map (fun pred -> or_fail (Service.answer_join svc ~name ~pred)) preds
  in
  let check_answers what svc v1_format (e : Snapshot.entry) =
    check Alcotest.bool
      (Printf.sprintf "%s: %s answers bit-identical" what e.Snapshot.name)
      true
      (List.for_all2 same_bits (expected ~v1:v1_format e.summary) (served svc e))
  in
  List.iter (check_answers "opened" svc true) v1;
  List.iter (check_answers "opened" svc false) v2;
  let first_line name =
    List.hd (String.split_on_char '\n' (read_file (Option.get (Service.snapshot_file svc name))))
  in
  check Alcotest.string "untouched v1 file stays v1" "selest-catalog v1" (first_line "v1/range");
  or_fail (Service.invalidate svc "v1/rect");
  or_fail (Service.record_inserts svc ~name:"v1/join" 5);
  or_fail (Service.record_inserts svc ~name:"v1/range" 1);
  List.iter
    (fun (e : Snapshot.entry) ->
      check Alcotest.string (e.Snapshot.name ^ " rewritten as v2") "selest-catalog v2"
        (first_line e.name))
    v1;
  let svc2, warnings = Service.open_dir dir in
  check Alcotest.int "reopen after the rewrite is clean" 0 (List.length warnings);
  List.iter (check_answers "rewritten" svc true) v1;
  List.iter (check_answers "reopened" svc2 true) v1;
  List.iter (check_answers "reopened" svc2 false) v2;
  check (Alcotest.option Alcotest.string) "provenance survives the rewrite"
    (Some "hand-built") (Option.get (Service.info svc2 "v1/join")).Service.provenance

(* Save then load reproduces every answer bit for bit, on domains whose
   ends are arbitrary reals: the v1 text form re-derived a rect's cell
   widths from its printed domain ends and could answer differently
   after a reload. *)
let prop_snapshot_bits =
  let gen_domain =
    QCheck.Gen.(
      let* lo = float_range (-1000.0) 1000.0 in
      let* width = float_range 0.5 1000.0 in
      return (lo, lo +. width))
  in
  let arb =
    QCheck.make
      ~print:(fun (rd, _, rx, ry, _, _, jd, _, seed) ->
        Printf.sprintf "range %h..%h, rect %h..%h x %h..%h, join %h..%h, seed %d" (fst rd)
          (snd rd) (fst rx) (snd rx) (fst ry) (snd ry) (fst jd) (snd jd) seed)
      QCheck.Gen.(
        let* rd = gen_domain in
        let* cells = int_range 1 64 in
        let* rx = gen_domain in
        let* ry = gen_domain in
        let* bins_x = int_range 1 32 in
        let* bins_y = int_range 1 32 in
        let* jd = gen_domain in
        let* buckets = int_range 1 32 in
        let* seed = int_bound 1_000_000 in
        return (rd, cells, rx, ry, bins_x, bins_y, jd, buckets, seed))
  in
  let dir = lazy (fresh_dir ()) in
  QCheck.Test.make ~count:1000 ~name:"save/load answers bit-identical on real domains" arb
    (fun (rd, cells, rx, ry, bins_x, bins_y, jd, buckets, seed) ->
      let dir = Lazy.force dir in
      let rng = Random.State.make [| seed |] in
      (* Points inside the domain, queries reaching a tenth past it. *)
      let within (lo, hi) = lo +. Random.State.float rng (hi -. lo) in
      let around (lo, hi) =
        lo -. (0.1 *. (hi -. lo)) +. Random.State.float rng (1.2 *. (hi -. lo))
      in
      let reload summary =
        let spec =
          match summary with
          | Stored.Range _ -> "ewh"
          | Stored.Rect _ -> "hist2d"
          | Stored.Join _ -> "edh"
        in
        Snapshot.save ~dir
          { Snapshot.name = "p"; spec; inserts = 0; stale = false; provenance = None; summary };
        let loaded = (or_fail (Snapshot.load ~path:(Snapshot.path ~dir "p"))).Snapshot.summary in
        Snapshot.delete ~dir "p";
        loaded
      in
      let range =
        Stored.of_sample ~cells ~spec:Selest.Estimator.Sampling ~domain:rd
          (Array.init 50 (fun _ -> within rd))
      in
      let rect =
        Stored.rect_of_points ~domain_x:rx ~domain_y:ry ~bins_x ~bins_y
          (Array.init 50 (fun _ -> (within rx, within ry)))
      in
      let join =
        Stored.join_of_samples ~domain:jd ~buckets ~n_r:1000 ~n_s:800
          (Array.init 40 (fun _ -> within jd))
          (Array.init 30 (fun _ -> within jd))
      in
      let queries f = List.init 20 (fun _ -> f ()) in
      (match reload (Stored.Range range) with
      | Stored.Range t ->
        List.for_all
          (fun (a, b) -> same_bits (Stored.selectivity range ~a ~b) (Stored.selectivity t ~a ~b))
          (queries (fun () ->
               let a = around rd in
               (a, around rd)))
      | _ -> false)
      && (match reload (Stored.Rect rect) with
         | Stored.Rect r ->
           List.for_all
             (fun (x_lo, x_hi, y_lo, y_hi) ->
               same_bits
                 (Stored.rect_selectivity rect ~x_lo ~x_hi ~y_lo ~y_hi)
                 (Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi))
             (queries (fun () ->
                  let a = around rx in
                  let b = around rx in
                  let c = around ry in
                  let d = around ry in
                  (Float.min a b, Float.max a b, Float.min c d, Float.max c d)))
         | _ -> false)
      &&
      match reload (Stored.Join join) with
      | Stored.Join j ->
        List.for_all
          (fun pred -> same_bits (Stored.join_estimate join ~pred) (Stored.join_estimate j ~pred))
          [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ]
      | _ -> false)

(* ---------------- Service ---------------- *)

let build_two svc =
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  ignore
    (or_fail
       (Service.build svc ~name:"users/age" ~spec:"sampling" ~domain:domain_b
          ~sample:sample_b))

let requests =
  [|
    ("orders/amount", 3.0, 40.0);
    ("users/age", 0.0, 30.5);
    ("orders/amount", -10.0, 200.0);
    ("users/age", 59.0, 60.0);
    ("orders/amount", 50.0, 50.0);
  |]

let test_service_reopen () =
  let dir = fresh_dir () in
  let svc, warnings = Service.open_dir dir in
  check Alcotest.int "fresh dir has no warnings" 0 (List.length warnings);
  build_two svc;
  let before = Service.answer svc requests in
  (* "Kill": drop the handle, reopen from disk alone. *)
  let svc2, warnings2 = Service.open_dir dir in
  check Alcotest.int "clean reopen has no warnings" 0 (List.length warnings2);
  check (Alcotest.list Alcotest.string) "entries survive"
    [ "orders/amount"; "users/age" ] (Service.names svc2);
  let after = Service.answer svc2 requests in
  check Alcotest.bool "answers bit-identical across reopen" true (before = after);
  (* Inject a corrupt snapshot: reopen skips it, reports it, survivors serve. *)
  write_file (Filename.concat dir "zzz-corrupt.summary") "garbage";
  let svc3, warnings3 = Service.open_dir dir in
  check Alcotest.int "corrupt entry reported" 1 (List.length warnings3);
  check Alcotest.string "reported file" "zzz-corrupt.summary" (fst (List.hd warnings3));
  check (Alcotest.list Alcotest.string) "survivors keep serving"
    [ "orders/amount"; "users/age" ] (Service.names svc3);
  check Alcotest.bool "survivor answers intact" true (Service.answer svc3 requests = before)

(* All three summary kinds persist through the same snapshot layer:
   build range + rect + join, kill the handle, reopen cold, and require
   every answer bit-identical and every info kind-faithful. *)
let test_multikind_reopen () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let points = Array.init 300 (fun i -> (float_of_int (i * 7 mod 97), float_of_int (i * i mod 61))) in
  ignore
    (or_fail
       (Service.build_rect svc ~name:"orders/amount_x_age" ~spec:"hist2d:8"
          ~domain_x:domain_a ~domain_y:domain_b ~points));
  ignore
    (or_fail
       (Service.build_join svc ~name:"orders_join_users" ~spec:"edh:16" ~domain:domain_a
          ~n_r:5000 ~n_s:4000 ~sample_r:sample_a ~sample_s:sample_b));
  let rect_queries =
    [ (3.0, 40.0, 0.0, 30.0); (17.0, 17.0, 4.0, 4.0); (-10.0, 200.0, -10.0, 100.0) ]
  in
  let answers_of s =
    List.map
      (fun (x_lo, x_hi, y_lo, y_hi) ->
        or_fail (Service.answer_rect s ~name:"orders/amount_x_age" ~x_lo ~x_hi ~y_lo ~y_hi))
      rect_queries
    @ List.map
        (fun pred -> or_fail (Service.answer_join s ~name:"orders_join_users" ~pred))
        [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ]
  in
  let before = answers_of svc in
  let svc2, warnings2 = Service.open_dir dir in
  check Alcotest.int "clean reopen has no warnings" 0 (List.length warnings2);
  check Alcotest.bool "rect/join answers bit-identical across reopen" true
    (List.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       before (answers_of svc2));
  (* Kind metadata survives the round trip. *)
  let kind_of name =
    match Service.info svc2 name with
    | Some i -> Selest.Stored.kind_name i.Service.kind
    | None -> Alcotest.failf "entry %s lost across reopen" name
  in
  check Alcotest.string "range kind" "range" (kind_of "orders/amount");
  check Alcotest.string "rect kind" "rect" (kind_of "orders/amount_x_age");
  check Alcotest.string "join kind" "join" (kind_of "orders_join_users");
  (match Service.info svc2 "orders/amount_x_age" with
  | Some i ->
    check Alcotest.bool "rect domain_y survives" true (i.Service.domain_y = Some domain_b)
  | None -> Alcotest.fail "rect entry lost");
  (* Kind mismatches answer Error, never raise. *)
  (match Service.answer_rect svc2 ~name:"orders/amount" ~x_lo:0.0 ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_rect accepted a range entry");
  (match Service.answer_join svc2 ~name:"orders/amount_x_age" ~pred:Selest.Stored.Join_eq with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_join accepted a rect entry");
  match Service.answer_one svc2 ~name:"orders_join_users" ~a:0.0 ~b:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_one accepted a join entry"

(* A query's answer depends on its own entry and bounds only, never on
   what else shares its batch: the serving engine merges requests from
   many connections into one call and relies on exactly this. *)
let test_answer_batch_independent () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let seq = Service.answer svc requests in
  Array.iteri
    (fun i req ->
      check Alcotest.bool
        (Printf.sprintf "request %d alone bit-identical to its batch slot" i)
        true
        (Int64.bits_of_float (Service.answer svc [| req |]).(0)
        = Int64.bits_of_float seq.(i)))
    requests;
  Alcotest.check_raises "unknown name raises"
    (Invalid_argument "Catalog.Service: unknown entry \"nope\"") (fun () ->
      ignore (Service.answer svc [| ("nope", 0.0, 1.0) |]));
  (match Service.answer_one svc ~name:"nope" ~a:0.0 ~b:1.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "answer_one accepted an unknown name");
  let one = or_fail (Service.answer_one svc ~name:"users/age" ~a:0.0 ~b:30.5) in
  check Alcotest.bool "answer_one matches batch" true (Float.equal one seq.(1))

(* The serving fast path: structure-of-arrays answers must be
   bit-identical to [answer], and once the summaries are resident a
   batch over caller-owned buffers must not touch the minor heap. *)
let test_answer_into () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let n = Array.length requests in
  let names = Array.map (fun (name, _, _) -> name) requests in
  let qa = Array.map (fun (_, a, _) -> a) requests in
  let qb = Array.map (fun (_, _, b) -> b) requests in
  let out = Array.make n 0.0 in
  let reference = Service.answer svc requests in
  Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out;
  check Alcotest.bool "answer_into bit-identical to answer" true (reference = out);
  (* Partial batch: only the first n slots are touched. *)
  let out2 = Array.make (n + 2) (-1.0) in
  Service.answer_into svc ~n:2 ~names ~a:qa ~b:qb ~out:out2;
  check Alcotest.bool "slots past n untouched" true (out2.(2) = -1.0 && out2.(n + 1) = -1.0);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Catalog.Service.answer_into: negative batch size") (fun () ->
      Service.answer_into svc ~n:(-1) ~names ~a:qa ~b:qb ~out);
  Alcotest.check_raises "short out"
    (Invalid_argument "Catalog.Service.answer_into: arrays shorter than n") (fun () ->
      Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out:(Array.make 1 0.0));
  (* Steady state: summaries resident, buffers owned by us — repeated
     batches must allocate nothing. *)
  Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out;
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    Service.answer_into svc ~n ~names ~a:qa ~b:qb ~out
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 0.0 then
    Alcotest.failf "answer_into allocated %.0f minor words over %d queries" dw (200 * n)

(* A join probe is one merge sweep over the two bucket arrays: per call
   it allocates only its boxed float results, the same few words at 4
   buckets as at 64, for every predicate. *)
let test_join_estimate_alloc () =
  let sample_r = Array.init 2000 (fun i -> float_of_int (i * 7919 mod 1000)) in
  let sample_s = Array.init 1500 (fun i -> float_of_int (300 + (i * 104729 mod 1000))) in
  let words_per_call buckets pred =
    let j =
      Selest.Stored.join_of_samples ~domain:(-0.5, 1299.5) ~buckets ~n_r:100_000
        ~n_s:80_000 sample_r sample_s
    in
    check
      Alcotest.(pair int int)
      "bucket counts" (buckets, buckets) (Selest.Stored.join_buckets j);
    let calls = 1000 in
    ignore (Selest.Stored.join_estimate j ~pred);
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Selest.Stored.join_estimate j ~pred))
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  (* Counted on a domain of its own: [Gc.minor_words] is per domain, and
     the snapshot janitor threads that earlier tests' services leave
     committing allocate on this one. *)
  let words_per_call buckets pred =
    Domain.join (Domain.spawn (fun () -> words_per_call buckets pred))
  in
  List.iter
    (fun pred ->
      let small = words_per_call 4 pred and large = words_per_call 64 pred in
      if not (Float.equal small large && large <= 8.0) then
        Alcotest.failf "join %s: %.2f minor words per call at 4 buckets, %.2f at 64"
          (Selest.Stored.join_pred_to_string pred) small large)
    [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ]

let test_staleness () =
  let dir = fresh_dir () in
  let config = { Service.default_config with rebuild_after_inserts = 100 } in
  let svc, _ = Service.open_dir ~config dir in
  build_two svc;
  or_fail (Service.record_inserts svc ~name:"orders/amount" 60);
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "under budget: fresh" false i.Service.stale;
  or_fail (Service.record_inserts svc ~name:"orders/amount" (-40));
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "deletes count as change; budget spent" true i.Service.stale;
  check Alcotest.int "inserts accumulated" 100 i.Service.inserts;
  (* Staleness survives a restart. *)
  let svc2, _ = Service.open_dir ~config dir in
  let i2 = Option.get (Service.info svc2 "orders/amount") in
  check Alcotest.bool "stale after reopen" true i2.Service.stale;
  check Alcotest.int "insert count after reopen" 100 i2.Service.inserts;
  (* Rebuild clears it. *)
  let i3 = or_fail (Service.rebuild svc2 ~name:"orders/amount" ~sample:sample_a) in
  check Alcotest.bool "rebuild clears staleness" false i3.Service.stale;
  check Alcotest.int "rebuild resets inserts" 0 i3.Service.inserts;
  check Alcotest.string "rebuild keeps the spec" "ewh:16" i3.Service.spec

let test_invalidate_and_sync () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  ignore (Service.answer svc [| ("users/age", 0.0, 10.0) |]);
  check Alcotest.bool "cached after a query" true
    (Option.get (Service.info svc "users/age")).Service.cached;
  or_fail (Service.invalidate svc "users/age");
  let i = Option.get (Service.info svc "users/age") in
  check Alcotest.bool "invalidate marks stale" true i.Service.stale;
  check Alcotest.bool "invalidate drops the hot copy" false i.Service.cached;
  let svc2, _ = Service.open_dir dir in
  check Alcotest.bool "invalidation persists" true
    (Option.get (Service.info svc2 "users/age")).Service.stale;
  (* Maintenance wrapper feeding the catalog's update counts. *)
  let m =
    Selest.Maintenance.create ~spec:(Selest.Estimator.Equi_width (Selest.Estimator.Fixed_bins 16))
      ~domain:domain_a ~sample:sample_a ~n_records:100_000 ()
  in
  Selest.Maintenance.record_inserts m 42;
  or_fail (Service.sync_maintenance svc ~name:"orders/amount" m);
  check Alcotest.int "maintenance changed_count mirrored" 42
    (Option.get (Service.info svc "orders/amount")).Service.inserts;
  (* Drop removes everything. *)
  or_fail (Service.drop svc "orders/amount");
  check Alcotest.bool "dropped from index" false (Service.mem svc "orders/amount");
  check Alcotest.bool "snapshot file removed" false
    (Sys.file_exists (Snapshot.path ~dir "orders/amount"))

let test_cache_pressure () =
  let dir = fresh_dir () in
  let config = { Service.default_config with capacity = 1 } in
  let svc, _ = Service.open_dir ~config dir in
  build_two svc;
  (* build leaves the most recent entry resident; capacity 1 means the
     earlier one was evicted at build time. *)
  ignore (Service.answer svc [| ("users/age", 0.0, 10.0); ("users/age", 1.0, 2.0) |]);
  let s1 = Service.cache_stats svc in
  check Alcotest.int "one resolution for two same-name requests: hit" 1 s1.Lru.hits;
  ignore (Service.answer svc [| ("orders/amount", 0.0, 10.0) |]);
  let s2 = Service.cache_stats svc in
  check Alcotest.int "evicted entry misses" 1 (s2.Lru.misses - s1.Lru.misses);
  check Alcotest.bool "eviction happened" true (s2.Lru.evictions > 0);
  (* The reloaded answer still matches a fresh service's. *)
  let v = Service.answer svc [| ("users/age", 0.0, 30.5) |] in
  let svc2, _ = Service.open_dir dir in
  check Alcotest.bool "reloaded summary bit-identical" true
    (v = Service.answer svc2 [| ("users/age", 0.0, 30.5) |])

(* ---------------- adaptive maintenance ---------------- *)

let adaptive_probes =
  [|
    ("orders/amount", 3.0, 40.0);
    ("orders/amount", -0.5, 96.5);
    ("orders/amount", 50.0, 60.0);
    ("orders/amount", 0.0, 1.0);
  |]

let bits a = Array.map Int64.bits_of_float a

let adaptive_fixture () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"ewh:16" ~domain:domain_a
          ~sample:sample_a));
  Service.enable_adaptive svc;
  (dir, svc)

(* The swap contract: between the staleness trip and the reap, every
   read serves the old summary bit-for-bit (never a torn or partially
   rebuilt one); after the reap, the swapped summary is also what a
   reopen loads — cache, metadata and snapshot moved together. *)
let test_adaptive_swap_never_tears () =
  let dir, svc = adaptive_fixture () in
  let before = bits (Service.answer svc adaptive_probes) in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  check Alcotest.bool "insert past the budget marks stale" true
    (Option.get (Service.info svc "orders/amount")).Service.stale;
  check (Alcotest.array Alcotest.int64) "stale reads serve the old bits" before
    (bits (Service.answer svc adaptive_probes));
  check Alcotest.int "launch tick swaps nothing yet" 0 (Service.adaptive_tick svc);
  (* A rebuild worker is live right now; reads still see the old bits. *)
  check (Alcotest.array Alcotest.int64) "mid-rebuild reads serve the old bits" before
    (bits (Service.answer svc adaptive_probes));
  let deadline = Unix.gettimeofday () +. 5.0 in
  let swaps = ref 0 in
  while !swaps = 0 && Unix.gettimeofday () < deadline do
    swaps := Service.adaptive_tick svc;
    if !swaps = 0 then Thread.delay 0.005
  done;
  check Alcotest.bool "background rebuild swapped in" true (!swaps > 0);
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "swap clears staleness" false i.Service.stale;
  check Alcotest.int "swap resets the insert count" 0 i.Service.inserts;
  let after = bits (Service.answer svc adaptive_probes) in
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "swap persisted without snapshot damage" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "reopen serves the swapped bits" after
    (bits (Service.answer svc2 adaptive_probes))

(* Kill-during-rebuild: drop the service with a rebuild worker in flight
   (no drain — a crash).  The worker only ever touches its private
   sample copy, so the snapshot directory must reopen undamaged, serving
   the old summary bit-for-bit, with the persisted stale flag still set
   so the rebuild re-runs. *)
let test_adaptive_kill_during_rebuild_recovers () =
  let dir, svc = adaptive_fixture () in
  let before = bits (Service.answer svc adaptive_probes) in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  ignore (Service.adaptive_tick svc);
  (* Crash here: [svc] is abandoned, its worker never reaped. *)
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "no corruption after the kill" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "old summary intact" before
    (bits (Service.answer svc2 adaptive_probes));
  check Alcotest.bool "staleness survived the kill" true
    (Option.get (Service.info svc2 "orders/amount")).Service.stale

(* Orderly shutdown is the opposite contract: adaptive_drain reaps the
   in-flight rebuild instead of discarding it, so the swap lands and
   persists. *)
let test_adaptive_drain_reaps_pending () =
  let dir, svc = adaptive_fixture () in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  ignore (Service.adaptive_tick svc);
  Service.adaptive_drain svc;
  let i = Option.get (Service.info svc "orders/amount") in
  check Alcotest.bool "drain reaped the rebuild" false i.Service.stale;
  let after = bits (Service.answer svc adaptive_probes) in
  let svc2, _ = Service.open_dir dir in
  check (Alcotest.array Alcotest.int64) "drained swap persisted" after
    (bits (Service.answer svc2 adaptive_probes))

(* The crash bound: stop an adaptive service after its stale transition,
   with a rebuild in flight and no drain.  The reservoir lived in memory
   only, so the reopened service serves the old bits, flagged stale, and
   launches no rebuild until [min_rebuild_sample] new values arrive;
   then exactly one runs. *)
let test_adaptive_crash_bound () =
  let dir, svc = adaptive_fixture () in
  let before = bits (Service.answer svc adaptive_probes) in
  ignore (or_fail (Service.insert svc ~name:"orders/amount" sample_b));
  ignore (Service.adaptive_tick svc);
  check Alcotest.bool "rebuild in flight at the crash" true
    (Service.adaptive_stats svc).Service.rebuild_in_flight;
  let svc2, skipped =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  Service.enable_adaptive svc2;
  check Alcotest.int "no corruption after the crash" 0 (List.length skipped);
  check (Alcotest.array Alcotest.int64) "old bits served" before
    (bits (Service.answer svc2 adaptive_probes));
  check Alcotest.bool "stale flag survived" true
    (Option.get (Service.info svc2 "orders/amount")).Service.stale;
  let min = Service.default_adaptive_config.Service.min_rebuild_sample in
  let fresh = Array.init min (fun i -> float_of_int (i * 3 mod 97)) in
  ignore (or_fail (Service.insert svc2 ~name:"orders/amount" (Array.sub fresh 0 (min - 1))));
  check Alcotest.int "nothing to swap" 0 (Service.adaptive_tick svc2);
  check Alcotest.bool "no rebuild one value short of min_rebuild_sample" false
    (Service.adaptive_stats svc2).Service.rebuild_in_flight;
  ignore (or_fail (Service.insert svc2 ~name:"orders/amount" (Array.sub fresh (min - 1) 1)));
  check Alcotest.int "launch tick swaps nothing yet" 0 (Service.adaptive_tick svc2);
  check Alcotest.bool "the value that fills the sample launches a rebuild" true
    (Service.adaptive_stats svc2).Service.rebuild_in_flight;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let swaps = ref 0 in
  while !swaps = 0 && Unix.gettimeofday () < deadline do
    swaps := Service.adaptive_tick svc2;
    if !swaps = 0 then Thread.delay 0.005
  done;
  check Alcotest.int "exactly one rebuild swapped in" 1 !swaps;
  check Alcotest.bool "and it cleared the flag" false
    (Option.get (Service.info svc2 "orders/amount")).Service.stale;
  check Alcotest.bool "no second rebuild" false
    (Service.adaptive_stats svc2).Service.rebuild_in_flight

let served_summary svc name =
  (or_fail (Snapshot.load ~path:(Option.get (Service.snapshot_file svc name)))).Snapshot.summary

(* A rebuild's sample is copied at launch, so the inserts that arrive
   while it runs are not in it: the swap keeps them counted, and they
   turn the entry stale again once they cover the budget. *)
let test_adaptive_rebuild_keeps_late_inserts () =
  let dir = fresh_dir () in
  let budget = 100 in
  let config = { Service.default_config with Service.rebuild_after_inserts = budget } in
  let svc, _ = Service.open_dir ~config dir in
  let name = "orders/amount" in
  ignore (or_fail (Service.build svc ~name ~spec:"ewh:16" ~domain:domain_a ~sample:sample_a));
  Service.enable_adaptive svc;
  let values k = Array.init k (fun i -> float_of_int (i * 7 mod 97)) in
  let inserts () = (Option.get (Service.info svc name)).Service.inserts in
  let stale () = (Option.get (Service.info svc name)).Service.stale in
  ignore (or_fail (Service.insert svc ~name (values budget)));
  check Alcotest.bool "the budget trips" true (stale ());
  check Alcotest.int "launch tick swaps nothing" 0 (Service.adaptive_tick svc);
  ignore (or_fail (Service.insert svc ~name (values 40)));
  Service.adaptive_drain svc;
  check Alcotest.int "inserts after the launch stay counted" 40 (inserts ());
  check Alcotest.bool "below the budget: fresh" false (stale ());
  ignore (or_fail (Service.insert svc ~name (values 60)));
  check Alcotest.bool "40 + 60 trips it again" true (stale ());
  check Alcotest.int "launch tick swaps nothing" 0 (Service.adaptive_tick svc);
  ignore (or_fail (Service.insert svc ~name (values (budget + 5))));
  Service.adaptive_drain svc;
  check Alcotest.int "a full budget arrived during the rebuild" (budget + 5) (inserts ());
  check Alcotest.bool "so the swap leaves it stale" true (stale ());
  check Alcotest.bool "and the drain's tick launched the next rebuild" true
    (Service.adaptive_stats svc).Service.rebuild_in_flight;
  let svc2, _ = Service.open_dir ~config dir in
  let i2 = Option.get (Service.info svc2 name) in
  check Alcotest.int "the count persisted with the swap" (budget + 5) i2.Service.inserts;
  check Alcotest.bool "so did the flag" true i2.Service.stale;
  Service.adaptive_drain svc

(* Observations absorbed since the last refresh survive a rebuild swap:
   they are replayed onto the histogram reseeded from the rebuilt
   summary and still count toward the next refresh, which then serves
   exactly that histogram with all of them applied in order. *)
let test_adaptive_rebuild_keeps_feedback () =
  let dir = fresh_dir () in
  let svc, _ =
    Service.open_dir
      ~config:{ Service.default_config with Service.rebuild_after_inserts = 50 }
      dir
  in
  let name = "orders/amount" in
  ignore (or_fail (Service.build svc ~name ~spec:"ewh:16" ~domain:domain_a ~sample:sample_a));
  let acfg = { Service.default_adaptive_config with Service.refresh_after_observes = 8 } in
  Service.enable_adaptive ~config:acfg svc;
  let observations =
    Array.init 8 (fun k ->
        let a = float_of_int (k * 11) in
        (a, a +. 15.0, 0.05 +. (0.02 *. float_of_int k)))
  in
  let observe k =
    let a, b, actual = observations.(k) in
    ignore (or_fail (Service.observe svc ~name ~a ~b ~actual))
  in
  for k = 0 to 4 do
    observe k
  done;
  ignore (or_fail (Service.insert svc ~name sample_b));
  check Alcotest.int "launch tick swaps nothing" 0 (Service.adaptive_tick svc);
  Service.adaptive_drain svc;
  check Alcotest.bool "the rebuild swapped in" false
    (Option.get (Service.info svc name)).Service.stale;
  let rebuilt =
    match served_summary svc name with
    | Selest.Stored.Range r -> r
    | _ -> Alcotest.fail "range entry expected"
  in
  for k = 5 to 7 do
    observe k
  done;
  check Alcotest.int "the 8th observation since the refresh refreshes" 1
    (Service.adaptive_tick svc);
  let i = Option.get (Service.info svc name) in
  let fb =
    Feedback.Adaptive.create ~buckets:i.Service.cells ~learning_rate:acfg.Service.learning_rate
      ~domain:i.Service.domain
      ~base:(fun ~a ~b -> Selest.Stored.selectivity rebuilt ~a ~b)
      ()
  in
  Array.iter (fun (a, b, actual) -> Feedback.Adaptive.observe fb ~a ~b ~actual) observations;
  let expected =
    Selest.Stored.of_fn ~cells:i.Service.cells ~domain:i.Service.domain (fun ~a ~b ->
        Feedback.Adaptive.selectivity fb ~a ~b)
  in
  check Alcotest.string "refreshed bits: rebuilt summary + all 8 observations"
    (Selest.Stored.any_to_string (Selest.Stored.Range expected))
    (Selest.Stored.any_to_string (served_summary svc name));
  check Alcotest.int "a refresh starts the count from zero" 0 (Service.adaptive_tick svc)

(* Rebuilds from every service queue on one domain and run in launch
   order: once the later one has been drained, the earlier one is
   already done, and its owner's next tick swaps it in without waiting. *)
let test_adaptive_rebuilds_run_in_launch_order () =
  let first_dir, first = adaptive_fixture () in
  let _, second = adaptive_fixture () in
  ignore first_dir;
  ignore (or_fail (Service.insert first ~name:"orders/amount" sample_b));
  ignore (or_fail (Service.insert second ~name:"orders/amount" sample_b));
  check Alcotest.int "first launches" 0 (Service.adaptive_tick first);
  check Alcotest.int "second launches" 0 (Service.adaptive_tick second);
  Service.adaptive_drain second;
  check Alcotest.bool "second swapped in" false
    (Option.get (Service.info second "orders/amount")).Service.stale;
  check Alcotest.int "first was done before it" 1 (Service.adaptive_tick first)

let test_build_errors () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  (match Service.build svc ~name:"" ~spec:"ewh" ~domain:domain_a ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty name accepted");
  (match Service.build svc ~name:"x" ~spec:"nosuchspec" ~domain:domain_a ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable spec accepted");
  (match Service.build svc ~name:"x" ~spec:"ewh" ~domain:domain_a ~sample:[||] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sample accepted");
  (match Service.rebuild svc ~name:"ghost" ~sample:sample_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rebuild of unknown entry accepted");
  check Alcotest.int "failed builds left no entries" 0 (List.length (Service.names svc))

(* ---------------- Sharding ---------------- *)

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let found = ref false in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then found := true
  done;
  !found

(* Answer each request through the shard that owns its entry — the same
   routing the serving engine performs. *)
let sharded_answer services reqs =
  let shards = Array.length services in
  Array.map
    (fun ((name, _, _) as req) ->
      (Service.answer services.(Service.shard_of_name ~shards name) [| req |]).(0))
    reqs

let test_shard_of_name_stable () =
  (* Pinned values: the hash (FNV-1a 64) decides the on-disk layout, so
     a change here is a breaking format change, not a refactor. *)
  check Alcotest.int "orders/amount @ 4" 1 (Service.shard_of_name ~shards:4 "orders/amount");
  check Alcotest.int "users/age @ 4" 3 (Service.shard_of_name ~shards:4 "users/age");
  check Alcotest.int "users/age @ 3" 2 (Service.shard_of_name ~shards:3 "users/age");
  check Alcotest.int "shards=1 is always shard 0" 0
    (Service.shard_of_name ~shards:1 "anything at all");
  List.iter
    (fun name ->
      let s = Service.shard_of_name ~shards:5 name in
      check Alcotest.bool (name ^ " in range") true (s >= 0 && s < 5))
    [ "a"; ""; "orders/amount"; "weird name %2F" ]

(* The shard hash as first written: a [String.iter] closure over a
   boxed accumulator, folded with [Int64.unsigned_rem].  The served
   version must place every name on the same shard (so snapshots do not
   move) without allocating.  Placement at 2^61 shards is the hash's low
   61 bits and placement at the odd 2^61 - 1 fixes it modulo a coprime
   number, so agreeing at both means agreeing on the whole 64-bit hash,
   which also seeds each entry's reservoir. *)
let reference_shard ~shards name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  if shards = 1 then 0 else Int64.to_int (Int64.unsigned_rem !h (Int64.of_int shards))

let test_shard_of_name_matches_reference () =
  let rng = Random.State.make [| 20261018 |] in
  for _ = 1 to 20_000 do
    let name =
      String.init (Random.State.int rng 40) (fun _ -> Char.chr (Random.State.int rng 256))
    in
    List.iter
      (fun shards ->
        let got = Service.shard_of_name ~shards name in
        if got <> reference_shard ~shards name then
          Alcotest.failf "shard_of_name ~shards:%d %S: %d, reference %d" shards name got
            (reference_shard ~shards name))
      [ 1 + Random.State.int rng 64; 1 lsl 61; (1 lsl 61) - 1 ]
  done;
  let name = "n(20)/kernel" in
  ignore (Service.shard_of_name ~shards:2 name);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Service.shard_of_name ~shards:2 name))
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 0.0 then
    Alcotest.failf "shard_of_name ~shards:2 allocated %.0f minor words over 1000 calls" dw

let test_sharded_migration_round_trip () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let expected = Service.answer svc requests in
  (* v1 flat -> 4 shards: every snapshot lands in the subdirectory of
     the shard that owns its name, and nothing is left flat. *)
  let services4, skipped = Service.open_sharded ~shards:4 dir in
  check Alcotest.int "migration to 4 shards skips nothing" 0 (List.length skipped);
  List.iter
    (fun name ->
      let owner = Service.shard_of_name ~shards:4 name in
      let p =
        Filename.concat (Filename.concat dir (Service.shard_dir_name owner))
          (Snapshot.file_name name)
      in
      check Alcotest.bool (name ^ " in its shard dir") true (Sys.file_exists p);
      check Alcotest.bool (name ^ " gone from the flat dir") false
        (Sys.file_exists (Filename.concat dir (Snapshot.file_name name))))
    [ "orders/amount"; "users/age" ];
  let got4 = sharded_answer services4 requests in
  Array.iteri
    (fun i x ->
      check Alcotest.bool (Printf.sprintf "4-shard answer %d bit-identical" i) true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(i)))
    got4;
  (* 4 shards -> 2 shards: re-partition in place. *)
  let services2, skipped = Service.open_sharded ~shards:2 dir in
  check Alcotest.int "re-sharding 4 -> 2 skips nothing" 0 (List.length skipped);
  check Alcotest.bool "vacated shard dirs removed" false
    (Sys.file_exists (Filename.concat dir (Service.shard_dir_name 3)));
  let got2 = sharded_answer services2 requests in
  Array.iteri
    (fun i x ->
      check Alcotest.bool (Printf.sprintf "2-shard answer %d bit-identical" i) true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(i)))
    got2;
  (* 2 shards -> 1: back to the v1 flat layout, bit-identical snapshots. *)
  let services1, skipped = Service.open_sharded ~shards:1 dir in
  check Alcotest.int "migration back to flat skips nothing" 0 (List.length skipped);
  check Alcotest.int "one shard" 1 (Array.length services1);
  check Alcotest.bool "flat file restored" true
    (Sys.file_exists (Filename.concat dir (Snapshot.file_name "orders/amount")));
  check Alcotest.bool "shard-0 dir removed" false
    (Sys.file_exists (Filename.concat dir (Service.shard_dir_name 0)));
  let got1 = Service.answer services1.(0) requests in
  Array.iteri
    (fun i x ->
      check Alcotest.bool (Printf.sprintf "flat answer %d bit-identical" i) true
        (Int64.bits_of_float x = Int64.bits_of_float expected.(i)))
    got1

let test_sharded_skip_reports_shard () =
  (* load_dir with an explicit shard id prefixes every recovery message. *)
  let dir = fresh_dir () in
  Snapshot.save ~dir
    { Snapshot.name = "good"; spec = "ewh:8"; inserts = 0; stale = false;
      provenance = None; summary = stored_of sample_a domain_a };
  write_file (Filename.concat dir "corrupt.summary") "selest-catalog v1\nname broken\n";
  write_file (Filename.concat dir ("dead" ^ Snapshot.tmp_extension)) "orphan";
  let entries, skipped = Snapshot.load_dir ~shard:7 ~dir () in
  check Alcotest.int "survivor loads" 1 (List.length entries);
  check Alcotest.int "two recovery events" 2 (List.length skipped);
  List.iter
    (fun (file, msg) ->
      check Alcotest.bool (file ^ " message names shard 7") true
        (contains_sub msg "shard 7:"))
    skipped;
  (* ...and open_sharded threads the prefix through from each shard dir. *)
  let dir2 = fresh_dir () in
  let svc, _ = Service.open_dir dir2 in
  build_two svc;
  let _, skipped = Service.open_sharded ~shards:4 dir2 in
  check Alcotest.int "clean migration" 0 (List.length skipped);
  (* Drop a corrupt snapshot into the shard that owns its decoded name
     (migration would relocate it anywhere else — names, not positions,
     decide ownership). *)
  let owner = Service.shard_of_name ~shards:4 "corrupt" in
  let owner_dir = Filename.concat dir2 (Service.shard_dir_name owner) in
  if not (Sys.file_exists owner_dir) then Sys.mkdir owner_dir 0o755;
  write_file (Filename.concat owner_dir "corrupt.summary") "selest-catalog v1\nname broken\n";
  let _, skipped = Service.open_sharded ~shards:4 dir2 in
  (match skipped with
  | [ (file, msg) ] ->
    check Alcotest.string "corrupt file reported" "corrupt.summary" file;
    check Alcotest.bool "message names the owner shard" true
      (contains_sub msg (Printf.sprintf "shard %d:" owner))
  | other -> Alcotest.failf "expected one skip, got %d" (List.length other));
  (* An undecodable file name is left in place and reported during
     migration rather than guessed at. *)
  let dir3 = fresh_dir () in
  let svc, _ = Service.open_dir dir3 in
  build_two svc;
  write_file (Filename.concat dir3 "bad%zz.summary") "whatever";
  let _, skipped = Service.open_sharded ~shards:2 dir3 in
  (match skipped with
  | [ (file, msg) ] ->
    check Alcotest.string "undecodable name reported" "bad%zz.summary" file;
    check Alcotest.bool "message explains" true (contains_sub msg "percent-encoded")
  | other -> Alcotest.failf "expected one migration skip, got %d" (List.length other));
  check Alcotest.bool "undecodable file left in place" true
    (Sys.file_exists (Filename.concat dir3 "bad%zz.summary"))

(* ---------------- Generation files ---------------- *)

(* The snapshot files of [dir], sorted. *)
let summaries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f Snapshot.extension)
  |> List.sort String.compare

let range_probes = [ (-1.0, 40.3); (17.17, 17.9); (50.0, 200.0); (3.0, 3.5) ]
let rect_probes = [ (-4.3, 20.6, 5.1, 30.2); (0.0, 50.0, 10.0, 60.0); (40.0, 96.0, 0.0, 20.0) ]
let join_preds = [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ]

(* What a summary answers to the probes of its kind... *)
let direct = function
  | Stored.Range t -> List.map (fun (a, b) -> Stored.selectivity t ~a ~b) range_probes
  | Stored.Rect r ->
    List.map
      (fun (x_lo, x_hi, y_lo, y_hi) -> Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi)
      rect_probes
  | Stored.Join j -> List.map (fun pred -> Stored.join_estimate j ~pred) join_preds

(* ...and what a service serves for the entry. *)
let served svc name =
  match (Option.get (Service.info svc name)).Service.kind with
  | Stored.Range_kind ->
    List.map (fun (a, b) -> or_fail (Service.answer_one svc ~name ~a ~b)) range_probes
  | Stored.Rect_kind ->
    List.map
      (fun (x_lo, x_hi, y_lo, y_hi) ->
        or_fail (Service.answer_rect svc ~name ~x_lo ~x_hi ~y_lo ~y_hi))
      rect_probes
  | Stored.Join_kind ->
    List.map (fun pred -> or_fail (Service.answer_join svc ~name ~pred)) join_preds

let serves svc name summary = List.for_all2 same_bits (direct summary) (served svc name)

(* Version [k] of a range, a rect and a join entry; the versions of one
   entry answer differently. *)
let versioned =
  let shift k v = Float.rem (v +. float_of_int (17 * k)) 97.0 in
  [
    ( "gen/range",
      "sampling",
      fun k ->
        Stored.Range
          (Stored.of_sample ~cells:32 ~spec:Selest.Estimator.Sampling ~domain:domain_a
             (Array.map (shift k) sample_a)) );
    ( "gen/rect",
      "hist2d:8x6",
      fun k ->
        Stored.Rect
          (Stored.rect_of_points ~domain_x:domain_a ~domain_y:domain_b ~bins_x:8 ~bins_y:6
             (Array.init 300 (fun i ->
                  (float_of_int (i * (7 + k) mod 97), float_of_int (((i * i) + k) mod 61))))) );
    ( "gen/join",
      "edh:8",
      fun k ->
        Stored.Join
          (Stored.join_of_samples ~domain:domain_a ~buckets:8 ~n_r:5000 ~n_s:4000
             (Array.map (shift k) sample_a) sample_b) );
  ]

let gen_entry name spec summary =
  { Snapshot.name; spec; inserts = 0; stale = false; provenance = None; summary }

(* The bytes [save] writes for an entry; they do not depend on the
   generation the file is named for. *)
let file_bytes e =
  let dir = fresh_dir () in
  Snapshot.save ~dir e;
  let b = read_file (Snapshot.path ~dir e.Snapshot.name) in
  Sys.remove (Snapshot.path ~dir e.Snapshot.name);
  Sys.rmdir dir;
  b

let test_generation_names () =
  let rng = Random.State.make [| 21 |] in
  let names =
    [ "a"; "a@1"; "@"; "x@@2"; "n(20)/kernel"; "%40"; "a.summary"; "a@1.summary" ]
    @ List.init 200 (fun _ ->
          String.init (1 + Random.State.int rng 12) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  List.iter
    (fun name ->
      List.iter
        (fun gen ->
          let file = Snapshot.file_name ~gen name in
          check
            Alcotest.(option (pair string int))
            (Printf.sprintf "%S generation %d round trip" name gen)
            (Some (name, gen)) (Snapshot.decode_generation file);
          check
            Alcotest.(option string)
            (Printf.sprintf "%S generation %d names its entry" name gen)
            (Some name) (Snapshot.decode_file_name file))
        [ 0; 1; 2; 10; 99; 123_456_789 ])
    names;
  check Alcotest.string "'@' in a name is escaped" "a%401.summary" (Snapshot.file_name "a@1");
  check Alcotest.string "generation 1 of a" "a@1.summary" (Snapshot.file_name ~gen:1 "a");
  check Alcotest.string "generation 0 is the plain name" "a.summary" (Snapshot.file_name "a");
  check
    Alcotest.(option (pair string int))
    "entry a@1 is never generation 1 of a" (Some ("a@1", 0))
    (Snapshot.decode_generation (Snapshot.file_name "a@1"));
  List.iter
    (fun file ->
      check
        Alcotest.(option (pair string int))
        (file ^ " is not a snapshot file name") None (Snapshot.decode_generation file))
    [
      "a@0.summary"; "a@01.summary"; "a@.summary"; "a@x.summary"; "a@-1.summary";
      "a@+1.summary"; "a@1x.summary"; "a@1_0.summary"; "a@0x1.summary";
      "a@1234567890123456789.summary"; "a@1.summary.tmp"; "a%4.summary";
    ];
  (* A service keeps the entry [a@1] and the generations of [a] apart. *)
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  ignore
    (or_fail (Service.build svc ~name:"a" ~spec:"ewh:16" ~domain:domain_a ~sample:sample_a));
  ignore
    (or_fail (Service.build svc ~name:"a@1" ~spec:"ewh:16" ~domain:domain_b ~sample:sample_b));
  or_fail (Service.invalidate svc "a");
  Service.flush svc;
  check (Alcotest.list Alcotest.string) "one file each" [ "a%401.summary"; "a@1.summary" ]
    (summaries dir);
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "clean reopen" 0 (List.length skipped);
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " serves its own bits") true
        (List.for_all2 same_bits (served svc name) (served svc2 name)))
    [ "a"; "a@1" ]

(* Every directory state a persist of generation 3 can leave behind —
   stopped at any step, or torn by a power loss before the janitor's
   fsync — reopens serving, for every kind, exactly the old bits or the
   new bits, never neither, and never a torn file. *)
let test_crash_states () =
  let old_k = 1 and new_k = 2 in
  let entries =
    List.map
      (fun (name, spec, version) ->
        let bytes = Array.init 3 (fun k -> file_bytes (gen_entry name spec (version k))) in
        (name, version, bytes))
      versioned
  in
  List.iter
    (fun (name, version, _) ->
      check Alcotest.bool (name ^ ": old and new versions answer differently") false
        (List.for_all2 same_bits (direct (version old_k)) (direct (version new_k))))
    entries;
  let len_new = String.length (let _, _, b = List.hd entries in b.(new_k)) in
  (* A state: the files of each entry as (generation, version, bytes
     kept — [None] for all), an optional temp file of generation 3 with
     that many bytes of the new version; then the version that must
     serve, its generation, and how many reports each entry adds. *)
  let states =
    [
      ("before the persist", [ (1, 0, None); (2, old_k, None) ], None, (old_k, 2), 0);
      ("temp file half written", [ (1, 0, None); (2, old_k, None) ], Some `Half, (old_k, 2), 1);
      ("temp file written, not renamed", [ (1, 0, None); (2, old_k, None) ], Some `Whole,
        (old_k, 2), 1);
      ("renamed, janitor not run", [ (1, 0, None); (2, old_k, None); (3, new_k, None) ], None,
        (new_k, 3), 0);
      ("janitor stopped after unlinking 2", [ (1, 0, None); (3, new_k, None) ], None,
        (new_k, 3), 0);
      ("janitor stopped after unlinking 1", [ (2, old_k, None); (3, new_k, None) ], None,
        (new_k, 3), 0);
      ("janitor done", [ (3, new_k, None) ], None, (new_k, 3), 0);
    ]
    @ List.map
        (fun n ->
          ( Printf.sprintf "newest torn at %d bytes" n,
            [ (1, 0, None); (2, old_k, None); (3, new_k, Some n) ],
            None,
            (old_k, 2),
            1 ))
        [ 0; 1; len_new / 2; len_new - 9; len_new - 1 ]
  in
  List.iter
    (fun (label, files, temp, (want_k, want_gen), reports) ->
      let dir = fresh_dir () in
      List.iter
        (fun (name, _, bytes) ->
          List.iter
            (fun (gen, k, keep) ->
              let b = bytes.(k) in
              write_bin (Snapshot.path ~gen ~dir name)
                (match keep with None -> b | Some n -> String.sub b 0 n))
            files;
          Option.iter
            (fun part ->
              let b = bytes.(new_k) in
              write_bin
                (Snapshot.path ~gen:3 ~dir name ^ ".tmp")
                (match part with `Half -> String.sub b 0 (String.length b / 2) | `Whole -> b))
            temp)
        entries;
      let svc, skipped = Service.open_dir dir in
      check Alcotest.int (label ^ ": reports") (reports * List.length entries)
        (List.length skipped);
      if temp = None then
        List.iter
          (fun (file, msg) ->
            check Alcotest.bool (label ^ ": " ^ file ^ " names the generation that serves")
              true
              (contains_sub msg "generation 2 serves"))
          skipped;
      List.iter
        (fun (name, version, _) ->
          check Alcotest.bool
            (Printf.sprintf "%s: %s serves the %s bits" label name
               (if want_k = new_k then "new" else "old"))
            true
            (serves svc name (version want_k));
          check Alcotest.string (label ^ ": " ^ name ^ " file")
            (Snapshot.path ~gen:want_gen ~dir name)
            (Option.get (Service.snapshot_file svc name)))
        entries;
      (* The next persist writes above every generation on disk — never
         over a torn file — and once the janitor is done, that is each
         entry's only file, serving what was served. *)
      let next = 1 + List.fold_left (fun top (gen, _, _) -> max top gen) 0 files in
      List.iter (fun (name, _, _) -> or_fail (Service.invalidate svc name)) entries;
      Service.flush svc;
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%s: one generation %d file each" label next)
        (List.sort String.compare
           (List.map (fun (name, _, _) -> Snapshot.file_name ~gen:next name) entries))
        (summaries dir);
      let svc2, skipped = Service.open_dir dir in
      check Alcotest.int (label ^ ": clean reopen after the janitor") 0 (List.length skipped);
      List.iter
        (fun (name, version, _) ->
          check Alcotest.bool (label ^ ": " ^ name ^ " still serves after the janitor") true
            (serves svc2 name (version want_k)))
        entries)
    states

(* A write that fails (here: its temp name is taken by a directory,
   which stops root as well as anyone else) leaves the entry serving the
   old bits at its old generation with its metadata unchanged, for a
   flag persist, a rebuild and an adaptive swap alike. *)
let test_failed_write_keeps_old () =
  let dir = fresh_dir () in
  List.iter
    (fun (name, spec, version) -> Snapshot.save ~dir (gen_entry name spec (version 1)))
    versioned;
  let svc, _ = Service.open_dir dir in
  let block name gen = Sys.mkdir (Snapshot.path ~gen ~dir name ^ ".tmp") 0o755 in
  let unblock name gen = Sys.rmdir (Snapshot.path ~gen ~dir name ^ ".tmp") in
  let unchanged what name version gen =
    check Alcotest.bool (what ^ ": old bits served") true (serves svc name version);
    check Alcotest.string (what ^ ": generation unchanged") (Snapshot.path ~gen ~dir name)
      (Option.get (Service.snapshot_file svc name))
  in
  List.iter
    (fun (name, _, version) ->
      block name 1;
      (match Service.invalidate svc name with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.failf "%s: invalidate wrote through a blocked name" name);
      unchanged (name ^ " invalidate") name (version 1) 0;
      check Alcotest.bool (name ^ ": stale flag unchanged") false
        (Option.get (Service.info svc name)).Service.stale)
    versioned;
  (match Service.rebuild svc ~name:"gen/range" ~sample:sample_b with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "rebuild wrote through a blocked name");
  (match
     Service.build_rect svc ~name:"gen/rect" ~spec:"hist2d:8x6" ~domain_x:domain_a
       ~domain_y:domain_b ~points:[| (1.0, 2.0); (3.0, 4.0) |]
   with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "build_rect wrote through a blocked name");
  (match
     Service.build_join svc ~name:"gen/join" ~spec:"edh:8" ~domain:domain_a ~n_r:10 ~n_s:10
       ~sample_r:sample_b ~sample_s:sample_b
   with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "build_join wrote through a blocked name");
  List.iter
    (fun (name, _, version) -> unchanged (name ^ " rebuild") name (version 1) 0)
    versioned;
  check Alcotest.int "no temp file or generation left by the failures" 3
    (List.length (summaries dir));
  List.iter (fun (name, _, _) -> unblock name 1) versioned;
  (* An adaptive swap whose write fails: the tick does not raise, the
     entry keeps its old bits and parks with the error recorded. *)
  Service.enable_adaptive svc;
  ignore
    (or_fail
       (Service.insert svc ~name:"gen/range"
          (Array.init 10_000 (fun i -> float_of_int (i mod 90)))));
  let gen = 1 in
  check Alcotest.string "stale transition persisted" (Snapshot.path ~gen ~dir "gen/range")
    (Option.get (Service.snapshot_file svc "gen/range"));
  block "gen/range" (gen + 1);
  ignore (Service.adaptive_tick svc);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (Service.adaptive_stats svc).Service.rebuild_in_flight
        && Unix.gettimeofday () < deadline
  do
    check Alcotest.int "a failed swap swaps nothing" 0 (Service.adaptive_tick svc);
    Thread.delay 0.005
  done;
  check Alcotest.bool "the failure is recorded" true
    ((Service.adaptive_stats svc).Service.last_rebuild_error <> None);
  let _, _, version = List.hd versioned in
  unchanged "adaptive swap" "gen/range" (version 1) gen

(* Entries carry several generations (the newest different) through a
   1 -> 4 -> 2 -> 1 migration, and every layout serves the newest. *)
let test_generations_migrate () =
  let dir = fresh_dir () in
  let names = List.init 6 (fun i -> Printf.sprintf "m%d/sampling" i) in
  let version i gen =
    Stored.Range
      (Stored.of_sample ~cells:32 ~spec:Selest.Estimator.Sampling ~domain:domain_a
         (Array.map (fun v -> Float.rem (v +. float_of_int ((7 * i) + gen)) 97.0) sample_a))
  in
  List.iteri
    (fun i name ->
      List.iter
        (fun gen -> Snapshot.save ~gen ~dir (gen_entry name "sampling" (version i gen)))
        [ 0; 1; 3 ])
    names;
  List.iter
    (fun shards ->
      let services, skipped = Service.open_sharded ~shards dir in
      check Alcotest.int (Printf.sprintf "%d shards: nothing skipped" shards) 0
        (List.length skipped);
      List.iteri
        (fun i name ->
          let owner = Service.shard_of_name ~shards name in
          let sdir = if shards = 1 then dir else Filename.concat dir (Service.shard_dir_name owner) in
          check (Alcotest.list Alcotest.string)
            (Printf.sprintf "%d shards: every generation of %s moved" shards name)
            (List.map (fun gen -> Snapshot.file_name ~gen name) [ 0; 1; 3 ])
            (List.filter
               (fun f -> Snapshot.decode_file_name f = Some name)
               (summaries sdir));
          check Alcotest.bool
            (Printf.sprintf "%d shards: %s serves its newest generation" shards name)
            true
            (serves services.(owner) name (version i 3)))
        names)
    [ 1; 4; 2; 1 ]

(* [drop] and a new [build] of the same name while the janitor may still
   be retiring the dropped generations: the new entry continues above
   them, so no late unlink takes its file.  The same holds for a name
   none of whose files loaded. *)
let test_drop_then_build_keeps_new () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  or_fail (Service.invalidate svc "orders/amount");
  or_fail (Service.record_inserts svc ~name:"orders/amount" 3);
  or_fail (Service.drop svc "orders/amount");
  ignore
    (or_fail
       (Service.build svc ~name:"orders/amount" ~spec:"sampling" ~domain:domain_a
          ~sample:sample_b));
  let file = Option.get (Service.snapshot_file svc "orders/amount") in
  check Alcotest.string "the new entry continues above the dropped generations"
    (Snapshot.path ~gen:3 ~dir "orders/amount")
    file;
  (* The janitor's work for the dropped entry, run late. *)
  Snapshot.commit ~dir [ ("orders/amount", 2); ("orders/amount", 1) ];
  check Alcotest.bool "the new file survives it" true (Sys.file_exists file);
  let expected = served svc "orders/amount" in
  (* The same race with the real janitor, many times over. *)
  for i = 1 to 25 do
    or_fail (Service.invalidate svc "users/age");
    or_fail (Service.drop svc "users/age");
    ignore
      (or_fail
         (Service.build svc ~name:"users/age" ~spec:"sampling" ~domain:domain_b
            ~sample:(if i mod 2 = 0 then sample_a else sample_b)))
  done;
  let expected_age = served svc "users/age" in
  (* A name whose only file is torn: a new build writes above it. *)
  write_bin (Snapshot.path ~gen:5 ~dir "torn/entry") "selest-catalog v2\ntorn";
  let svc, skipped = Service.open_dir dir in
  check Alcotest.int "torn-only entry reported" 1 (List.length skipped);
  ignore
    (or_fail
       (Service.build svc ~name:"torn/entry" ~spec:"sampling" ~domain:domain_a ~sample:sample_a));
  check Alcotest.string "build above the torn generation"
    (Snapshot.path ~gen:6 ~dir "torn/entry")
    (Option.get (Service.snapshot_file svc "torn/entry"));
  Service.flush svc;
  check Alcotest.int "one file per entry once the janitor is idle" 3
    (List.length (summaries dir));
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "clean reopen" 0 (List.length skipped);
  check Alcotest.bool "rebuilt entry serves the new bits" true
    (List.for_all2 same_bits expected (served svc2 "orders/amount"));
  check Alcotest.bool "raced entry serves its last build" true
    (List.for_all2 same_bits expected_age (served svc2 "users/age"))

(* Once the janitor is idle each entry of every kind has exactly one
   file — the one it serves from — after any mix of persists. *)
let test_janitor_idle_one_file () =
  let dir = fresh_dir () in
  let svc, _ = Service.open_dir dir in
  build_two svc;
  let points = Array.init 300 (fun i -> (float_of_int (i * 7 mod 97), float_of_int (i * i mod 61))) in
  let rect () =
    ignore
      (or_fail
         (Service.build_rect svc ~name:"r" ~spec:"hist2d:8" ~domain_x:domain_a
            ~domain_y:domain_b ~points))
  and join () =
    ignore
      (or_fail
         (Service.build_join svc ~name:"j" ~spec:"edh:16" ~domain:domain_a ~n_r:5000
            ~n_s:4000 ~sample_r:sample_a ~sample_s:sample_b))
  in
  rect ();
  join ();
  for i = 1 to 30 do
    List.iter
      (fun name -> or_fail (Service.record_inserts svc ~name i))
      [ "orders/amount"; "users/age"; "r"; "j" ];
    if i mod 7 = 0 then begin
      or_fail (Service.invalidate svc "r");
      ignore (or_fail (Service.rebuild svc ~name:"orders/amount" ~sample:sample_b));
      rect ();
      join ()
    end
  done;
  Service.flush svc;
  let names = Service.names svc in
  check (Alcotest.list Alcotest.string) "exactly the served files remain"
    (List.sort String.compare
       (List.map (fun n -> Filename.basename (Option.get (Service.snapshot_file svc n))) names))
    (summaries dir);
  let svc2, skipped = Service.open_dir dir in
  check Alcotest.int "clean reopen" 0 (List.length skipped);
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " reopens bit-identical") true
        (List.for_all2 same_bits (served svc name) (served svc2 name));
      check Alcotest.int (name ^ " insert count reopens")
        (Option.get (Service.info svc name)).Service.inserts
        (Option.get (Service.info svc2 name)).Service.inserts)
    names

let () =
  Alcotest.run "catalog"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order and stats" `Quick test_lru_eviction;
          Alcotest.test_case "replace, remove, peek" `Quick test_lru_replace;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic save / load round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "corrupt entries skipped and reported" `Quick
            test_snapshot_corrupt_skip;
          Alcotest.test_case "orphaned tmp files swept and reported" `Quick
            test_snapshot_orphan_tmp_sweep;
          Alcotest.test_case "v2: every truncation and byte flip is an Error" `Quick
            test_v2_damage_is_error;
          Alcotest.test_case "v2: damaged files skipped and reported" `Quick
            test_v2_damage_skipped;
          Alcotest.test_case "v2: oversized counts refused" `Quick test_v2_oversized_counts;
          Alcotest.test_case "text and binary decoders agree on field values" `Quick
            test_text_binary_agree;
          Alcotest.test_case "v1 files open, answer, and persist as v2" `Quick test_v1_compat;
          QCheck_alcotest.to_alcotest prop_snapshot_bits;
        ] );
      ( "service",
        [
          Alcotest.test_case "kill-and-reopen round trip" `Quick test_service_reopen;
          Alcotest.test_case "multi-kind entries survive reopen" `Quick test_multikind_reopen;
          Alcotest.test_case "batch answers independent of batch composition" `Quick
            test_answer_batch_independent;
          Alcotest.test_case "answer_into: identity and zero allocation" `Quick
            test_answer_into;
          Alcotest.test_case "join_estimate: constant allocation per call" `Quick
            test_join_estimate_alloc;
          Alcotest.test_case "insert budget staleness" `Quick test_staleness;
          Alcotest.test_case "invalidate, maintenance sync, drop" `Quick
            test_invalidate_and_sync;
          Alcotest.test_case "cache pressure: hits, misses, evictions" `Quick
            test_cache_pressure;
          Alcotest.test_case "build errors are Errors" `Quick test_build_errors;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "rebuild swap is atomic, reads never torn" `Quick
            test_adaptive_swap_never_tears;
          Alcotest.test_case "kill during rebuild recovers intact" `Quick
            test_adaptive_kill_during_rebuild_recovers;
          Alcotest.test_case "drain reaps the in-flight rebuild" `Quick
            test_adaptive_drain_reaps_pending;
          Alcotest.test_case "crash bound: reopened stale, rebuilds at min_rebuild_sample"
            `Quick test_adaptive_crash_bound;
          Alcotest.test_case "rebuild keeps inserts since launch" `Quick
            test_adaptive_rebuild_keeps_late_inserts;
          Alcotest.test_case "rebuild keeps pending feedback" `Quick
            test_adaptive_rebuild_keeps_feedback;
          Alcotest.test_case "rebuilds run in launch order" `Quick
            test_adaptive_rebuilds_run_in_launch_order;
        ] );
      ( "genfiles",
        [
          Alcotest.test_case "file names: every generation, '@' escaped" `Quick
            test_generation_names;
          Alcotest.test_case "every crash state serves old or new bits" `Quick
            test_crash_states;
          Alcotest.test_case "a failed write keeps the old bits and generation" `Quick
            test_failed_write_keeps_old;
          Alcotest.test_case "several generations migrate 1 -> 4 -> 2 -> 1" `Quick
            test_generations_migrate;
          Alcotest.test_case "drop then build keeps the new file" `Quick
            test_drop_then_build_keeps_new;
          Alcotest.test_case "janitor idle: one file per entry" `Quick
            test_janitor_idle_one_file;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shard_of_name is pinned and total" `Quick
            test_shard_of_name_stable;
          Alcotest.test_case "layout migration 1 -> 4 -> 2 -> 1 round trip" `Quick
            test_sharded_migration_round_trip;
          Alcotest.test_case "recovery messages name the shard" `Quick
            test_sharded_skip_reports_shard;
          Alcotest.test_case "shard_of_name matches the reference hash, no allocation"
            `Quick test_shard_of_name_matches_reference;
        ] );
    ]
