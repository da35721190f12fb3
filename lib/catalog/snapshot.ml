type entry = {
  name : string;
  spec : string;
  inserts : int;
  stale : bool;
  provenance : string option;
  summary : Selest.Stored.any;
}

(* v2 is what [save] writes; v1, the text format before it, is still
   read, and each v1 file becomes v2 at its next save. *)
let magic = "selest-catalog v2"
let magic_v1 = "selest-catalog v1"
let extension = ".summary"

let file_name name =
  let buf = Buffer.create (String.length name + 8) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf ^ extension

(* Inverse of [file_name]: strip the extension, then percent-decode.
   Total — a name that is not a percent-encoded snapshot file name
   (wrong suffix, truncated or non-hex escape) is [None], so directory
   scans can tell snapshot files from strangers without loading them. *)
let decode_file_name file =
  if not (Filename.check_suffix file extension) then None
  else begin
    let stem = Filename.chop_suffix file extension in
    let buf = Buffer.create (String.length stem) in
    let n = String.length stem in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else if stem.[i] <> '%' then begin
        Buffer.add_char buf stem.[i];
        go (i + 1)
      end
      else if i + 2 >= n then None
      else
        match (hex stem.[i + 1], hex stem.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ -> None
    in
    go 0
  end

let path ~dir name = Filename.concat dir (file_name name)

(* FNV-1a-64 over [s.[0, len)] read as little-endian 8-byte words (the
   last one zero-padded), then over [len].  Each step is a bijection of
   the state for a fixed word, so any one changed word, and hence any
   one changed byte, changes the result. *)
let checksum s ~len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L and i = ref 0 in
  while !i + 8 <= len do
    h := Int64.mul (Int64.logxor !h (String.get_int64_le s !i)) prime;
    i := !i + 8
  done;
  let tail = ref 0L in
  for k = len - 1 downto !i do
    tail := Int64.logor (Int64.shift_left !tail 8) (Int64.of_int (Char.code s.[k]))
  done;
  h := Int64.mul (Int64.logxor !h !tail) prime;
  Int64.mul (Int64.logxor !h (Int64.of_int len)) prime

let save ~dir entry =
  if String.contains entry.name '\n' then
    invalid_arg "Snapshot.save: entry name must not contain newlines";
  if String.contains entry.spec '\n' then
    invalid_arg "Snapshot.save: spec must not contain newlines";
  (match entry.provenance with
  | Some p when String.contains p '\n' ->
    invalid_arg "Snapshot.save: provenance must not contain newlines"
  | _ -> ());
  let payload = Selest.Stored.any_to_binary entry.summary in
  let buf = Buffer.create (String.length payload + 256) in
  Printf.bprintf buf "%s\nname %s\nspec %s\ninserts %d\nstale %d\n" magic entry.name
    entry.spec entry.inserts
    (if entry.stale then 1 else 0);
  Option.iter (Printf.bprintf buf "provenance %s\n") entry.provenance;
  Printf.bprintf buf "payload %s %d\n"
    (Selest.Stored.kind_name (Selest.Stored.any_kind entry.summary))
    (String.length payload);
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  let final = path ~dir entry.name in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc body;
     let sum = Bytes.create 8 in
     Bytes.set_int64_le sum 0 (checksum body ~len:(String.length body));
     output_bytes oc sum;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp final

(* [field key line] is the remainder of [line] after "key ", or None. *)
let field key line =
  let prefix = key ^ " " in
  let lp = String.length prefix in
  if String.length line >= lp && String.sub line 0 lp = prefix then
    Some (String.sub line lp (String.length line - lp))
  else None

let ( let* ) = Result.bind

(* A v2 payload: the [payload <kind> <bytes>] line at [pos], then
   exactly that many bytes and the checksum of everything before it.
   The length is checked against the file before the checksum is
   computed or anything is decoded. *)
let parse_payload contents pos line =
  let len = String.length contents in
  let* kind, bytes =
    match Option.map (String.split_on_char ' ') (field "payload" line) with
    | Some [ kind; n ] -> (
      match (Selest.Stored.kind_of_name kind, int_of_string_opt n) with
      | Ok kind, Some n when n >= 0 -> Ok (kind, n)
      | _ -> Error "malformed payload line")
    | _ -> Error "missing payload line"
  in
  if bytes > len - pos || len - pos - bytes <> 8 then
    Error
      (Printf.sprintf "payload of %d bytes at offset %d does not fit a %d-byte file" bytes
         pos len)
  else if
    not
      (Int64.equal
         (checksum contents ~len:(pos + bytes))
         (String.get_int64_le contents (pos + bytes)))
  then Error "checksum mismatch"
  else Selest.Stored.any_of_binary kind contents ~pos ~len:bytes

let parse contents =
  let len = String.length contents in
  let pos = ref 0 in
  (* The next line as [String.split_on_char '\n'] would cut it: the text
     up to the next newline, or to the end; [None] past the end. *)
  let next () =
    if !pos > len then None
    else begin
      let stop = Option.value (String.index_from_opt contents !pos '\n') ~default:len in
      let line = String.sub contents !pos (stop - !pos) in
      pos := stop + 1;
      Some line
    end
  in
  let m = next () in
  let name_line = next () in
  let spec_line = next () in
  let inserts_line = next () in
  let stale_line = next () in
  match (m, name_line, spec_line, inserts_line, stale_line) with
  | Some m, Some name_line, Some spec_line, Some inserts_line, Some stale_line ->
    let version = String.trim m in
    if version <> magic && version <> magic_v1 then Error "missing selest-catalog header"
    else
      let* name =
        Option.to_result ~none:"missing name line" (field "name" name_line)
      in
      let* spec =
        Option.to_result ~none:"missing spec line" (field "spec" spec_line)
      in
      let* inserts =
        match Option.bind (field "inserts" inserts_line) int_of_string_opt with
        | Some n when n >= 0 -> Ok n
        | Some _ -> Error "negative insert count"
        | None -> Error "missing or malformed inserts line"
      in
      let* stale =
        match field "stale" stale_line with
        | Some "0" -> Ok false
        | Some "1" -> Ok true
        | Some _ -> Error "malformed stale flag"
        | None -> Error "missing stale line"
      in
      (* The provenance line is optional (introduced after the first v1
         files shipped): present iff the next line carries the key.  No
         payload line starts with "provenance " — v2's start with
         "payload ", v1's with "selest-stored" — so peeking is
         unambiguous, and pre-provenance snapshots parse unchanged. *)
      let provenance =
        let before = !pos in
        match Option.bind (next ()) (field "provenance") with
        | Some p -> Some p
        | None ->
          pos := before;
          None
      in
      let* summary =
        if version = magic_v1 then
          Selest.Stored.any_of_string
            (if !pos > len then "" else String.sub contents !pos (len - !pos))
        else
          match next () with
          | Some line -> parse_payload contents !pos line
          | None -> Error "missing payload line"
      in
      let* () =
        (* A snapshot whose spec no longer parses cannot be rebuilt when it
           goes stale; treat it as corrupt now rather than at rebuild time.
           The payload decides which spec syntax applies, so the summary
           is decoded first. *)
        let describe = function
          | Ok _ -> Ok ()
          | Error e -> Error (Printf.sprintf "unparseable spec %S: %s" spec e)
        in
        match Selest.Stored.any_kind summary with
        | Selest.Stored.Range_kind ->
          describe (Selest.Estimator.spec_of_string spec)
        | Selest.Stored.Rect_kind -> describe (Selest.Stored.rect_spec_of_string spec)
        | Selest.Stored.Join_kind -> describe (Selest.Stored.join_spec_of_string spec)
      in
      Ok { name; spec; inserts; stale; provenance; summary }
  | _ -> Error "truncated header"

let load ~path =
  match
    In_channel.with_open_bin path (fun ic -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "truncated file"
  | contents -> parse contents

let tmp_extension = extension ^ ".tmp"

let load_dir ?shard ~dir () =
  (* Once the catalog is sharded, every skip/sweep message names the
     shard it came from: "a.summary: corrupt" alone is ambiguous when N
     directories each hold an a.summary. *)
  let tag msg =
    match shard with
    | None -> msg
    | Some i -> Printf.sprintf "shard %d: %s" i msg
  in
  let listing = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  (* A *.summary.tmp file is a write that died between temp-write and
     rename; its final file (if any) is intact, so the orphan is pure
     garbage — sweep it, and report the sweep like a corrupt-file skip. *)
  let orphans =
    List.filter (fun f -> Filename.check_suffix f tmp_extension) listing
    |> List.filter_map (fun f ->
           match Sys.remove (Filename.concat dir f) with
           | () -> Some (f, tag "orphaned temp file from an interrupted write; deleted")
           | exception Sys_error msg ->
             Some (f, tag ("orphaned temp file; could not delete: " ^ msg)))
  in
  let files = List.filter (fun f -> Filename.check_suffix f extension) listing in
  List.fold_left
    (fun (ok, skipped) file ->
      match load ~path:(Filename.concat dir file) with
      | Ok e -> (e :: ok, skipped)
      | Error msg -> (ok, (file, tag msg) :: skipped))
    ([], List.rev orphans) files
  |> fun (ok, skipped) -> (List.rev ok, List.rev skipped)

let delete ~dir name =
  let p = path ~dir name in
  if Sys.file_exists p then Sys.remove p
