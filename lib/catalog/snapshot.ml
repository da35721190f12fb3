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

(* [file_name] escapes every byte outside [A-Za-z0-9._-], '@' included,
   so the '@' that introduces a generation number is unambiguous: entry
   [a@1] is [a%401.summary], never generation 1 of [a]. *)
let file_name ?(gen = 0) name =
  if gen < 0 then invalid_arg "Snapshot.file_name: negative generation";
  let buf = Buffer.create (String.length name + 16) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  if gen > 0 then Printf.bprintf buf "@%d" gen;
  Buffer.add_string buf extension;
  Buffer.contents buf

(* Inverse of [file_name]: strip the extension and the generation, then
   percent-decode.  Total — a name that is not a snapshot file name
   (wrong suffix, truncated or non-hex escape, a generation that is not
   the decimal [file_name] writes) is [None], so directory scans can
   tell snapshot files from strangers without loading them. *)
let decode_generation file =
  if not (Filename.check_suffix file extension) then None
  else begin
    let stem = Filename.chop_suffix file extension in
    let stem, gen =
      match String.rindex_opt stem '@' with
      | None -> (stem, Some 0)
      | Some i ->
        let digits = String.sub stem (i + 1) (String.length stem - i - 1) in
        ( String.sub stem 0 i,
          if
            digits <> ""
            && String.length digits <= 18
            && digits.[0] <> '0'
            && String.for_all (fun c -> c >= '0' && c <= '9') digits
          then int_of_string_opt digits
          else None )
    in
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
    match gen with
    | None -> None
    | Some gen -> Option.map (fun name -> (name, gen)) (go 0)
  end

let decode_file_name file = Option.map fst (decode_generation file)

let path ?gen ~dir name = Filename.concat dir (file_name ?gen name)

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

let save ?gen ~dir entry =
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
  let final = path ?gen ~dir entry.name in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    output_string oc body;
    let sum = Bytes.create 8 in
    Bytes.set_int64_le sum 0 (checksum body ~len:(String.length body));
    output_bytes oc sum;
    close_out oc;
    Sys.rename tmp final
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

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

type generations = {
  g_name : string;
  g_top : int;
  g_served : (int * entry) option;
}

let load_generations ?shard ~dir () =
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
     rename; the generation it was meant to become never existed, so the
     orphan is pure garbage — sweep it, and report the sweep like a
     corrupt-file skip. *)
  let orphans =
    List.filter (fun f -> Filename.check_suffix f tmp_extension) listing
    |> List.filter_map (fun f ->
           match Sys.remove (Filename.concat dir f) with
           | () -> Some (f, tag "orphaned temp file from an interrupted write; deleted")
           | exception Sys_error msg ->
             Some (f, tag ("orphaned temp file; could not delete: " ^ msg)))
  in
  (* Group every generation under its entry, in file-name order of each
     entry's first file. *)
  let groups = Hashtbl.create 16 and order = ref [] and strangers = ref [] in
  List.iter
    (fun file ->
      if Filename.check_suffix file extension then
        match decode_generation file with
        | None ->
          strangers := (file, tag "not a snapshot file name; left in place") :: !strangers
        | Some (name, gen) -> (
          match Hashtbl.find_opt groups name with
          | Some files -> Hashtbl.replace groups name ((gen, file) :: files)
          | None ->
            order := name :: !order;
            Hashtbl.replace groups name [ (gen, file) ]))
    listing;
  (* Newest first: the first generation that loads is served, each newer
     one that does not is reported, and older ones are never read — they
     are what the janitor had not unlinked yet. *)
  let scan name =
    let files = List.sort (fun (a, _) (b, _) -> Int.compare b a) (Hashtbl.find groups name) in
    let rec newest skipped = function
      | [] -> (None, skipped)
      | (gen, file) :: older -> (
        match load ~path:(Filename.concat dir file) with
        | Ok e when String.equal e.name name -> (Some (gen, e), skipped)
        | Ok e ->
          newest ((file, Printf.sprintf "holds entry %S, not %S" e.name name) :: skipped) older
        | Error msg -> newest ((file, msg) :: skipped) older)
    in
    let served, skipped = newest [] files in
    let why msg =
      match served with
      | Some (gen, _) -> tag (Printf.sprintf "%s; generation %d serves" msg gen)
      | None -> tag msg
    in
    ( { g_name = name; g_top = fst (List.hd files); g_served = served },
      List.rev_map (fun (file, msg) -> (file, why msg)) skipped )
  in
  let found = List.rev_map scan !order in
  (List.map fst found, orphans @ List.rev !strangers @ List.concat_map snd found)

let load_dir ?shard ~dir () =
  let found, skipped = load_generations ?shard ~dir () in
  (List.filter_map (fun g -> Option.map snd g.g_served) found, skipped)

(* Every generation: a dropped entry leaves nothing a reopen could
   serve.  A file the janitor unlinked first is already gone. *)
let delete ~dir name =
  Array.iter
    (fun file ->
      match decode_generation file with
      | Some (n, _) when String.equal n name -> (
        let p = Filename.concat dir file in
        try Sys.remove p with Sys_error _ when not (Sys.file_exists p) -> ())
      | _ -> ())
    (Sys.readdir dir)

(* [fsync] through a read-only descriptor: Linux flushes the file's (or
   directory's) data and metadata whatever the open mode.  [false] on
   any failure, the file gone included. *)
let fsync path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    let ok = match Unix.fsync fd with () -> true | exception Unix.Unix_error _ -> false in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    ok

let commit ~dir written =
  let newest = Hashtbl.create 8 in
  List.iter
    (fun (name, gen) ->
      match Hashtbl.find_opt newest name with
      | Some g when g >= gen -> ()
      | _ -> Hashtbl.replace newest name gen)
    written;
  (* A generation that cannot be made durable (gone: its entry was
     dropped) replaces nothing. *)
  Hashtbl.filter_map_inplace
    (fun name gen -> if fsync (path ~gen ~dir name) then Some gen else None)
    newest;
  if Hashtbl.length newest > 0 && fsync dir then
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | files ->
      Array.iter
        (fun file ->
          match decode_generation file with
          | Some (name, gen) -> (
            match Hashtbl.find_opt newest name with
            | Some durable when gen < durable -> (
              try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
            | _ -> ())
          | None -> ())
        files
