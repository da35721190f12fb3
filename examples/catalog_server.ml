(* Catalog server: the ANALYZE -> snapshot -> serve lifecycle end to end.

   Builds summaries for two attributes into a snapshot directory, kills
   the first service, reopens the directory cold (as a restarted server
   would), and answers a mixed batch of range queries without ever
   touching the relations again — the optimizer-side serving story of
   docs/CATALOG.md.

   Run with:  dune exec examples/catalog_server.exe *)

module Cat = Catalog.Service
module E = Workload.Experiment

let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_catalog_example"

let () =
  (* Start from an empty snapshot directory so reruns behave the same. *)
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);

  (* --- ANALYZE: fit estimators on samples, snapshot the summaries --- *)
  let svc, _ = Cat.open_dir dir in
  List.iter
    (fun (file, spec) ->
      let relation = Data.Catalog.find ~seed:42L file in
      let sample = E.sample_of relation ~seed:7L ~n:2000 in
      match
        Cat.build svc
          ~name:(file ^ "/" ^ spec)
          ~spec ~domain:(E.domain_of relation) ~sample
      with
      | Ok info ->
        Printf.printf "analyzed %-14s %s, %d cells -> %s\n" info.Cat.name info.Cat.spec
          info.Cat.cells
          (Option.get (Cat.snapshot_file svc info.Cat.name))
      | Error msg -> failwith msg)
    [ ("n(20)", "kernel"); ("arap1", "hybrid") ];
  (* An orderly exit waits for the snapshot janitor: what was written is
     durable, and each entry is down to one file. *)
  Cat.flush svc;

  (* --- Restart: reopen the directory; only the snapshots survive --- *)
  let svc, skipped = Cat.open_dir dir in
  assert (skipped = []);
  Printf.printf "\nreopened %s with %d entries, cache cold\n\n" dir
    (List.length (Cat.names svc));

  (* --- Serve: one batch, grouped per entry, no data access --- *)
  let batch =
    [|
      ("n(20)/kernel", 400_000.0, 600_000.0);
      ("arap1/hybrid", 100_000.0, 300_000.0);
      ("n(20)/kernel", 0.0, 1_048_575.0);
      ("arap1/hybrid", 1_500_000.0, 1_600_000.0);
    |]
  in
  let answers = Cat.answer svc batch in
  Array.iteri
    (fun i (name, a, b) ->
      Printf.printf "%-14s [%9.0f, %9.0f] -> selectivity %.6f\n" name a b answers.(i))
    batch;

  (* --- Staleness: the relation changed; the entry says so --- *)
  Result.get_ok (Cat.record_inserts svc ~name:"n(20)/kernel" 12_000);
  let info = Option.get (Cat.info svc "n(20)/kernel") in
  Printf.printf "\nafter 12,000 inserts: %s stale=%b (budget %d)\n" info.Cat.name
    info.Cat.stale (Cat.config svc).Cat.rebuild_after_inserts;

  let relation = Data.Catalog.find ~seed:42L "n(20)" in
  let fresh = E.sample_of relation ~seed:8L ~n:2000 in
  (match Cat.rebuild svc ~name:"n(20)/kernel" ~sample:fresh with
  | Ok info ->
    Printf.printf "rebuilt %s: stale=%b -> %s\n" info.Cat.name info.Cat.stale
      (Option.get (Cat.snapshot_file svc info.Cat.name))
  | Error msg -> failwith msg);

  let s = Cat.cache_stats svc in
  Printf.printf "\ncache: %d hits, %d misses, %d evictions\n" s.Catalog.Lru.hits
    s.Catalog.Lru.misses s.Catalog.Lru.evictions;
  Cat.flush svc
