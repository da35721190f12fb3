(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus timing micro-benchmarks and ablations.

   Usage:
     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe -- list    lists targets
     dune exec bench/main.exe -- fig4 fig12   runs a subset
     dune exec bench/main.exe -- --jobs 4 fig8   parallel evaluation
     dune exec bench/main.exe -- --telemetry BENCH_telemetry.json fig12

   Seeds are fixed so every run reproduces the same numbers — for every
   --jobs value: queries are evaluated in parallel but reduced in query
   order, and with or without --telemetry.  EXPERIMENTS.md records the
   measured values against the paper's.

   Besides stdout, every run serializes its measured MREs and timings to
   BENCH_results.json (schema: target -> { wall_s, build_s, queries_per_s,
   mre_by_spec }) so perf and accuracy can be diffed across commits.
   --telemetry FILE additionally enables the telemetry subsystem and dumps
   build-phase timings, query-latency histograms, pool counters, and the
   span trace as JSON (schema: docs/TELEMETRY.md). *)

module Est = Selest.Estimator
module E = Workload.Experiment
module G = Workload.Generate
module M = Workload.Metrics
module K = Kernels.Kernel

let data_seed = 42L
let sample_seed = 7L
let query_seed = 9L

(* Parallelism degree for query evaluation, set from --jobs in main. *)
let jobs = ref (Parallel.Map.default_jobs ())

(* Telemetry output file, set from --telemetry in main.  Enabling
   telemetry times build phases, query latencies, and pool activity; MREs
   are unaffected (guarded by test_telemetry).  Schema: docs/TELEMETRY.md. *)
let telemetry_path : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_results.json                        *)
(* ------------------------------------------------------------------ *)

module Record = struct
  (* One row of the micro target: per-estimate cost of the scalar
     closure path against the compiled batch path (docs/PERFORMANCE.md
     explains how each number is measured). *)
  type micro_row = {
    scalar_ns : float;
    batch_ns : float;
    scalar_words : float;  (* minor-heap words per scalar estimate *)
    batch_words : float;  (* minor-heap words per batched estimate *)
    speedup : float;
  }

  type entry = {
    mutable wall_s : float;
    mutable build_s : float;  (* summed estimator-construction time *)
    mutable queries : int;  (* queries evaluated through mre_of *)
    mutable query_s : float;  (* summed query-evaluation time *)
    mutable mres : (string * float) list;  (* "<file>/<spec>" -> MRE, reversed *)
    mutable extras : (string * float) list;  (* extra numeric fields, reversed *)
    mutable micro : (string * micro_row) list;  (* op -> micro_row, reversed *)
    mutable groups : (string * (string * (string * float) list) list) list;
        (* nested numeric sections, reversed at both levels:
           section -> group -> fields, e.g.
           "per_shard" -> "0" -> [("p99_ms", ...)] (schema v5) *)
  }

  let table : (string, entry) Hashtbl.t = Hashtbl.create 32
  let order : string list ref = ref []
  let current : entry option ref = ref None

  let start target =
    let e =
      {
        wall_s = 0.0;
        build_s = 0.0;
        queries = 0;
        query_s = 0.0;
        mres = [];
        extras = [];
        micro = [];
        groups = [];
      }
    in
    Hashtbl.replace table target e;
    order := target :: !order;
    current := Some e

  let finish wall_s =
    match !current with
    | Some e ->
      e.wall_s <- wall_s;
      current := None
    | None -> ()

  (* Accumulate one estimator evaluation.  Re-evaluations of the same
     file/spec key (oracle searches revisit bin counts) keep the latest
     MRE; search order is deterministic, so so is the file. *)
  let note ~key ~mre ~build_s ~queries ~query_s =
    match !current with
    | None -> ()
    | Some e ->
      e.build_s <- e.build_s +. build_s;
      e.queries <- e.queries + queries;
      e.query_s <- e.query_s +. query_s;
      e.mres <- (key, mre) :: List.remove_assoc key e.mres

  (* Attribute query volume and time measured outside mre_of (the catalog
     target times whole batches, not per-estimator probes). *)
  let note_queries ~queries ~query_s =
    match !current with
    | None -> ()
    | Some e ->
      e.queries <- e.queries + queries;
      e.query_s <- e.query_s +. query_s

  (* Target-specific numeric fields, serialized next to queries_per_s
     (e.g. the catalog target's "cache_hit_rate"). *)
  let note_extra ~key value =
    match !current with
    | None -> ()
    | Some e -> e.extras <- (key, value) :: List.remove_assoc key e.extras

  (* One op's scalar-vs-batch measurement from the micro target. *)
  let note_micro ~op row =
    match !current with
    | None -> ()
    | Some e -> e.micro <- (op, row) :: List.remove_assoc op e.micro

  (* One group of a nested section, e.g. the serve target's per-shard
     latencies ("per_shard" -> shard id -> fields) or its open-loop rate
     sweep ("open_loop_by_rate" -> offered rate -> fields). *)
  let note_group ~section ~group fields =
    match !current with
    | None -> ()
    | Some e ->
      let groups = match List.assoc_opt section e.groups with Some g -> g | None -> [] in
      let groups = (group, fields) :: List.remove_assoc group groups in
      e.groups <- (section, groups) :: List.remove_assoc section e.groups

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* MREs print with full precision so that a diff of two BENCH_results.json
     files shows bit-level accuracy drift; timings are noise past ms. *)
  let json_num (fmt : (float -> string, unit, string) format) x =
    if Float.is_nan x || Float.abs x = Float.infinity then "null" else Printf.sprintf fmt x

  let write path =
    let targets = List.rev !order in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"schema_version\": 8,\n";
    (* Timings compare only between like hosts: the CPUs this process may
       run on (what [nproc] prints), the compiler, and the build profile. *)
    Buffer.add_string buf
      (Printf.sprintf
         "  \"host\": { \"nproc\": %d, \"ocaml_version\": \"%s\", \"profile\": \"%s\" },\n"
         (Domain.recommended_domain_count ())
         (json_escape Sys.ocaml_version) (json_escape Build_profile.name));
    Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" !jobs);
    Buffer.add_string buf "  \"targets\": {\n";
    List.iteri
      (fun i target ->
        let e = Hashtbl.find table target in
        let qps = if e.query_s > 0.0 then float_of_int e.queries /. e.query_s else 0.0 in
        Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n" (json_escape target));
        Buffer.add_string buf
          (Printf.sprintf "      \"wall_s\": %s,\n" (json_num "%.3f" e.wall_s));
        Buffer.add_string buf
          (Printf.sprintf "      \"build_s\": %s,\n" (json_num "%.3f" e.build_s));
        Buffer.add_string buf
          (Printf.sprintf "      \"queries_per_s\": %s,\n" (json_num "%.1f" qps));
        List.iter
          (fun (key, v) ->
            Buffer.add_string buf
              (Printf.sprintf "      \"%s\": %s,\n" (json_escape key) (json_num "%.6g" v)))
          (List.rev e.extras);
        if e.micro <> [] then begin
          Buffer.add_string buf "      \"micro_by_op\": {";
          List.iteri
            (fun j (op, r) ->
              if j > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf
                (Printf.sprintf
                   "\n        \"%s\": { \"scalar_ns_per_estimate\": %s, \
                    \"batch_ns_per_estimate\": %s, \
                    \"scalar_minor_words_per_estimate\": %s, \
                    \"batch_minor_words_per_estimate\": %s, \"speedup\": %s }"
                   (json_escape op) (json_num "%.1f" r.scalar_ns)
                   (json_num "%.1f" r.batch_ns)
                   (json_num "%.2f" r.scalar_words)
                   (json_num "%.2f" r.batch_words)
                   (json_num "%.2f" r.speedup)))
            (List.rev e.micro);
          Buffer.add_string buf "\n      },\n"
        end;
        List.iter
          (fun (section, groups) ->
            Buffer.add_string buf (Printf.sprintf "      \"%s\": {" (json_escape section));
            List.iteri
              (fun j (group, fields) ->
                if j > 0 then Buffer.add_string buf ",";
                Buffer.add_string buf
                  (Printf.sprintf "\n        \"%s\": { " (json_escape group));
                List.iteri
                  (fun k (key, v) ->
                    if k > 0 then Buffer.add_string buf ", ";
                    Buffer.add_string buf
                      (Printf.sprintf "\"%s\": %s" (json_escape key) (json_num "%.6g" v)))
                  fields;
                Buffer.add_string buf " }")
              (List.rev groups);
            Buffer.add_string buf "\n      },\n")
          (List.rev e.groups);
        Buffer.add_string buf "      \"mre_by_spec\": {";
        List.iteri
          (fun j (key, mre) ->
            if j > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf
              (Printf.sprintf "\n        \"%s\": %s" (json_escape key) (json_num "%.17g" mre)))
          (List.rev e.mres);
        if e.mres <> [] then Buffer.add_string buf "\n      ";
        Buffer.add_string buf "}\n";
        Buffer.add_string buf (if i = List.length targets - 1 then "    }\n" else "    },\n"))
      targets;
    Buffer.add_string buf "  }\n}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc
end

let dataset_cache : (string, Data.Dataset.t) Hashtbl.t = Hashtbl.create 16

let dataset name =
  match Hashtbl.find_opt dataset_cache name with
  | Some ds -> ds
  | None ->
    let ds = Data.Catalog.find ~seed:data_seed name in
    Hashtbl.replace dataset_cache name ds;
    ds

let headline_names = [ "u(20)"; "n(20)"; "e(20)"; "arap1"; "arap2"; "rr1(22)"; "rr2(22)"; "iw" ]

let sample ?(n = E.paper_sample_size) ds = E.sample_of ds ~seed:sample_seed ~n

let queries ?(fraction = 0.01) ?(count = G.paper_count) ds =
  G.size_separated ds ~seed:query_seed ~fraction ~count

let pct x = 100.0 *. x

(* The single choke point of every MRE the harness prints: builds the
   estimator (timed), evaluates the query file with --jobs domains (timed),
   and records the result for BENCH_results.json. *)
let mre_of ds ~sample:s ~queries:qs spec =
  let t0 = Unix.gettimeofday () in
  let estimate = E.estimate_fn_of_spec ds ~sample:s spec in
  let t1 = Unix.gettimeofday () in
  let summary = E.summary_of_fn ~jobs:!jobs ds ~queries:qs estimate in
  let t2 = Unix.gettimeofday () in
  Record.note
    ~key:(Data.Dataset.name ds ^ "/" ^ Est.spec_name spec)
    ~mre:summary.M.mre ~build_s:(t1 -. t0) ~queries:(Array.length qs) ~query_s:(t2 -. t1);
  summary.M.mre

let kernel_spec ?(kernel = K.Epanechnikov) ?(boundary = Kde.Estimator.Boundary_kernels) bandwidth
    =
  Est.Kernel { kernel; boundary; bandwidth }

let header title = Printf.printf "\n== %s ==\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 2: properties of the data files                               *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "table2: data files (paper Table 2)";
  Printf.printf "%-8s %-4s %-9s %-9s %-8s\n" "file" "p" "records" "distinct" "max_dup";
  List.iter
    (fun name ->
      let ds = dataset name in
      Printf.printf "%-8s %-4d %-9d %-9d %-8d\n" name (Data.Dataset.bits ds)
        (Data.Dataset.size ds)
        (Data.Dataset.distinct_count ds)
        (Data.Dataset.max_duplicate_frequency ds))
    Data.Catalog.names

(* ------------------------------------------------------------------ *)
(* Figure 3: signed absolute error of 1% queries by position           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "fig3: signed absolute error vs query position (u(20), kernel, no boundary treatment)";
  let ds = dataset "u(20)" in
  let s = sample ds in
  let qs = G.positional_sweep ds ~fraction:0.01 ~count:41 in
  let est =
    Est.build
      (kernel_spec ~boundary:Kde.Estimator.No_treatment Est.Normal_scale_bandwidth)
      ~domain:(E.domain_of ds) s
  in
  let errs = M.error_by_position ds (fun ~a ~b -> Est.selectivity est ~a ~b) qs in
  let domain = float_of_int (Data.Dataset.domain_size ds) in
  Printf.printf "%-10s %-12s\n" "pos%" "signed_error";
  Array.iter
    (fun (e : M.position_error) ->
      Printf.printf "%-10.1f %-12.1f\n" (100.0 *. e.M.position /. domain) e.M.signed_error)
    errs;
  let edge = Float.max (Float.abs errs.(0).M.signed_error) (Float.abs errs.(40).M.signed_error) in
  let center = Float.abs errs.(20).M.signed_error in
  Printf.printf "summary: |error| at edges %.0f records vs %.0f at center\n" edge center

(* ------------------------------------------------------------------ *)
(* Figures 4 & 5: MRE vs number of bins                                *)
(* ------------------------------------------------------------------ *)

let bin_grid = [ 2; 5; 10; 20; 40; 80; 160; 320; 640; 1280 ]

let mre_vs_bins ds =
  let s = sample ds in
  let qs = queries ds in
  List.map
    (fun k -> (k, mre_of ds ~sample:s ~queries:qs (Est.Equi_width (Est.Fixed_bins k))))
    bin_grid

let fig4 () =
  header "fig4: MRE vs number of bins (EWH, n(20), 1% queries) + pure sampling line";
  let ds = dataset "n(20)" in
  let s = sample ds in
  let qs = queries ds in
  let sampling = mre_of ds ~sample:s ~queries:qs Est.Sampling in
  Printf.printf "%-8s %-8s\n" "bins" "mre%";
  List.iter (fun (k, m) -> Printf.printf "%-8d %-8.2f\n" k (pct m)) (mre_vs_bins ds);
  Printf.printf "%-8s %-8.2f\n" "sampling" (pct sampling)

let fig5 () =
  header "fig5: MRE vs number of bins for domain cardinalities p=10,15,20 (EWH, normal data)";
  let files = [ "n(10)"; "n(15)"; "n(20)" ] in
  let results = List.map (fun name -> (name, mre_vs_bins (dataset name))) files in
  Printf.printf "%-8s" "bins";
  List.iter (fun name -> Printf.printf " %-9s" name) files;
  print_newline ();
  List.iteri
    (fun i k ->
      Printf.printf "%-8d" k;
      List.iter (fun (_, rows) -> Printf.printf " %-9.2f" (pct (snd (List.nth rows i)))) results;
      print_newline ())
    bin_grid;
  let best rows = List.fold_left (fun acc (_, m) -> Float.min acc m) Float.infinity rows in
  Printf.printf "best:   ";
  List.iter (fun (_, rows) -> Printf.printf " %-9.2f" (pct (best rows))) results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 6: MRE vs sample size                                        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "fig6: MRE(n(20), 1%) vs sample size: sampling, EWH(NS), kernel(NS)";
  let ds = dataset "n(20)" in
  let qs = queries ds in
  let sizes = [ 200; 500; 1000; 2000; 5000; 10000 ] in
  Printf.printf "%-8s %-10s %-10s %-10s\n" "n" "sampling%" "ewh%" "kernel%";
  List.iter
    (fun n ->
      let s = sample ~n ds in
      let m_s = mre_of ds ~sample:s ~queries:qs Est.Sampling in
      let m_h = mre_of ds ~sample:s ~queries:qs (Est.Equi_width Est.Normal_scale_bins) in
      let m_k = mre_of ds ~sample:s ~queries:qs (kernel_spec Est.Normal_scale_bandwidth) in
      Printf.printf "%-8d %-10.2f %-10.2f %-10.2f\n" n (pct m_s) (pct m_h) (pct m_k))
    sizes

(* ------------------------------------------------------------------ *)
(* Figure 7: MRE of EWH for different query sizes                      *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "fig7: MRE of EWH(NS) for query sizes 1/2/5/10% across data files";
  Printf.printf "%-8s" "file";
  List.iter (fun f -> Printf.printf " %5.0f%%  " (100.0 *. f)) G.paper_fractions;
  print_newline ();
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      Printf.printf "%-8s" name;
      List.iter
        (fun fraction ->
          let qs = queries ~fraction ds in
          let m = mre_of ds ~sample:s ~queries:qs (Est.Equi_width Est.Normal_scale_bins) in
          Printf.printf " %-7.2f" (pct m))
        G.paper_fractions;
      print_newline ())
    headline_names

(* ------------------------------------------------------------------ *)
(* Figure 8: histogram shootout at observed-optimal bin counts         *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "fig8: EWH vs EDH vs MDH (observed-optimal bins) vs sampling vs uniform, 1% queries";
  Printf.printf "%-8s %-10s %-10s %-10s %-10s %-10s\n" "file" "ewh%" "edh%" "mdh%" "sampling%"
    "uniform%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let best_over spec_of_bins =
        let objective k = mre_of ds ~sample:s ~queries:qs (spec_of_bins k) in
        snd (Bandwidth.Oracle.best_bin_count ~max_bins:1500 ~objective ())
      in
      let m_ewh = best_over (fun k -> Est.Equi_width (Est.Fixed_bins k)) in
      let m_edh = best_over (fun k -> Est.Equi_depth { bins = k }) in
      let m_mdh = best_over (fun k -> Est.Max_diff { bins = k }) in
      let m_s = mre_of ds ~sample:s ~queries:qs Est.Sampling in
      let m_u = mre_of ds ~sample:s ~queries:qs Est.Uniform_assumption in
      Printf.printf "%-8s %-10.2f %-10.2f %-10.2f %-10.2f %-10.2f\n" name (pct m_ewh) (pct m_edh)
        (pct m_mdh) (pct m_s) (pct m_u))
    headline_names

(* ------------------------------------------------------------------ *)
(* Figure 9: EWH bin-count selection: h-opt vs normal scale            *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "fig9: EWH bin selection: observed optimum (h-opt) vs normal-scale rule (h-NS)";
  Printf.printf "%-8s %-10s %-10s %-10s %-10s\n" "file" "opt_bins" "h-opt%" "NS_bins" "h-NS%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let bins_opt, m_opt = E.oracle_bin_count ~max_bins:1500 ~jobs:!jobs ds ~sample:s ~queries:qs in
      let ns_bins = Bandwidth.Normal_scale.bin_count_of_samples ~domain:(E.domain_of ds) s in
      let m_ns = mre_of ds ~sample:s ~queries:qs (Est.Equi_width Est.Normal_scale_bins) in
      Printf.printf "%-8s %-10d %-10.2f %-10d %-10.2f\n" name bins_opt (pct m_opt) ns_bins
        (pct m_ns))
    headline_names

(* ------------------------------------------------------------------ *)
(* Figure 10: boundary treatments, relative error by position          *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "fig10: relative error of 1% queries vs position (u(20)): boundary policies";
  let ds = dataset "u(20)" in
  let s = sample ds in
  let qs = G.positional_sweep ds ~fraction:0.01 ~count:41 in
  let curve boundary =
    let est =
      Est.build (kernel_spec ~boundary Est.Normal_scale_bandwidth) ~domain:(E.domain_of ds) s
    in
    M.error_by_position ds (fun ~a ~b -> Est.selectivity est ~a ~b) qs
  in
  let none = curve Kde.Estimator.No_treatment in
  let refl = curve Kde.Estimator.Reflection in
  let bk = curve Kde.Estimator.Boundary_kernels in
  let domain = float_of_int (Data.Dataset.domain_size ds) in
  Printf.printf "%-8s %-10s %-12s %-10s\n" "pos%" "none" "reflection" "bnd-kernels";
  Array.iteri
    (fun i (e : M.position_error) ->
      Printf.printf "%-8.1f %-10.3f %-12.3f %-10.3f\n"
        (100.0 *. e.M.position /. domain)
        e.M.relative_error refl.(i).M.relative_error bk.(i).M.relative_error)
    none;
  let edge curve =
    0.5 *. (curve.(0).M.relative_error +. curve.(Array.length curve - 1).M.relative_error)
  in
  Printf.printf "edge means: none %.3f, reflection %.3f, boundary-kernels %.3f\n" (edge none)
    (edge refl) (edge bk)

(* ------------------------------------------------------------------ *)
(* Figure 11: bandwidth selection: h-opt vs h-NS vs h-DPI2             *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "fig11: kernel bandwidth selection (boundary kernels): h-opt vs h-NS vs h-DPI2";
  Printf.printf "%-8s %-10s %-10s %-10s\n" "file" "h-opt%" "h-NS%" "h-DPI2%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let _, m_opt =
        E.oracle_bandwidth ~points:25 ~jobs:!jobs ~boundary:Kde.Estimator.Boundary_kernels ds
          ~sample:s ~queries:qs
      in
      let m_ns = mre_of ds ~sample:s ~queries:qs (kernel_spec Est.Normal_scale_bandwidth) in
      let m_dpi = mre_of ds ~sample:s ~queries:qs (kernel_spec (Est.Plug_in_bandwidth 2)) in
      Printf.printf "%-8s %-10.2f %-10.2f %-10.2f\n" name (pct m_opt) (pct m_ns) (pct m_dpi))
    headline_names

(* ------------------------------------------------------------------ *)
(* Figure 12: the final comparison                                     *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "fig12: most promising estimators, 1% queries: EWH(NS), Kernel(bk,DPI2), Hybrid, ASH(10)";
  Printf.printf "%-8s %-10s %-10s %-10s %-10s\n" "file" "ewh%" "kernel%" "hybrid%" "ash%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let row spec = pct (mre_of ds ~sample:s ~queries:qs spec) in
      Printf.printf "%-8s %-10.2f %-10.2f %-10.2f %-10.2f\n" name
        (row (Est.Equi_width Est.Normal_scale_bins))
        (row Est.kernel_defaults) (row Est.hybrid_defaults)
        (row (Est.Ash { bins = Est.Normal_scale_bins; shifts = 10 })))
    headline_names

(* ------------------------------------------------------------------ *)
(* Ablations (extensions beyond the paper, flagged in DESIGN.md)       *)
(* ------------------------------------------------------------------ *)

let ablation_kernels () =
  header "ablation: kernel function choice (Section 3.2's 'K matters little')";
  let files = [ "n(20)"; "e(20)"; "arap1" ] in
  Printf.printf "%-14s" "kernel";
  List.iter (fun f -> Printf.printf " %-9s" f) files;
  print_newline ();
  List.iter
    (fun k ->
      Printf.printf "%-14s" (K.name k);
      List.iter
        (fun name ->
          let ds = dataset name in
          let s = sample ds in
          let qs = queries ds in
          let boundary =
            (* Boundary kernels pair with unit-support kernels only. *)
            if K.support_radius k = Some 1.0 then Kde.Estimator.Boundary_kernels
            else Kde.Estimator.Reflection
          in
          let m =
            mre_of ds ~sample:s ~queries:qs
              (kernel_spec ~kernel:k ~boundary Est.Normal_scale_bandwidth)
          in
          Printf.printf " %-9.2f" (pct m))
        files;
      print_newline ())
    K.all

let ablation_dpi () =
  header "ablation: DPI engine (paper's pilot iteration vs staged Wand-Jones) and iteration count";
  Printf.printf "%-8s %-8s %-11s %-11s\n" "file" "iters" "iterated%" "staged%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      List.iter
        (fun iters ->
          let m_iter =
            mre_of ds ~sample:s ~queries:qs (kernel_spec (Est.Plug_in_bandwidth iters))
          in
          let h_staged =
            Bandwidth.Plug_in.staged_bandwidth ~iterations:iters ~kernel:K.Epanechnikov s
          in
          let m_staged =
            mre_of ds ~sample:s ~queries:qs (kernel_spec (Est.Fixed_bandwidth h_staged))
          in
          Printf.printf "%-8s %-8d %-11.2f %-11.2f\n" name iters (pct m_iter) (pct m_staged))
        [ 1; 2; 3 ])
    [ "n(20)"; "arap1"; "rr1(22)" ]

let ablation_ash () =
  header "ablation: ASH shift count (paper fixes 10)";
  Printf.printf "%-8s" "file";
  let shift_counts = [ 1; 2; 5; 10; 20 ] in
  List.iter (fun m -> Printf.printf " m=%-6d" m) shift_counts;
  print_newline ();
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      Printf.printf "%-8s" name;
      List.iter
        (fun shifts ->
          let m =
            mre_of ds ~sample:s ~queries:qs (Est.Ash { bins = Est.Normal_scale_bins; shifts })
          in
          Printf.printf " %-8.2f" (pct m))
        shift_counts;
      print_newline ())
    [ "n(20)"; "e(20)"; "arap1" ]

let ablation_hybrid () =
  header "ablation: hybrid change-point budget and merge threshold";
  Printf.printf "%-8s %-6s %-8s %-8s\n" "file" "cps" "min_bin" "mre%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      List.iter
        (fun (cps, min_bin) ->
          let spec =
            Est.Hybrid_spec
              {
                bandwidth = Est.Plug_in_bandwidth 1;
                min_bin_count = min_bin;
                max_change_points = cps;
              }
          in
          Printf.printf "%-8s %-6d %-8d %-8.2f\n" name cps min_bin
            (pct (mre_of ds ~sample:s ~queries:qs spec)))
        [ (4, 100); (8, 100); (16, 100); (16, 50); (32, 50) ])
    [ "arap1"; "rr1(22)"; "n(20)" ]

let ablation_boundary () =
  header "ablation: boundary policy overall MRE (not just edge queries)";
  Printf.printf "%-8s %-8s %-12s %-12s\n" "file" "none%" "reflection%" "bnd-kern%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let m b =
        pct (mre_of ds ~sample:s ~queries:qs (kernel_spec ~boundary:b Est.Normal_scale_bandwidth))
      in
      Printf.printf "%-8s %-8.2f %-12.2f %-12.2f\n" name
        (m Kde.Estimator.No_treatment) (m Kde.Estimator.Reflection)
        (m Kde.Estimator.Boundary_kernels))
    [ "u(20)"; "e(20)"; "n(20)" ]

(* ------------------------------------------------------------------ *)
(* Extensions: the paper's future-work items                           *)
(* ------------------------------------------------------------------ *)

let ext_multidim () =
  header "ext_multidim: 2-D rectangle queries (future work 1): sampling vs grid vs product kernel";
  let configs =
    [
      ("street", Multidim.Generate2d.street_grid ~name:"street" ~bits:16 ~count:50_000 ~seed:data_seed);
      ("rails", Multidim.Generate2d.rail_network ~name:"rails" ~bits:16 ~count:50_000 ~seed:data_seed);
      ("normal.8", Multidim.Generate2d.correlated_normal ~name:"normal.8" ~bits:16 ~count:50_000 ~rho:0.8 ~seed:data_seed);
    ]
  in
  Printf.printf "%-10s %-10s %-10s %-10s %-12s %-12s %-10s %-10s\n" "file" "sampling%" "grid16%"
    "grid64%" "kernel(NS)%" "kernel(DPI)%" "kernel*%" "indep%";
  List.iter
    (fun (name, ds) ->
      let rng = Prng.Xoshiro256pp.create sample_seed in
      let s = Multidim.Dataset2d.sample_without_replacement ds rng ~n:2000 in
      let rects = Multidim.Workload2d.size_separated ds ~seed:query_seed ~fraction:0.05 ~count:500 in
      let domain = (-0.5, 65535.5) in
      let eval f = pct (Multidim.Workload2d.evaluate ds f rects).Multidim.Workload2d.mre in
      let m_sampling =
        eval (fun (r : Multidim.Workload2d.rect) ->
            Multidim.Hist2d.sampling_selectivity s ~x_lo:r.x_lo ~x_hi:r.x_hi ~y_lo:r.y_lo
              ~y_hi:r.y_hi)
      in
      let grid bins =
        let h = Multidim.Hist2d.build ~domain_x:domain ~domain_y:domain ~bins_x:bins ~bins_y:bins s in
        eval (fun (r : Multidim.Workload2d.rect) ->
            Multidim.Hist2d.selectivity h ~x_lo:r.x_lo ~x_hi:r.x_hi ~y_lo:r.y_lo ~y_hi:r.y_hi)
      in
      let hx_ns, hy_ns = Multidim.Kde2d.normal_scale_bandwidths ~kernel:K.Epanechnikov s in
      let kernel_at scale =
        let kde =
          Multidim.Kde2d.create ~domain_x:domain ~domain_y:domain ~hx:(hx_ns *. scale)
            ~hy:(hy_ns *. scale) s
        in
        eval (fun (r : Multidim.Workload2d.rect) ->
            Multidim.Kde2d.selectivity kde ~x_lo:r.x_lo ~x_hi:r.x_hi ~y_lo:r.y_lo ~y_hi:r.y_hi)
      in
      let m_dpi =
        let hx, hy = Multidim.Kde2d.plug_in_bandwidths ~kernel:K.Epanechnikov s in
        let kde = Multidim.Kde2d.create ~domain_x:domain ~domain_y:domain ~hx ~hy s in
        eval (fun (r : Multidim.Workload2d.rect) ->
            Multidim.Kde2d.selectivity kde ~x_lo:r.x_lo ~x_hi:r.x_hi ~y_lo:r.y_lo ~y_hi:r.y_hi)
      in
      (* "kernel*" searches a bandwidth-scale grid, the 2-D h-opt analog. *)
      let best =
        List.fold_left
          (fun acc scale -> Float.min acc (kernel_at scale))
          Float.infinity
          [ 1.0; 0.5; 0.25; 0.125; 0.0625; 0.03125 ]
      in
      let m_indep =
        (* Attribute-value independence: product of 1-D kernel marginals. *)
        let ex = Est.build Est.kernel_defaults ~domain:domain (Array.map fst s) in
        let ey = Est.build Est.kernel_defaults ~domain:domain (Array.map snd s) in
        eval (fun (r : Multidim.Workload2d.rect) ->
            Multidim.Independence.selectivity
              (fun ~a ~b -> Est.selectivity ex ~a ~b)
              (fun ~a ~b -> Est.selectivity ey ~a ~b)
              ~x_lo:r.x_lo ~x_hi:r.x_hi ~y_lo:r.y_lo ~y_hi:r.y_hi)
      in
      Printf.printf "%-10s %-10.2f %-10.2f %-10.2f %-12.2f %-12.2f %-10.2f %-10.2f\n" name
        m_sampling (grid 16) (grid 64) (kernel_at 1.0) m_dpi best m_indep)
    configs

let ext_histograms () =
  header "ext_histograms: frequency polygon, V-optimal and serial vs the paper's histograms, 1% queries";
  Printf.printf "%-8s %-9s %-9s %-9s %-9s %-9s %-9s %-9s\n" "file" "ewh%" "fp%" "voh40%"
    "mdh40%" "serial40%" "wave40%" "kernel%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let qs = queries ds in
      let row spec = pct (mre_of ds ~sample:s ~queries:qs spec) in
      let serial = Histograms.Serial.build ~bins:40 s in
      let m_serial =
        pct (M.evaluate ds (fun ~a ~b -> Histograms.Serial.selectivity serial ~a ~b) qs).M.mre
      in
      let wavelet =
        Histograms.Wavelet.build ~granularity:256 ~domain:(E.domain_of ds) ~coefficients:40 s
      in
      let m_wavelet =
        pct
          (M.evaluate ds (fun ~a ~b -> Histograms.Histogram.selectivity wavelet ~a ~b) qs).M.mre
      in
      Printf.printf "%-8s %-9.2f %-9.2f %-9.2f %-9.2f %-9.2f %-9.2f %-9.2f\n" name
        (row (Est.Equi_width Est.Normal_scale_bins))
        (row (Est.Frequency_polygon Est.Normal_scale_bins))
        (row (Est.V_optimal { bins = 40 }))
        (row (Est.Max_diff { bins = 40 }))
        m_serial m_wavelet
        (row Est.kernel_defaults))
    headline_names

let ext_join () =
  header "ext_join: equi-join size |R JOIN S| from 2000-record samples (exact = 100%)";
  (* Pairs share the domain parameter p; rr1(12) x rr2(12) is the
     duplicate-heavy regime where even the sample join finds collisions. *)
  let pairs =
    [ ("n(20)", "u(20)"); ("e(20)", "u(20)"); ("n(20)", "e(20)"); ("rr1(12)", "rr2(12)") ]
  in
  Printf.printf "%-16s %-12s %-10s %-10s %-12s\n" "R x S" "exact" "ewh%" "kernel%" "sample-join%";
  List.iter
    (fun (rn, sn) ->
      let r = dataset rn and s = dataset sn in
      (* Join requires a shared domain; all chosen pairs share p except the
         self-join. *)
      let exact = float_of_int (Join.Equijoin.exact_size r s) in
      let domain = E.domain_of r in
      let sr = E.sample_of r ~seed:sample_seed ~n:2000 in
      let ss = E.sample_of s ~seed:(Int64.add sample_seed 1L) ~n:2000 in
      let density_pct spec =
        let er = Est.build spec ~domain sr and es = Est.build spec ~domain ss in
        match
          Join.Equijoin.estimate ~domain er es ~n_r:(Data.Dataset.size r)
            ~n_s:(Data.Dataset.size s)
        with
        | Some v -> 100.0 *. v /. exact
        | None -> Float.nan
      in
      let sample_pct =
        100.0
        *. Join.Equijoin.sample_join sr ss ~n_r:(Data.Dataset.size r)
             ~n_s:(Data.Dataset.size s)
        /. exact
      in
      Printf.printf "%-16s %-12.3e %-10.1f %-10.1f %-12.1f\n"
        (rn ^ " x " ^ sn)
        exact
        (density_pct (Est.Equi_width Est.Normal_scale_bins))
        (density_pct Est.kernel_defaults) sample_pct)
    pairs;
  (* Inequality predicates: the histogram-pair sweep over per-relation
     equi-depth histograms against the merge-count oracle.  The relative
     errors land in mre_by_spec so EXPERIMENTS.md's table is diffable. *)
  header "ext_join: inequality joins (eq/lt/le) via EDH pairs vs the exact merge-count oracle";
  Printf.printf "%-16s %-5s %-12s %-12s %-8s\n" "R x S" "pred" "exact" "estimated" "of_exact%";
  List.iter
    (fun (rn, sn) ->
      let r = dataset rn and s = dataset sn in
      let domain = E.domain_of r in
      let sr = E.sample_of r ~seed:sample_seed ~n:2000 in
      let ss = E.sample_of s ~seed:(Int64.add sample_seed 1L) ~n:2000 in
      let summary =
        Join.Ineqjoin.summarize ~buckets:64 ~domain ~n_r:(Data.Dataset.size r)
          ~n_s:(Data.Dataset.size s) sr ss
      in
      List.iter
        (fun pred ->
          let exact = float_of_int (Join.Ineqjoin.exact_inequality_size r s ~pred) in
          let est = Join.Ineqjoin.estimate summary ~pred in
          let mre = if exact > 0.0 then Float.abs (est -. exact) /. exact else Float.nan in
          Record.note
            ~key:
              (Printf.sprintf "%s x %s/%s" rn sn (Selest.Stored.join_pred_to_string pred))
            ~mre ~build_s:0.0 ~queries:0 ~query_s:0.0;
          Printf.printf "%-16s %-5s %-12.3e %-12.3e %-8.1f\n" (rn ^ " x " ^ sn)
            (Selest.Stored.join_pred_to_string pred)
            exact est
            (100.0 *. est /. exact))
        [ Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le ])
    pairs

let ext_mise () =
  header "ext_mise: simulated MISE vs the AMISE theory (standard normal, Epanechnikov)";
  let model = Dists.Model.normal ~mu:0.0 ~sigma:1.0 in
  let domain = (-6.0, 6.0) in
  let roughness2 = 3.0 /. (8.0 *. 1.7724538509055159) in
  List.iter
    (fun n ->
      let h_star = Bandwidth.Amise.optimal_bandwidth ~kernel:K.Epanechnikov ~n ~roughness_d2:roughness2 in
      Printf.printf "n=%d  (AMISE-optimal h = %.3f)\n" n h_star;
      Printf.printf "  %-10s %-12s %-12s %-10s\n" "h/h*" "MISE" "AMISE" "ratio";
      List.iter
        (fun factor ->
          let h = h_star *. factor in
          let r = Bandwidth.Mise.kernel_mise ~replications:30 ~model ~domain ~n ~h ~seed:11L () in
          let predicted = Bandwidth.Amise.kernel_amise ~kernel:K.Epanechnikov ~n ~h ~roughness_d2:roughness2 in
          Printf.printf "  %-10.2f %-12.6f %-12.6f %-10.2f\n" factor r.Bandwidth.Mise.mise
            predicted (r.Bandwidth.Mise.mise /. predicted))
        [ 0.25; 0.5; 1.0; 2.0; 4.0 ])
    [ 200; 1000 ]

let ext_feedback () =
  header "ext_feedback: query feedback (future work 3): MRE before/after replaying a workload";
  Printf.printf "%-8s %-22s %-10s %-10s\n" "file" "base" "before%" "after%";
  List.iter
    (fun name ->
      let ds = dataset name in
      let s = sample ds in
      let domain = E.domain_of ds in
      let train = queries ~fraction:0.02 ~count:500 ds in
      let test = G.size_separated ds ~seed:31L ~fraction:0.02 ~count:500 in
      List.iter
        (fun (label, spec) ->
          let base_est = Est.build spec ~domain s in
          let base ~a ~b = Est.selectivity base_est ~a ~b in
          let adaptive = Feedback.Adaptive.create ~buckets:128 ~domain ~base () in
          let mre_now () =
            pct (M.evaluate ds (fun ~a ~b -> Feedback.Adaptive.selectivity adaptive ~a ~b) test).M.mre
          in
          let before = mre_now () in
          Array.iter
            (fun (q : Workload.Query.t) ->
              Feedback.Adaptive.observe adaptive ~a:q.Workload.Query.lo ~b:q.Workload.Query.hi
                ~actual:(Data.Dataset.exact_selectivity ds ~lo:q.Workload.Query.lo ~hi:q.Workload.Query.hi))
            train;
          let after = mre_now () in
          Printf.printf "%-8s %-22s %-10.2f %-10.2f\n" name label before after)
        [ ("uniform", Est.Uniform_assumption); ("ewh(NS)", Est.Equi_width Est.Normal_scale_bins) ])
    [ "e(20)"; "arap1" ]

(* ------------------------------------------------------------------ *)
(* Catalog: serving throughput of the persisted-summary service        *)
(* ------------------------------------------------------------------ *)

module Cat = Catalog.Service

(* Exercises the serving path end to end: ANALYZE all headline files into
   snapshot files through an undersized cache (evictions), reopen the
   directory cold (load-on-open recovery), serve 40 rounds of hot batches,
   then score every entry's answers against exact selectivities, and
   time 100 persists of one resident entry and what a kernel rebuild
   costs.  BENCH_results.json gets the serving queries_per_s, the
   cache_hit_rate, the persist_ms_p50 and persist_ms_max, the
   kernel_fit_ms, kernel_fit_minor_words and rebuild_ms, and each
   entry's MRE under mre_by_spec. *)
let rec bench_catalog () =
  header "catalog: summary serving (build, reopen cold, hot batches)";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_catalog" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let config = { Cat.default_config with Cat.capacity = 12 } in
  let entries =
    List.concat_map
      (fun file -> List.map (fun spec -> (file, spec)) [ "ewh"; "kernel" ])
      headline_names
  in
  (* Build phase: 16 entries through a 12-slot cache. *)
  let svc0, _ = Cat.open_dir ~config dir in
  let build_times =
    List.map
      (fun (file, spec) ->
        let ds = dataset file in
        let s = sample ds in
        let t0 = Unix.gettimeofday () in
        (match Cat.build svc0 ~name:(file ^ "/" ^ spec) ~spec ~domain:(E.domain_of ds)
                 ~sample:s
         with
        | Ok _ -> ()
        | Error msg -> failwith (Printf.sprintf "catalog build %s/%s: %s" file spec msg));
        (file ^ "/" ^ spec, Unix.gettimeofday () -. t0))
      entries
  in
  let build_stats = Cat.cache_stats svc0 in
  (* Reopen cold: index every snapshot from disk, cache empty. *)
  let svc, skipped = Cat.open_dir ~config dir in
  List.iter
    (fun (file, err) -> Printf.printf "skipped corrupt snapshot %s: %s\n" file err)
    skipped;
  (* Serving phase: 40 rounds over a 6-entry hot set, 50 queries each. *)
  let hot = List.filteri (fun i _ -> i < 6) entries in
  let query_cache = Hashtbl.create 8 in
  let queries_of file =
    match Hashtbl.find_opt query_cache file with
    | Some qs -> qs
    | None ->
      let qs = queries (dataset file) in
      Hashtbl.replace query_cache file qs;
      qs
  in
  let rounds = 40 and per_entry = 50 in
  let total = ref 0 in
  let t0 = Unix.gettimeofday () in
  for round = 0 to rounds - 1 do
    let batch =
      Array.concat
        (List.map
           (fun (file, spec) ->
             let qs = queries_of file in
             Array.init per_entry (fun i ->
                 let q = qs.(((round * per_entry) + i) mod Array.length qs) in
                 (file ^ "/" ^ spec, q.Workload.Query.lo, q.Workload.Query.hi)))
           hot)
    in
    total := !total + Array.length batch;
    ignore (Cat.answer svc batch)
  done;
  let serve_s = Unix.gettimeofday () -. t0 in
  Record.note_queries ~queries:!total ~query_s:serve_s;
  (* Accuracy: every entry's catalog answers vs exact selectivities. *)
  Printf.printf "%-16s %-10s %-10s\n" "entry" "mre%" "build_s";
  List.iter
    (fun ((file, spec), (key, build_s)) ->
      let ds = dataset file in
      let name = file ^ "/" ^ spec in
      let estimate ~a ~b =
        match Cat.answer_one svc ~name ~a ~b with
        | Ok v -> v
        | Error msg -> failwith (Printf.sprintf "catalog answer %s: %s" name msg)
      in
      let mre = (M.evaluate ds estimate (queries_of file)).M.mre in
      Record.note ~key ~mre ~build_s ~queries:0 ~query_s:0.0;
      Printf.printf "%-16s %-10.2f %-10.3f\n" name (pct mre) build_s)
    (List.combine entries build_times);
  let s = Cat.cache_stats svc in
  let accesses = s.Catalog.Lru.hits + s.Catalog.Lru.misses in
  let hit_rate =
    if accesses = 0 then 0.0 else float_of_int s.Catalog.Lru.hits /. float_of_int accesses
  in
  Record.note_extra ~key:"cache_hit_rate" hit_rate;
  Record.note_extra ~key:"cache_evictions"
    (float_of_int (s.Catalog.Lru.evictions + build_stats.Catalog.Lru.evictions));
  Printf.printf
    "serving: %d requests in %.2fs (%.0f queries/s)\n\
     cache: hit rate %.3f (%d hits, %d misses), evictions %d (+%d during build)\n"
    !total serve_s
    (float_of_int !total /. serve_s)
    hit_rate s.Catalog.Lru.hits s.Catalog.Lru.misses s.Catalog.Lru.evictions
    build_stats.Catalog.Lru.evictions;
  (* What a persist costs the owner (after the cache figures, which the
     lookup that makes the entry resident would move): each
     record_inserts call writes the entry's snapshot again, replacing
     the one before it. *)
  let persist_name =
    let file, spec = List.hd hot in
    file ^ "/" ^ spec
  in
  ignore (Cat.answer_one svc ~name:persist_name ~a:0.0 ~b:0.0);
  let persists =
    Array.init 100 (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match Cat.record_inserts svc ~name:persist_name 1 with
        | Ok () -> ()
        | Error msg -> failwith (Printf.sprintf "catalog persist %s: %s" persist_name msg));
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  Cat.flush svc;
  let persist_p50 = Stats.Quantile.quantile persists 0.5 in
  let persist_max = Array.fold_left Float.max 0.0 persists in
  Record.note_extra ~key:"persist_ms_p50" persist_p50;
  Record.note_extra ~key:"persist_ms_max" persist_max;
  Printf.printf "persist: %d record_inserts on %s, p50 %.3f ms, max %.3f ms\n"
    (Array.length persists) persist_name persist_p50 persist_max;
  bench_rebuild_cost dir

(* What an adaptive rebuild of a [kernel] entry costs: the fit of a full
   1,024-value reservoir (the paper's Epanechnikov kernel with the h-DPI2
   bandwidth), timed and its minor words counted here, in the bench's own
   domain (the counter is per domain); then one whole rebuild, from the
   [adaptive_tick] that copies the sample and queues it on the rebuild
   domain to the [adaptive_drain] that waits for it and swaps it in.
   Each figure is the median of 5. *)
and bench_rebuild_cost dir =
  let file = "arap1" in
  let ds = dataset file in
  let domain = E.domain_of ds in
  let fit_sample = sample ~n:1024 ds in
  let spec = Result.get_ok (Est.spec_of_string "kernel") in
  ignore (Est.build spec ~domain fit_sample);
  let fits =
    Array.init 5 (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (Est.build spec ~domain fit_sample));
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        (ms, Gc.minor_words () -. w0))
  in
  let fit_ms = Stats.Quantile.quantile (Array.map fst fits) 0.5 in
  let fit_words = Stats.Quantile.quantile (Array.map snd fits) 0.5 in
  (* The pair sums allocate nothing per pair; boxing them again costs
     millions of words per fit. *)
  if fit_words >= 100_000.0 then
    failwith
      (Printf.sprintf "catalog: a 1024-value kernel fit allocated %.0f minor words (bound 100k)"
         fit_words);
  let rdir = Filename.concat dir "rebuild" in
  let budget = 1024 in
  let svc, _ =
    Cat.open_dir ~config:{ Cat.default_config with Cat.rebuild_after_inserts = budget } rdir
  in
  let name = file ^ "/kernel" in
  (match Cat.build svc ~name ~spec:"kernel" ~domain ~sample:(sample ds) with
  | Ok _ -> ()
  | Error msg -> failwith (Printf.sprintf "rebuild bench build %s: %s" name msg));
  Cat.enable_adaptive svc;
  let rebuilds =
    Array.init 5 (fun round ->
        let values = E.sample_of ds ~seed:(Int64.of_int (100 + round)) ~n:budget in
        (match Cat.insert svc ~name values with
        | Ok _ -> ()
        | Error msg -> failwith (Printf.sprintf "rebuild bench insert %s: %s" name msg));
        let t0 = Unix.gettimeofday () in
        ignore (Cat.adaptive_tick svc);
        Cat.adaptive_drain svc;
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        if (Option.get (Cat.info svc name)).Cat.stale then
          failwith (Printf.sprintf "rebuild bench: %s still stale after the drain" name);
        ms)
  in
  Cat.flush svc;
  Array.iter (fun f -> Sys.remove (Filename.concat rdir f)) (Sys.readdir rdir);
  Sys.rmdir rdir;
  let rebuild_ms = Stats.Quantile.quantile rebuilds 0.5 in
  Record.note_extra ~key:"kernel_fit_ms" fit_ms;
  Record.note_extra ~key:"kernel_fit_minor_words" fit_words;
  Record.note_extra ~key:"rebuild_ms" rebuild_ms;
  Printf.printf
    "rebuild: kernel fit of 1024 values %.2f ms, %.0f minor words; adaptive rebuild %.2f ms\n"
    fit_ms fit_words rebuild_ms

(* ------------------------------------------------------------------ *)
(* Serve: the network serving layer under closed-loop load             *)
(* ------------------------------------------------------------------ *)

(* Exercises the full network path, single-shard and sharded: ANALYZE
   three headline files into a temp catalog, then for shards = 1 and
   shards = 4 serve it on a Unix-domain socket, drive a 32-connection
   closed-loop load generator (single estimates, then batched frames),
   and drain.  The sharded pass adds per-shard p99 (classifying each
   request by its owner shard client-side) and an open-loop arrival-rate
   sweep with drop/late accounting.  Every served answer — both shard
   counts, both loop disciplines aside — is checked bit-identical to a
   direct Catalog.Service.answer call computed from the flat snapshot
   directory BEFORE the sharded pass migrates its layout.
   BENCH_results.json gets per-shard-count throughput and
   percentiles, a "per_shard" section, and an "open_loop_by_rate"
   section; the adaptive drift timeline that completes schema v5 is the
   separate --drift target below. *)
let bench_serve () =
  header "serve: network serving layer (wire protocol, shards, closed- and open-loop load)";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_serve" in
  (* A previous run may have left either layout behind. *)
  let rec clean d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then begin
            clean p;
            Sys.rmdir p
          end
          else Sys.remove p)
        (Sys.readdir d)
    end
  in
  clean dir;
  let svc, _ = Cat.open_dir dir in
  List.iter
    (fun (file, spec) ->
      let ds = dataset file in
      match
        Cat.build svc ~name:(file ^ "/" ^ spec) ~spec ~domain:(E.domain_of ds)
          ~sample:(sample ds)
      with
      | Ok _ -> ()
      | Error msg -> failwith (Printf.sprintf "serve build %s/%s: %s" file spec msg))
    (List.concat_map
       (fun file -> List.map (fun spec -> (file, spec)) [ "ewh"; "kernel" ])
       [ "u(20)"; "n(20)"; "e(20)" ]);
  let address =
    Server.Wire.Unix_socket (Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_serve.sock")
  in
  let connections = 32 in
  (* One serving pass at a given shard count: closed-loop singles,
     closed-loop batch=16 frames, optionally classified per shard,
     optionally an open-loop rate sweep.  Returns the reports. *)
  let serve_pass ~shards ~classify ~open_rates requests_of_entries =
    let services, skipped = Cat.open_sharded ~shards dir in
    if skipped <> [] then
      failwith (Printf.sprintf "serve: %d snapshots skipped on open" (List.length skipped));
    let engine = Server.Engine.create ~services address in
    let server_thread = Thread.create Server.Engine.serve engine in
    Fun.protect
      ~finally:(fun () ->
        Server.Engine.initiate_drain engine;
        Thread.join server_thread)
      (fun () ->
        let entries =
          match Server.Client.connect address with
          | Error e -> failwith ("serve: connect: " ^ Server.Client.error_to_string e)
          | Ok client ->
            let entries =
              match Server.Client.ls client with
              | Ok entries -> entries
              | Error e -> failwith ("serve: ls: " ^ Server.Client.error_to_string e)
            in
            Server.Client.close client;
            entries
        in
        let requests = requests_of_entries entries in
        let report = Server.Loadgen.run ?classify ~connections ~address requests in
        let batched = Server.Loadgen.run ~batch:16 ~connections ~address requests in
        let open_reports =
          List.map
            (fun rate ->
              (rate, Server.Loadgen.run_open_loop ~max_clients:64 ~rate ~duration_s:0.5
                       ~address requests))
            open_rates
        in
        (requests, report, batched, open_reports, Server.Engine.stats engine))
  in
  let requests_memo = ref None in
  let requests_of_entries entries =
    match !requests_memo with
    | Some reqs -> reqs
    | None ->
      let reqs = Server.Loadgen.synthetic_requests ~entries ~count:6400 ~seed:2024L in
      requests_memo := Some reqs;
      reqs
  in
  (* Pass 1: shards = 1, the pre-sharding engine path, on the flat v1
     layout. *)
  let requests, report1, batched1, _, stats1 =
    serve_pass ~shards:1 ~classify:None ~open_rates:[] requests_of_entries
  in
  (* The reference answers MUST come from the flat layout, before the
     sharded pass migrates the directory. *)
  let direct, _ = Cat.open_dir dir in
  let expected = Cat.answer direct requests in
  let check_identity label (r : Server.Loadgen.report) =
    let mismatches = ref 0 in
    Array.iteri
      (fun i served ->
        if Float.is_nan served then incr mismatches
        else if Int64.bits_of_float served <> Int64.bits_of_float expected.(i) then
          incr mismatches)
      r.Server.Loadgen.answers;
    if !mismatches > 0 then
      failwith
        (Printf.sprintf "serve (%s): %d served answers diverge from direct calls" label
           !mismatches)
  in
  check_identity "shards=1 singles" report1;
  check_identity "shards=1 batch=16" batched1;
  (* Pass 2: shards = 4 — layout migrates in place; requests classified
     by owner shard for per-shard percentiles; open-loop rate sweep. *)
  let shards = 4 in
  let classify i =
    let name, _, _ = requests.(i) in
    Printf.sprintf "shard-%d" (Cat.shard_of_name ~shards name)
  in
  let open_rates = [ 1000.0; 4000.0; 16000.0 ] in
  let _, report4, batched4, open_reports, stats4 =
    serve_pass ~shards ~classify:(Some classify) ~open_rates requests_of_entries
  in
  check_identity "shards=4 singles" report4;
  check_identity "shards=4 batch=16" batched4;
  (* Record: closed-loop throughput and percentiles at both shard
     counts, per-shard latency groups, the open-loop sweep. *)
  Record.note_queries ~queries:report1.Server.Loadgen.queries
    ~query_s:report1.Server.Loadgen.wall_s;
  Record.note_extra ~key:"connections" (float_of_int connections);
  Record.note_extra ~key:"shards" (float_of_int shards);
  Record.note_extra ~key:"p50_ms" report1.Server.Loadgen.p50_ms;
  Record.note_extra ~key:"p95_ms" report1.Server.Loadgen.p95_ms;
  Record.note_extra ~key:"p99_ms" report1.Server.Loadgen.p99_ms;
  Record.note_extra ~key:"batched_throughput_qps" batched1.Server.Loadgen.throughput_qps;
  Record.note_extra ~key:"sharded_throughput_qps" report4.Server.Loadgen.throughput_qps;
  Record.note_extra ~key:"sharded_p99_ms" report4.Server.Loadgen.p99_ms;
  Record.note_extra ~key:"sharded_batched_throughput_qps"
    batched4.Server.Loadgen.throughput_qps;
  Record.note_extra ~key:"errors_total"
    (float_of_int
       (List.fold_left
          (fun n (_, c) -> n + c)
          0
          (report1.Server.Loadgen.errors @ batched1.Server.Loadgen.errors
          @ report4.Server.Loadgen.errors @ batched4.Server.Loadgen.errors)));
  List.iter
    (fun (cls, n) -> Record.note_extra ~key:("errors_" ^ cls) (float_of_int n))
    report1.Server.Loadgen.errors;
  Record.note_extra ~key:"batches" (float_of_int stats1.Server.Engine.batches);
  Record.note_extra ~key:"batched_queries"
    (float_of_int stats1.Server.Engine.batched_queries);
  List.iter
    (fun (cls, g) ->
      (* "shard-2" -> group "2" *)
      let id = String.sub cls 6 (String.length cls - 6) in
      let answered =
        match int_of_string_opt id with
        | Some i when i < Array.length stats4.Server.Engine.per_shard ->
          float_of_int stats4.Server.Engine.per_shard.(i).Server.Engine.shard_answered
        | _ -> Float.nan
      in
      Record.note_group ~section:"per_shard" ~group:id
        [
          ("queries", float_of_int g.Server.Loadgen.g_n);
          ("answered", answered);
          ("p50_ms", g.Server.Loadgen.g_p50_ms);
          ("p99_ms", g.Server.Loadgen.g_p99_ms);
        ])
    report4.Server.Loadgen.groups;
  List.iter
    (fun (rate, (r : Server.Loadgen.open_report)) ->
      Record.note_group ~section:"open_loop_by_rate" ~group:(Printf.sprintf "%.0f" rate)
        [
          ("offered", float_of_int r.Server.Loadgen.offered);
          ("sent", float_of_int r.Server.Loadgen.sent);
          ("dropped", float_of_int r.Server.Loadgen.dropped);
          ("late", float_of_int r.Server.Loadgen.late);
          ("achieved_qps", r.Server.Loadgen.achieved_qps);
          ("p50_ms", r.Server.Loadgen.o_p50_ms);
          ("p99_ms", r.Server.Loadgen.o_p99_ms);
        ])
    open_reports;
  Printf.printf "shards=1 single estimates:\n%s\n" (Server.Loadgen.report_to_string report1);
  Printf.printf "shards=1 batch=16 frames:\n%s\n" (Server.Loadgen.report_to_string batched1);
  Printf.printf "shards=%d single estimates (per-shard classes):\n%s\n" shards
    (Server.Loadgen.report_to_string report4);
  Printf.printf "shards=%d batch=16 frames:\n%s\n" shards
    (Server.Loadgen.report_to_string batched4);
  List.iter
    (fun (rate, r) ->
      Printf.printf "shards=%d open loop @ %.0f/s:\n%s\n" shards rate
        (Server.Loadgen.open_report_to_string r))
    open_reports;
  Printf.printf
    "server: shards=1 %d requests, shards=%d %d requests (%d batches, %d queries merged), \
     all bit-identical to direct answers\n"
    stats1.Server.Engine.requests shards stats4.Server.Engine.requests
    stats4.Server.Engine.batches stats4.Server.Engine.batched_queries;
  (* Pass 3: mixed kinds.  Add one rect entry (the street-grid joint
     file) and one join entry (n(20) x u(20)) to the now-sharded catalog
     through their owner shards, serve all three kinds at shards = 4,
     and gate every served answer bit-identical to the direct
     Catalog.Service call.  Per-kind MRE is scored against the exact
     oracles: Data.Dataset.exact_selectivity for range,
     Multidim.Dataset2d.exact_selectivity for rect, and
     Join.Ineqjoin.exact_inequality_size for join. *)
  header "serve: mixed-kind pass (range + rect + join entries, shards=4)";
  let services, skipped = Cat.open_sharded ~shards dir in
  if skipped <> [] then
    failwith (Printf.sprintf "serve mixed: %d snapshots skipped on open" (List.length skipped));
  let owner name = services.(Cat.shard_of_name ~shards name) in
  let street =
    Multidim.Generate2d.street_grid ~name:"street" ~bits:16 ~count:50_000 ~seed:data_seed
  in
  let rect_name = "street/hist2d" in
  let dom16 = (-0.5, 65535.5) in
  (match
     Cat.build_rect (owner rect_name) ~name:rect_name ~spec:"hist2d:64" ~domain_x:dom16
       ~domain_y:dom16
       ~points:
         (Multidim.Dataset2d.sample_without_replacement street
            (Prng.Xoshiro256pp.create sample_seed)
            ~n:2000)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("serve mixed: build rect: " ^ msg));
  let join_r = dataset "n(20)" and join_s = dataset "u(20)" in
  let join_name = "n(20)_join_u(20)/edh" in
  (match
     Cat.build_join (owner join_name) ~name:join_name ~spec:"edh:64"
       ~domain:(E.domain_of join_r) ~n_r:(Data.Dataset.size join_r)
       ~n_s:(Data.Dataset.size join_s)
       ~sample_r:(E.sample_of join_r ~seed:sample_seed ~n:2000)
       ~sample_s:(E.sample_of join_s ~seed:(Int64.add sample_seed 1L) ~n:2000)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("serve mixed: build join: " ^ msg));
  let engine = Server.Engine.create ~services address in
  let server_thread = Thread.create Server.Engine.serve engine in
  let mixed, mreport =
    Fun.protect
      ~finally:(fun () ->
        Server.Engine.initiate_drain engine;
        Thread.join server_thread)
      (fun () ->
        let entries =
          match Server.Client.connect address with
          | Error e -> failwith ("serve mixed: connect: " ^ Server.Client.error_to_string e)
          | Ok client ->
            let entries =
              match Server.Client.ls client with
              | Ok entries -> entries
              | Error e -> failwith ("serve mixed: ls: " ^ Server.Client.error_to_string e)
            in
            Server.Client.close client;
            entries
        in
        let mixed = Server.Loadgen.synthetic_mixed_requests ~entries ~count:4800 ~seed:2025L in
        (mixed, Server.Loadgen.run_mixed ~connections ~address mixed))
  in
  (* Bit-identity per request against the same services the engine used. *)
  let direct_of req =
    match req with
    | Server.Loadgen.Mix_range (name, a, b) -> Cat.answer_one (owner name) ~name ~a ~b
    | Server.Loadgen.Mix_rect { m_entry; m_x_lo; m_x_hi; m_y_lo; m_y_hi } ->
      Cat.answer_rect (owner m_entry) ~name:m_entry ~x_lo:m_x_lo ~x_hi:m_x_hi ~y_lo:m_y_lo
        ~y_hi:m_y_hi
    | Server.Loadgen.Mix_join { m_entry; m_pred } ->
      Cat.answer_join (owner m_entry) ~name:m_entry ~pred:m_pred
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i served ->
      match direct_of mixed.(i) with
      | Error _ -> incr mismatches
      | Ok expected ->
        if Float.is_nan served || Int64.bits_of_float served <> Int64.bits_of_float expected
        then incr mismatches)
    mreport.Server.Loadgen.answers;
  if !mismatches > 0 then
    failwith
      (Printf.sprintf "serve mixed: %d served answers diverge from direct calls" !mismatches);
  (* Per-kind accuracy against the exact oracles.  Relative error needs
     truth > 0; zero-truth queries are skipped (and counted). *)
  let truth_of req =
    match req with
    | Server.Loadgen.Mix_range (name, a, b) ->
      let file = String.sub name 0 (String.index name '/') in
      Data.Dataset.exact_selectivity (dataset file) ~lo:a ~hi:b
    | Server.Loadgen.Mix_rect { m_x_lo; m_x_hi; m_y_lo; m_y_hi; _ } ->
      Multidim.Dataset2d.exact_selectivity street ~x_lo:m_x_lo ~x_hi:m_x_hi ~y_lo:m_y_lo
        ~y_hi:m_y_hi
    | Server.Loadgen.Mix_join { m_pred; _ } ->
      float_of_int (Join.Ineqjoin.exact_inequality_size join_r join_s ~pred:m_pred)
  in
  let mre_of_kind kind =
    let sum = ref 0.0 and n = ref 0 in
    Array.iteri
      (fun i served ->
        if Server.Loadgen.mixed_kind mixed.(i) = kind then begin
          let truth = truth_of mixed.(i) in
          if truth > 0.0 then begin
            sum := !sum +. (Float.abs (served -. truth) /. truth);
            incr n
          end
        end)
      mreport.Server.Loadgen.answers;
    if !n = 0 then Float.nan else !sum /. float_of_int !n
  in
  List.iter
    (fun (kind, g) ->
      Record.note_group ~section:"mixed_by_kind" ~group:kind
        [
          ("queries", float_of_int g.Server.Loadgen.g_n);
          ( "throughput_qps",
            float_of_int g.Server.Loadgen.g_n /. mreport.Server.Loadgen.wall_s );
          ("mre", mre_of_kind kind);
          ("p50_ms", g.Server.Loadgen.g_p50_ms);
          ("p99_ms", g.Server.Loadgen.g_p99_ms);
        ])
    mreport.Server.Loadgen.groups;
  Printf.printf "shards=%d mixed kinds (range/rect/join classes):\n%s\n" shards
    (Server.Loadgen.report_to_string mreport);
  List.iter
    (fun (kind, (g : Server.Loadgen.group)) ->
      Printf.printf "  %-6s n=%-5d mre=%.4f p50=%.3fms p99=%.3fms\n" kind
        g.Server.Loadgen.g_n (mre_of_kind kind) g.Server.Loadgen.g_p50_ms
        g.Server.Loadgen.g_p99_ms)
    mreport.Server.Loadgen.groups;
  Printf.printf
    "server: mixed pass %d requests over %d kinds, all bit-identical to direct calls\n"
    (Array.length mixed)
    (List.length mreport.Server.Loadgen.groups)

(* ------------------------------------------------------------------ *)
(* Drift: adaptive serving under a shifting distribution               *)
(* ------------------------------------------------------------------ *)

(* The adaptivity headline behind docs/ADAPTIVITY.md: one entry whose
   live distribution is uniform over a window sliding across the domain,
   served twice over the same window timeline — once frozen at its
   window-0 summary, once adaptive (insert + observe traffic over the
   wire, a low rebuild budget, per-window feedback refreshes).  Each
   window, the same fixed probe set is answered through a client and
   scored against the analytic window truth; the per-window MREs become
   the "drift_timeline" section of BENCH_results.json (schema v5).  The
   gate asserts the headline claim: the frozen summary degrades as the
   window leaves it behind, while the adaptive pass — with zero manual
   rebuilds — ends far below it and stays bounded throughout. *)
let bench_drift () =
  header "drift: adaptive serving under a shifting distribution (insert + observe feedback)";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_drift" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let lo, hi = (0.0, 100.0) in
  let span = hi -. lo in
  let win_w = 0.25 *. span in
  let windows = 8 in
  let entry = "drift/ewh" in
  let center w =
    lo +. (win_w /. 2.0) +. ((span -. win_w) *. float_of_int w /. float_of_int (windows - 1))
  in
  let bounds w =
    let c = center w in
    (c -. (win_w /. 2.0), c +. (win_w /. 2.0))
  in
  let rng = Prng.Splitmix64.create 0xd41f7L in
  let uniform_in wl wh = wl +. ((wh -. wl) *. Prng.Splitmix64.next_float rng) in
  let window_values w n =
    let wl, wh = bounds w in
    Array.init n (fun _ -> uniform_in wl wh)
  in
  (* Both passes are built from (and probed with) draws off one seeded
     stream, in a fixed call order, so the whole timeline is
     reproducible.  The build sample and probe set come first; only the
     adaptive pass draws further (its insert and observe payloads). *)
  let build_sample = window_values 0 2000 in
  let probes =
    Array.init 200 (fun _ ->
        let a = uniform_in lo hi and b = uniform_in lo hi in
        (Float.min a b, Float.max a b))
  in
  (* Truth of a probe under window [w]'s live distribution: the clamped
     overlap fraction (clamped because full-cover probes can land an ulp
     above 1, as in Loadgen.run_drift). *)
  let truth w (a, b) =
    let wl, wh = bounds w in
    Float.min 1.0 (Float.max 0.0 ((Float.min b wh -. Float.max a wl) /. win_w))
  in
  let svc, _ = Cat.open_dir dir in
  (match Cat.build svc ~name:entry ~spec:"ewh" ~domain:(lo, hi) ~sample:build_sample with
  | Ok _ -> ()
  | Error msg -> failwith ("drift build: " ^ msg));
  let address =
    Server.Wire.Unix_socket
      (Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_drift.sock")
  in
  let rebuild_after = 400 in
  let inserts_per_window = 600 and observes_per_window = 64 in
  let ok_or_die what = function
    | Ok v -> v
    | Error e ->
      failwith (Printf.sprintf "drift %s: %s" what (Server.Client.error_to_string e))
  in
  (* MRE in the Workload.Metrics sense, probed over the wire: relative
     error against the analytic truth, probes with an (almost) empty
     true result skipped. *)
  let mre_at client w =
    let rel_sum = ref 0.0 and evaluated = ref 0 in
    Array.iter
      (fun (a, b) ->
        let t = truth w (a, b) in
        if t > 1e-9 then begin
          let est = ok_or_die "estimate" (Server.Client.estimate client ~entry ~a ~b) in
          rel_sum := !rel_sum +. (Float.abs (est -. t) /. t);
          incr evaluated
        end)
      probes;
    !rel_sum /. float_of_int !evaluated
  in
  let run_pass ~adaptive =
    let services, skipped =
      Cat.open_sharded
        ~config:{ Cat.default_config with Cat.rebuild_after_inserts = rebuild_after }
        ~shards:1 dir
    in
    if skipped <> [] then
      failwith (Printf.sprintf "drift: %d snapshots skipped on open" (List.length skipped));
    if adaptive then
      Array.iter
        (Cat.enable_adaptive
           ~config:
             {
               Cat.default_adaptive_config with
               Cat.refresh_after_observes = observes_per_window;
             })
        services;
    let engine = Server.Engine.create ~services address in
    let server_thread = Thread.create Server.Engine.serve engine in
    Fun.protect
      ~finally:(fun () ->
        Server.Engine.initiate_drain engine;
        Thread.join server_thread)
      (fun () ->
        let client =
          match Server.Client.connect address with
          | Ok c -> c
          | Error e -> failwith ("drift connect: " ^ Server.Client.error_to_string e)
        in
        Fun.protect
          ~finally:(fun () -> Server.Client.close client)
          (fun () ->
            let timeline =
              Array.init windows (fun w ->
                  if adaptive && w > 0 then begin
                    (* The relation moved: stream a window of fresh values
                       (tripping the rebuild budget), wait for the
                       background swap to land, then feed back a window of
                       executed-query truths (tripping a feedback
                       refresh). *)
                    let swaps_before =
                      (Server.Engine.stats engine).Server.Engine.swaps
                    in
                    for _ = 1 to inserts_per_window / 100 do
                      ignore
                        (ok_or_die "insert"
                           (Server.Client.insert client ~entry (window_values w 100)))
                    done;
                    let deadline = Unix.gettimeofday () +. 10.0 in
                    while
                      (Server.Engine.stats engine).Server.Engine.swaps <= swaps_before
                      && Unix.gettimeofday () < deadline
                    do
                      Thread.delay 0.01
                    done;
                    if (Server.Engine.stats engine).Server.Engine.swaps <= swaps_before
                    then failwith "drift: rebuild swap did not land within 10s";
                    for _ = 1 to observes_per_window do
                      let a = uniform_in lo hi and b = uniform_in lo hi in
                      let a, b = (Float.min a b, Float.max a b) in
                      ignore
                        (ok_or_die "observe"
                           (Server.Client.observe client ~entry ~a ~b
                              ~actual:(truth w (a, b))))
                    done
                  end;
                  mre_at client w)
            in
            (timeline, Server.Engine.stats engine)))
  in
  (* Frozen pass first: the adaptive pass persists its swapped summaries
     into the same catalog directory. *)
  let static_tl, _ = run_pass ~adaptive:false in
  let adaptive_tl, astats = run_pass ~adaptive:true in
  Printf.printf "%-8s %-8s %12s %12s\n" "window" "center" "static mre" "adaptive mre";
  for w = 0 to windows - 1 do
    Printf.printf "%-8d %-8.1f %12.3f %12.3f\n" w (center w) static_tl.(w) adaptive_tl.(w);
    Record.note_group ~section:"drift_timeline" ~group:(string_of_int w)
      [
        ("center", center w);
        ("static_mre", static_tl.(w));
        ("adaptive_mre", adaptive_tl.(w));
      ]
  done;
  let maxf a = Array.fold_left Float.max Float.neg_infinity a in
  Record.note_extra ~key:"windows" (float_of_int windows);
  Record.note_extra ~key:"probes" (float_of_int (Array.length probes));
  Record.note_extra ~key:"rebuild_after_inserts" (float_of_int rebuild_after);
  Record.note_extra ~key:"swaps" (float_of_int astats.Server.Engine.swaps);
  Record.note_extra ~key:"static_final_mre" static_tl.(windows - 1);
  Record.note_extra ~key:"adaptive_final_mre" adaptive_tl.(windows - 1);
  Record.note_extra ~key:"static_max_mre" (maxf static_tl);
  Record.note_extra ~key:"adaptive_max_mre" (maxf adaptive_tl);
  Printf.printf
    "adaptive: %d summary swaps, zero manual rebuilds; final mre %.3f vs %.3f frozen\n"
    astats.Server.Engine.swaps
    adaptive_tl.(windows - 1)
    static_tl.(windows - 1);
  (* Gate: the headline must actually show.  The frozen summary's error
     grows as the window slides away; the adaptive pass ends well below
     it and never exceeds a bounded ceiling.  Thresholds sit far from
     the measured values (see docs/ADAPTIVITY.md) — this catches the
     adaptivity loop silently dying, not measurement noise. *)
  if maxf static_tl <= 2.0 *. static_tl.(0) then
    failwith "drift gate: frozen-summary MRE never degraded — drift model broken?";
  if adaptive_tl.(windows - 1) >= static_tl.(windows - 1) then
    failwith "drift gate: adaptive MRE no better than frozen at the final window";
  if maxf adaptive_tl >= maxf static_tl then
    failwith "drift gate: adaptive MRE peak not below the frozen peak"

(* ------------------------------------------------------------------ *)
(* Timing: bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let timing () =
  header "timing: estimator build and probe costs (bechamel, monotonic clock)";
  let ds = dataset "n(20)" in
  let s = sample ds in
  let domain = E.domain_of ds in
  let h = Bandwidth.Normal_scale.bandwidth_of_samples ~kernel:K.Epanechnikov s in
  let kde = Kde.Estimator.create ~domain ~h s in
  let ewh = Histograms.Builders.equi_width ~domain ~bins:87 s in
  let hybrid = Hybrid.Partitioned.build ~domain s in
  let qs = queries ~count:64 ds in
  let probe_idx = ref 0 in
  let next_query () =
    let q = qs.(!probe_idx land 63) in
    incr probe_idx;
    q
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"kernel-probe-indexed"
        (Staged.stage (fun () ->
             let q = next_query () in
             Kde.Estimator.selectivity kde ~a:q.Workload.Query.lo ~b:q.Workload.Query.hi));
      Test.make ~name:"kernel-probe-scan"
        (Staged.stage (fun () ->
             let q = next_query () in
             Kde.Estimator.selectivity_scan kde ~a:q.Workload.Query.lo ~b:q.Workload.Query.hi));
      Test.make ~name:"histogram-probe"
        (Staged.stage (fun () ->
             let q = next_query () in
             Histograms.Histogram.selectivity ewh ~a:q.Workload.Query.lo ~b:q.Workload.Query.hi));
      Test.make ~name:"hybrid-probe"
        (Staged.stage (fun () ->
             let q = next_query () in
             Hybrid.Partitioned.selectivity hybrid ~a:q.Workload.Query.lo ~b:q.Workload.Query.hi));
      Test.make ~name:"ewh-build"
        (Staged.stage (fun () -> ignore (Histograms.Builders.equi_width ~domain ~bins:87 s)));
      Test.make ~name:"kernel-build-NS"
        (Staged.stage (fun () ->
             let h = Bandwidth.Normal_scale.bandwidth_of_samples ~kernel:K.Epanechnikov s in
             ignore (Kde.Estimator.create ~domain ~h s)));
      Test.make ~name:"bandwidth-DPI2"
        (Staged.stage (fun () ->
             ignore (Bandwidth.Plug_in.bandwidth ~iterations:2 ~kernel:K.Epanechnikov s)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false () in
  let instance = Toolkit.Instance.monotonic_clock in
  let results_raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"selest" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance results_raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "%-32s %12.1f ns/op\n" name ns
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Micro: scalar vs batch per-estimate cost, with the regression gate   *)
(* ------------------------------------------------------------------ *)

module Batch = Selest.Batch

(* Set when the micro gate fails; main still writes BENCH_results.json
   (so the regression is diffable) and then exits non-zero. *)
let micro_gate_failed = ref false

(* Nanoseconds per estimate over [reps] calls of [f], which evaluates
   [ops] estimates per call. *)
let ns_per_op f ~reps ops =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (reps * ops)

(* Calls of [f] that fill ~80ms, doubling from one, so cheap ops get
   enough reps to dominate clock granularity.  The first call warms:
   it faults in lazy tables and brings the arrays into cache. *)
let reps_for f =
  f ();
  let rec grow reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    if Unix.gettimeofday () -. t0 >= 0.08 || reps >= 1 lsl 22 then reps else grow (reps * 2)
  in
  grow 1

(* Each op's scalar and batch paths are timed alternately this many
   times, and the gate reads the median of the per-round speedups: a
   single timing per path let one burst of host noise fail a floor. *)
let micro_rounds = 5

(* Minor-heap words per estimate: exact, not sampled — Gc.minor_words
   counts every word ever allocated on the minor heap. *)
let words_per_op f ops =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int (10 * ops)

(* The per-estimate scalar-vs-batch comparison behind docs/PERFORMANCE.md:
   each estimator family's closure path against its compiled batch plan
   over the same query arrays, plus the stored-summary and catalog
   serving paths.  Writes micro_by_op to BENCH_results.json (schema v5)
   and enforces the regression gate:

   - every batch path must allocate nothing per estimate, and
   - per-op speedup floors must hold.  The floors sit well below the
     speedups measured on the reference machine (docs/PERFORMANCE.md) —
     the gate catches regressions of the batch path on noisy hardware,
     it does not re-measure the headline each run.  The headline floor
     is 5x on the LUT-backed Gaussian kernel, the op the batch path's
     ~10x target was set for: its scalar baseline pays a transcendental
     per sample, which the shared CDF lookup table replaces.  Ops whose
     cost is arithmetic shared bit-for-bit by both paths (ASH, the
     Epanechnikov kernel, the hybrid) cannot speed up by more than their
     per-call overhead and carry no floor; their measured speedups are
     still recorded and reported. *)
let micro_headline_op = "Kernel(gaussian,none,NS)"

let micro_floors =
  [
    (micro_headline_op, 5.0);
    ("Sampling", 1.5);
    ("EWH(NS)", 1.1);
    ("stored", 1.0);  (* probe arithmetic is shared: batch must never lose *)
    ("catalog.answer", 1.3);
  ]

let micro () =
  header "micro: per-estimate cost, scalar closure path vs compiled batch path";
  let ds = dataset "u(20)" in
  let s = sample ds in
  let domain = E.domain_of ds in
  let qs = queries ds in
  let n = Array.length qs in
  let qa = Array.make n 0.0 and qb = Array.make n 0.0 and out = Array.make n 0.0 in
  Array.iteri
    (fun i q ->
      qa.(i) <- q.Workload.Query.lo;
      qb.(i) <- q.Workload.Query.hi)
    qs;
  Printf.printf "%-24s %12s %12s %9s %12s %12s\n" "op" "scalar ns" "batch ns" "speedup"
    "scalar w/est" "batch w/est";
  let rows = ref [] in
  let row op scalar batch =
    let scalar_reps = reps_for scalar and batch_reps = reps_for batch in
    let rounds =
      List.init micro_rounds (fun _ ->
          let s = ns_per_op scalar ~reps:scalar_reps n in
          (s, ns_per_op batch ~reps:batch_reps n))
    in
    let median f = Stats.Quantile.quantile (Array.of_list (List.map f rounds)) 0.5 in
    let scalar_ns = median fst and batch_ns = median snd in
    let speedup = median (fun (s, b) -> s /. b) in
    let scalar_words = words_per_op scalar n and batch_words = words_per_op batch n in
    Printf.printf "%-24s %12.1f %12.1f %8.2fx %12.2f %12.2f\n%!" op scalar_ns batch_ns
      speedup scalar_words batch_words;
    Record.note_micro ~op
      { Record.scalar_ns; batch_ns; scalar_words; batch_words; speedup };
    rows := (op, speedup, batch_words) :: !rows
  in
  let specs =
    Est.
      [
        Sampling;
        Equi_width Normal_scale_bins;
        Equi_depth { bins = 25 };
        Ash { bins = Normal_scale_bins; shifts = 10 };
        Frequency_polygon (Fixed_bins 25);
        kernel_defaults;
        Kernel
          {
            kernel = Kernels.Kernel.Gaussian;
            boundary = Kde.Estimator.No_treatment;
            bandwidth = Normal_scale_bandwidth;
          };
        hybrid_defaults;
      ]
  in
  List.iter
    (fun spec ->
      let est = Est.build spec ~domain s in
      let plan = Batch.compile est in
      row (Est.spec_name spec)
        (fun () ->
          for i = 0 to n - 1 do
            out.(i) <- Est.selectivity est ~a:qa.(i) ~b:qb.(i)
          done)
        (fun () -> Batch.estimate_into plan ~n ~a:qa ~b:qb ~out))
    specs;
  (* The persisted-summary probe: what the catalog actually evaluates. *)
  let stored =
    Selest.Stored.of_estimator ~domain (Est.build Est.kernel_defaults ~domain s)
  in
  row "stored"
    (fun () ->
      for i = 0 to n - 1 do
        out.(i) <- Selest.Stored.selectivity stored ~a:qa.(i) ~b:qb.(i)
      done)
    (fun () -> Selest.Stored.selectivity_into stored ~pos:0 ~len:n ~a:qa ~b:qb ~out);
  (* The serving layer end to end: the grouped-Hashtbl answer path
     against answer_into over the same run-structured batch. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "selest_bench_micro" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let svc, _ = Cat.open_dir dir in
  List.iter
    (fun spec ->
      match Cat.build svc ~name:("u(20)/" ^ spec) ~spec ~domain ~sample:s with
      | Ok _ -> ()
      | Error msg -> failwith (Printf.sprintf "micro catalog build %s: %s" spec msg))
    [ "ewh"; "kernel" ];
  let names =
    Array.init n (fun i -> if i < n / 2 then "u(20)/ewh" else "u(20)/kernel")
  in
  let requests = Array.init n (fun i -> (names.(i), qa.(i), qb.(i))) in
  row "catalog.answer"
    (fun () -> ignore (Cat.answer svc requests))
    (fun () -> Cat.answer_into svc ~n ~names ~a:qa ~b:qb ~out);
  (* The read side of the wire: a fresh request value per frame against
     the interning scratch decoder the serving engine reads with.  One
     entry name repeats across frames, as it does on a real connection,
     so the scratch path must decode with zero allocation. *)
  let payloads =
    Array.init n (fun i ->
        Server.Wire.encode_request
          (Server.Wire.Estimate { entry = "u(20)/ewh"; a = qa.(i); b = qb.(i); spec = "" }))
  in
  let bufs = Array.map Bytes.of_string payloads in
  let lens = Array.map Bytes.length bufs in
  let sc = Server.Wire.create_scratch () in
  row "wire.decode"
    (fun () ->
      for i = 0 to n - 1 do
        match Server.Wire.decode_request payloads.(i) with
        | Ok _ -> ()
        | Error m -> failwith ("micro wire.decode: " ^ m)
      done)
    (fun () ->
      for i = 0 to n - 1 do
        match Server.Wire.decode_request_scratch bufs.(i) ~len:lens.(i) sc with
        | Ok Server.Wire.Fast_estimate -> out.(i) <- sc.Server.Wire.s_q.Server.Wire.sa
        | Ok (Server.Wire.Decoded _) | Error _ -> failwith "micro wire.decode: scratch path"
      done);
  (* Gate: batch paths allocation-free, per-op speedup floors hold. *)
  let rows = List.rev !rows in
  let geomean =
    exp (List.fold_left (fun acc (_, sp, _) -> acc +. log sp) 0.0 rows
         /. float_of_int (List.length rows))
  in
  Record.note_extra ~key:"speedup_geomean" geomean;
  Record.note_extra ~key:"queries_per_batch" (float_of_int n);
  (match List.find_opt (fun (op, _, _) -> op = micro_headline_op) rows with
  | Some (_, sp, _) ->
    Record.note_extra ~key:"headline_speedup" sp;
    Printf.printf "headline (%s): %.2fx; geomean over %d ops: %.2fx\n" micro_headline_op sp
      (List.length rows) geomean
  | None ->
    micro_gate_failed := true;
    Printf.printf "GATE FAIL: headline op %s was not measured\n" micro_headline_op);
  List.iter
    (fun (op, _, w) ->
      if w > 0.0 then begin
        micro_gate_failed := true;
        Printf.printf "GATE FAIL: %s allocates %.2f minor words per batched estimate\n" op w
      end)
    rows;
  List.iter
    (fun (op, floor) ->
      match List.find_opt (fun (o, _, _) -> o = op) rows with
      | None ->
        micro_gate_failed := true;
        Printf.printf "GATE FAIL: floor op %s was not measured\n" op
      | Some (_, sp, _) ->
        if sp < floor then begin
          micro_gate_failed := true;
          Printf.printf "GATE FAIL: %s speedup %.2fx below its %.1fx floor\n" op sp floor
        end)
    micro_floors;
  if not !micro_gate_failed then
    Printf.printf "gate: batch paths allocation-free, all per-op speedup floors hold\n"

(* ------------------------------------------------------------------ *)
(* Advise: workload-grid crossover matrix and chosen-spec regret gate   *)
(* ------------------------------------------------------------------ *)

(* Set when the advise gate fails; like the micro gate, the failing
   numbers land in BENCH_results.json before the non-zero exit. *)
let advise_gate_failed = ref false

(* The default policy trades up to its 10% tie margin of accuracy for
   cost, so the chosen spec's regret against the sweep's best single
   spec is at most 1.10 by construction; the ceiling sits above that to
   catch scoring/normalization drift, not measurement noise. *)
let advise_regret_ceiling = 1.25

let advise_datasets = [ "n(20)"; "e(20)"; "arap1" ]

(* Four selectivity bands spanning the paper's 0.1%-50% range, crossed
   with the default data-skew and uniform placement profiles. *)
let advise_targets = [ 0.001; 0.01; 0.1; 0.4 ]

let bench_advise () =
  header "advise: targeted-selectivity sweep, crossover matrix, regret gate";
  List.iter
    (fun file ->
      let ds = dataset file in
      let s = sample ds in
      let sweep =
        Advisor.Sweep.run ~jobs:!jobs ~targets:advise_targets ds ~seed:query_seed
          ~sample:s
      in
      let r =
        match Advisor.Recommend.recommend sweep with
        | Ok r -> r
        | Error msg -> failwith (Printf.sprintf "advise %s: %s" file msg)
      in
      let open Advisor in
      let cells = List.length sweep.Sweep.s_workloads in
      let grid_queries = cells * sweep.Sweep.s_count in
      (* mre_by_spec rows (one per swept spec), with the grid's query
         volume and each spec's build time attributed to this target. *)
      List.iter2
        (fun (c : Sweep.cost) (p : Pareto.point) ->
          Record.note ~key:(file ^ "/" ^ c.Sweep.c_spec) ~mre:p.Pareto.p_mre
            ~build_s:c.Sweep.c_build_s ~queries:grid_queries
            ~query_s:(c.Sweep.c_ns_per_estimate *. float_of_int grid_queries *. 1e-9))
        sweep.Sweep.s_costs
        (Pareto.points_of_sweep sweep);
      (* The crossover matrix, one group per grid cell holding every
         spec's MRE there; the winner is the argmin, so the printed
         column below is recomputable from the serialized fields. *)
      List.iter
        (fun (b : Pareto.band) ->
          Record.note_group ~section:"crossover"
            ~group:
              (Printf.sprintf "%s|%s|%g" file
                 (Workloads.placement_name b.Pareto.b_placement)
                 b.Pareto.b_target)
            b.Pareto.b_mres)
        r.Recommend.r_crossover;
      Printf.printf "%-8s %-10s %-9s %-14s %-8s\n" "dataset" "placement" "target%"
        "winner" "mre%";
      List.iter
        (fun (b : Pareto.band) ->
          Printf.printf "%-8s %-10s %-9.3f %-14s %-8.2f\n" file
            (Workloads.placement_name b.Pareto.b_placement)
            (100. *. b.Pareto.b_target) b.Pareto.b_winner
            (100. *. b.Pareto.b_winner_mre))
        r.Recommend.r_crossover;
      List.iter
        (fun (f : Workloads.failure) ->
          Printf.printf "%s: target %.3f%% (%s) unachievable: %s\n" file
            (100. *. f.Workloads.f_target)
            (Workloads.placement_name f.Workloads.f_placement)
            f.Workloads.f_reason)
        sweep.Sweep.s_skipped;
      Record.note_extra ~key:(Printf.sprintf "advisor_chosen_mre_%s" file)
        r.Recommend.r_mean_mre;
      Record.note_extra ~key:(Printf.sprintf "advisor_best_mre_%s" file)
        r.Recommend.r_best_mre;
      Record.note_extra ~key:(Printf.sprintf "advisor_regret_%s" file)
        r.Recommend.r_regret;
      Record.note_extra ~key:(Printf.sprintf "advisor_oracle_regret_%s" file)
        r.Recommend.r_oracle_regret;
      Printf.printf
        "%s: chose %s  mean mre %.2f%%  regret %.3fx vs best spec, %.3fx vs per-cell \
         oracle\n%!"
        file r.Recommend.r_spec
        (100. *. r.Recommend.r_mean_mre)
        r.Recommend.r_regret r.Recommend.r_oracle_regret;
      if r.Recommend.r_regret > advise_regret_ceiling then begin
        advise_gate_failed := true;
        Printf.printf "GATE FAIL: %s chosen-spec regret %.3fx above the %.2fx ceiling\n"
          file r.Recommend.r_regret advise_regret_ceiling
      end)
    advise_datasets;
  if not !advise_gate_failed then
    Printf.printf
      "gate: chosen-spec regret within %.2fx of the sweep's best on all %d datasets\n"
      advise_regret_ceiling
      (List.length advise_datasets)

(* ------------------------------------------------------------------ *)
(* Registry and main                                                   *)
(* ------------------------------------------------------------------ *)

let targets =
  [
    ("table2", table2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("ablation_kernels", ablation_kernels);
    ("ablation_dpi", ablation_dpi);
    ("ablation_ash", ablation_ash);
    ("ablation_hybrid", ablation_hybrid);
    ("ablation_boundary", ablation_boundary);
    ("ext_multidim", ext_multidim);
    ("ext_histograms", ext_histograms);
    ("ext_feedback", ext_feedback);
    ("ext_join", ext_join);
    ("ext_mise", ext_mise);
    ("catalog", bench_catalog);
    ("advise", bench_advise);
    ("serve", bench_serve);
    ("drift", bench_drift);
    ("timing", timing);
    ("micro", micro);
  ]

let results_path = "BENCH_results.json"

let run_target (name, run) =
  Record.start name;
  let t = Unix.gettimeofday () in
  run ();
  let wall = Unix.gettimeofday () -. t in
  Record.finish wall;
  Printf.printf "(%.1fs)\n%!" wall

let usage () =
  prerr_endline
    "usage: dune exec bench/main.exe -- [--jobs N] [--telemetry FILE] [list | <target>...]";
  prerr_endline "       (targets: dune exec bench/main.exe -- list)";
  prerr_endline "       --telemetry FILE  record build/query/pool telemetry to FILE (JSON)";
  exit 1

(* Strip --jobs N / --jobs=N / -j N / --telemetry FILE / --telemetry=FILE
   out of argv; everything else is a target name. *)
let parse_args argv =
  let starts_with prefix s =
    String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  let rec go acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        go acc rest
      | _ -> usage ())
    | arg :: rest when starts_with "--jobs=" arg -> (
      match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
      | Some j when j >= 1 ->
        jobs := j;
        go acc rest
      | _ -> usage ())
    | "--catalog" :: rest ->
      (* Alias for the catalog serving target. *)
      go ("catalog" :: acc) rest
    | "--serve" :: rest ->
      (* Alias for the network serving target. *)
      go ("serve" :: acc) rest
    | "--micro" :: rest ->
      (* Alias for the scalar-vs-batch microbenchmark target. *)
      go ("micro" :: acc) rest
    | "--advise" :: rest ->
      (* Alias for the advisor crossover-and-regret target. *)
      go ("advise" :: acc) rest
    | "--drift" :: rest ->
      (* Alias for the adaptive-serving drift-timeline target. *)
      go ("drift" :: acc) rest
    | "--telemetry" :: path :: rest when path <> "" ->
      telemetry_path := Some path;
      go acc rest
    | arg :: rest when starts_with "--telemetry=" arg ->
      telemetry_path := Some (String.sub arg 12 (String.length arg - 12));
      go acc rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] (List.tl (Array.to_list argv))

let write_telemetry () =
  match !telemetry_path with
  | None -> ()
  | Some path ->
    Telemetry.Export.write_file ~path Telemetry.Export.Json;
    Printf.printf "telemetry: %s\n" path

(* Results are written and telemetry flushed before the micro gate turns
   a regression into a non-zero exit: the failing numbers must land in
   BENCH_results.json so the regression is diffable. *)
let finish_run () =
  Record.write results_path;
  Printf.printf "results: %s\n" results_path;
  write_telemetry ();
  if !micro_gate_failed then begin
    prerr_endline "micro gate failed (see GATE FAIL lines above)";
    exit 1
  end;
  if !advise_gate_failed then begin
    prerr_endline "advise gate failed (see GATE FAIL lines above)";
    exit 1
  end

let () =
  let args = parse_args Sys.argv in
  if !telemetry_path <> None then Telemetry.Control.enable ();
  match args with
  | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) targets
  | [] ->
    let t0 = Unix.gettimeofday () in
    List.iter run_target targets;
    Printf.printf "\ntotal: %.1fs (jobs: %d)\n" (Unix.gettimeofday () -. t0) !jobs;
    finish_run ()
  | names ->
    let selected =
      List.map
        (fun name ->
          match List.assoc_opt name targets with
          | Some run -> (name, run)
          | None ->
            Printf.eprintf "unknown target %s (try: dune exec bench/main.exe -- list)\n" name;
            exit 1)
        names
    in
    List.iter run_target selected;
    finish_run ()
