(* End-to-end benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, runs one warm-up pass
   on one domain (it fills lazy set-up, reads the allocation counts and
   gives the reference results), then repeats timed passes on the pool
   for [S] seconds.  Every pass must return the warm-up's results bit
   for bit.  Prints a human-readable record, then as its last line one
   JSON object: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  See README.md in this directory. *)

module W = Workloads
module Stats = Nocmap_util.Stats
module Domain_pool = Nocmap_util.Domain_pool
module Metrics = Nocmap_obs.Metrics
module Timer = Nocmap_obs.Timer

let usage =
  "usage: main.exe --workload paper_table2|scale_cdcm|scale_cwm|serve_jobs --seed N \
   --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : W.t; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> die (name ^ " wants an integer")
  in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun (w : W.t) -> w.W.name = v) W.all with
      | Some w -> workload := Some w
      | None -> die ("unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then die "--seconds wants a positive integer";
      seconds := Some (float_of_int s);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> die "--trace wants 0 or 1");
      go rest
    | [] -> ()
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace -> { workload; seed; seconds; trace }
  | _ -> die "missing argument"

(* ---- counters read from the library's metrics registry -------------- *)

let counter_names =
  [
    "sim.runs"; "sim.runs_truncated"; "sim.events_processed"; "cache.hits";
    "cache.bound_hits"; "cache.misses"; "cache.evictions"; "search.evaluations";
    "search.cutoff_hits"; "persist.bytes"; "persist.snapshots";
  ]

let read_counters () =
  List.iter
    (fun (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter n when List.mem s.Metrics.name counter_names ->
        Probe.add ("ctr." ^ s.Metrics.name) (float_of_int n)
      | _ -> ())
    (Metrics.snapshot ())

(* The library's own phase spans (compare_models opens them). *)
let rec read_timer_spans (spans : Timer.span list) =
  List.iter
    (fun (s : Timer.span) ->
      Probe.add ("timer." ^ s.Timer.span_name) s.Timer.wall_seconds;
      read_timer_spans s.Timer.children)
    spans

let traced_pass run =
  Metrics.reset ();
  Timer.reset ();
  Probe.tracing := true;
  Metrics.set_enabled true;
  let pass = Fun.protect run ~finally:(fun () -> Metrics.set_enabled false) in
  read_counters ();
  read_timer_spans (Timer.tree ());
  Probe.tracing := false;
  pass

(* ---- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Layers.name
             (json_number m.Layers.value) m.Layers.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- the run ------------------------------------------------------------ *)

let ratio = Layers.ratio

let () =
  let args = parse_args () in
  let w = args.workload in
  if not (Sys.file_exists W.state_root) then Sys.mkdir W.state_root 0o755;
  let pass_of = w.W.make ~seed:args.seed in
  (* Warm-up: untraced, before any other domain exists, so its
     allocation per evaluation is deterministic; its results are the
     reference for every later pass. *)
  Gc.compact ();
  let minor0, major0 = Probe.words () in
  let reference = pass_of ~pool:None in
  let minor1, major1 = Probe.words () in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let pool = if domains > 1 then Some (Domain_pool.create ~jobs:domains ()) else None in
  let evals = float_of_int (max 1 reference.W.evaluations) in
  let minor_per_eval = (minor1 -. minor0) /. evals in
  let major_per_eval = (major1 -. major0) /. evals in
  let attempted = ref reference.W.attempted and failed = ref reference.W.failed in
  let untraced = ref [] and traced = ref [] in
  let start = Probe.now () in
  let i = ref 0 in
  while !i < 2 || Probe.now () -. start < args.seconds do
    (* A trace run alternates untraced and traced passes, so the two
       sides see the same machine state and their difference is the
       tracing overhead. *)
    let is_traced = args.trace && !i mod 2 = 1 in
    let run () = pass_of ~pool in
    (* Every pass starts from a compacted heap, so no pass pays for the
       garbage of the one before it. *)
    Gc.compact ();
    let pass = if is_traced then traced_pass run else run () in
    attempted := !attempted + pass.W.attempted;
    failed :=
      !failed
      + (if pass.W.digest = reference.W.digest then pass.W.failed else pass.W.attempted);
    if is_traced then traced := pass :: !traced else untraced := pass :: !untraced;
    incr i
  done;
  Option.iter Domain_pool.shutdown pool;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let walls = List.map (fun p -> p.W.wall_s) untraced in
  let latencies = List.concat_map (fun p -> p.W.latencies_ms) untraced in
  let p50, p90 =
    match Stats.percentiles [ 50.0; 90.0 ] latencies with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  (* The gated end-to-end metrics; BENCHMARK.json lists the same. *)
  let e2e =
    let metric name unit_ value = { Layers.name; unit_; value } in
    [
      metric "wall_s" "s" (Layers.median walls);
      metric "setup_s" "s" (Layers.median (List.concat_map (fun p -> p.W.setups_s) untraced));
      metric "energy_pj" "pJ" (Stats.geometric_mean reference.W.energies_pj);
      metric "texec_ns" "ns" (Stats.geometric_mean reference.W.texecs_ns);
    ]
  in
  let peak_rss_mb = Probe.peak_rss_mb () in
  let attempted = !attempted and failed = !failed in
  line "workload         : %s (seed %d, %d domains, %d timed passes)" w.W.name args.seed domains
    (List.length untraced + List.length traced);
  List.iter (fun m -> line "%-18s %16.6g %s" m.Layers.name m.Layers.value m.Layers.unit_) e2e;
  line "%-18s %16.6g MB (recorded, not gated)" "peak_rss_mb" peak_rss_mb;
  line "%-18s %16.6g ms (p90 %.6g ms, %d operations, not gated)" "op_latency_p50" p50 p90
    (List.length latencies);
  line "%-18s %16.6g (%d of %d operations, not gated)" "failed_ratio"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  line
    "counts per pass  : %d evaluations; warm-up on one domain: %.0f minor + %.0f major \
     words = %.3f + %.3f per evaluation"
    reference.W.evaluations (minor1 -. minor0) (major1 -. major0) minor_per_eval major_per_eval;
  Option.iter
    (fun (etr, ecs_low, ecs_high) ->
      line
        "paper accuracy   : ETR %.2f %% (paper 40 %%), ECS0.35 %.2f %% (paper ~0.65 %%), \
         ECS0.07 %.2f %% (paper 20 %%) over %d instances"
        etr ecs_low ecs_high
        (W.table2_small * List.length (W.table2_draws ~seed:args.seed)))
    reference.W.accuracy;
  let metrics =
    if not args.trace then e2e
    else
      Layers.metrics ~minor_per_eval ~major_per_eval ~peak_rss_mb ~latency_p50_ms:p50
        ~latency_p90_ms:p90 ~untraced ~traced
  in
  if args.trace then begin
    let path =
      Filename.concat W.state_root
        (Printf.sprintf "trace-%s-seed%d.jsonl" w.W.name args.seed)
    in
    Probe.write_spans ~path;
    line "spans            : %s" path;
    List.iter (fun m -> line "%-32s %14.6g %s" m.Layers.name m.Layers.value m.Layers.unit_) metrics
  end;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
