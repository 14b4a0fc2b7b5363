(* Per-layer metrics of a trace run, from the spans and meters of its
   traced passes and the library counters read after each of them.
   Times, counts and bytes are per traced pass unless the name says
   otherwise (per evaluation, per job, per run).  A metric whose layer
   the workload does not reach, or cannot be reached from outside the
   library on this workload, reads 0. *)

module W = Workloads
module Stats = Nocmap_util.Stats

type metric = { name : string; unit_ : string; value : float }

(* Name and unit, in report order; BENCHMARK.json lists the same. *)
let catalog =
  [
    ("model.parse_s", "s");
    ("model.cwg_s", "s");
    ("noc.crg_s", "s");
    ("noc.symmetry_s", "s");
    ("mapping.objective_setup_s", "s");
    ("mapping.search_evals", "count");
    ("mapping.evals", "count");
    ("mapping.eval_s", "s");
    ("mapping.eval_us_mean", "us");
    ("mapping.cache_s", "s");
    ("mapping.cache_hit_ratio", "ratio");
    ("mapping.cache_hits", "count");
    ("mapping.cache_misses", "count");
    ("mapping.cache_evictions", "count");
    ("mapping.prune_ratio", "ratio");
    ("mapping.search_self_s", "s");
    ("mapping.minor_words_per_eval", "words");
    ("mapping.major_words_per_eval", "words");
    ("sim.runs", "count");
    ("sim.events", "count");
    ("sim.events_per_run", "count");
    ("sim.truncated_ratio", "ratio");
    ("sim.host_ns_per_event", "ns");
    ("decompose.region_evals", "count");
    ("decompose.region_eval_s", "s");
    ("decompose.polish_evals", "count");
    ("decompose.polish_eval_s", "s");
    ("util.domain_busy_ratio", "ratio");
    ("core.cwm_search_s", "s");
    ("core.cdcm_search_s", "s");
    ("core.final_eval_s", "s");
    ("serve.spec_parse_us", "us");
    ("serve.admit_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.run_ms", "ms");
    ("persist.bytes_per_job", "bytes");
    ("persist.snapshots_per_job", "count");
    ("process.peak_rss_mb", "MB");
    ("op.latency_p50_ms", "ms");
    ("op.latency_p90_ms", "ms");
    ("trace.wall_untraced_s", "s");
    ("trace.wall_traced_s", "s");
    ("trace.overhead_s", "s");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let median = function [] -> 0.0 | xs -> Stats.median xs

let metrics ~minor_per_eval ~major_per_eval ~peak_rss_mb ~latency_p50_ms ~latency_p90_ms
    ~(untraced : W.pass list) ~(traced : W.pass list) =
  let n = float_of_int (max 1 (List.length traced)) in
  let per_pass name = Probe.sum name /. n in
  let ctr name = Probe.sum ("ctr." ^ name) in
  let base = Probe.totals "base" and outer = Probe.totals "outer" in
  let region = Probe.totals "region" and polish = Probe.totals "polish" in
  let base_calls = base.Probe.t_calls + region.Probe.t_calls + polish.Probe.t_calls in
  let base_s = base.Probe.t_seconds +. region.Probe.t_seconds +. polish.Probe.t_seconds in
  (* Without meters (compare_models and the serve engine build their
     objectives inside the library) the uncached evaluations are the
     CWM ones plus the CDCM cache misses. *)
  let evals =
    if base_calls > 0 then float_of_int base_calls
    else Probe.sum "core.cwm_evals" +. ctr "cache.misses"
  in
  let hits = ctr "cache.hits" +. ctr "cache.bound_hits" in
  let search_s = Probe.sum "mapping.search" in
  let busy = ratio outer.Probe.t_seconds (Probe.sum "mapping.search_capacity") in
  let prune =
    if outer.Probe.t_bound > 0 then
      ratio (float_of_int outer.Probe.t_pruned) (float_of_int outer.Probe.t_bound)
    else ratio (ctr "search.cutoff_hits") (ctr "search.evaluations")
  in
  (* Per job on serve_jobs; the sums are 0 on the other workloads. *)
  let jobs = float_of_int (List.fold_left (fun a p -> a + p.W.attempted) 0 traced) in
  let serve name scale = scale *. ratio (Probe.sum name) jobs in
  let wall ps = median (List.map (fun p -> p.W.wall_s) ps) in
  let value = function
    | "model.parse_s" -> per_pass "model.parse"
    | "model.cwg_s" -> per_pass "model.cwg"
    | "noc.crg_s" -> per_pass "noc.crg"
    | "noc.symmetry_s" -> per_pass "noc.symmetry"
    | "mapping.objective_setup_s" -> per_pass "mapping.objective_setup"
    | "mapping.search_evals" ->
      float_of_int (List.fold_left (fun a p -> a + p.W.evaluations) 0 traced) /. n
    | "mapping.evals" -> evals /. n
    | "mapping.eval_s" -> base_s /. n
    | "mapping.eval_us_mean" -> 1e6 *. ratio base_s (float_of_int base_calls)
    | "mapping.cache_s" -> Float.max 0.0 (outer.Probe.t_seconds -. base_s) /. n
    | "mapping.cache_hit_ratio" -> ratio hits (hits +. ctr "cache.misses")
    | "mapping.cache_hits" -> hits /. n
    | "mapping.cache_misses" -> ctr "cache.misses" /. n
    | "mapping.cache_evictions" -> ctr "cache.evictions" /. n
    | "mapping.prune_ratio" -> prune
    | "mapping.search_self_s" -> search_s *. Float.max 0.0 (1.0 -. busy) /. n
    | "mapping.minor_words_per_eval" -> minor_per_eval
    | "mapping.major_words_per_eval" -> major_per_eval
    | "sim.runs" -> ctr "sim.runs" /. n
    | "sim.events" -> ctr "sim.events_processed" /. n
    | "sim.events_per_run" -> ratio (ctr "sim.events_processed") (ctr "sim.runs")
    | "sim.truncated_ratio" -> ratio (ctr "sim.runs_truncated") (ctr "sim.runs")
    | "sim.host_ns_per_event" -> 1e9 *. ratio base_s (ctr "sim.events_processed")
    | "decompose.region_evals" -> float_of_int region.Probe.t_calls /. n
    | "decompose.region_eval_s" -> region.Probe.t_seconds /. n
    | "decompose.polish_evals" -> float_of_int polish.Probe.t_calls /. n
    | "decompose.polish_eval_s" -> polish.Probe.t_seconds /. n
    | "util.domain_busy_ratio" -> busy
    | "core.cwm_search_s" -> per_pass "timer.cwm_search"
    | "core.cdcm_search_s" -> per_pass "timer.cdcm_search"
    | "core.final_eval_s" -> per_pass "timer.final_evaluation"
    | "serve.spec_parse_us" -> serve "serve.spec_parse" 1e6
    | "serve.admit_ms" -> serve "serve.admit" 1e3
    | "serve.queue_wait_ms" -> serve "serve.queue_wait" 1e3
    | "serve.run_ms" -> serve "serve.run" 1e3
    | "persist.bytes_per_job" -> serve "ctr.persist.bytes" 1.0
    | "persist.snapshots_per_job" -> serve "ctr.persist.snapshots" 1.0
    | "process.peak_rss_mb" -> peak_rss_mb
    | "op.latency_p50_ms" -> latency_p50_ms
    | "op.latency_p90_ms" -> latency_p90_ms
    | "trace.wall_untraced_s" -> wall untraced
    | "trace.wall_traced_s" -> wall traced
    | "trace.overhead_s" -> wall traced -. wall untraced
    | other -> invalid_arg ("Layers.metrics: " ^ other)
  in
  List.map (fun (name, unit_) -> { name; unit_; value = value name }) catalog
