(* The four workloads.  Each one turns the seed into input text (the
   benchmark's own generator work, not timed), then hands back a [pass]
   closure that drives the library's public entry points from that text
   and checks every result it returns.  A pass is one closed-loop round
   of operations: the next operation starts when the previous one has
   returned. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Textio = Nocmap_model.Textio
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Equations = Nocmap_energy.Equations
module Mapping = Nocmap_mapping
module Objective = Mapping.Objective
module Placement = Mapping.Placement
module Eval_cache = Mapping.Eval_cache
module Cost_cdcm = Mapping.Cost_cdcm
module Rng = Nocmap_util.Rng
module Stats = Nocmap_util.Stats
module Domain_pool = Nocmap_util.Domain_pool
module Experiment = Nocmap.Experiment
module Json = Nocmap_persist.Json
module Job_spec = Nocmap_serve.Job_spec
module Engine = Nocmap_serve.Engine

let now = Probe.now
let ms s = 1000.0 *. s
let pj j = j *. 1e12

(* What one pass hands back to the runner. *)
type pass = {
  wall_s : float;  (** The pass's program work, set-up included. *)
  setups_s : float list;
      (** Per input: its text to objectives ready for evaluation. *)
  latencies_ms : float list;  (** One per operation, in order. *)
  energies_pj : float list;
      (** Per returned mapping: the searched objective's energy. *)
  texecs_ns : float list;  (** Simulated execution times. *)
  attempted : int;  (** Mappings returned, or jobs submitted. *)
  failed : int;  (** Of [attempted], those failing their check. *)
  evaluations : int;  (** Cost calls, as the searches report them. *)
  digest : string;
      (** Every result bit for bit: equal across passes over the same
          inputs, whatever the domain count. *)
  accuracy : (float * float * float) option;
      (** Average ETR / ECS-low / ECS-high (percent), [paper_table2]. *)
}

type t = {
  name : string;
  make : seed:int -> pool:Domain_pool.t option -> pass;
      (** Partial application to [~seed] generates the inputs; each
          further application runs one pass. *)
}

(* Correctness checks are the benchmark's work: they run with the
   library's counters off so they never show in a layer's numbers. *)
let unobserved f = Nocmap_obs.Metrics.with_enabled false f

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let placement_key p = String.concat "," (Array.to_list (Array.map string_of_int p))
let tech = Technology.t007
let params = Noc_params.paper_example

let parse text =
  match Probe.span "model.parse" (fun () -> Textio.cdcg_of_string text) with
  | Ok cdcg -> cdcg
  | Error e -> failwith ("generated CDCG does not parse: " ^ e)

(* The set-up chain of every mapping workload, one span per layer. *)
type prepared = { cdcg : Cdcg.t; cwg : Cwg.t; crg : Crg.t; symmetry : Symmetry.t }

let prepare ~mesh ~level text =
  let cdcg = parse text in
  let cwg = Probe.span "model.cwg" (fun () -> Cwg.of_cdcg cdcg) in
  let crg = Probe.span "noc.crg" (fun () -> Crg.create mesh) in
  let symmetry = Probe.span "noc.symmetry" (fun () -> Symmetry.of_crg ~level crg) in
  { cdcg; cwg; crg; symmetry }

(* The base objective is metered before [with_cache] wraps it, the
   search-visible objective after, so the per-layer split can tell
   evaluation time from cache time. *)
let cached ~base_tag ~symmetry ~cores ?support base =
  Probe.metered "outer"
    (Objective.with_cache
       (Eval_cache.create ~symmetry ~cores ?support ~discriminator:base.Objective.name ())
       (Probe.metered base_tag base))

(* The same core graph under a seeded relabelling of its cores: an
   isomorphic instance per seed, so work per pass barely depends on the
   seed while the search sees different inputs. *)
let relabel rng (g : Cdcg.t) =
  let n = Cdcg.core_count g in
  let perm = Array.init n Fun.id in
  Rng.shuffle_in_place rng perm;
  let core_names = Array.make n "" in
  Array.iteri (fun i name -> core_names.(perm.(i)) <- name) g.Cdcg.core_names;
  let packets =
    Array.map
      (fun (p : Cdcg.packet) -> { p with Cdcg.src = perm.(p.Cdcg.src); dst = perm.(p.Cdcg.dst) })
      g.Cdcg.packets
  in
  Cdcg.create_exn ~name:g.Cdcg.name ~core_names ~packets ~deps:g.Cdcg.deps

(* A search call, with the domain-seconds it had: the base for the
   share of time the search spent inside its objectives. *)
let search_span ~domains f =
  let t0 = now () in
  let r = Probe.span "mapping.search" f in
  Probe.add "mapping.search_capacity" (float_of_int domains *. (now () -. t0));
  r

let exact_evaluation_ok cdcg (e : Cost_cdcm.evaluation) =
  same e.Cost_cdcm.total
    (Equations.total_energy ~dynamic:e.Cost_cdcm.dynamic ~static_:e.Cost_cdcm.static_)
  && e.Cost_cdcm.dropped_packets = 0
  && e.Cost_cdcm.delivered_packets = Cdcg.packet_count cdcg

(* ---- paper_table2 ----------------------------------------------------

   Experiment.compare_models, quick budget with two restarts (run on the
   pool), over a fixed subset of the Table 2 suite.  compare_models
   returns evaluations, not placements, so each outcome is checked by
   its invariants: every evaluation is a complete fault-free run, the
   warm-started CDCM winner is never worse than the CWM one under its
   own Eq. 10, ETR/ECS recompute bit for bit, and every pass returns the
   same bits as the one-domain warm-up pass. *)

(* Per suite draw, the fifteen instances on the small NoCs (3x2 to 3x4,
   the paper's "ES and SA" group).  The 8x8, 10x10 and 12x10 ones take
   seconds each at this budget and would leave too few passes per run.
   Two draws per seed, so the averages rest on thirty applications. *)
let table2_small = 15
let table2_draws ~seed = [ 2 * seed; (2 * seed) + 1 ]

let paper_table2 =
  let make ~seed =
    let inputs =
      List.concat_map
        (fun draw ->
          List.filteri
            (fun i _ -> i < table2_small)
            (Nocmap_tgff.Suite.instances ~seed:draw))
        (table2_draws ~seed)
      |> List.map (fun (mesh, cdcg) -> (mesh, Textio.cdcg_to_string cdcg))
    in
    let config = { Experiment.quick_config with Experiment.restarts = 2 } in
    fun ~pool ->
      let rng = Rng.create ~seed in
      let rngs = List.map (fun _ -> Rng.split rng) inputs in
      let wall = ref 0.0 and setups = ref [] and latencies = ref [] and energies = ref [] in
      let texecs = ref [] and failed = ref 0 and evaluations = ref 0 in
      let digest = Buffer.create 256 and accuracy = ref [] in
      List.iter2
        (fun (mesh, text) rng ->
          let t0 = now () in
          (* The chain compare_models runs internally, timed here from
             the text; its objects are not reused. *)
          let p = prepare ~mesh ~level:Symmetry.Paths text in
          Probe.span "mapping.objective_setup" (fun () ->
              ignore
                (Objective.with_cache
                   (Eval_cache.create ~symmetry:p.symmetry ~cores:(Cdcg.core_count p.cdcg)
                      ~discriminator:"cdcm" ())
                   (Objective.cdcm ~tech ~params ~crg:p.crg ~cdcg:p.cdcg ())));
          let t1 = now () in
          let o =
            Probe.span "core.compare_models" (fun () ->
                Experiment.compare_models ?pool ~rng ~config ~mesh p.cdcg)
          in
          let t2 = now () in
          wall := !wall +. (t2 -. t0);
          setups := (t1 -. t0) :: !setups;
          latencies := ms (t2 -. t1) :: !latencies;
          let open Experiment in
          evaluations := !evaluations + o.cwm_evaluations + o.cdcm_evaluations;
          Probe.add "core.cwm_evals" (float_of_int o.cwm_evaluations);
          energies :=
            pj o.cdcm_high.Cost_cdcm.total :: pj o.cdcm_low.Cost_cdcm.total
            :: pj o.cwm_low.Cost_cdcm.dynamic :: !energies;
          texecs := o.cdcm_high.Cost_cdcm.texec_ns :: o.cdcm_low.Cost_cdcm.texec_ns :: !texecs;
          accuracy := (o.etr_percent, o.ecs_low_percent, o.ecs_high_percent) :: !accuracy;
          let reduction = Stats.reduction_percent in
          let complete = List.for_all (exact_evaluation_ok p.cdcg) in
          let saves ~(cwm : Cost_cdcm.evaluation) ~(cdcm : Cost_cdcm.evaluation) ecs =
            complete [ cdcm ]
            && cdcm.Cost_cdcm.total <= cwm.Cost_cdcm.total
            && same ecs (reduction ~baseline:cwm.Cost_cdcm.total ~improved:cdcm.Cost_cdcm.total)
          in
          let cwm_ok = complete [ o.cwm_low; o.cwm_high ] in
          let low_ok = saves ~cwm:o.cwm_low ~cdcm:o.cdcm_low o.ecs_low_percent in
          let high_ok =
            saves ~cwm:o.cwm_high ~cdcm:o.cdcm_high o.ecs_high_percent
            && same o.etr_percent
                 (reduction ~baseline:o.cwm_high.Cost_cdcm.texec_ns
                    ~improved:o.cdcm_high.Cost_cdcm.texec_ns)
          in
          List.iter (fun ok -> if not ok then incr failed) [ cwm_ok; low_ok; high_ok ];
          List.iter
            (fun (e : Cost_cdcm.evaluation) ->
              Buffer.add_string digest (bits e.Cost_cdcm.total);
              Buffer.add_string digest (bits e.Cost_cdcm.texec_ns))
            [ o.cwm_low; o.cwm_high; o.cdcm_low; o.cdcm_high ])
        inputs rngs;
      let avg f = Stats.mean (List.map f !accuracy) in
      {
        wall_s = !wall;
        setups_s = List.rev !setups;
        latencies_ms = List.rev !latencies;
        energies_pj = !energies;
        texecs_ns = !texecs;
        attempted = 3 * List.length inputs;
        failed = !failed;
        evaluations = !evaluations;
        digest = Buffer.contents digest;
        accuracy =
          Some
            ( avg (fun (e, _, _) -> e),
              avg (fun (_, l, _) -> l),
              avg (fun (_, _, h) -> h) );
      }
  in
  { name = "paper_table2"; make }

(* ---- searched mappings, checked ---------------------------------------- *)

(* A returned placement passes when it is valid and its reported cost
   equals, bit for bit, a fresh evaluation under an uncached objective. *)
let mapping_pass ~wall ~setup ~latency ~(result : Objective.search_result) ~tiles ~fresh_cost
    ~texec_ns =
  let placement = result.Objective.placement in
  let valid = Result.is_ok (Placement.validate ~tiles placement) in
  let ok = valid && same (fresh_cost placement) result.Objective.cost in
  {
    wall_s = wall;
    setups_s = [ setup ];
    latencies_ms = [ ms latency ];
    energies_pj = [ pj result.Objective.cost ];
    texecs_ns = [ texec_ns ];
    attempted = 1;
    failed = (if ok then 0 else 1);
    evaluations = result.Objective.evaluations;
    digest = placement_key placement ^ "/" ^ bits result.Objective.cost;
    accuracy = None;
  }

(* The scale workloads map a few seeded relabellings of one core graph
   per pass, one after another, so their deterministic figures average
   over several searches instead of hanging on one. *)
let scale_inputs = 3

let relabelled ~seed g =
  let rng = Rng.create ~seed in
  List.init scale_inputs (fun _ ->
      let text = Textio.cdcg_to_string (relabel rng g) in
      (text, Rng.int rng 1_000_000_000))

let sequence inputs run =
  let passes = List.map run inputs in
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 passes in
  let count f = List.fold_left (fun a p -> a + f p) 0 passes in
  {
    wall_s = sum (fun p -> p.wall_s);
    setups_s = List.concat_map (fun p -> p.setups_s) passes;
    latencies_ms = List.concat_map (fun p -> p.latencies_ms) passes;
    energies_pj = List.concat_map (fun p -> p.energies_pj) passes;
    texecs_ns = List.concat_map (fun p -> p.texecs_ns) passes;
    attempted = count (fun p -> p.attempted);
    failed = count (fun p -> p.failed);
    evaluations = count (fun p -> p.evaluations);
    digest = String.concat ";" (List.map (fun p -> p.digest) passes);
    accuracy = None;
  }

(* ---- scale_cdcm ------------------------------------------------------

   Decompose.search with the SA refiner on an 8x8 mesh: a 60-core,
   480-packet staged pipeline.  Caches as the CLI builds them: the
   top-level objective (seed scoring, composition, polish) keys the
   path-exact group, each region an identity-only cache over its own
   cores. *)

let scale_cdcm_config ~tiles =
  let c = Mapping.Decompose.default_config ~tiles in
  {
    c with
    Mapping.Decompose.sa =
      { c.Mapping.Decompose.sa with Mapping.Annealing.max_evaluations = 600 };
    polish = 8 * tiles;
  }

let scale_cdcm =
  let make ~seed =
    let mesh = Mesh.of_string "8x8" in
    let tiles = Mesh.tile_count mesh in
    let inputs =
      relabelled ~seed
        (Nocmap_tgff.Scale.pipeline ~name:"pipeline-6x10" ~stages:6 ~width:10 ())
    in
    let config = scale_cdcm_config ~tiles in
    fun ~pool ->
      sequence inputs @@ fun (text, search_seed) ->
      let t0 = now () in
      let p = prepare ~mesh ~level:Symmetry.Paths text in
      let cores = Cdcg.core_count p.cdcg in
      let base () = Objective.cdcm ~tech ~params ~crg:p.crg ~cdcg:p.cdcg () in
      let fresh () = cached ~base_tag:"polish" ~symmetry:p.symmetry ~cores (base ()) in
      let top = Probe.span "mapping.objective_setup" fresh in
      let t1 = now () in
      (* The top-level objective built during set-up serves the first call. *)
      let first = ref (Some top) in
      let objective_for () =
        match !first with
        | Some o ->
          first := None;
          o
        | None -> fresh ()
      in
      let identity = Symmetry.identity_only mesh in
      let region_objective_for ~cores:support ~tiles:_ =
        cached ~base_tag:"region" ~symmetry:identity ~cores ~support (base ())
      in
      let domains = match pool with Some p -> Domain_pool.jobs p | None -> 1 in
      let report =
        search_span ~domains (fun () ->
            Mapping.Decompose.search ~rng:(Rng.create ~seed:search_seed) ~config ~crg:p.crg
              ~cwg:p.cwg ~objective_for ~region_objective_for ?pool ())
      in
      let t2 = now () in
      let result = report.Mapping.Decompose.result in
      let e =
        unobserved (fun () ->
            Cost_cdcm.evaluate ~tech ~params ~crg:p.crg ~cdcg:p.cdcg result.Objective.placement)
      in
      let pass =
        mapping_pass ~wall:(t2 -. t0) ~setup:(t1 -. t0) ~latency:(t2 -. t1) ~result ~tiles
          ~fresh_cost:(fun _ -> e.Cost_cdcm.total)
          ~texec_ns:e.Cost_cdcm.texec_ns
      in
      if exact_evaluation_ok p.cdcg e then pass else { pass with failed = 1 }
  in
  { name = "scale_cdcm"; make }

(* ---- scale_cwm -------------------------------------------------------

   Annealing.search under CWM (Eq. 3) on the 16x16, 256-core,
   2048-packet pipeline, cache on as the CLI has it, with a fixed
   evaluation budget.  No simulation runs during the search; the
   returned mapping is simulated once afterwards for its [texec_ns]. *)

let scale_cwm_evaluations = 4_000

let scale_cwm =
  let make ~seed =
    let mesh, cdcg = Nocmap_tgff.Scale.pipeline_256 () in
    let tiles = Mesh.tile_count mesh in
    let inputs = relabelled ~seed cdcg in
    let config =
      {
        (Mapping.Annealing.default_config ~tiles) with
        Mapping.Annealing.max_evaluations = scale_cwm_evaluations;
      }
    in
    fun ~pool:_ ->
      sequence inputs @@ fun (text, search_seed) ->
      let t0 = now () in
      let p = prepare ~mesh ~level:Symmetry.Hops text in
      let cores = Cdcg.core_count p.cdcg in
      let objective =
        Probe.span "mapping.objective_setup" (fun () ->
            cached ~base_tag:"base" ~symmetry:p.symmetry ~cores
              (Objective.cwm ~tech ~crg:p.crg ~cwg:p.cwg))
      in
      let t1 = now () in
      let result =
        search_span ~domains:1 (fun () ->
            Mapping.Annealing.search ~rng:(Rng.create ~seed:search_seed) ~config ~tiles
              ~objective ~cores ())
      in
      let t2 = now () in
      let fresh = Objective.cwm ~tech ~crg:p.crg ~cwg:p.cwg in
      let e =
        unobserved (fun () ->
            Cost_cdcm.evaluate ~tech ~params ~crg:p.crg ~cdcg:p.cdcg result.Objective.placement)
      in
      mapping_pass ~wall:(t2 -. t0) ~setup:(t1 -. t0) ~latency:(t2 -. t1) ~result ~tiles
        ~fresh_cost:fresh.Objective.cost_fn ~texec_ns:e.Cost_cdcm.texec_ns
  in
  { name = "scale_cwm"; make }

(* ---- serve_jobs ------------------------------------------------------

   Small CDCM quick-SA jobs over the catalog applications on 3x3-4x4
   meshes, each sent as job-spec text with the CDCG inline, through
   Serve.Engine in a fresh state directory.  A closed loop of as many
   clients as the pool has domains: each client submits one job, then
   [run_pending] drains the batch.  A job's latency runs from its
   [submit] call to its [Completed] event. *)

let serve_jobs_per_pass = 24
let state_root = "_perfbench"

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

type job = { id : string; spec : string; mesh : Mesh.t; cdcg : Cdcg.t }

let serve_jobs =
  let make ~seed =
    let rng = Rng.create ~seed in
    let meshes = Array.map Mesh.of_string [| "3x3"; "3x4"; "4x3"; "4x4" |] in
    let jobs =
      Array.init serve_jobs_per_pass (fun i ->
          let mesh = Rng.choose rng meshes in
          let fits =
            List.filter
              (fun (_, g) -> Cdcg.core_count g <= Mesh.tile_count mesh)
              Nocmap_apps.Catalog.all
          in
          let _, cdcg = Rng.choose_list rng fits in
          let id = Printf.sprintf "job-%03d" i in
          let spec =
            Json.to_string
              (Json.Assoc
                 [
                   ("id", Json.Str id);
                   ("app", Json.Assoc [ ("cdcg", Json.Str (Textio.cdcg_to_string cdcg)) ]);
                   ("noc", Json.Str (Mesh.to_string mesh));
                   ("tech", Json.Str tech.Technology.name);
                   ("model", Json.Str "cdcm");
                   ("algorithm", Json.Str "sa");
                   ("budget", Json.Str "quick");
                   ("seed", Json.Int (1 + Rng.int rng 1_000_000));
                 ])
          in
          { id; spec; mesh; cdcg })
    in
    let pass_count = ref 0 in
    fun ~pool ->
      incr pass_count;
      let dir =
        Filename.concat state_root
          (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !pass_count)
      in
      if Sys.file_exists dir then remove_tree dir;
      let submitted = Hashtbl.create 64 and started = Hashtbl.create 64 in
      let completed = Hashtbl.create 64 and failed = ref 0 in
      (* A job that is rejected, shed, failed or timed out never gets a
         [Completed] event, so the per-job check below counts it. *)
      let emit = function
        | Engine.Started { id } -> Hashtbl.replace started id (now ())
        | Engine.Completed { id; result; _ } -> Hashtbl.replace completed id (now (), result)
        | _ -> ()
      in
      let t0 = now () in
      let engine =
        match Probe.span "serve.engine_create" (fun () -> Engine.create ~emit ~dir ()) with
        | Ok e -> e
        | Error e -> failwith ("Engine.create: " ^ e)
      in
      let t1 = now () in
      let clients = match pool with Some p -> Domain_pool.jobs p | None -> 1 in
      let n = Array.length jobs in
      let rec loop i =
        if i < n then begin
          let batch = min clients (n - i) in
          for k = i to i + batch - 1 do
            let j = jobs.(k) in
            if !Probe.tracing then
              Probe.span "serve.spec_parse" (fun () -> ignore (Job_spec.of_string j.spec));
            let s = now () in
            let outcome =
              Probe.span "serve.admit" (fun () -> Engine.submit engine ~source:j.id j.spec)
            in
            if outcome = Engine.Submitted then Hashtbl.replace submitted j.id (s, now ())
          done;
          Probe.span "serve.run_pending" (fun () -> Engine.run_pending ?pool engine);
          loop (i + batch)
        end
      in
      loop 0;
      Engine.close engine;
      let t2 = now () in
      remove_tree dir;
      let latencies = ref [] and energies = ref [] and texecs = ref [] in
      let evaluations = ref 0 and digest = Buffer.create 256 in
      Array.iter
        (fun j ->
          match (Hashtbl.find_opt submitted j.id, Hashtbl.find_opt completed j.id) with
          | Some (s, admitted), Some (c, result) ->
            latencies := ms (c -. s) :: !latencies;
            let r = Option.value (Hashtbl.find_opt started j.id) ~default:admitted in
            Probe.add "serve.queue_wait" (r -. admitted);
            Probe.add "serve.run" (c -. r);
            let ok =
              try
                let placement =
                  Mapping.Search_persist.placement_of_json (Json.get "placement" result)
                in
                let cost = Json.to_float (Json.get "cost" result) in
                let total = Json.to_float (Json.get "total_j" (Json.get "energy" result)) in
                let texec = Json.to_float (Json.get "texec_ns" result) in
                evaluations := !evaluations + Json.to_int (Json.get "evaluations" result);
                energies := pj cost :: !energies;
                texecs := texec :: !texecs;
                Buffer.add_string digest (placement_key placement ^ "/" ^ bits cost ^ ";");
                let crg = Crg.create j.mesh in
                let params = Noc_params.make ~flit_bits:16 () in
                let e =
                  unobserved (fun () ->
                      Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg:j.cdcg placement)
                in
                Result.is_ok (Placement.validate ~tiles:(Mesh.tile_count j.mesh) placement)
                && same e.Cost_cdcm.total cost && same e.Cost_cdcm.total total
                && same e.Cost_cdcm.texec_ns texec && exact_evaluation_ok j.cdcg e
              with _ -> false
            in
            if not ok then incr failed
          | _ -> incr failed)
        jobs;
      {
        wall_s = t2 -. t0;
        setups_s = [ t1 -. t0 ];
        latencies_ms = List.rev !latencies;
        energies_pj = !energies;
        texecs_ns = !texecs;
        attempted = n;
        failed = !failed;
        evaluations = !evaluations;
        digest = Buffer.contents digest;
        accuracy = None;
      }
  in
  { name = "serve_jobs"; make }

let all = [ paper_table2; scale_cdcm; scale_cwm; serve_jobs ]
