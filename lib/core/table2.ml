module Mesh = Nocmap_noc.Mesh
module Rng = Nocmap_util.Rng
module Stats = Nocmap_util.Stats
module Tablefmt = Nocmap_util.Tablefmt
module Domain_pool = Nocmap_util.Domain_pool
module Cdcg = Nocmap_model.Cdcg
module Timer = Nocmap_obs.Timer

type size_summary = {
  mesh : Mesh.t;
  search_method : string;
  etr_percent : float;
  ecs_low_percent : float;
  ecs_high_percent : float;
  outcomes : Experiment.outcome list;
}

type t = {
  sizes : size_summary list;
  average_etr : float;
  average_ecs_low : float;
  average_ecs_high : float;
}

let method_for mesh =
  let small =
    List.exists
      (fun m -> Mesh.to_string m = Mesh.to_string mesh)
      Nocmap_tgff.Suite.small_sizes
  in
  if small then "ES and SA" else "SA only"

let run ?(config = Experiment.default_config) ?(progress = fun _ -> ()) ?instances
    ?pool ?stop ?journal ~seed () =
  let rng = Rng.create ~seed in
  let instances =
    match instances with
    | Some given -> given
    | None -> Nocmap_tgff.Suite.instances ~seed
  in
  let emit (outcome : Experiment.outcome) =
    progress
      (Printf.sprintf "%-8s %-14s ETR=%5.1f%% ECS%s=%6.2f%% ECS%s=%6.2f%%"
         (Mesh.to_string outcome.Experiment.mesh) outcome.Experiment.app
         outcome.Experiment.etr_percent
         config.Experiment.tech_low.Nocmap_energy.Technology.name
         outcome.Experiment.ecs_low_percent
         config.Experiment.tech_high.Nocmap_energy.Technology.name
         outcome.Experiment.ecs_high_percent)
  in
  (* Substreams are split in suite order before any comparison runs, so
     a pooled run consumes the RNG exactly like the sequential one. *)
  let arr = Array.of_list instances in
  let n = Array.length arr in
  let rngs = Array.make n rng in
  for i = 0 to n - 1 do
    rngs.(i) <- Rng.split rng
  done;
  (* One span per (mesh, app) pair; the search spans inside
     [compare_models] nest under it.  On a pooled run the workers' spans
     land in their own domain-local trees, so only the sequential path
     yields a per-app breakdown — the [table2] parent still times the
     whole sweep either way. *)
  let compare i =
    let mesh, cdcg = arr.(i) in
    (* One scope per suite instance: shard keys are stable across runs
       because the suite order is a pure function of the seed. *)
    let journal =
      Option.map
        (fun j ->
          Nocmap_mapping.Search_persist.sub j
            (Printf.sprintf "t2-%02d-%s-%s" i (Mesh.to_string mesh) cdcg.Cdcg.name))
        journal
    in
    Timer.time
      (Printf.sprintf "%s %s" (Mesh.to_string mesh) cdcg.Cdcg.name)
      (fun () ->
        Experiment.compare_models ?pool ?stop ?journal ~rng:rngs.(i) ~config
          ~mesh cdcg)
  in
  let indices = Array.init n Fun.id in
  let outcomes =
    Timer.time "table2" @@ fun () ->
    match pool with
    | None ->
      (* Sequential: stream the progress line as each app finishes. *)
      Array.to_list
        (Array.map
           (fun i ->
             let o = compare i in
             emit o;
             o)
           indices)
    | Some _ ->
      (* Parallel: [progress] need not be thread-safe, so the per-app
         lines are emitted in suite order once the batch settles. *)
      let results = Domain_pool.map ?pool compare indices in
      Array.iter emit results;
      Array.to_list results
  in
  (* Group by NoC size preserving the suite order. *)
  let keys = ref [] in
  let by_mesh = Hashtbl.create 8 in
  List.iter
    (fun (o : Experiment.outcome) ->
      let key = Mesh.to_string o.Experiment.mesh in
      if not (Hashtbl.mem by_mesh key) then keys := key :: !keys;
      Hashtbl.replace by_mesh key
        (o :: Option.value (Hashtbl.find_opt by_mesh key) ~default:[]))
    outcomes;
  let sizes =
    List.rev_map
      (fun key ->
        let outcomes = List.rev (Hashtbl.find by_mesh key) in
        let mean f = Stats.mean (List.map f outcomes) in
        {
          mesh = (List.hd outcomes).Experiment.mesh;
          search_method = method_for (List.hd outcomes).Experiment.mesh;
          etr_percent = mean (fun o -> o.Experiment.etr_percent);
          ecs_low_percent = mean (fun o -> o.Experiment.ecs_low_percent);
          ecs_high_percent = mean (fun o -> o.Experiment.ecs_high_percent);
          outcomes;
        })
      !keys
  in
  {
    sizes;
    average_etr = Stats.mean (List.map (fun s -> s.etr_percent) sizes);
    average_ecs_low = Stats.mean (List.map (fun s -> s.ecs_low_percent) sizes);
    average_ecs_high = Stats.mean (List.map (fun s -> s.ecs_high_percent) sizes);
  }

let render t =
  let table =
    Tablefmt.create
      ~title:"Table 2 - Average energy and execution time reductions (CDCM vs CWM)"
      ~columns:
        [
          ("Algorithm", Tablefmt.Left);
          ("NoC size", Tablefmt.Left);
          ("ETR", Tablefmt.Right);
          ("ECS 0.35u", Tablefmt.Right);
          ("ECS 0.07u", Tablefmt.Right);
        ]
      ()
  in
  List.iter
    (fun s ->
      Tablefmt.add_row table
        [
          s.search_method;
          Mesh.to_string s.mesh;
          Printf.sprintf "%.0f %%" s.etr_percent;
          Printf.sprintf "%.2f %%" s.ecs_low_percent;
          Printf.sprintf "%.0f %%" s.ecs_high_percent;
        ])
    t.sizes;
  Tablefmt.add_summary_row table
    [
      "Average";
      "";
      Printf.sprintf "%.0f %%" t.average_etr;
      Printf.sprintf "%.2f %%" t.average_ecs_low;
      Printf.sprintf "%.0f %%" t.average_ecs_high;
    ];
  Tablefmt.render table

let run_and_render ?config ?progress ?pool ?stop ?journal ~seed () =
  render (run ?config ?progress ?pool ?stop ?journal ~seed ())
