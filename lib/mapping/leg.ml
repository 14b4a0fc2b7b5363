type t =
  | Sa of Annealing.config
  | Tabu of Tabu.config
  | Genetic of Genetic.config
  | Local of int

type state =
  | Sa_running of Annealing.checkpoint
  | Tabu_running of Tabu.checkpoint
  | Genetic_running of Genetic.checkpoint
  | Local_running of Local_search.checkpoint
  | Done of Objective.search_result

let best_cost = function
  | Sa_running c -> c.Annealing.best_cost
  | Tabu_running c -> c.Tabu.best_cost
  | Genetic_running c -> c.Genetic.best_cost
  | Local_running c -> c.Local_search.current_cost
  | Done r -> r.Objective.cost

let best = function
  | Sa_running c -> c.Annealing.best
  | Tabu_running c -> c.Tabu.best
  | Genetic_running c -> c.Genetic.best
  | Local_running c -> c.Local_search.current
  | Done r -> r.Objective.placement

let evaluations = function
  | Sa_running c -> c.Annealing.evaluations
  | Tabu_running c -> c.Tabu.evaluations
  | Genetic_running c -> c.Genetic.evaluations
  | Local_running c -> c.Local_search.evaluations
  | Done r -> r.Objective.evaluations

let rng_state = function
  | Sa_running c -> c.Annealing.rng_state
  | Tabu_running c -> c.Tabu.rng_state
  | Genetic_running c -> c.Genetic.rng_state
  | Local_running _ | Done _ -> 0L

let is_done = function
  | Done _ -> true
  | Sa_running _ | Tabu_running _ | Genetic_running _ | Local_running _ -> false

(* A cost-call counting view of an objective: transparent to the search
   (same values, same bound verdicts), it only lets a slice meter its
   evaluation budget from outside. *)
let counted n (objective : Objective.t) =
  {
    objective with
    Objective.cost_fn =
      (fun p ->
        incr n;
        objective.Objective.cost_fn p);
    bound_fn =
      Option.map
        (fun bound_fn ~cutoff p ->
          incr n;
          bound_fn ~cutoff p)
        objective.Objective.bound_fn;
  }

(* The slice ends through the searcher's own sticky-stop contract, so
   the checkpoint it flushes on the way out resumes bit-identically. *)
let slice leg ~rng ~tiles ~cores ~objective ?initial ?ceiling ~stop ~budget state =
  let n = ref 0 in
  let objective = counted n objective in
  let stop () = stop () || !n >= budget in
  let run running search =
    let captured = ref None in
    let r = search (max_int, fun c -> captured := Some c) in
    match !captured with Some c -> running c | None -> Done r
  in
  match (leg, state) with
  | Sa config, (None | Some (Sa_running _)) ->
    let resume = match state with Some (Sa_running c) -> Some c | _ -> None in
    run
      (fun c -> Sa_running c)
      (fun checkpoint ->
        Annealing.search ~rng ~config ~tiles ~objective ?initial ?ceiling ~stop
          ~checkpoint ?resume ~cores ())
  | Tabu config, (None | Some (Tabu_running _)) ->
    let resume = match state with Some (Tabu_running c) -> Some c | _ -> None in
    run
      (fun c -> Tabu_running c)
      (fun checkpoint ->
        Tabu.search ~rng ~config ~tiles ~objective ?initial ?ceiling ~stop
          ~checkpoint ?resume ~cores ())
  | Genetic config, (None | Some (Genetic_running _)) ->
    let resume = match state with Some (Genetic_running c) -> Some c | _ -> None in
    run
      (fun c -> Genetic_running c)
      (fun checkpoint ->
        Genetic.search ~rng ~config ~tiles ~objective ?initial ?ceiling ~stop
          ~checkpoint ?resume ~cores ())
  | Local max_evaluations, (None | Some (Local_running _)) ->
    let resume = match state with Some (Local_running c) -> Some c | _ -> None in
    let initial =
      match initial with
      | Some p -> p
      | None -> invalid_arg "Leg.slice: a local-search leg needs ~initial"
    in
    run
      (fun c -> Local_running c)
      (fun checkpoint ->
        Local_search.search ~objective ~tiles ~initial ~max_evaluations ~stop
          ~checkpoint ?resume ())
  | (Sa _ | Tabu _ | Genetic _ | Local _), Some _ ->
    invalid_arg "Leg.slice: state of another searcher"
