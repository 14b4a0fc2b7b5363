module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Metrics = Nocmap_obs.Metrics
module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg

(* Racing observability.  All counters are computed from driver state at
   round barriers, so enabling them never perturbs the race. *)
let m_runs = Metrics.counter ~help:"portfolio races executed" "search.portfolio.runs"

let m_rounds =
  Metrics.counter ~help:"portfolio racing rounds driven" "search.portfolio.rounds"

let m_incumbent =
  Metrics.counter ~help:"rounds that improved the shared incumbent"
    "search.portfolio.incumbent_updates"

let m_tighten =
  Metrics.counter
    ~help:"per-strategy prune ceilings tightened by rival progress"
    "search.portfolio.cutoff_tightenings"

let m_wins_spiral =
  Metrics.counter ~help:"rounds the spiral seed held the incumbent"
    "search.portfolio.wins.spiral"

let m_wins_greedy =
  Metrics.counter ~help:"rounds the greedy seed held the incumbent"
    "search.portfolio.wins.greedy"

let m_wins_sa =
  Metrics.counter ~help:"rounds annealing held the incumbent"
    "search.portfolio.wins.sa"

let m_wins_tabu =
  Metrics.counter ~help:"rounds tabu search held the incumbent"
    "search.portfolio.wins.tabu"

let m_wins_genetic =
  Metrics.counter ~help:"rounds the genetic algorithm held the incumbent"
    "search.portfolio.wins.genetic"

type strategy =
  | Spiral
  | Greedy
  | Sa
  | Tabu
  | Genetic

let all_strategies = [ Spiral; Greedy; Sa; Tabu; Genetic ]

let strategy_to_string = function
  | Spiral -> "spiral"
  | Greedy -> "greedy"
  | Sa -> "sa"
  | Tabu -> "tabu"
  | Genetic -> "genetic"

let strategy_of_string = function
  | "spiral" -> Some Spiral
  | "greedy" -> Some Greedy
  | "sa" -> Some Sa
  | "tabu" -> Some Tabu
  | "genetic" -> Some Genetic
  | _ -> None

let strategies_of_string text =
  let names = String.split_on_char ',' text in
  let names = List.map String.trim names |> List.filter (fun s -> s <> "") in
  if names = [] then Error "no strategies given"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match strategy_of_string name with
        | Some s ->
          if List.mem s acc then
            Error (Printf.sprintf "duplicate strategy %S" name)
          else go (s :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown strategy %S (want spiral, greedy, sa, tabu or genetic)"
               name))
    in
    go [] names

let is_seed = function Spiral | Greedy -> true | Sa | Tabu | Genetic -> false

let m_wins = function
  | Spiral -> m_wins_spiral
  | Greedy -> m_wins_greedy
  | Sa -> m_wins_sa
  | Tabu -> m_wins_tabu
  | Genetic -> m_wins_genetic

type config = {
  slice : int;
  ceiling_factor : float;
  sa : Annealing.config;
  tabu : Tabu.config;
  genetic : Genetic.config;
}

let default_config ~tiles =
  {
    slice = 2_000;
    ceiling_factor = 1.25;
    sa = { (Annealing.default_config ~tiles) with Annealing.prune = Some 20.0 };
    tabu = Tabu.default_config ~tiles;
    genetic = Genetic.default_config ~tiles;
  }

let quick_config ~tiles =
  {
    slice = 500;
    ceiling_factor = 1.25;
    sa = { (Annealing.quick_config ~tiles) with Annealing.prune = Some 20.0 };
    tabu = Tabu.quick_config ~tiles;
    genetic = Genetic.quick_config ~tiles;
  }

(* The resumable leg racing each refiner strategy. *)
let leg_of config = function
  | Sa -> Leg.Sa config.sa
  | Tabu -> Leg.Tabu config.tabu
  | Genetic -> Leg.Genetic config.genetic
  | Spiral | Greedy -> invalid_arg "Portfolio: a seed strategy does not race"

type checkpoint = {
  round : int;
  in_round : bool;
  seeds : (strategy * Objective.search_result) list;
  legs : (strategy * Leg.state) list;
  best : Placement.t;
  best_cost : float;
  best_by : strategy;
  seed_evaluations : int;
  incumbent_updates : int;
  cutoff_tightenings : int;
  wins : (strategy * int) list;
  ceilings : (strategy * float) list;
  round_starts : (strategy * int) list;
}

type strategy_report = {
  strategy : strategy;
  cost : float;
  evaluations : int;
  rounds_won : int;
}

type report = {
  result : Objective.search_result;
  winner : strategy;
  rounds : int;
  updates : int;
  tightenings : int;
  per_strategy : strategy_report list;
}

(* The shared incumbent: racers CAS-publish their best cost as each
   slice ends (concurrently, from pool domains); the driver reads it
   back only at round barriers, after every slice of the round has
   settled.  Min-merging is commutative, so the value read at a barrier
   is independent of scheduling — determinism survives the sharing. *)
let rec publish incumbent cost =
  let current = Atomic.get incumbent in
  if cost < current && not (Atomic.compare_and_set incumbent current cost) then
    publish incumbent cost

let search ~rng ~config ~strategies ~tech ~crg ~cwg ~objective_for ?pool
    ?(stop = fun () -> false) ?target ?checkpoint ?resume () =
  if strategies = [] then invalid_arg "Portfolio.search: no strategies";
  let rec dup = function
    | [] -> false
    | s :: rest -> List.mem s rest || dup rest
  in
  if dup strategies then invalid_arg "Portfolio.search: duplicate strategy";
  if config.slice < 1 then invalid_arg "Portfolio.search: slice must be positive";
  if not (config.ceiling_factor > 0.0) then
    invalid_arg "Portfolio.search: ceiling_factor must be positive";
  let tiles = Crg.tile_count crg in
  let cores = Cwg.core_count cwg in
  if cores > tiles then invalid_arg "Portfolio.search: more cores than tiles";
  let seed_strategies = List.filter is_seed strategies in
  let refiners = Array.of_list (List.filter (fun s -> not (is_seed s)) strategies) in
  let n_refiners = Array.length refiners in
  let incumbent = Atomic.make infinity in
  (* Mutable driver state, either restored from a checkpoint or built
     fresh: constructive seeds first, then one pre-split RNG substream
     per refiner, in the order [strategies] lists them. *)
  let round = ref 0 in
  let seeds = ref [] in
  let legs = Array.make n_refiners None in
  let leg_rngs = Array.make n_refiners rng in
  let best = ref [||] and best_cost = ref infinity in
  let best_by = ref (List.hd strategies) in
  let seed_evaluations = ref 0 in
  let updates = ref 0 and tightenings = ref 0 in
  let wins = ref (List.map (fun s -> (s, 0)) strategies) in
  let ceilings = Array.make n_refiners infinity in
  (* Rounds are ABSOLUTE: each racer's slice in round r ends at the
     fixed evaluation boundary [round_starts.(i) + slice], so a race
     killed mid-round and resumed completes the interrupted round to
     the exact barrier of the uninterrupted run before any bookkeeping
     happens.  [in_round] distinguishes a mid-round checkpoint (reuse
     the stored ceilings and starts) from a barrier one. *)
  let in_round = ref false in
  let round_starts = Array.make n_refiners 0 in
  (match resume with
  | Some (c : checkpoint) ->
    round := c.round;
    in_round := c.in_round;
    seeds := c.seeds;
    List.iteri
      (fun i (s, leg) ->
        if i >= n_refiners || refiners.(i) <> s then
          invalid_arg "Portfolio.search: resume strategies mismatch";
        legs.(i) <- Some leg;
        leg_rngs.(i) <- Rng.of_state (Leg.rng_state leg))
      c.legs;
    best := Array.copy c.best;
    best_cost := c.best_cost;
    best_by := c.best_by;
    seed_evaluations := c.seed_evaluations;
    updates := c.incumbent_updates;
    tightenings := c.cutoff_tightenings;
    wins := c.wins;
    List.iteri (fun i (_, ceiling) -> ceilings.(i) <- ceiling) c.ceilings;
    List.iteri (fun i (_, start) -> round_starts.(i) <- start) c.round_starts;
    List.iter (fun (_, r) -> publish incumbent r.Objective.cost) c.seeds;
    Array.iter
      (function Some leg -> publish incumbent (Leg.best_cost leg) | None -> ())
      legs
  | None ->
    seeds :=
      List.map
        (fun s ->
          let constructed =
            match s with
            | Spiral -> Spiral.search ~tech ~crg ~cwg ()
            | Greedy -> Greedy.search ~tech ~crg ~cwg ()
            | Sa | Tabu | Genetic -> assert false
          in
          (* Seeds are built on the cheap CWM heuristics but scored
             under the portfolio's own objective, so their costs are
             comparable with the racers' and the final best. *)
          let objective = objective_for s in
          let cost =
            objective.Objective.cost_fn constructed.Objective.placement
          in
          seed_evaluations := !seed_evaluations + 1;
          let result =
            {
              Objective.placement = constructed.Objective.placement;
              cost;
              evaluations = constructed.Objective.evaluations + 1;
            }
          in
          publish incumbent cost;
          (s, result))
        seed_strategies;
    for i = 0 to n_refiners - 1 do
      leg_rngs.(i) <- Rng.split rng
    done;
    (* The driver-side incumbent starts at the best seed (earliest
       listed wins ties); racers must end at or below it. *)
    List.iter
      (fun (s, (r : Objective.search_result)) ->
        if r.Objective.cost < !best_cost then begin
          best := r.Objective.placement;
          best_cost := r.Objective.cost;
          best_by := s
        end)
      !seeds);
  let warm_start =
    match
      List.fold_left
        (fun acc (_, (r : Objective.search_result)) ->
          match acc with
          | Some (c, _) when c <= r.Objective.cost -> acc
          | _ -> Some (r.Objective.cost, r.Objective.placement))
        None !seeds
    with
    | Some (_, p) -> Some p
    | None -> None
  in
  let objectives =
    Array.init n_refiners (fun i -> lazy (objective_for refiners.(i)))
  in
  let total_evaluations () =
    Array.fold_left
      (fun acc leg ->
        match leg with Some leg -> acc + Leg.evaluations leg | None -> acc)
      (!seed_evaluations
      + List.fold_left
          (fun acc (_, (r : Objective.search_result)) ->
            acc + (r.Objective.evaluations - 1))
          0 !seeds)
      legs
  in
  let snapshot () : checkpoint =
    {
      round = !round;
      seeds = !seeds;
      legs =
        Array.to_list
          (Array.mapi
             (fun i leg ->
               match leg with
               | Some leg -> (refiners.(i), leg)
               | None -> assert false)
             legs);
      best = Array.copy !best;
      best_cost = !best_cost;
      best_by = !best_by;
      seed_evaluations = !seed_evaluations;
      incumbent_updates = !updates;
      cutoff_tightenings = !tightenings;
      wins = !wins;
      ceilings =
        Array.to_list (Array.mapi (fun i c -> (refiners.(i), c)) ceilings);
      in_round = !in_round;
      round_starts =
        Array.to_list (Array.mapi (fun i s -> (refiners.(i), s)) round_starts);
    }
  in
  let last_flush =
    ref (match resume with Some _ -> total_evaluations () | None -> 0)
  in
  let maybe_flush () =
    match checkpoint with
    | Some (every, hook) when total_evaluations () - !last_flush >= every ->
      last_flush := total_evaluations ();
      hook (snapshot ())
    | Some _ | None -> ()
  in
  let finished i = match legs.(i) with Some leg -> Leg.is_done leg | None -> false in
  let all_done () =
    let rec go i = i >= n_refiners || (finished i && go (i + 1)) in
    go 0
  in
  let target_reached () =
    match target with Some t -> !best_cost <= t | None -> false
  in
  (* One slice of strategy [i] under a fixed rival ceiling.  Runs on a
     pool domain; every mutable input (rng, objective, leg state) is
     owned by this strategy alone. *)
  let slice i ~budget ceiling =
    let next =
      Leg.slice (leg_of config refiners.(i)) ~rng:leg_rngs.(i) ~tiles ~cores
        ~objective:(Lazy.force objectives.(i)) ?initial:warm_start ~ceiling ~stop
        ~budget legs.(i)
    in
    publish incumbent (Leg.best_cost next);
    next
  in
  while (not (all_done ())) && (not (stop ())) && not (target_reached ()) do
    let active =
      Array.of_list
        (List.filter
           (fun i -> not (finished i))
           (List.init n_refiners Fun.id))
    in
    (* On a fresh round, fix the rival-derived prune ceilings and each
       racer's barrier for the whole round: the best cost any OTHER
       strategy (seed or racer) has published, scaled by the ceiling
       factor.  A strategy races against everyone but is never
       throttled by its own progress — a portfolio reduced to one
       strategy keeps its trajectory untouched.  A mid-round resume
       skips this block and reuses the stored ceilings and starts, so
       the interrupted round replays under the original terms. *)
    if not !in_round then begin
      let round_ceilings =
        Array.map
          (fun i ->
            let rival_best = ref infinity in
            List.iter
              (fun (_, (r : Objective.search_result)) ->
                if r.Objective.cost < !rival_best then
                  rival_best := r.Objective.cost)
              !seeds;
            Array.iteri
              (fun j leg ->
                match leg with
                | Some leg when j <> i ->
                  if Leg.best_cost leg < !rival_best then
                    rival_best := Leg.best_cost leg
                | Some _ | None -> ())
              legs;
            if !rival_best < infinity then !rival_best *. config.ceiling_factor
            else infinity)
          active
      in
      Array.iteri
        (fun k i ->
          if round_ceilings.(k) < ceilings.(i) then incr tightenings;
          ceilings.(i) <- round_ceilings.(k))
        active;
      Array.iter
        (fun i ->
          round_starts.(i) <-
            (match legs.(i) with Some leg -> Leg.evaluations leg | None -> 0))
        active;
      in_round := true
    end;
    let results =
      Domain_pool.map ?pool
        (fun k ->
          let i = active.(k) in
          let consumed =
            match legs.(i) with Some leg -> Leg.evaluations leg | None -> 0
          in
          let budget = max 0 (round_starts.(i) + config.slice - consumed) in
          slice i ~budget ceilings.(i))
        (Array.init (Array.length active) Fun.id)
    in
    Array.iteri (fun k next -> legs.(active.(k)) <- Some next) results;
    (* A round only counts once every racer reached its barrier (or
       finished).  A slice cut short by the external stop leaves the
       round in flight — no winner credited, no round counted — so a
       resumed race completes it to the same absolute boundary and the
       bookkeeping happens exactly once, at the same point the
       uninterrupted run performs it. *)
    let cut_short =
      stop ()
      && Array.exists
           (fun i ->
             match legs.(i) with
             | Some leg ->
               (not (Leg.is_done leg))
               && Leg.evaluations leg < round_starts.(i) + config.slice
             | None -> assert false)
           active
    in
    if not cut_short then begin
      (* Barrier bookkeeping: read the shared incumbent once, then
         credit the deterministic scan winner (earliest listed strategy
         at the minimum) and count the improvement. *)
      let shared_best = Atomic.get incumbent in
      let round_best = ref infinity and round_holder = ref !best_by in
      let round_placement = ref [||] in
      List.iter
        (fun (s, (r : Objective.search_result)) ->
          if r.Objective.cost < !round_best then begin
            round_best := r.Objective.cost;
            round_holder := s;
            round_placement := r.Objective.placement
          end)
        !seeds;
      Array.iteri
        (fun i leg ->
          match leg with
          | Some leg ->
            if Leg.best_cost leg < !round_best then begin
              round_best := Leg.best_cost leg;
              round_holder := refiners.(i);
              round_placement := Leg.best leg
            end
          | None -> ())
        legs;
      assert (!round_best = shared_best);
      if !round_best < !best_cost then begin
        incr updates;
        best := Array.copy !round_placement;
        best_cost := !round_best;
        best_by := !round_holder
      end;
      wins :=
        List.map
          (fun (s, w) -> if s = !round_holder then (s, w + 1) else (s, w))
          !wins;
      in_round := false;
      incr round;
      maybe_flush ()
    end
  done;
  let have_legs =
    Array.for_all (function Some _ -> true | None -> false) legs
  in
  (match checkpoint with
  | Some (_, hook) when stop () && have_legs -> hook (snapshot ())
  | Some _ | None -> ());
  let per_strategy =
    List.map
      (fun s ->
        let rounds_won = try List.assoc s !wins with Not_found -> 0 in
        match List.assoc_opt s !seeds with
        | Some (r : Objective.search_result) ->
          {
            strategy = s;
            cost = r.Objective.cost;
            evaluations = r.Objective.evaluations;
            rounds_won;
          }
        | None ->
          let i =
            let rec find i = if refiners.(i) = s then i else find (i + 1) in
            find 0
          in
          let cost, evaluations =
            match legs.(i) with
            | Some leg -> (Leg.best_cost leg, Leg.evaluations leg)
            | None -> (infinity, 0)
          in
          { strategy = s; cost; evaluations; rounds_won })
      strategies
  in
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Metrics.add m_rounds !round;
    Metrics.add m_incumbent !updates;
    Metrics.add m_tighten !tightenings;
    List.iter
      (fun { strategy; rounds_won; _ } ->
        Metrics.add (m_wins strategy) rounds_won)
      per_strategy
  end;
  {
    result =
      {
        Objective.placement = !best;
        cost = !best_cost;
        evaluations = total_evaluations ();
      };
    winner = !best_by;
    rounds = !round;
    updates = !updates;
    tightenings = !tightenings;
    per_strategy;
  }
