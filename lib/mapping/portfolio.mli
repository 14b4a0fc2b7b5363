(** Racing search portfolio with a shared incumbent.

    A portfolio runs constructive seeds ({!Spiral}, {!Greedy}) once,
    then races the refining strategies ({!Sa}, {!Tabu}, {!Genetic}) in
    fixed-size evaluation slices on {!Nocmap_util.Domain_pool} domains.
    Racers publish their best cost into a shared atomic incumbent as
    each slice ends; at every round barrier the driver derives, for each
    strategy, a prune ceiling from the best cost any {e rival} has
    published (scaled by [ceiling_factor]), so one strategy's progress
    tightens every other strategy's bound-function cutoffs on the next
    round.

    {b Determinism.}  Given the same [rng] seed, strategies, configs and
    instance, the race is bit-identical whatever the pool size
    ([NOCMAP_JOBS]): each racer owns a pre-split RNG substream (split in
    the order [strategies] lists the refiners), slices only interact
    through commutative min-merges read back at barriers, and all
    bookkeeping (incumbent placement, winner attribution, ceilings) is
    computed by the driver from barrier state with earliest-listed
    tie-breaks.

    {b Cache sharing.}  {!Eval_cache} is single-domain by contract, so
    the portfolio never shares one cache instance across racers.
    Instead [objective_for] is called once per strategy (lazily, for
    racers) and the {!Nocmap_core} wiring builds each strategy's cache
    from one shared symmetry group, so the O(tiles!) symmetry reduction
    is computed once per race rather than once per strategy.

    {b Checkpointing.}  The whole race checkpoints as one record: the
    seeds, every racer's {!Leg.state}, and the race's barrier
    bookkeeping.  A resumed race replays the exact
    trajectory of the uninterrupted run. *)

type strategy =
  | Spiral   (** Center-out spiral constructive seed (evaluated once). *)
  | Greedy   (** Largest-communicator-first constructive seed. *)
  | Sa       (** Simulated annealing ({!Annealing.search}). *)
  | Tabu     (** Tabu search ({!Tabu.search}). *)
  | Genetic  (** Genetic algorithm ({!Genetic.search}). *)

val all_strategies : strategy list
(** Every strategy, seeds first — the default portfolio. *)

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

val strategies_of_string : string -> (strategy list, string) result
(** Parses a comma-separated strategy list ("spiral,sa,tabu").  Rejects
    empty lists, unknown names and duplicates with a descriptive
    message. *)

val is_seed : strategy -> bool
(** Seeds run once up front; the rest race in slices. *)

type config = {
  slice : int;  (** Cost calls per racer per round (>= 1). *)
  ceiling_factor : float;
      (** Rival-best multiplier for per-round prune ceilings (> 0).
          Larger is more permissive; [infinity]-free rounds only start
          once some strategy has published a finite cost. *)
  sa : Annealing.config;
  tabu : Tabu.config;
  genetic : Genetic.config;
}

val default_config : tiles:int -> config
val quick_config : tiles:int -> config
(** A cheaper budget for tests and smoke benches. *)

type checkpoint = {
  round : int;         (** Completed barrier rounds. *)
  in_round : bool;
      (** The external stop cut a round short: its ceilings and
          [round_starts] are already fixed, and a resumed race first
          completes the interrupted round to the same absolute
          evaluation barrier before any barrier bookkeeping. *)
  seeds : (strategy * Objective.search_result) list;
  legs : (strategy * Leg.state) list;
      (** Racers in the order [strategies] lists them: each one's native
          live state ({!Leg.Sa_running}, {!Leg.Tabu_running} or
          {!Leg.Genetic_running}) or {!Leg.Done}. *)
  best : Placement.t;
  best_cost : float;
  best_by : strategy;
  seed_evaluations : int;
  incumbent_updates : int;
  cutoff_tightenings : int;
  wins : (strategy * int) list;
  ceilings : (strategy * float) list;
  round_starts : (strategy * int) list;
      (** Each racer's evaluation count when the current round began;
          its barrier for the round is [round_start + slice]. *)
}
(** Complete race state.  Captured at round barriers on the checkpoint
    cadence, and mid-round on an external stop. *)

type strategy_report = {
  strategy : strategy;
  cost : float;        (** Best cost this strategy found on its own. *)
  evaluations : int;
  rounds_won : int;    (** Barrier rounds where it held the incumbent. *)
}

type report = {
  result : Objective.search_result;
      (** Portfolio best; [evaluations] totals every strategy's. *)
  winner : strategy;
  rounds : int;
  updates : int;       (** Rounds that improved the shared incumbent. *)
  tightenings : int;   (** Per-strategy ceiling drops across rounds. *)
  per_strategy : strategy_report list;
}

val search :
  rng:Nocmap_util.Rng.t ->
  config:config ->
  strategies:strategy list ->
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_for:(strategy -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?target:float ->
  ?checkpoint:int * (checkpoint -> unit) ->
  ?resume:checkpoint ->
  unit ->
  report
(** Races [strategies] on the instance.  [objective_for] is called once
    per strategy and must return a fresh objective each time (racers run
    on distinct domains; see the cache note above).  Seed strategies are
    constructed with CWM heuristics, then scored under their own
    objective so costs are comparable; racers warm-start from the best
    seed placement when any seed is listed.  [?target] ends the race as
    a natural completion once the incumbent reaches it.  The [?stop] /
    [?checkpoint] / [?resume] contract matches {!Annealing.search}
    (sticky stop polled at round barriers, cadence on total evaluations
    plus a final flush on stop, bit-identical resume) — except that a
    race stopped before its first barrier flushes nothing.  A portfolio
    whose only strategy is [Sa] replays the exact trajectory of a plain
    {!Annealing.search} under the split substream.
    @raise Invalid_argument on an empty or duplicated strategy list, a
    malformed config, or [cores > tiles]. *)
