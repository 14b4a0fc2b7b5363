(** One resumable search leg: a native searcher driven in
    evaluation-budgeted slices.

    {!Portfolio} races its refiners and {!Decompose} refines its regions
    through this one module.  A leg's whole live state between slices
    is the searcher's own checkpoint, so a caller can stop after any
    slice, journal the states, and resume each leg bit-identically —
    the slicing itself never changes a trajectory. *)

type t =
  | Sa of Annealing.config     (** {!Annealing.search}. *)
  | Tabu of Tabu.config        (** {!Tabu.search}. *)
  | Genetic of Genetic.config  (** {!Genetic.search}. *)
  | Local of int
      (** {!Local_search.search} with this [max_evaluations] budget. *)

type state =
  | Sa_running of Annealing.checkpoint
  | Tabu_running of Tabu.checkpoint
  | Genetic_running of Genetic.checkpoint
  | Local_running of Local_search.checkpoint
  | Done of Objective.search_result
      (** The searcher finished on its own (patience or budget). *)

val best_cost : state -> float
(** The leg's best cost so far (a local search's current cost). *)

val best : state -> Placement.t

val evaluations : state -> int
(** Cost calls consumed so far. *)

val rng_state : state -> int64
(** The leg's RNG state to resume from; [0L] for states that consume no
    randomness (local search, finished legs). *)

val is_done : state -> bool

val slice :
  t ->
  rng:Nocmap_util.Rng.t ->
  tiles:int ->
  cores:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?ceiling:float ->
  stop:(unit -> bool) ->
  budget:int ->
  state option ->
  state
(** [slice leg ~rng ~tiles ~cores ~objective ~stop ~budget state] runs
    the leg's searcher from [state] ([None]: a fresh start from
    [initial]) for at most [budget] further cost or bound calls, or
    until [stop] (sticky) fires.  It returns the searcher's captured
    checkpoint, or [Done] when the searcher finished within the slice.
    [rng] must be the leg's own substream, restored with {!rng_state} on
    resume.  [ceiling] is passed to the searchers that take one;
    {!Local} ignores it and requires [initial].
    @raise Invalid_argument on a [Done] state or a state of another
    searcher, or on a {!Local} leg without [initial]. *)
