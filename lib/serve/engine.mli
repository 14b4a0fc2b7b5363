(** The serve scheduler core: a crash-safe, bounded job queue.

    Every admitted job is journaled (and fsynced) in a
    {!Nocmap_persist.Store} shard {e before} it runs, so a [kill -9]'d
    daemon rebuilt over the same state directory resumes with the exact
    queue it had — finished jobs replay their recorded results,
    in-flight searches continue from their {!Mapping.Search_persist}
    checkpoints, and the whole run stays bit-identical to an
    uninterrupted one.

    Faults are isolated per job: a malformed spec, an unloadable
    application or a raising search fails that job with a structured
    [failed] event and never unwinds the engine.  Transient journal
    failures (ENOSPC, interrupted writes) retry under a bounded
    {!Backoff} policy; a full queue sheds new work with an explicit
    [overloaded] outcome instead of buffering without bound.

    The engine is deliberately free of I/O endpoints — {!Spool} and
    {!Daemon} feed it — which is what makes crash/restart behaviour
    unit-testable. *)

(** Lifecycle events, in the order a client sees them.  [event_json]
    is the reply wire format (one JSON object per line). *)
type event =
  | Accepted of { id : string }
  | Rejected of { source : string; reason : string }
      (** A spec that never became a job; [source] names the offending
          input (file name, connection) since there may be no id. *)
  | Shed of { id : string }  (** Refused: queue full. *)
  | Started of { id : string }
  | Retrying of { id : string; attempt : int; delay_ms : int; reason : string }
  | Completed of { id : string; replayed : bool; result : Nocmap_persist.Json.t }
      (** [replayed] is set when the result came from the journal of a
          previous (crashed or drained) daemon instead of a fresh run. *)
  | Failed of { id : string; reason : string; attempts : int }

val event_json : event -> Nocmap_persist.Json.t
val event_id : event -> string option

type config = {
  max_queue : int;  (** Admission bound; beyond it jobs are shed. *)
  checkpoint_every : int;  (** Search checkpoint cadence, in evaluations. *)
  retry : Backoff.policy;  (** For transient journal/spool failures. *)
  default_timeout_ms : int option;
      (** Deadline for jobs that do not carry their own [timeout_ms]. *)
  now_ms : unit -> int;  (** Injectable clock (deadline tests). *)
  sleep_ms : int -> unit;  (** Injectable sleep (backoff tests). *)
}

val default_config : config
(** [max_queue = 64], checkpoints every
    {!Mapping.Search_persist.default_every} evaluations,
    {!Backoff.default} retries, no default timeout, wall clock. *)

type t

val create :
  ?emit:(event -> unit) -> ?config:config -> dir:string -> unit -> (t, string) result
(** Opens (or creates) the queue journal under state directory [dir]
    and replays it: pending jobs are requeued in admission order,
    finished ones keep their recorded outcomes.  Errors on a corrupt
    or foreign journal rather than guessing. *)

val close : t -> unit

type submit_outcome =
  | Submitted
  | Duplicate  (** The id was already admitted (possibly already done —
                   see {!emit_finished}); re-submission is a no-op, which
                   makes spool re-ingestion after a crash idempotent. *)
  | Overloaded  (** Shed: the queue is at [max_queue]. *)
  | Invalid of string  (** The spec failed validation. *)
  | Admission_failed of string
      (** The journal write failed even after retries — the job is NOT
          admitted (running it anyway could not survive a crash). *)

val submit : t -> source:string -> string -> submit_outcome
(** Parse, validate, journal and enqueue one raw job-spec text.  Never
    raises. *)

val result_json :
  Nocmap_mapping.Objective.search_result ->
  Nocmap_mapping.Cost_cdcm.evaluation ->
  Nocmap_persist.Json.t
(** The [result] payload of a [Completed] event: placement, search
    cost, evaluation count, and the final placement's CDCM energy and
    execution time. *)

val run_pending : ?pool:Nocmap_util.Domain_pool.t -> ?stop:(unit -> bool) -> t -> unit
(** Runs queued jobs FIFO until the queue is empty or [stop] (sticky)
    fires.  With [pool], up to [Domain_pool.jobs pool] jobs run
    concurrently per batch; events are still emitted in queue order.
    Every job, sequential or not, runs on evaluation caches of its
    own.  A job interrupted by [stop]
    stays pending (its search checkpoints survive); a job that exceeds
    its deadline fails with a [timeout] reason.  Every job runs through
    {!Run.execute}, journaled under the shard prefix [job.<id>]. *)

val queue_depth : t -> int
val has_capacity : t -> bool
val pending : t -> string list
(** Pending job ids, front of the queue first. *)

val emit_finished : t -> string -> bool
(** Re-emit the recorded [Completed]/[Failed] event of a finished job
    (with [replayed = true]); [false] when the id is unknown or still
    pending. *)
