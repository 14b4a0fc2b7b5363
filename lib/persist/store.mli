(** A checkpoint directory: one journal shard per search leg plus a
    manifest describing the run that produced them.

    {v
    <dir>/
      manifest.json        run description (written atomically)
      <key>-<crc8>.jsonl   one Journal per shard key
    v}

    The store only names files.  Every shard is a search-leg journal
    whose records ([progress] snapshots, one [done] result) and header
    fingerprint belong to [Nocmap_mapping.Search_persist]; work that is
    cheaper to recompute than to read back, such as a deterministic
    simulation, is not checkpointed at all.

    Shard file names are derived from caller keys by sanitizing to a
    filesystem-safe alphabet and appending a CRC-32 of the original
    key, so distinct keys never collide even when sanitization makes
    them look alike. *)

type t

val open_ : dir:string -> t
(** Creates [dir] (and parents) if needed.  Never truncates existing
    shards — resuming and starting fresh share this entry point. *)

val dir : t -> string

val shard_path : t -> key:string -> string
(** The journal path for [key]; deterministic, collision-free. *)

val write_manifest : t -> Json.t -> unit
(** Atomic replace of [manifest.json]. *)

val read_manifest : t -> (Json.t, string) result
