(** Consistent-hash request router.

    Maps request keys (nest structural digests) onto replica indices
    through a virtual-node hash ring, so each replica serves a stable
    shard of the digest space and its digest-keyed result cache stays
    hot. Pure and deterministic: same replica count, same ring, on
    every process and every run.

    Health is deliberately not modelled here. {!preference} returns
    {e all} replicas in ring order for a key; the supervisor walks the
    list and takes the first healthy one. Keys homed on live replicas
    therefore never move when some {e other} replica dies or recovers —
    the property that preserves per-shard cache hit rates through
    chaos. *)

type t

val create : ?vnodes:int -> replicas:int -> unit -> t
(** [vnodes] (default 64) points per replica — more points, smoother
    shard balance. Raises [Invalid_argument] when either is < 1. *)

val owner : t -> string -> int
(** The key's home replica: first ring point clockwise of its hash. *)

val preference : t -> string -> int list
(** Every replica exactly once, in ring order from the key's hash; the
    head is {!owner}. Fail-over order for hedged retries. *)
