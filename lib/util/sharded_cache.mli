(** A bounded, domain-safe key/value cache, sharded by key hash.

    Each shard is an independent hash table behind its own mutex, so
    concurrent lookups from different domains only contend when their
    keys land on the same shard. Capacity is enforced per shard with
    FIFO eviction — cheap, and good enough for memoizing pure
    computations where an eviction only costs a recompute.

    The cache is value-agnostic: intended for pure memoization (the
    evaluator's base-time cache keys it by op digest). Under a racing
    miss two domains may both compute; one result wins, which is
    observationally identical when the computation is pure. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  contention : int;
      (** shard-lock acquisitions that found the lock held and had to
          wait — the cross-domain contention signal. 0 in
          single-domain use. *)
  size : int;  (** live entries across all shards *)
  capacity : int;
  shards : int;
}

val create : ?shards:int -> capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] bounds the cache at roughly [capacity]
    entries (exactly [shards * (capacity / shards)], at least one per
    shard). [shards] defaults to 16 and is clamped to [capacity]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Thread-safe lookup; counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, evicting the shard's oldest entries when over
    capacity. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Memoize: return the cached value or compute-and-insert. The
    computation runs outside the shard lock; it must be pure. *)

val stats : ('k, 'v) t -> stats
(** Aggregate counters across shards (locks each shard briefly). *)
