(** Telemetry registry: counters, gauges and latency histograms.

    A {!t} is a small mutex-guarded registry, safe to update from worker
    domains and frontend threads. Histograms use logarithmic buckets
    (fixed ratio between consecutive upper bounds) so one 30-bucket
    histogram spans microseconds to minutes with bounded relative error,
    and quantile estimates never cost more than a bucket walk.

    A layer that keeps its own counters (lock-free atomics on a check
    path, cache hit counters) exposes them through {!add_collector}
    instead of copying them in: the registry reads them at render time.
    Process-wide layers register on {!global}; whoever owns a
    per-instance component registers it on the owner's registry.

    Everything renders to the Prometheus text exposition format
    ({!render}) — scrapeable with [curl | grep] — and to a compact
    [k=v] line ({!stats_line}): the serve [stats] reply and the CLI's
    stderr [metrics:] line. *)

type t

val create : unit -> t

val global : t
(** The process-wide registry: the verifier and sanitizer register
    their check counters here at module initialisation. *)

val add_collector : t -> (unit -> (string * int) list) -> unit
(** [add_collector t f] adds counters owned by another layer: every
    {!counter}, {!render} and {!stats_line} call runs [f] and reads its
    [(name, value)] pairs as counters. Values for one name sum across
    collectors and the registry's own counter of that name. [f] runs
    outside the registry lock, so it may take its own locks. *)

(** {1 Counters} *)

val incr : t -> string -> unit
(** Bump counter [name] by one, creating it at 0 first. *)

val counter : t -> string -> int
(** Current value, collected counters included; 0 for a counter never
    bumped. *)

(** {1 Gauges}

    Point-in-time levels (replica up/down, breaker state, queue depth)
    — set absolutely rather than accumulated. *)

val set_gauge : t -> string -> float -> unit
(** Set gauge [name] to [v], creating it if needed. *)

(** {1 Histograms}

    Observations are non-negative floats (seconds, batch sizes, ...).
    Buckets are [base * ratio^i]; values above the last bound land in a
    [+Inf] overflow bucket. *)

val observe : t -> string -> float -> unit

val hist_count : t -> string -> int
(** Number of observations; 0 for a histogram never observed. *)

val hist_sum : t -> string -> float

val quantile : t -> string -> float -> float option
(** [quantile t name q] (0 <= q <= 1) estimates the [q]-quantile as the
    upper bound of the bucket holding the [q]-th observation — an
    overestimate by at most the bucket ratio. [None] when empty. *)

(** {1 Rendering} *)

val render : t -> string
(** Prometheus text format. Counters as [# TYPE name counter] lines,
    histograms as cumulative [name_bucket{le="..."}] series with
    [_sum]/[_count]. Metric names are emitted in sorted order so output
    is reproducible. *)

val stats_line : t -> string
(** Compact single-line [k=v k=v ...] summary: every counter and gauge,
    plus [NAME_count], [NAME_sum] (and [NAME_p50]/[NAME_p99] as
    upper-bound estimates) per histogram. Sorted, space-separated. *)

val merge_rendered : string list -> string
(** Merge several {!render}-format dumps into one: counters and gauges
    sum, histogram buckets sum per upper bound (exact, because every
    registry renders identical bounds), [_sum]/[_count] sum. The fleet
    supervisor uses this to serve one aggregated view of its replicas'
    scrapes. Lines that do not parse are dropped. *)
