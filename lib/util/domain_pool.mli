(** A fixed pool of OCaml 5 domains with a submit/await API.

    Domains are expensive to spawn (they map to OS threads with their
    own minor heaps), so long-running parallel phases should create one
    pool sized to the wanted parallelism and push many small tasks
    through it. The pool has no external dependencies — it is a plain
    mutex/condition work queue over [Domain.spawn], built for the
    parallel rollout engine but generic.

    Two scheduling modes share one API. {!create} builds the FIFO pool:
    one shared queue, tasks started in submission order — right for
    streams of similar-sized tasks. {!create_stealing} builds the
    work-stealing variant for irregular task sizes (e.g. subtrie tasks
    of the parallel auto-scheduler, where one subtask may enumerate
    10x the leaves of another): submissions round-robin across
    per-worker deques, a worker drains its own deque front-first and,
    when empty, steals the newest task from another worker's back — so
    a worker stuck on a huge subtask sheds its backlog to idle workers
    instead of stalling the tail of the run.

    In both modes completion order is unspecified, task start order in
    the stealing pool is only approximately FIFO, and task closures
    must only touch state that is safe to share across domains. *)

type t

type 'a promise
(** A handle for one submitted task's eventual result. *)

val create : size:int -> t
(** Spawn [size] worker domains (>= 1) draining one shared FIFO queue.
    Remember that the main domain also counts toward the machine's
    cores: for [n]-way parallelism where the caller blocks in {!await},
    a pool of [n] workers is right; if the caller works alongside the
    pool, use [n - 1]. *)

val create_stealing : size:int -> t
(** Spawn [size] worker domains (>= 1) with per-worker deques and work
    stealing (see the module description). Same API and shutdown
    semantics as {!create}. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Queue a task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its result or re-raises the
    exception it died with. May be called at most once per promise from
    the spawning domain (further calls return/raise the same result). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f xs] submits [f x] for every element and awaits them
    all, preserving order. *)

val shutdown : t -> unit
(** Graceful shutdown: lets already-queued tasks finish (including tasks
    whose function raises — the exception is stored in the promise, so a
    failing task cannot wedge the drain), then joins all worker domains.
    Idempotent and safe to call from several domains at once: exactly
    one caller performs the join, the others block until it completes,
    so on return the workers are always gone. Never raises. Submitting
    after shutdown raises [Invalid_argument]. *)
