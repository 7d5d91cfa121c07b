(** Admission control and batch formation, layer 2 of [lib/serve].

    A bounded FIFO of pending requests with three policies:

    - {b load shedding}: {!admit} refuses (returns [Shed]) once
      [max_queue] items are waiting, so overload produces an immediate
      [Overloaded] reply instead of unbounded queue growth and blown
      latencies;
    - {b per-request deadlines}: an admitted item whose deadline passes
      while it queues is surfaced by {!pop_expired} (answered
      [Deadline_exceeded]) rather than dispatched late;
    - {b batching without waiting}: {!take_batch} releases the oldest
      [min length max_batch] items whenever it is called. The server
      calls it as soon as a worker is free, so a request never waits
      for company; batches form only from the backlog that builds up
      while every worker is busy.

    The structure is deliberately {e pure}: no threads, no mutex, no
    clock. Every time-dependent operation takes [now] (seconds, any
    monotonic origin) explicitly, which makes the deadline logic
    unit-testable with a scripted clock; {!Server} provides the real
    clock and the lock. *)

type 'a t

type config = {
  max_queue : int;  (** admission bound; >= 1 *)
  max_batch : int;  (** most items one {!take_batch} releases; >= 1 *)
}

val default_config : config
(** [max_queue = 64], [max_batch = 8]. *)

type 'a item = {
  payload : 'a;
  enqueued_at : float;  (** the [now] passed to {!admit} *)
  deadline : float option;  (** absolute, same clock as [now] *)
}

type admit_result = Admitted | Shed

val create : config -> 'a t
(** Raises [Invalid_argument] on a non-positive [max_queue] or
    [max_batch]. *)

val length : 'a t -> int

val admit : 'a t -> now:float -> ?deadline_ms:int -> 'a -> admit_result
(** FIFO-append unless full. A [deadline_ms] of 0 admits the item
    already expired — it will come back from the next {!pop_expired}. *)

val pop_expired : 'a t -> now:float -> 'a item list
(** Remove and return every queued item whose deadline is [<= now], in
    queue order. Call before {!take_batch}, under the same lock, so
    expired items are not dispatched. *)

val take_batch : 'a t -> 'a item list
(** Remove and return the oldest [min length max_batch] items in FIFO
    order; [[]] only when the queue is empty. *)

val next_expiry_in : 'a t -> now:float -> float option
(** Seconds until the soonest queued request deadline (0. if one is
    already due), or [None] when no queued item carries a deadline —
    the only timed event a dispatcher with a non-empty queue and no
    free worker must wake up for. *)

val admitted_total : 'a t -> int

val shed_total : 'a t -> int

val expired_total : 'a t -> int
(** Items returned by {!pop_expired} since {!create}. *)
