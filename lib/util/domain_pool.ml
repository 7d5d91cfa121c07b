type 'a state = Pending | Done of 'a | Failed of exn

type 'a promise = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_state : 'a state;
}

(* A growable ring-buffer deque: the work-stealing scheduler pushes at
   the back, owners pop from the front (oldest first, preserving rough
   submission order), thieves pop from the back (newest first, so a
   steal grabs the work least likely to be contended next). Guarded by
   the per-deque mutex in [t]; not thread-safe on its own. *)
module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable front : int;  (* index of the first element *)
    mutable len : int;
  }

  let create () = { buf = Array.make 16 None; front = 0; len = 0 }

  let grow d =
    let cap = Array.length d.buf in
    let buf = Array.make (cap * 2) None in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.front + i) mod cap)
    done;
    d.buf <- buf;
    d.front <- 0

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.front + d.len) mod Array.length d.buf) <- Some x;
    d.len <- d.len + 1

  let pop_front d =
    if d.len = 0 then None
    else begin
      let x = d.buf.(d.front) in
      d.buf.(d.front) <- None;
      d.front <- (d.front + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      x
    end

  let pop_back d =
    if d.len = 0 then None
    else begin
      let i = (d.front + d.len - 1) mod Array.length d.buf in
      let x = d.buf.(i) in
      d.buf.(i) <- None;
      d.len <- d.len - 1;
      x
    end
end

type t = {
  mutex : Mutex.t;  (* guards queue/pending/next/closing/joined *)
  cond : Condition.t;  (* work available, the pool is closing, or joined *)
  queue : (unit -> unit) Queue.t;  (* FIFO mode *)
  (* Work-stealing mode: one deque + mutex per worker; [pending] under
     the global mutex is the wake-up signal (tasks pushed minus tasks
     taken — transiently negative while a push races its counter
     increment, which only delays a wake-up by one submit). *)
  steal : bool;
  deques : (unit -> unit) Deque.t array;
  deque_mutexes : Mutex.t array;
  mutable pending : int;
  mutable next : int;  (* round-robin submission target *)
  mutable closing : bool;
  mutable joined : bool;
  mutable domains : unit Domain.t array;
}

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closing do
    Condition.wait pool.cond pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    (* [job] never raises: submit wraps the task so the exception is
       stored in the promise and rethrown by [await] on the caller. The
       catch-all is belt and braces for asynchronous exceptions landing
       between the task and the promise update — a worker domain must
       never die abnormally, or [shutdown]'s join would re-raise and
       wedge the remaining drain. *)
    (try job () with _ -> ());
    worker_loop pool
  end

(* Steal-mode worker: drain own deque from the front, then steal from
   the other deques' backs; park on the condition variable only when the
   [pending] counter says there is nothing left anywhere. Never holds
   two locks at once. *)
let take_from pool i =
  let n = Array.length pool.deques in
  let rec scan k =
    if k = n then None
    else begin
      let j = (i + k) mod n in
      Mutex.lock pool.deque_mutexes.(j);
      let job =
        if j = i then Deque.pop_front pool.deques.(j)
        else Deque.pop_back pool.deques.(j)
      in
      Mutex.unlock pool.deque_mutexes.(j);
      match job with
      | Some _ ->
          Mutex.lock pool.mutex;
          pool.pending <- pool.pending - 1;
          Mutex.unlock pool.mutex;
          job
      | None -> scan (k + 1)
    end
  in
  scan 0

let rec steal_worker_loop pool i =
  match take_from pool i with
  | Some job ->
      (try job () with _ -> ());
      steal_worker_loop pool i
  | None ->
      Mutex.lock pool.mutex;
      if pool.pending > 0 then begin
        (* Something was submitted (or is in flight to a deque) between
           our failed scan and taking the lock — hunt again. *)
        Mutex.unlock pool.mutex;
        steal_worker_loop pool i
      end
      else if pool.closing then Mutex.unlock pool.mutex
      else begin
        Condition.wait pool.cond pool.mutex;
        Mutex.unlock pool.mutex;
        steal_worker_loop pool i
      end

let make ~steal ~size =
  if size < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let pool =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      steal;
      deques =
        (if steal then Array.init size (fun _ -> Deque.create ()) else [||]);
      deque_mutexes =
        (if steal then Array.init size (fun _ -> Mutex.create ()) else [||]);
      pending = 0;
      next = 0;
      closing = false;
      joined = false;
      domains = [||];
    }
  in
  pool.domains <-
    Array.init size (fun i ->
        Domain.spawn (fun () ->
            if steal then steal_worker_loop pool i else worker_loop pool));
  pool

let create ~size = make ~steal:false ~size
let create_stealing ~size = make ~steal:true ~size
let size t = Array.length t.domains

let submit t f =
  let p =
    { p_mutex = Mutex.create (); p_cond = Condition.create (); p_state = Pending }
  in
  let job () =
    let result = try Done (f ()) with e -> Failed e in
    Mutex.lock p.p_mutex;
    p.p_state <- result;
    Condition.broadcast p.p_cond;
    Mutex.unlock p.p_mutex
  in
  Mutex.lock t.mutex;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  if not t.steal then begin
    Queue.push job t.queue;
    Condition.signal t.cond;
    Mutex.unlock t.mutex
  end
  else begin
    let i = t.next in
    t.next <- (t.next + 1) mod Array.length t.deques;
    Mutex.unlock t.mutex;
    Mutex.lock t.deque_mutexes.(i);
    Deque.push_back t.deques.(i) job;
    Mutex.unlock t.deque_mutexes.(i);
    Mutex.lock t.mutex;
    t.pending <- t.pending + 1;
    Condition.signal t.cond;
    Mutex.unlock t.mutex
  end;
  p

let await p =
  Mutex.lock p.p_mutex;
  let rec wait () =
    match p.p_state with
    | Pending ->
        Condition.wait p.p_cond p.p_mutex;
        wait ()
    | Done v ->
        Mutex.unlock p.p_mutex;
        v
    | Failed e ->
        Mutex.unlock p.p_mutex;
        raise e
  in
  wait ()

(* Shutdown is idempotent and safe to race: exactly one caller joins the
   workers; every other caller (concurrent or later) blocks until that
   join has completed, so "shutdown returned" always means "all workers
   are gone". Queued tasks are drained first — including tasks whose
   function raises, because the exception lives in the promise, not the
   worker (see worker_loop). Never raises. *)
let shutdown t =
  Mutex.lock t.mutex;
  if t.closing then begin
    while not t.joined do
      Condition.wait t.cond t.mutex
    done;
    Mutex.unlock t.mutex
  end
  else begin
    t.closing <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    Array.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    Mutex.lock t.mutex;
    t.joined <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let map_array t f xs =
  let promises = Array.map (fun x -> submit t (fun () -> f x)) xs in
  Array.map await promises
