type ('k, 'v) shard = {
  mutex : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (* insertion order; one entry per live key *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable contention : int;  (* lock acquisitions that had to wait *)
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  shard_capacity : int;
  capacity : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  contention : int;
  size : int;
  capacity : int;
  shards : int;
}

let create ?(shards = 16) ~capacity () =
  if capacity < 1 then invalid_arg "Sharded_cache.create: capacity must be >= 1";
  if shards < 1 then invalid_arg "Sharded_cache.create: shards must be >= 1";
  let shards = min shards capacity in
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            tbl = Hashtbl.create 16;
            order = Queue.create ();
            hits = 0;
            misses = 0;
            evictions = 0;
            contention = 0;
          });
    shard_capacity = max 1 (capacity / shards);
    capacity;
  }

let shard_of (t : _ t) key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

(* The contention counter piggybacks on the lock acquisition: an
   uncontended [try_lock] succeeds and costs one extra atomic over a
   plain lock; a failed [try_lock] falls back to the blocking [lock]
   and is counted once the shard is ours (so the counter itself needs
   no extra synchronization). *)
let with_shard s f =
  if Mutex.try_lock s.mutex then ()
  else begin
    Mutex.lock s.mutex;
    s.contention <- s.contention + 1
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let find_opt t key =
  let s = shard_of t key in
  with_shard s (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | Some _ as r ->
          s.hits <- s.hits + 1;
          r
      | None ->
          s.misses <- s.misses + 1;
          None)

(* FIFO eviction: cheapest scheme that still bounds memory. The queue
   holds exactly the live keys in insertion order, so evicting is a pop
   plus a table remove. *)
let add t key v =
  let s = shard_of t key in
  with_shard s (fun () ->
      if Hashtbl.mem s.tbl key then Hashtbl.replace s.tbl key v
      else begin
        Hashtbl.replace s.tbl key v;
        Queue.push key s.order;
        while Hashtbl.length s.tbl > t.shard_capacity do
          let oldest = Queue.pop s.order in
          Hashtbl.remove s.tbl oldest;
          s.evictions <- s.evictions + 1
        done
      end)

let find_or_compute t key f =
  match find_opt t key with
  | Some v -> v
  | None ->
      (* Compute outside the shard lock so a slow [f] never serializes
         other users of the shard. Two domains racing on the same fresh
         key both compute; [add] keeps one copy. Callers must therefore
         pass a pure [f] (both computed values equal). *)
      let v = f () in
      add t key v;
      v

let stats (t : _ t) =
  Array.fold_left
    (fun (acc : stats) (s : _ shard) ->
      with_shard s (fun () ->
          {
            acc with
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            contention = acc.contention + s.contention;
            size = acc.size + Hashtbl.length s.tbl;
          }))
    { hits = 0; misses = 0; evictions = 0; contention = 0; size = 0;
      capacity = t.capacity; shards = Array.length t.shards }
    t.shards
