type config = { max_queue : int; max_batch : int }

let default_config = { max_queue = 64; max_batch = 8 }

type 'a item = { payload : 'a; enqueued_at : float; deadline : float option }

type admit_result = Admitted | Shed

(* The queue is a plain list in reverse arrival order plus a length
   field: admission is O(1), and batch extraction — bounded by max_batch
   anyway — pays one reversal. Queues here are tiny (max_queue tens to
   hundreds); simplicity beats a two-stack dequeue. *)
type 'a t = {
  cfg : config;
  mutable rev_items : 'a item list;
  mutable len : int;
  mutable admitted : int;
  mutable shed : int;
  mutable expired : int;
}

let create cfg =
  if cfg.max_queue < 1 then invalid_arg "Batcher.create: max_queue < 1";
  if cfg.max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  { cfg; rev_items = []; len = 0; admitted = 0; shed = 0; expired = 0 }

let length t = t.len

let admit t ~now ?deadline_ms payload =
  if t.len >= t.cfg.max_queue then begin
    t.shed <- t.shed + 1;
    Shed
  end
  else begin
    let deadline =
      Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) deadline_ms
    in
    t.rev_items <- { payload; enqueued_at = now; deadline } :: t.rev_items;
    t.len <- t.len + 1;
    t.admitted <- t.admitted + 1;
    Admitted
  end

let is_expired now it =
  match it.deadline with Some d -> d <= now | None -> false

let pop_expired t ~now =
  let expired, live = List.partition (is_expired now) t.rev_items in
  if expired = [] then []
  else begin
    t.rev_items <- live;
    t.len <- List.length live;
    let expired = List.rev expired in
    t.expired <- t.expired + List.length expired;
    expired
  end

let take_batch t =
  let rec split i acc = function
    | x :: rest when i < t.cfg.max_batch -> split (i + 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let batch, rest = split 0 [] (List.rev t.rev_items) in
  t.rev_items <- List.rev rest;
  t.len <- List.length rest;
  batch

let next_expiry_in t ~now =
  let soonest =
    List.fold_left
      (fun acc it ->
        match it.deadline with Some d -> Float.min d acc | None -> acc)
      Float.infinity t.rev_items
  in
  if Float.is_finite soonest then Some (Float.max 0.0 (soonest -. now))
  else None

let admitted_total t = t.admitted

let shed_total t = t.shed

let expired_total t = t.expired
