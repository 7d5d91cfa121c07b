(* Trace-driven set-associative cache simulator, the oracle for the
   analytical model's locality analysis on small nests: the interpreter
   replays a nest's exact access stream through a multi-level LRU cache
   hierarchy (a write-allocate cache, so loads and stores probe
   identically; buffers live in disjoint address regions), and tests
   check that the analytical miss counts track the simulated ones. *)

type level_stats = { name : string; accesses : int; misses : int }

type level = {
  lv_name : string;
  n_sets : int;
  assoc : int;
  line_bytes : int;
  (* sets.(s) holds tags, most recently used first *)
  sets : int list array;
  mutable accesses : int;
  mutable misses : int;
}

type t = { levels : level list; base_addrs : (string, int) Hashtbl.t; mutable next_base : int }

let make_level name (c : Machine.cache) =
  let n_sets = max 1 (c.Machine.size_bytes / (c.Machine.line_bytes * c.Machine.assoc)) in
  {
    lv_name = name;
    n_sets;
    assoc = c.Machine.assoc;
    line_bytes = c.Machine.line_bytes;
    sets = Array.make n_sets [];
    accesses = 0;
    misses = 0;
  }

let create (m : Machine.t) =
  {
    levels =
      [ make_level "l1" m.Machine.l1; make_level "l2" m.Machine.l2; make_level "l3" m.Machine.l3 ];
    base_addrs = Hashtbl.create 8;
    next_base = 0;
  }

(* Probe one level; returns true on hit. On miss the line is installed
   with LRU replacement. *)
let probe level addr =
  let line = addr / level.line_bytes in
  let set_idx = line mod level.n_sets in
  let tag = line / level.n_sets in
  level.accesses <- level.accesses + 1;
  let set = level.sets.(set_idx) in
  if List.mem tag set then begin
    level.sets.(set_idx) <- tag :: List.filter (fun t -> t <> tag) set;
    true
  end
  else begin
    level.misses <- level.misses + 1;
    let set' = tag :: set in
    let set' =
      if List.length set' > level.assoc then
        List.filteri (fun i _ -> i < level.assoc) set'
      else set'
    in
    level.sets.(set_idx) <- set';
    false
  end

let buffer_base t buf ~bytes_needed =
  match Hashtbl.find_opt t.base_addrs buf with
  | Some base -> base
  | None ->
      let base = t.next_base in
      (* Page-align each buffer in its own region. *)
      let aligned = ((bytes_needed + 4095) / 4096 * 4096) + 4096 in
      t.next_base <- t.next_base + aligned;
      Hashtbl.add t.base_addrs buf base;
      base

let access t ~buf ~index ~elem_bytes =
  let base = buffer_base t buf ~bytes_needed:((index + 1) * elem_bytes) in
  let addr = base + (index * elem_bytes) in
  let rec go = function
    | [] -> ()
    | level :: rest -> if probe level addr then () else go rest
  in
  go t.levels

let stats t =
  List.map
    (fun l -> { name = l.lv_name; accesses = l.accesses; misses = l.misses })
    t.levels

let simulate_nest ?(machine = Machine.e5_2680_v4) (nest : Loop_nest.t) =
  match Loop_nest.validate nest with
  | Error msg -> Error msg
  | Ok () ->
      let sim = create machine in
      (* Pre-register buffers so address assignment is deterministic and
         covers the full extent of each buffer. *)
      List.iter
        (fun (name, shape) ->
          let bytes =
            Array.fold_left ( * ) 1 shape * machine.Machine.elem_bytes
          in
          ignore (buffer_base sim name ~bytes_needed:bytes))
        nest.Loop_nest.buffers;
      let rng = Util.Rng.create 17 in
      let inputs =
        List.map
          (fun (name, shape) ->
            let size = Array.fold_left ( * ) 1 shape in
            (name, Array.init size (fun _ -> Util.Rng.uniform rng)))
          nest.Loop_nest.buffers
      in
      let on_access (a : Interp.access) =
        access sim ~buf:a.Interp.acc_buf ~index:a.Interp.acc_index
          ~elem_bytes:machine.Machine.elem_bytes
      in
      let _ = Interp.run ~on_access nest ~inputs in
      Ok (nest.Loop_nest.name, stats sim)
