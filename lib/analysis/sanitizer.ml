let read_enabled () =
  match Sys.getenv_opt "MLIR_RL_SANITIZE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let enabled_flag = Atomic.make (read_enabled ())
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let budget_ref = Atomic.make 300_000
let budget () = Atomic.get budget_ref
let set_budget n = if n > 0 then Atomic.set budget_ref n

type outcome = Matched | Skipped of string | Mismatch of string

(* Lock-free on the check path; the registry reads them at render time. *)
let runs_ctr = Atomic.make 0
let skips_ctr = Atomic.make 0
let violations_ctr = Atomic.make 0

let () =
  Util.Metrics.add_collector Util.Metrics.global (fun () ->
      [
        ("sanitize_runs_total", Atomic.get runs_ctr);
        ("sanitize_skips_total", Atomic.get skips_ctr);
        ("sanitize_violations_total", Atomic.get violations_ctr);
      ])

(* Digest-pair dedup registry. Size-capped: a pathological run that
   somehow produces hundreds of thousands of distinct pairs drops its
   memory of old ones rather than growing without bound (the cost is
   only a re-check). *)
let seen_lock = Mutex.create ()
let seen : (string, unit) Hashtbl.t = Hashtbl.create 256
let seen_cap = 65_536

let fresh_pair ~reference ~candidate =
  let key = reference ^ "|" ^ candidate in
  Mutex.lock seen_lock;
  let fresh = not (Hashtbl.mem seen key) in
  if fresh then begin
    if Hashtbl.length seen >= seen_cap then Hashtbl.reset seen;
    Hashtbl.replace seen key ()
  end;
  Mutex.unlock seen_lock;
  fresh

(* --- seeded input generation ---------------------------------------
   A self-contained splitmix stream (same finalizer family as the nest
   digest): the sanitizer must not consume any shared RNG stream —
   training determinism contracts require byte-identical traces with
   the sanitizer on or off. *)

let mix z =
  let z = (z lxor (z lsr 30)) * 0x2f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let hash_string seed s =
  let h = ref (mix (seed + 0x9e3779b9)) in
  String.iter (fun c -> h := mix (!h lxor Char.code c)) s;
  !h

let fill_seeded seed n =
  let state = ref (mix seed) in
  Array.init n (fun _ ->
      state := !state + 0x1e3779b97f4a7c15;
      let v = mix !state land 0xFFFFFF in
      0.25 +. (float_of_int v /. 16777216.0))

let input_buffer_names (nest : Loop_nest.t) =
  let stores = Loop_nest.stores_of_body nest in
  let stored b =
    List.exists (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf = b) stores
  in
  let loads = Loop_nest.loads_of_body nest in
  List.filter
    (fun (b, _) ->
      (not (stored b))
      && List.exists (fun (r : Loop_nest.mem_ref) -> r.Loop_nest.buf = b) loads)
    nest.Loop_nest.buffers

let seeded_inputs (nest : Loop_nest.t) =
  let seed = hash_string 0x5eed (Loop_nest.digest nest) in
  List.map
    (fun (b, shape) ->
      let n = Array.fold_left ( * ) 1 shape in
      (b, fill_seeded (hash_string seed b) n))
    (input_buffer_names nest)

(* Relative comparison, matching the transformation test-suite's
   tolerance discipline: tiling and unrolling reassociate reductions,
   so bit equality is the wrong bar. *)
let arrays_close tol a b =
  let n = Array.length a in
  if Array.length b <> n then Some (-1)
  else begin
    let bad = ref None in
    (try
       for i = 0 to n - 1 do
         let diff = Float.abs (a.(i) -. b.(i)) in
         let scale = Float.max 1.0 (Float.max (Float.abs a.(i)) (Float.abs b.(i))) in
         if not (diff <= tol *. scale) then begin
           bad := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    !bad
  end

let run_pair ~(reference : Loop_nest.t)
    ~(ref_inputs : (string * float array) list) ~(candidate : Loop_nest.t)
    ~(cand_inputs : (string * float array) list) =
  let cost =
    Loop_nest.iteration_count reference + Loop_nest.iteration_count candidate
  in
  if cost > budget () then begin
    Atomic.incr skips_ctr;
    Skipped (Printf.sprintf "%d iterations over budget %d" cost (budget ()))
  end
  else
    match Interp.run reference ~inputs:ref_inputs with
    | exception e ->
        Atomic.incr skips_ctr;
        Skipped ("reference uninterpretable: " ^ Printexc.to_string e)
    | ref_bindings -> (
        let expected = Interp.output_of reference ref_bindings in
        match Interp.run candidate ~inputs:cand_inputs with
        | exception e ->
            Atomic.incr runs_ctr;
            Atomic.incr violations_ctr;
            Mismatch ("transformed nest failed to execute: " ^ Printexc.to_string e)
        | cand_bindings -> (
            let got = Interp.output_of candidate cand_bindings in
            Atomic.incr runs_ctr;
            match arrays_close 1e-6 expected got with
            | None -> Matched
            | Some i when i < 0 ->
                Atomic.incr violations_ctr;
                Mismatch
                  (Printf.sprintf "output sizes differ: %d vs %d"
                     (Array.length expected) (Array.length got))
            | Some i ->
                Atomic.incr violations_ctr;
                Mismatch
                  (Printf.sprintf
                     "output element %d differs: reference %.9g, transformed %.9g"
                     i expected.(i) got.(i))))

let skip reason =
  Atomic.incr skips_ctr;
  Skipped reason

let check ~reference ~candidate =
  let inputs = seeded_inputs reference in
  run_pair ~reference ~ref_inputs:inputs ~candidate ~cand_inputs:inputs
