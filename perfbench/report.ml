(* Statistics and the result record every workload returns. Medians,
   geometric means and percentiles come from Util.Stats. *)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The highest percentile that has at least ten samples beyond it: the
   sorted sample with exactly ten larger ones. [None] below 11 samples. *)
type tail = { t_value : float; t_pct : float; t_n : int }

let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 11 then None
  else
    let k = n - 11 in
    Some { t_value = a.(k); t_pct = 100.0 *. float_of_int (k + 1) /. float_of_int n; t_n = n }

let tail_value xs = match tail xs with Some t -> t.t_value | None -> nan

let tail_note name xs =
  match tail xs with
  | Some t ->
      Printf.sprintf "%s is %.3f, p%.2f of %d samples (10 beyond it)" name t.t_value t.t_pct t.t_n
  | None -> Printf.sprintf "%s: fewer than 11 samples" name

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Hit fraction over several caches taken together (0 when none was
   looked up). *)
let hit_frac (stats : Util.Sharded_cache.stats list) =
  let hits = List.fold_left (fun a s -> a + s.Util.Sharded_cache.hits) 0 stats in
  let misses = List.fold_left (fun a s -> a + s.Util.Sharded_cache.misses) 0 stats in
  if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* The evaluator's base-time and state caches ([state] is absent when the
   evaluator keeps none). *)
let evaluator_caches (c : Evaluator.cache_stats) =
  ([ c.Evaluator.base ], Option.to_list c.Evaluator.state)

(* Gc counters over a window of this process. *)
type gc_window = { minor_words : float; major_collections : int }

let gc_start () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since w =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words -. w.minor_words;
    major_collections = s.Gc.major_collections - w.major_collections;
  }

(* Set-up times of one run. A workload sets up before it measures and
   again between its measured units, and reports the median of all its
   set-ups: the host's speed drifts over tens of seconds, so set-ups
   taken in one burst would all read one phase of it. *)
type setups = { mutable times : float list }

let setups () = { times = [] }

let set_up s f =
  let t0 = Trace.now () in
  let v = f () in
  s.times <- (Trace.now () -. t0) :: s.times;
  v

let setup_s s = Util.Stats.median s.times

let failed_frac ~attempted ~failed = float_of_int failed /. float_of_int (max 1 attempted)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A traced run: per-layer metrics, and the wall time of the same work
   run once untraced and once traced, whose difference is the tracing
   overhead. [window] is the traced window, over which layer spans must
   cover most of the wall time (Trace.coverage).
   [checked] operations of the traced run were compared with an oracle,
   and [mismatched] of them differed. *)
type traced = {
  layer : metric list;
  untraced_s : float;
  traced_s : float;
  window : float * float;
  checked : int;
  mismatched : int;
  traced_notes : string list;
}

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
      (** the JSON metrics: with tracing off the end-to-end metrics of
          BENCHMARK.json, with tracing on the per-layer ones *)
  named : metric list;
      (** the workload's end-to-end metrics under their own names,
          printed for people; BENCHMARK.json does not list them *)
  notes : string list;  (** human-readable lines printed before the JSON *)
  invalid : string option;
      (** set when the run cannot be scored (the serve generator fell
          behind); the result then reads incorrect *)
}
