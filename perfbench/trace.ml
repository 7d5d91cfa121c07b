(* Spans around calls into the library's public functions.

   Spans are recorded on the calling thread of the main domain only
   (every traced call site in this benchmark runs there), kept in memory
   and summarized or written out when the workload ends. When tracing is
   off a span is one branch around the call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A [group] span wraps a loop of layer calls (a collection, an open
   loop). Its self time is the loop's own bookkeeping or waiting, which
   no layer accounts for. *)
type span = { name : string; id : int; parent : int; group : bool; t0 : float; t1 : float }

let enabled = ref false
let spans : span list ref = ref []
let current = ref 0
let next_id = ref 1

let reset () =
  spans := [];
  current := 0;
  next_id := 1

let record ~group name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        current := parent;
        spans := { name; id; parent; group; t0; t1 } :: !spans)
  end

let span name f = record ~group:false name f
let group name f = record ~group:true name f

type summary = { calls : int; total_s : float; self_s : float }

(* Self time is a span's duration minus the part of it its direct
   children cover. Children of one span run one after another on the
   same thread, so their durations do not overlap and add up. *)
let summarize () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self =
        Float.max 0.0 (d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id))
      in
      let acc =
        Option.value ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = acc.calls + 1; total_s = acc.total_s +. d; self_s = acc.self_s +. self })
    !spans;
  by_name

let self_ms by_name name =
  match Hashtbl.find_opt by_name name with Some s -> s.self_s *. 1e3 | None -> 0.0

let total_s by_name name =
  match Hashtbl.find_opt by_name name with Some s -> s.total_s | None -> 0.0

let calls by_name name =
  match Hashtbl.find_opt by_name name with Some s -> s.calls | None -> 0

(* Seconds of [t0, t1] that layer spans cover: the spans that are no
   group and sit at the root or directly under a group. They run one
   after another on one thread, so they do not overlap. *)
let covered ~t0 ~t1 =
  let groups = Hashtbl.create 16 in
  List.iter (fun s -> if s.group then Hashtbl.replace groups s.id ()) !spans;
  List.fold_left
    (fun acc s ->
      if s.group || not (s.parent = 0 || Hashtbl.mem groups s.parent) then acc
      else acc +. Float.max 0.0 (Float.min t1 s.t1 -. Float.max t0 s.t0))
    0.0 !spans

(* Share of the traced window's wall time that layer spans cover. *)
let coverage ~t0 ~t1 = if t1 > t0 then covered ~t0 ~t1 /. (t1 -. t0) else 0.0

(* One line per span, in start order: name, id, parent, whether it is a
   group, start and duration in microseconds relative to [origin]. *)
let write ~path ~origin =
  let oc = open_out path in
  output_string oc "name\tid\tparent\tgroup\tstart_us\tdur_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%d\t%d\t%b\t%.1f\t%.1f\n" s.name s.id s.parent s.group
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6))
    (List.rev !spans);
  close_out oc
