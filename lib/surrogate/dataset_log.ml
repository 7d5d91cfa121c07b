(* Append-only evaluation log for the surrogate trainer.

   Entries are (structural digest, machine, measured seconds, feature
   vector) rows collected from the evaluator's measurement tap. The
   in-memory store dedups by (digest | machine) — the tap fires on every
   pricing, repeats included, so this is what keeps one row per nest,
   across evaluators too — and enforces a bounded-size FIFO rotation:
   when full, the oldest entries rotate out (counted, never silently).

   Persistence is a sealed file of tab-separated rows written through
   {!Util.Atomic_file} (temp + rename), so a crash mid-write leaves the
   old log intact. [save] folds the on-disk rows back in first, which
   is what makes repeated `surrogate collect` runs append-only at the
   file level. *)

type entry = {
  digest : string;  (** {!Sched_state.digest} of the measured nest *)
  machine : string;  (** {!Machine.t} name the measurement priced *)
  seconds : float;  (** pure pre-jitter cost-model seconds *)
  features : float array;  (** {!Features.dim}-wide vector *)
}

type t = {
  capacity : int;
  mutex : Mutex.t;
  seen : (string, unit) Hashtbl.t;  (* digest|machine *)
  queue : entry Queue.t;  (* insertion order; front = oldest *)
  mutable added : int;
  mutable duplicates : int;
  mutable rotated : int;
}

let default_capacity = 200_000

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Surrogate.Dataset_log.create: capacity";
  {
    capacity;
    mutex = Mutex.create ();
    seen = Hashtbl.create 1024;
    queue = Queue.create ();
    added = 0;
    duplicates = 0;
    rotated = 0;
  }

let key e = e.digest ^ "|" ^ e.machine

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add t e =
  locked t (fun () ->
      let k = key e in
      if Hashtbl.mem t.seen k then begin
        t.duplicates <- t.duplicates + 1;
        false
      end
      else begin
        Hashtbl.add t.seen k ();
        Queue.add e t.queue;
        t.added <- t.added + 1;
        while Queue.length t.queue > t.capacity do
          let oldest = Queue.pop t.queue in
          Hashtbl.remove t.seen (key oldest);
          t.rotated <- t.rotated + 1
        done;
        true
      end)

let length t = locked t (fun () -> Queue.length t.queue)

type stats = { added : int; duplicates : int; rotated : int; size : int }

let stats t =
  locked t (fun () ->
      {
        added = t.added;
        duplicates = t.duplicates;
        rotated = t.rotated;
        size = Queue.length t.queue;
      })

let entries t =
  locked t (fun () -> Array.of_seq (Queue.to_seq t.queue))

(* The tap: compute the feature vector for every distinct measured state
   and record it against the pure seconds. Op blocks are memoized per op
   digest in [fcache] (shared across forked evaluators via closure). *)
let attach t evaluator =
  let machine = Evaluator.machine evaluator in
  let machine_blk = Features.machine_block machine in
  let fcache = Features.create_cache () in
  Evaluator.set_measure_hook evaluator
    (Some
       (fun state ~seconds ->
         let features =
           Features.assemble ~machine:machine_blk
             ~op:
               (Features.cached_op_block fcache state.Sched_state.original)
             ~sched:(Features.schedule_block (Sched_state.applied state))
         in
         ignore
           (add t
              {
                digest = Sched_state.digest state;
                machine = machine.Machine.name;
                seconds;
                features;
              })))

let detach evaluator = Evaluator.set_measure_hook evaluator None

(* -- persistence ------------------------------------------------------- *)

let header = Printf.sprintf "surrogate-log v2 dim=%d" Features.dim

let entry_line e =
  let b = Buffer.create (32 + (Array.length e.features * 12)) in
  Buffer.add_string b e.digest;
  Buffer.add_char b '\t';
  Buffer.add_string b e.machine;
  Buffer.add_char b '\t';
  (* %h hex floats: the file round-trips bit-exactly, so training from
     a reloaded log matches training from the in-memory one. *)
  Buffer.add_string b (Printf.sprintf "%h" e.seconds);
  Buffer.add_char b '\t';
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (Printf.sprintf "%h" f))
    e.features;
  Buffer.contents b

let parse_line lineno line =
  match String.split_on_char '\t' line with
  | [ digest; machine; seconds_s; feats_s ] -> (
      match float_of_string_opt seconds_s with
      | None -> Error (Printf.sprintf "line %d: bad seconds" lineno)
      | Some seconds ->
          let parts =
            List.filter (fun s -> s <> "") (String.split_on_char ' ' feats_s)
          in
          let feats = List.filter_map float_of_string_opt parts in
          if List.length feats <> List.length parts then
            Error (Printf.sprintf "line %d: bad feature float" lineno)
          else
            let features = Array.of_list feats in
            if Array.length features <> Features.dim then
              Error
                (Printf.sprintf "line %d: expected %d features, got %d" lineno
                   Features.dim (Array.length features))
            else Ok { digest; machine; seconds; features })
  | _ -> Error (Printf.sprintf "line %d: expected 4 tab-separated fields" lineno)

let load ~path =
  Util.Atomic_file.read_sealed ~path ~header (fun next ->
      let t = create () in
      let rec go lineno =
        match next () with
        | None -> Ok t
        | Some line -> (
            match parse_line lineno line with
            | Error e -> Error e
            | Ok entry ->
                ignore (add t entry);
                go (lineno + 1))
      in
      go 2)

(* The rows already at [path]: none for a missing or zero-byte file, an
   [Error] for a file that does not load, which [save] then leaves
   untouched. *)
let on_disk ~path =
  match In_channel.with_open_bin path In_channel.length with
  | exception Sys_error _ when not (Sys.file_exists path) -> Ok [||]
  | exception Sys_error e -> Error e
  | 0L -> Ok [||]
  | _ -> Result.map entries (load ~path)

let save t ~path =
  (* Merge semantics: rows already on disk keep their (older) position;
     new in-memory rows append. The capacity bound applies to the merged
     stream, dropping from the oldest end — the same FIFO rotation the
     in-memory store uses. *)
  Result.map
    (fun disk_entries ->
      let merged = create ~capacity:t.capacity () in
      Array.iter (fun e -> ignore (add merged e)) disk_entries;
      Array.iter (fun e -> ignore (add merged e)) (entries t);
      let all = entries merged in
      Util.Atomic_file.write_sealed ~path ~header (fun oc ->
          Array.iter
            (fun e ->
              output_string oc (entry_line e);
              output_char oc '\n')
            all);
      Array.length all)
    (on_disk ~path)
