(* Log-bucketed histograms: bounds base * ratio^i for i in [0, n_buckets),
   plus a +Inf overflow bucket. base 1e-6 (1us) and ratio 2 give 30
   buckets up to ~17 minutes — plenty for request latencies — with at
   most 2x relative overestimate from quantile. *)

let n_buckets = 30

let base_bound = 1e-6

let ratio = 2.0

type hist = {
  bounds : float array; (* length n_buckets, ascending *)
  buckets : int array; (* length n_buckets + 1; last is +Inf *)
  mutable sum : float;
  mutable count : int;
}

type t = {
  mutex : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable collectors : (unit -> (string * int) list) list;
}

let create () =
  {
    mutex = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    collectors = [];
  }

let global = create ()

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add_collector t f = with_lock t (fun () -> t.collectors <- f :: t.collectors)

let incr t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> incr r
      | None -> Hashtbl.replace t.counters name (ref 1))

(* Stored and collected counters, summed per name and sorted by name.
   Collectors run outside the lock: they read another layer's state and
   may take that layer's locks, which a domain bumping this registry
   could be holding. *)
let counters t =
  let stored, collectors =
    with_lock t (fun () ->
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [], t.collectors))
  in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace sums k (v + Option.value ~default:0 (Hashtbl.find_opt sums k)))
    (stored @ List.concat_map (fun f -> f ()) collectors);
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [])

let counter t name = Option.value ~default:0 (List.assoc_opt name (counters t))

(* Gauges are point-in-time values (replica up/down, breaker state) —
   set absolutely, never accumulated. *)
let set_gauge t name v =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some r -> r := v
      | None -> Hashtbl.replace t.gauges name (ref v))

let make_hist () =
  let bounds = Array.init n_buckets (fun i -> base_bound *. (ratio ** float_of_int i)) in
  { bounds; buckets = Array.make (n_buckets + 1) 0; sum = 0.0; count = 0 }

let bucket_index h v =
  (* First bucket whose upper bound contains v; linear scan is fine for
     30 buckets and avoids float-log edge cases. *)
  let rec go i = if i >= n_buckets then n_buckets else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe t name v =
  with_lock t (fun () ->
      let h =
        match Hashtbl.find_opt t.hists name with
        | Some h -> h
        | None ->
            let h = make_hist () in
            Hashtbl.replace t.hists name h;
            h
      in
      let v = if v < 0.0 || Float.is_nan v then 0.0 else v in
      h.buckets.(bucket_index h v) <- h.buckets.(bucket_index h v) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1)

let hist_count t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.count | None -> 0)

let hist_sum t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.sum | None -> 0.0)

let quantile t name q =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | None -> None
      | Some h when h.count = 0 -> None
      | Some h ->
          let q = Float.max 0.0 (Float.min 1.0 q) in
          let rank = int_of_float (Float.round (q *. float_of_int (h.count - 1))) + 1 in
          let rec go i seen =
            if i > n_buckets then h.bounds.(n_buckets - 1)
            else
              let seen = seen + h.buckets.(i) in
              if seen >= rank then
                if i < n_buckets then h.bounds.(i) else Float.infinity
              else go (i + 1) seen
          in
          Some (go 0 0))

let sorted_keys tbl = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let render t =
  let counters = counters t in
  with_lock t (fun () ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
        counters;
      List.iter
        (fun name ->
          let v = !(Hashtbl.find t.gauges name) in
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name (float_str v)))
        (sorted_keys t.gauges);
      List.iter
        (fun name ->
          let h = Hashtbl.find t.hists name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + b;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (float_str h.bounds.(i)) !cum))
            (Array.sub h.buckets 0 n_buckets);
          cum := !cum + h.buckets.(n_buckets);
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cum);
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (float_str h.sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.count))
        (sorted_keys t.hists);
      Buffer.contents buf)

let stats_line t =
  (* Quantiles call back into the lock, so gather the raw data under the
     lock and format outside it. *)
  let counters = counters t in
  let gauges, hists =
    with_lock t (fun () ->
        ( List.map (fun k -> (k, !(Hashtbl.find t.gauges k))) (sorted_keys t.gauges),
          sorted_keys t.hists ))
  in
  let parts =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters
    @ List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (float_str v)) gauges
    @ List.concat_map
        (fun k ->
          let p50 = match quantile t k 0.5 with Some v -> v | None -> 0.0 in
          let p99 = match quantile t k 0.99 with Some v -> v | None -> 0.0 in
          [
            Printf.sprintf "%s_count=%d" k (hist_count t k);
            Printf.sprintf "%s_sum=%s" k (float_str (hist_sum t k));
            Printf.sprintf "%s_p50=%s" k (float_str p50);
            Printf.sprintf "%s_p99=%s" k (float_str p99);
          ])
        hists
  in
  String.concat " " parts

(* -- merging rendered dumps -------------------------------------------

   The fleet supervisor scrapes each replica's Prometheus dump and
   serves one merged view: counters and histogram buckets sum across
   replicas (every replica renders the same bucket bounds, so summing
   the cumulative counts per upper bound is exact), gauges sum too
   (fleet totals of per-replica levels). Only the format produced by
   {!render} is understood; unparseable lines are dropped rather than
   guessed at. *)

type merge_acc = {
  mutable m_kind : string; (* "counter" | "gauge" | "histogram" *)
  m_buckets : (string, float) Hashtbl.t; (* le -> cumulative count *)
  mutable m_sum : float;
  mutable m_count : float;
  mutable m_value : float; (* counters and gauges *)
}

let merge_rendered dumps =
  let accs : (string, merge_acc) Hashtbl.t = Hashtbl.create 32 in
  let acc name kind =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a =
          {
            m_kind = kind;
            m_buckets = Hashtbl.create 8;
            m_sum = 0.0;
            m_count = 0.0;
            m_value = 0.0;
          }
        in
        Hashtbl.replace accs name a;
        a
  in
  let strip_suffix s suf =
    let n = String.length s and m = String.length suf in
    if n > m && String.sub s (n - m) m = suf then Some (String.sub s 0 (n - m))
    else None
  in
  let handle_sample name value =
    match String.index_opt name '{' with
    | Some i -> (
        (* NAME_bucket{le="BOUND"} *)
        match strip_suffix (String.sub name 0 i) "_bucket" with
        | None -> ()
        | Some base ->
            let rest = String.sub name i (String.length name - i) in
            let le =
              match (String.index_opt rest '"', String.rindex_opt rest '"') with
              | Some a, Some b when b > a -> String.sub rest (a + 1) (b - a - 1)
              | _ -> ""
            in
            if le <> "" then begin
              let a = acc base "histogram" in
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt a.m_buckets le)
              in
              Hashtbl.replace a.m_buckets le (prev +. value)
            end)
    | None -> (
        match strip_suffix name "_sum" with
        | Some base when Hashtbl.mem accs base ->
            (acc base "histogram").m_sum <- (acc base "histogram").m_sum +. value
        | _ -> (
            match strip_suffix name "_count" with
            | Some base when Hashtbl.mem accs base ->
                (acc base "histogram").m_count <-
                  (acc base "histogram").m_count +. value
            | _ ->
                (* TYPE lines precede samples in rendered dumps, so the
                   kind is already registered; default to counter. *)
                let a = acc name "counter" in
                a.m_value <- a.m_value +. value))
  in
  List.iter
    (fun dump ->
      String.split_on_char '\n' dump
      |> List.iter (fun line ->
             let line = String.trim line in
             if line = "" then ()
             else if String.length line > 0 && line.[0] = '#' then begin
               match String.split_on_char ' ' line with
               | [ "#"; "TYPE"; name; kind ] -> (acc name kind).m_kind <- kind
               | _ -> ()
             end
             else
               match String.rindex_opt line ' ' with
               | None -> ()
               | Some i -> (
                   let name = String.sub line 0 i in
                   let v = String.sub line (i + 1) (String.length line - i - 1) in
                   match float_of_string_opt v with
                   | Some value -> handle_sample name value
                   | None -> ())))
    dumps;
  let names = List.sort String.compare (Hashtbl.fold (fun k _ l -> k :: l) accs []) in
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let a = Hashtbl.find accs name in
      match a.m_kind with
      | "histogram" ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          let les = Hashtbl.fold (fun le c l -> (le, c) :: l) a.m_buckets [] in
          let les =
            List.sort
              (fun (a, _) (b, _) ->
                let key le =
                  if le = "+Inf" then Float.infinity
                  else Option.value ~default:Float.infinity (float_of_string_opt le)
                in
                compare (key a) (key b))
              les
          in
          List.iter
            (fun (le, c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %s\n" name le (float_str c)))
            les;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" name (float_str a.m_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %s\n" name (float_str a.m_count))
      | kind ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (float_str a.m_value)))
    names;
  Buffer.contents buf
