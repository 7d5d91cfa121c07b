type transformation =
  | Tile of int array
  | Parallelize of int array
  | Interchange of int array
  | Swap of int
  | Im2col
  | Vectorize
  | Unroll of int

type t = transformation list

let ints_to_string arr =
  String.concat "," (Array.to_list (Array.map string_of_int arr))

let transformation_to_string = function
  | Tile sizes -> Printf.sprintf "T(%s)" (ints_to_string sizes)
  | Parallelize sizes -> Printf.sprintf "P(%s)" (ints_to_string sizes)
  | Interchange perm -> Printf.sprintf "I(%s)" (ints_to_string perm)
  | Swap i -> Printf.sprintf "S(%d)" i
  | Im2col -> "C"
  | Vectorize -> "V"
  | Unroll f -> Printf.sprintf "U(%d)" f

let to_string sched =
  String.concat " " (List.map transformation_to_string sched)

(* Injective encoding for dedup tables on hot search paths: one
   Buffer, no Printf. Each transformation is a tag char plus
   ','-terminated integers, closed with ';', so distinct schedules never
   collide. [to_string] stays the human-readable / parseable form. *)
let dedup_key sched =
  let b = Buffer.create 48 in
  let ints arr =
    Array.iter
      (fun v ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ',')
      arr
  in
  List.iter
    (fun tr ->
      (match tr with
      | Tile sizes ->
          Buffer.add_char b 'T';
          ints sizes
      | Parallelize sizes ->
          Buffer.add_char b 'P';
          ints sizes
      | Interchange perm ->
          Buffer.add_char b 'I';
          ints perm
      | Swap i ->
          Buffer.add_char b 'S';
          Buffer.add_string b (string_of_int i)
      | Im2col -> Buffer.add_char b 'C'
      | Vectorize -> Buffer.add_char b 'V'
      | Unroll f ->
          Buffer.add_char b 'U';
          Buffer.add_string b (string_of_int f));
      Buffer.add_char b ';')
    sched;
  Buffer.contents b

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Tile s1, Tile s2 | Parallelize s1, Parallelize s2 -> s1 = s2
         | Interchange p1, Interchange p2 -> p1 = p2
         | Swap i, Swap j -> i = j
         | Im2col, Im2col | Vectorize, Vectorize -> true
         | Unroll f1, Unroll f2 -> f1 = f2
         | ( (Tile _ | Parallelize _ | Interchange _ | Swap _ | Im2col
             | Vectorize | Unroll _ ),
             _ ) ->
             false)
       a b

let transformation_name = function
  | Tile _ -> "tiling"
  | Parallelize _ -> "parallelization"
  | Interchange _ | Swap _ -> "interchange"
  | Im2col -> "im2col"
  | Vectorize -> "vectorization"
  | Unroll _ -> "unrolling"

let parse_ints s =
  let parts = String.split_on_char ',' s in
  try Ok (Array.of_list (List.map (fun p -> int_of_string (String.trim p)) parts))
  with Failure _ -> Error (Printf.sprintf "bad integer list %S" s)

let parse_one tok =
  let with_args prefix =
    let n = String.length tok in
    let plen = String.length prefix in
    if n >= plen + 2 && String.sub tok 0 plen = prefix && tok.[plen] = '('
       && tok.[n - 1] = ')'
    then Some (String.sub tok (plen + 1) (n - plen - 2))
    else None
  in
  match tok with
  | "C" -> Ok Im2col
  | "V" -> Ok Vectorize
  | _ -> (
      match with_args "T" with
      | Some args -> Result.map (fun a -> Tile a) (parse_ints args)
      | None -> (
          match with_args "P" with
          | Some args -> Result.map (fun a -> Parallelize a) (parse_ints args)
          | None -> (
              match with_args "I" with
              | Some args -> Result.map (fun a -> Interchange a) (parse_ints args)
              | None -> (
                  match with_args "S" with
                  | Some args ->
                      Result.bind (parse_ints args) (fun a ->
                          if Array.length a = 1 then Ok (Swap a.(0))
                          else Error "S takes one index")
                  | None -> (
                      match with_args "U" with
                      | Some args ->
                          Result.bind (parse_ints args) (fun a ->
                              if Array.length a = 1 then Ok (Unroll a.(0))
                              else Error "U takes one factor")
                      | None ->
                          Error (Printf.sprintf "unknown transformation %S" tok))))))

let of_string s =
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match parse_one tok with
        | Ok tr -> go (tr :: acc) rest
        | Error _ as e -> e)
  in
  go [] tokens
