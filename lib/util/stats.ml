let check_non_empty name = function
  | [] -> invalid_arg (name ^ ": empty list")
  | _ -> ()

let mean xs =
  check_non_empty "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  check_non_empty "Stats.geomean" xs;
  let sum_logs =
    List.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
        else acc +. log x)
      0.0 xs
  in
  exp (sum_logs /. float_of_int (List.length xs))

let sorted xs = List.sort compare xs

let median xs =
  check_non_empty "Stats.median" xs;
  let arr = Array.of_list (sorted xs) in
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2)
  else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let stddev xs =
  check_non_empty "Stats.stddev" xs;
  let m = mean xs in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int (List.length xs)
  in
  sqrt var

let min_max xs =
  check_non_empty "Stats.min_max" xs;
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (Float.infinity, Float.neg_infinity)
    xs

let percentile p xs =
  check_non_empty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list (sorted xs) in
  let n = Array.length arr in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  arr.(idx)
