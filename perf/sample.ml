(* Order statistics over measured samples. Percentiles are nearest-rank on
   a sorted copy, so a reported p50/p90 is always a value that was
   measured; quartiles follow Python's statistics.quantiles(n=4) default
   ("exclusive") method, the rule the benchmark's spread check uses. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs q =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* (q1, q2, q3); one sample is its own quartiles *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
