let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
  end

let min xs = Array.fold_left Stdlib.min infinity xs
let max xs = Array.fold_left Stdlib.max neg_infinity xs

let z99 = 2.576

let ci99_halfwidth xs =
  let n = Array.length xs in
  if n < 2 then 0.0 else z99 *. stddev xs /. sqrt (float_of_int n)

(* fractional (mid-) ranks: ties share the average of the positions they
   occupy, so both correlations below are tie-aware *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do incr j done;
    (* positions !i..!j (0-based) hold equal values; 1-based mid-rank *)
    let rank = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- rank
    done;
    i := !j + 1
  done;
  r

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  if n < 2 then nan
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then nan
    else !sxy /. sqrt (!sxx *. !syy)
  end

let spearman xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.spearman: length mismatch";
  pearson (ranks xs) (ranks ys)

let kendall xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.kendall: length mismatch";
  if n < 2 then nan
  else begin
    (* tau-b: concordant minus discordant over the geometric mean of the
       non-tied pair counts in each variable *)
    let concordant = ref 0 and discordant = ref 0 in
    let ties_x = ref 0 and ties_y = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let dx = compare xs.(i) xs.(j) and dy = compare ys.(i) ys.(j) in
        if dx = 0 && dy = 0 then begin incr ties_x; incr ties_y end
        else if dx = 0 then incr ties_x
        else if dy = 0 then incr ties_y
        else if dx * dy > 0 then incr concordant
        else incr discordant
      done
    done;
    let pairs = n * (n - 1) / 2 in
    let nx = float_of_int (pairs - !ties_x)
    and ny = float_of_int (pairs - !ties_y) in
    if nx = 0.0 || ny = 0.0 then nan
    else float_of_int (!concordant - !discordant) /. sqrt (nx *. ny)
  end

type measurement = {
  mean : float;
  stddev : float;
  ci99 : float;
  samples : int;
}

let measure_until_ci ?(rel_ci = 0.05) ?(min_samples = 5) ?(max_samples = 1000) f =
  let samples = ref [] in
  let count = ref 0 in
  let converged () =
    let xs = Array.of_list !samples in
    let m = mean xs in
    !count >= min_samples && (m = 0.0 || ci99_halfwidth xs <= rel_ci *. Float.abs m)
  in
  while !count < max_samples && not (converged ()) do
    samples := f () :: !samples;
    incr count
  done;
  let xs = Array.of_list !samples in
  { mean = mean xs; stddev = stddev xs; ci99 = ci99_halfwidth xs; samples = !count }
