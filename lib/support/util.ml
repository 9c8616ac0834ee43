let product = Array.fold_left ( * ) 1

let divisors n =
  if n <= 0 then invalid_arg "Util.divisors: n must be positive";
  let rec loop d acc =
    if d * d > n then acc
    else if n mod d = 0 then begin
      let acc = d :: acc in
      let acc = if d <> n / d then (n / d) :: acc else acc in
      loop (d + 1) acc
    end
    else loop (d + 1) acc
  in
  List.sort_uniq compare (loop 1 [])

let ceil_div a b =
  if b <= 0 then invalid_arg "Util.ceil_div: divisor must be positive";
  (a + b - 1) / b

let pow2_up_to n =
  let rec loop p acc = if p > n then List.rev acc else loop (p * 2) (p :: acc) in
  loop 1 []

(* An infinity equals only itself: its relative bound [rel *. infinity]
   would admit every finite value. *)
let float_equal ?(rel = 1e-6) ?(abs = 1e-9) a b =
  a = b
  || Float.is_finite a && Float.is_finite b
     &&
     let diff = Float.abs (a -. b) in
     diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let list_result_all results =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | Ok x :: rest -> loop (x :: acc) rest
    | Error e :: _ -> Error e
  in
  loop [] results

let string_of_dims dims =
  String.concat "x" (Array.to_list (Array.map string_of_int dims))

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)
