type t = int array

let validate shape =
  Array.iteri
    (fun d n ->
      if n <= 0 then
        invalid_arg (Printf.sprintf "Shape: extent %d of dimension %d is not positive" n d))
    shape

let rank = Array.length
let num_elements = Mdh_support.Util.product

let equal a b = a = b
let to_string = Mdh_support.Util.string_of_dims

let linearize shape idx =
  if Array.length idx <> Array.length shape then
    invalid_arg
      (Printf.sprintf "Shape.linearize: rank mismatch (index rank %d, shape rank %d)"
         (Array.length idx) (Array.length shape));
  let offset = ref 0 in
  for d = 0 to Array.length shape - 1 do
    let i = idx.(d) in
    if i < 0 || i >= shape.(d) then
      invalid_arg
        (Printf.sprintf "Shape.linearize: index %d out of bounds [0,%d) in dimension %d" i
           shape.(d) d);
    offset := (!offset * shape.(d)) + i
  done;
  !offset

let delinearize shape offset =
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  let rest = ref offset in
  for d = rank - 1 downto 0 do
    idx.(d) <- !rest mod shape.(d);
    rest := !rest / shape.(d)
  done;
  idx

let iter shape f =
  let rank = Array.length shape in
  if Array.exists (fun n -> n <= 0) shape then ()
  else begin
    let idx = Array.make rank 0 in
    let rec loop d =
      if d = rank then f idx
      else
        for i = 0 to shape.(d) - 1 do
          idx.(d) <- i;
          loop (d + 1)
        done
    in
    loop 0
  end

let fold shape ~init ~f =
  let acc = ref init in
  iter shape (fun idx -> acc := f !acc idx);
  !acc

let concat_extent shape ~dim n =
  let out = Array.copy shape in
  out.(dim) <- n;
  out
