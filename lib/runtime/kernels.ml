let matvec_row ~k m v r =
  let base = r * k in
  let acc = ref 0.0 in
  for c = 0 to k - 1 do
    acc := !acc +. (m.(base + c) *. v.(c))
  done;
  !acc

let matvec_seq ~m ~k mat v =
  Array.init m (fun r -> matvec_row ~k mat v r)

let matvec_par pool ~m ~k mat v =
  let out = Array.make m 0.0 in
  Pool.parallel_for pool ~lo:0 ~hi:m (fun r -> out.(r) <- matvec_row ~k mat v r);
  out

let matmul_seq ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + p) *. b.((p * n) + j))
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let matmul_tile_block ~n ~k ~tile a b c i0 i1 =
  (* block over j and p for locality; rows [i0, i1) *)
  let j0 = ref 0 in
  while !j0 < n do
    let j1 = min n (!j0 + tile) in
    let p0 = ref 0 in
    while !p0 < k do
      let p1 = min k (!p0 + tile) in
      for i = i0 to i1 - 1 do
        for p = !p0 to p1 - 1 do
          let aip = a.((i * k) + p) in
          let brow = p * n in
          let crow = i * n in
          for j = !j0 to j1 - 1 do
            c.(crow + j) <- c.(crow + j) +. (aip *. b.(brow + j))
          done
        done
      done;
      p0 := p1
    done;
    j0 := j1
  done

let matmul_tiled ?(tile = 32) ~m ~n ~k a b =
  let c = Array.make (m * n) 0.0 in
  let i0 = ref 0 in
  while !i0 < m do
    let i1 = min m (!i0 + tile) in
    matmul_tile_block ~n ~k ~tile a b c !i0 i1;
    i0 := i1
  done;
  c
