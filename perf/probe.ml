(* The host's compute roof for runtime.peak_frac: a cache-blocked matmul
   over flat float arrays, timed in CPU time while nothing else runs. The
   benchmark owns it rather than timing a runtime kernel, so it measures
   the same thing while the executors change underneath it. *)

let n = 96
let tile = 32
let rng = Mdh_support.Rng.create 7
let a = Array.init (n * n) (fun _ -> Mdh_support.Rng.float rng 1.0)
let b = Array.init (n * n) (fun _ -> Mdh_support.Rng.float rng 1.0)
let c = Array.make (n * n) 0.0

let matmul () =
  Array.fill c 0 (n * n) 0.0;
  for i0 = 0 to (n / tile) - 1 do
    for k0 = 0 to (n / tile) - 1 do
      for i = i0 * tile to ((i0 + 1) * tile) - 1 do
        for k = k0 * tile to ((k0 + 1) * tile) - 1 do
          let aik = Array.unsafe_get a ((i * n) + k) in
          let row = i * n and brow = k * n in
          for j = 0 to n - 1 do
            Array.unsafe_set c (row + j)
              (Array.unsafe_get c (row + j) +. (aik *. Array.unsafe_get b (brow + j)))
          done
        done
      done
    done
  done

(* GFLOP per CPU-second of one core: median of nine products *)
let gflops_per_core () =
  let seconds () = (snd (Meter.measure matmul)).Meter.cpu_s in
  2.0 *. float_of_int (n * n * n) /. Sample.median (List.init 9 (fun _ -> seconds ())) /. 1e9
