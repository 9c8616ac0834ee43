(* e2e-compare: the verdict rule for a change against its parent.

   The arguments are mdh-bench-e2e/1 artifacts of untraced runs, the
   parent's first, then "--", then the change's, each side in run order;
   the i-th parent run and the i-th change run of a workload form a pair.
   For every workload and every end-to-end metric of BENCHMARK.json it
   prints each side's median and quartiles, the change's win fraction
   (ties count for neither side) and a verdict:

   - improved: the change wins at least 9 pairs in 10 and the medians
     differ by more than the parent's interquartile range;
   - unresolved: either side's spread (IQR over median) is wider than the
     metric's bound, and not every change run beats every parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - no-worse: otherwise.

   Exits 1 when any row regressed. Fewer than ten pairs are reported but
   flagged: the rule needs at least ten. *)

module Jin = Mdh_support.Json_in

type bound = { name : string; unit_ : string; lower_better : bool; bound : float }

let bounds path =
  let spec = Jin.of_file path in
  List.map
    (fun m ->
      let str k = Option.get (Jin.get_string m k) in
      { name = str "name"; unit_ = str "unit"; lower_better = str "better" = "lower";
        bound = Option.get (Jin.get_float m "bound") })
    (Option.get (Jin.get_list spec "end_to_end"))

(* (workload, metric -> value) of one artifact *)
let load path =
  let a = Jin.of_file path in
  if Jin.get_string a "schema" <> Some "mdh-bench-e2e/1" then
    failwith (path ^ ": not an mdh-bench-e2e/1 artifact");
  if Jin.get_bool a "traced" = Some true then
    failwith (path ^ ": a traced run; compare untraced runs");
  let metrics = Option.get (Option.bind (Jin.member "result" a) (Jin.member "metrics")) in
  let value name =
    Option.bind (Jin.member name metrics) (fun m -> Jin.get_float m "value")
  in
  (Option.get (Jin.get_string a "workload"), value)

let spread xs =
  let q1, q2, q3 = Sample.quartiles xs in
  (q1, q2, q3, (q3 -. q1) /. q2)

let row ~b ~parent ~change =
  let better x y = if b.lower_better then x < y else x > y in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent change in
  let n = List.length pairs in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let p1, pm, p3, ps = spread parent and c1, cm, c3, cs = spread change in
  let worse = (if b.lower_better then cm -. pm else pm -. cm) /. pm in
  let dominates =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let verdict =
    if 10 * wins >= 9 * n && better cm pm && Float.abs (cm -. pm) > p3 -. p1 then "improved"
    else if (ps > b.bound || cs > b.bound) && not dominates then "unresolved"
    else if worse > b.bound then "regressed"
    else "no-worse"
  in
  Printf.printf
    "%-20s %-8s parent %12.6g [%.6g, %.6g] spread %5.3f | change %12.6g [%.6g, \
     %.6g] spread %5.3f | wins %d/%d | %+.3f (bound %.2f) %s%s\n"
    b.name b.unit_ pm p1 p3 ps cm c1 c3 cs wins n worse b.bound verdict
    (if n < 10 then " (fewer than 10 pairs)" else "");
  verdict

let run args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let parent_files, change_files = split [] args in
  if parent_files = [] || change_files = [] then begin
    prerr_endline "e2e-compare: give PARENT.json... -- CHANGE.json...";
    exit 2
  end;
  let bounds = bounds "BENCHMARK.json" in
  let parent = List.map load parent_files and change = List.map load change_files in
  let workloads = List.sort_uniq compare (List.map fst parent) in
  let regressed = ref false in
  List.iter
    (fun w ->
      let side runs name =
        List.filter_map (fun (w', value) -> if w' = w then value name else None) runs
      in
      Printf.printf "== %s\n" w;
      List.iter
        (fun b ->
          match (side parent b.name, side change b.name) with
          | [], _ | _, [] -> Printf.printf "%-20s missing on one side\n" b.name
          | p, c -> if row ~b ~parent:p ~change:c = "regressed" then regressed := true)
        bounds)
    workloads;
  exit (if !regressed then 1 else 0)
