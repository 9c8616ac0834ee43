(* The end-to-end benchmark (see README.md).

     main.exe e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
     main.exe e2e-compare PARENT.json... -- CHANGE.json...

   e2e runs one workload (all four when --workload is absent), prints
   every metric by name with its unit and sample count, writes the
   mdh-bench-e2e/1 artifact (and with --trace 1 the Chrome trace) under
   perf/results/, and ends with the one-line JSON result. It exits 1 when
   any output fails its check. *)

let workloads = [ "exec-fp32"; "exec-boxed"; "tune-cold"; "serve-mix" ]
let results_dir = Filename.concat "perf" "results"

let usage () =
  prerr_endline
    "usage: main.exe e2e [--workload exec-fp32|exec-boxed|tune-cold|serve-mix]\n\
    \                    [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \       main.exe e2e-compare PARENT.json... -- CHANGE.json...";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  traced : bool;
  smoke : bool;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest when List.mem w workloads ->
    parse { o with workload = Some w } rest
  | "--seed" :: n :: rest -> parse { o with seed = int_of_string n } rest
  | "--seconds" :: s :: rest -> parse { o with seconds = Some (float_of_string s) } rest
  | "--trace" :: ("0" | "1" as t) :: rest -> parse { o with traced = t = "1" } rest
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_workload o name =
  let seconds = Option.value o.seconds ~default:(if o.smoke then 0.5 else 20.0) in
  let seed = o.seed and traced = o.traced and smoke = o.smoke in
  Printf.printf "[e2e] %s: seed %d, %g s window%s%s\n%!" name seed seconds
    (if traced then ", traced" else "")
    (if smoke then ", smoke sizes" else "");
  mkdir_p results_dir;
  let r =
    match name with
    | "exec-fp32" -> Exec_wl.run ~name ~boxed:false ~smoke ~seed ~seconds ~traced
    | "exec-boxed" -> Exec_wl.run ~name ~boxed:true ~smoke ~seed ~seconds ~traced
    | "tune-cold" -> Tune_wl.run ~smoke ~seed ~seconds ~traced
    | "serve-mix" -> Serve_wl.run ~dir:results_dir ~smoke ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let stem =
    Printf.sprintf "%s-seed%d-%s" name seed (if traced then "traced" else "untraced")
  in
  List.iter
    (fun (title, t) ->
      Layers.print ~title:(name ^ " " ^ title) t)
    r.Report.tables;
  Report.print r;
  let write file contents =
    let path = Filename.concat results_dir file in
    Out_channel.with_open_text path (fun oc ->
        output_string oc contents;
        output_char oc '\n');
    Printf.printf "[e2e] wrote %s\n" path
  in
  write ("e2e-" ^ stem ^ ".json") (Report.artifact r);
  if traced then begin
    let path = Filename.concat results_dir ("trace-" ^ stem ^ ".json") in
    Layers.write_chrome path (List.map snd r.Report.tables);
    Printf.printf "[e2e] wrote %s\n" path
  end;
  print_endline (Report.result_line r);
  r.Report.correct

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "e2e" :: args ->
    let o =
      parse
        { workload = None; seed = 1; seconds = None; traced = false; smoke = false }
        args
    in
    let names = match o.workload with Some w -> [ w ] | None -> workloads in
    let ok = List.for_all Fun.id (List.map (run_workload o) names) in
    exit (if ok then 0 else 1)
  | "e2e-compare" :: args -> Compare.run args
  | _ -> usage ()
