(* Clocks and process readings.

   CPU time is the process's user + system time over all its threads and
   domains (getrusage). The kernel's steal-time accounting leaves out of
   it the time the hypervisor gives to other guests, the largest part of
   the wall-clock noise on a shared host (see README.md). *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU time of the children this process has reaped *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

type sample = { wall_s : float; cpu_s : float }

let measure f =
  let w0 = wall () and c0 = cpu () in
  let v = f () in
  (v, { wall_s = wall () -. w0; cpu_s = cpu () -. c0 })

let proc_file pid file =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/%s" pid file) In_channel.input_all

(* CPU seconds a live process has used, from procfs clock ticks (USER_HZ
   is 100 on Linux) *)
let proc_cpu pid =
  let stat = proc_file pid "stat" in
  (* the fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15 *)
  let after = String.rindex stat ')' + 2 in
  let fields =
    Array.of_list
      (String.split_on_char ' ' (String.sub stat after (String.length stat - after)))
  in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* VmHWM, the peak resident set, of a live process ("self" for this one) *)
let peak_rss_mb pid =
  let line =
    String.split_on_char '\n' (proc_file pid "status")
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
