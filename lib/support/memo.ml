module Metrics = Mdh_obs.Metrics

type 'a t = {
  table : (string, 'a) Hashtbl.t;
  mutex : Mutex.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
}

type stats = { n_hits : int; n_misses : int; n_entries : int }

let caching = Atomic.make true
let set_caching on = Atomic.set caching on

(* table names are process-wide like the counters they bind: a second
   table under one name would silently share (and double) its counts *)
let names : (string, unit) Hashtbl.t = Hashtbl.create 8
let names_mutex = Mutex.create ()

let with_mutex m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create name =
  with_mutex names_mutex (fun () ->
      if Hashtbl.mem names name then
        invalid_arg (Printf.sprintf "Mdh_support.Memo.create: %S already exists" name);
      Hashtbl.add names name ());
  (* registered in this order, so summaries list hits before misses *)
  let hits = Metrics.counter (name ^ ".hits") in
  let misses = Metrics.counter (name ^ ".misses") in
  { table = Hashtbl.create 256; mutex = Mutex.create (); hits; misses }

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let find_or_add t k compute =
  if not (Atomic.get caching) then begin
    Metrics.incr t.misses;
    compute ()
  end
  else
    match with_mutex t.mutex (fun () -> Hashtbl.find_opt t.table k) with
    | Some v ->
      Metrics.incr t.hits;
      v
    | None ->
      (* compute outside the lock: concurrent domains may duplicate work on
         the same key, but they never block each other on a long compute *)
      Metrics.incr t.misses;
      let v = compute () in
      with_mutex t.mutex (fun () ->
          if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k v);
      v

let stats t =
  { n_hits = Metrics.value t.hits; n_misses = Metrics.value t.misses;
    n_entries = with_mutex t.mutex (fun () -> Hashtbl.length t.table) }

let clear t = with_mutex t.mutex (fun () -> Hashtbl.reset t.table)
