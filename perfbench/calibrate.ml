(* A fixed reference computation that measures how fast the host runs
   right now. It uses none of the library: only the OCaml runtime, with
   the same mix the workloads have (minor-heap allocation, a hash table a
   few MB large, float arithmetic, a sort). The host this benchmark runs
   on changes speed by tens of percent over minutes as its neighbours'
   load changes; timing this computation alongside the repetitions lets
   [run.py] express every host time at one reference speed. *)

let entries = 1 lsl 16
let rounds = 4

let work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to entries - 1 do
    Hashtbl.replace h ((i * 7919) land ((4 * entries) - 1)) (float_of_int i)
  done;
  let acc = ref 0.0 in
  for r = 0 to rounds - 1 do
    for i = 0 to entries - 1 do
      match Hashtbl.find_opt h (((i * 7919) + r) land ((4 * entries) - 1)) with
      | Some v -> acc := !acc +. Float.sqrt v
      | None -> acc := !acc +. 1.0
    done
  done;
  let l = List.init entries (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  let a = Array.of_list (List.sort Float.compare l) in
  !acc +. a.(entries / 2)

(* Seconds of the fastest of three timed passes, after one untimed pass
   that grows the heap. *)
let seconds () =
  ignore (Sys.opaque_identity (work ()) : float);
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Tracer.clock () in
    ignore (Sys.opaque_identity (work ()) : float);
    best := Float.min !best (Tracer.clock () -. t0)
  done;
  !best
