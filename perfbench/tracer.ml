(* Host-clock spans around the benchmark's calls into the library's
   layers. A span records its name, start, end and parent; spans live in
   growable unboxed arrays for the whole run and are written out once at
   exit. With tracing off, [span] is a direct call and records nothing, so
   the untraced run pays one closure and one branch per wrapped call. *)

type name =
  | Ip_sample
  | Scion_sample
  | Engine_run
  | Transmit
  | Create
  | Set_day
  | Repair
  | Paths
  | Scmp_probe
  | Tick
  | Choose
  | Offer
  | Pick_path
  | Fault_apply
  | Generate
  | Glue
      (** The benchmark's own callbacks run by the engine: subtracted from
          their parent like any child, but attributed to no layer. *)

(* Reported spans, in report order; [Glue] is deliberately absent. *)
let layers =
  [
    Ip_sample; Scion_sample; Engine_run; Transmit; Create; Set_day; Repair; Paths; Scmp_probe;
    Tick; Choose; Offer; Pick_path; Fault_apply; Generate;
  ]

let index = function
  | Ip_sample -> 0
  | Scion_sample -> 1
  | Engine_run -> 2
  | Transmit -> 3
  | Create -> 4
  | Set_day -> 5
  | Repair -> 6
  | Paths -> 7
  | Scmp_probe -> 8
  | Tick -> 9
  | Choose -> 10
  | Offer -> 11
  | Pick_path -> 12
  | Fault_apply -> 13
  | Generate -> 14
  | Glue -> 15

(* Span names, in [index] order. *)
let names =
  [|
    "netsim.ip_sample"; "netsim.scion_sample"; "netsim.engine_run"; "netsim.transmit";
    "controlplane.create"; "controlplane.set_day"; "controlplane.repair"; "controlplane.paths";
    "dataplane.scmp_probe"; "pathmon.tick"; "pathmon.choose"; "traffic.offer"; "endhost.pick_path";
    "fault.apply"; "topogen.generate"; "bench.glue";
  |]

let to_string name = names.(index name)

(* Host monotonic clock in nanoseconds (CLOCK_MONOTONIC, through the stub
   bechamel ships). Spans read it directly: the conversion then stays
   unboxed, so a span's own reads allocate nothing and no layer is charged
   for them. No simulated value ever reads it. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let clock () = Int64.to_float (clock_ns ()) *. 1e-9
let enabled = ref false

(* Finished spans, one slot per span in completion order. Ids number spans
   in start order, so a child can name its parent before the parent ends. *)
let cap = ref 0
let len = ref 0
let s_name = ref [||]
let s_id = ref [||]
let s_parent = ref [||]
let s_start = ref (Float.Array.create 0)
let s_stop = ref (Float.Array.create 0)
let s_self = ref (Float.Array.create 0)
let s_words = ref (Float.Array.create 0)
let next_id = ref 0

(* Open spans, a stack: name, id, start, minor words at entry, and the
   seconds and words their finished children took. *)
let max_depth = 256
let depth = ref 0
let o_name = Array.make max_depth 0
let o_id = Array.make max_depth 0
let o_start = Float.Array.make max_depth 0.0
let o_words = Float.Array.make max_depth 0.0
let o_child_s = Float.Array.make max_depth 0.0
let o_child_w = Float.Array.make max_depth 0.0

let grow () =
  let n = max 1024 (2 * !cap) in
  let fa a = Float.Array.init n (fun i -> if i < !len then Float.Array.get a i else 0.0) in
  let ia a = Array.init n (fun i -> if i < !len then a.(i) else 0) in
  s_name := ia !s_name;
  s_parent := ia !s_parent;
  s_id := ia !s_id;
  s_start := fa !s_start;
  s_stop := fa !s_stop;
  s_self := fa !s_self;
  s_words := fa !s_words;
  cap := n

let enter name =
  let d = !depth in
  if d >= max_depth then invalid_arg "Tracer: span nesting too deep";
  o_name.(d) <- index name;
  o_id.(d) <- !next_id;
  incr next_id;
  Float.Array.set o_child_s d 0.0;
  Float.Array.set o_child_w d 0.0;
  Float.Array.set o_words d (Gc.minor_words ());
  Float.Array.set o_start d (Int64.to_float (clock_ns ()) *. 1e-9);
  depth := d + 1

let leave () =
  let stop = Int64.to_float (clock_ns ()) *. 1e-9 in
  let words = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let start = Float.Array.get o_start d in
  (* Gross cost as the parent sees it, tracer reads included. *)
  let gross_s = stop -. start in
  let gross_w = words -. Float.Array.get o_words d in
  if !len >= !cap then grow ();
  let i = !len in
  len := i + 1;
  !s_name.(i) <- o_name.(d);
  !s_id.(i) <- o_id.(d);
  !s_parent.(i) <- (if d = 0 then -1 else o_id.(d - 1));
  Float.Array.set !s_start i start;
  Float.Array.set !s_stop i stop;
  Float.Array.set !s_self i (gross_s -. Float.Array.get o_child_s d);
  Float.Array.set !s_words i (gross_w -. Float.Array.get o_child_w d);
  if d > 0 then begin
    Float.Array.set o_child_s (d - 1) (Float.Array.get o_child_s (d - 1) +. gross_s);
    Float.Array.set o_child_w (d - 1) (Float.Array.get o_child_w (d - 1) +. gross_w)
  end

let span name f =
  if not !enabled then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(* --- Reduction ---------------------------------------------------------- *)

type layer_stats = {
  calls : int;
  self_s : float;
  p50_us : float;
  p99_us : float;  (** See [tail_us]. *)
  words : float;
}

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

(* The 99th percentile when at least 10 samples lie beyond it, otherwise
   the highest rank that leaves 10 beyond; never below the median, which
   is what a span with too few calls for a tail reports. *)
let tail_us sorted =
  let n = Array.length sorted in
  let p50 = nearest_rank sorted 50.0 in
  if n - int_of_float (Float.ceil (0.99 *. float_of_int n)) >= 10 then nearest_rank sorted 99.0
  else if n > 10 then Float.max p50 sorted.(n - 11)
  else p50

let stats () =
  let per = Array.make (Array.length names) [] in
  for i = !len - 1 downto 0 do
    let k = !s_name.(i) in
    per.(k) <- i :: per.(k)
  done;
  List.map
    (fun name ->
      let ids = per.(index name) in
      let self_us = Array.of_list (List.map (fun i -> Float.Array.get !s_self i *. 1e6) ids) in
      Array.sort Float.compare self_us;
      ( name,
        {
          calls = List.length ids;
          self_s = Array.fold_left ( +. ) 0.0 self_us /. 1e6;
          p50_us = nearest_rank self_us 50.0;
          p99_us = tail_us self_us;
          words = List.fold_left (fun a i -> a +. Float.Array.get !s_words i) 0.0 ids;
        } ))
    layers

(* One line per span, in completion order: name, id, parent id (-1 at the
   top), start (us since the first span), duration, self time (us) and
   self minor words. *)
let write path =
  let origin = ref infinity in
  for i = 0 to !len - 1 do
    origin := Float.min !origin (Float.Array.get !s_start i)
  done;
  let oc = open_out path in
  output_string oc "name\tid\tparent\tstart_us\tdur_us\tself_us\tself_words\n";
  for i = 0 to !len - 1 do
    let start = Float.Array.get !s_start i in
    Printf.fprintf oc "%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.0f\n"
      names.(!s_name.(i))
      !s_id.(i) !s_parent.(i)
      ((start -. !origin) *. 1e6)
      ((Float.Array.get !s_stop i -. start) *. 1e6)
      (Float.Array.get !s_self i *. 1e6)
      (Float.Array.get !s_words i)
  done;
  close_out oc
