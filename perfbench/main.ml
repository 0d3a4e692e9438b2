(* One repetition of one benchmark workload, in one process and one thread.

     main.exe --workload NAME --seed N [--trace 0|1] [--trace-out FILE]
     main.exe --workload NAME --seed N --setup-only
     main.exe --calibrate

   Sets the workload up, runs its measured phase, checks its outputs and
   prints one JSON object: host times, minor-heap allocation, the digest
   of the simulated results, the layer counters and, with [--trace 1], the
   per-span statistics. With [--setup-only] it sets up, prints the set-up
   time and allocation, and stops, so that set-up can be timed more often
   than whole repetitions fit in a run. With [--calibrate] it times the
   fixed reference computation of [Calibrate] and prints that. A fresh
   process per repetition gives every repetition a fresh heap and an empty
   process-wide signature cache; [perfbench/run.py] runs the repetitions
   and reduces them. *)

module W = Workloads
module T = Tracer

let usage () =
  prerr_endline
    "usage: main.exe --workload campaign|churn|transfer|probe --seed N [--trace 0|1] [--trace-out \
     FILE] [--setup-only]\n       main.exe --calibrate";
  exit 2

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let () =
  let workload = ref "" and seed = ref None in
  let trace = ref false and trace_out = ref "" and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := v;
        parse rest
    | "--setup-only" :: rest ->
        setup_only := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (match Array.to_list Sys.argv with
  | [ _; "--calibrate" ] ->
      print_endline (json_obj [ ("calibrate_s", json_float (Calibrate.seconds ())) ]);
      exit 0
  | _ :: args -> parse args
  | [] -> usage ());
  let w =
    match List.find_opt (fun (w : W.workload) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  (* A repetition is cold: nothing may have touched the process-wide
     signature cache before set-up. *)
  let module Sigcache = Scion_controlplane.Sigcache in
  if Sigcache.hits Sigcache.global + Sigcache.misses Sigcache.global <> 0 then
    failwith "signature cache not cold at start";
  T.enabled := !trace;
  let w0 = Gc.minor_words () in
  let t0 = T.clock () in
  let measure = w.W.setup ~seed in
  let t1 = T.clock () in
  let w1 = Gc.minor_words () in
  if !setup_only then begin
    print_endline
      (json_obj
         [
           ("workload", json_string w.W.name);
           ("seed", Int64.to_string seed);
           ("setup_s", json_float (t1 -. t0));
           ("setup_words", json_float (w1 -. w0));
         ]);
    exit 0
  end;
  let spans_before = !T.len in
  let outcome, raised =
    match measure () with
    | o -> (o, "")
    | exception (Invalid_argument m | Failure m) ->
        ({ W.ops = 1; failed = 1; digest = ""; counters = [] }, m)
  in
  let w2 = Gc.minor_words () in
  let t2 = T.clock () in
  let setup_s = t1 -. t0 and measure_s = t2 -. t1 in
  let setup_words = w1 -. w0 and measure_words = w2 -. w1 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let layer_fields =
    if not !trace then []
    else begin
      let attributed = ref 0.0 in
      for i = spans_before to !T.len - 1 do
        if !T.s_name.(i) <> T.index T.Glue then
          attributed := !attributed +. Float.Array.get !T.s_self i
      done;
      if !trace_out <> "" then T.write !trace_out;
      [
        ( "spans",
          json_obj
            (List.map
               (fun (name, (s : T.layer_stats)) ->
                 ( T.to_string name,
                   json_obj
                     [
                       ("calls", string_of_int s.T.calls);
                       ("self_s", json_float s.T.self_s);
                       ("p50_us", json_float s.T.p50_us);
                       ("p99_us", json_float s.T.p99_us);
                       ("words", json_float s.T.words);
                     ] ))
               (T.stats ())) );
        ("attributed_s", json_float !attributed);
      ]
    end
  in
  print_endline
    (json_obj
       ([
          ("workload", json_string w.W.name);
          ("seed", Int64.to_string seed);
          ("size", string_of_int w.W.size);
          ("size_unit", json_string w.W.size_unit);
          ("traced", if !trace then "true" else "false");
          ("setup_s", json_float setup_s);
          ("measure_s", json_float measure_s);
          ("ops", string_of_int outcome.W.ops);
          ("failed", string_of_int outcome.W.failed);
          ("raised", json_string raised);
          ("setup_words", json_float setup_words);
          ("measure_words", json_float measure_words);
          ("top_heap_words", string_of_int top_heap_words);
          ("word_bytes", string_of_int (Sys.word_size / 8));
          ("digest", json_string (Digest.to_hex (Digest.string outcome.W.digest)));
          ( "counters",
            json_obj (List.map (fun (k, v) -> (k, json_float v)) outcome.W.counters) );
          ( "input",
            json_obj (List.map (fun (k, v) -> (k, json_string v)) w.W.input) );
        ]
       @ layer_fields))
