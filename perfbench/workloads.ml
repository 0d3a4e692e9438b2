(* The four benchmark workloads, each driven from outside the library as a
   closed loop with a single caller: the next library call is made only
   after the previous one returns. Poisson arrivals and probe ticks are
   scheduled in simulated time, so there is no host-side lateness.

   A workload is built in two phases. [setup] generates the topology,
   builds the network with its initial beaconing and prepares every
   input; it returns the measured phase as a thunk. All inputs derive from
   the seed through [bench.*] RNG streams (and the network's own seed), so
   one seed always yields the same simulation. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Engine = Netsim.Engine
module Net = Netsim.Net
module Network = Sciera.Network
module Multiping = Sciera.Multiping
module Topology = Sciera.Topology
module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Sigcache = Scion_controlplane.Sigcache
module Router = Scion_dataplane.Router
module Pan = Scion_endhost.Pan
module Prober = Pathmon.Prober
module Selector = Pathmon.Selector
module Estimator = Pathmon.Estimator
module Scenario = Fault.Scenario
module T = Tracer

type outcome = {
  ops : int;  (** Ops attempted in the measured phase. *)
  failed : int;  (** Ops whose output check failed or that raised. *)
  digest : string;  (** Canonical text of the simulated results. *)
  counters : (string * float) list;  (** Layer counters read after the run. *)
}

type workload = {
  name : string;
  size : int;  (** The size of one repetition, in [size_unit]. *)
  size_unit : string;
  input : (string * string) list;  (** Stated input size. *)
  setup : seed:int64 -> unit -> outcome;
}

let fmt = Printf.sprintf
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- Counters shared by every workload -------------------------------- *)

(* Every workload fills in the counters of the layers it drives; the rest
   stay 0, and the report prints them as 0. *)
type extra = {
  mutable events : int;
  mutable pending_max : int;
  mutable queue_full : int;
  mutable probes : int;
  mutable probes_lost : int;
  mutable switches : int;
  mutable flows_offered : int;
  mutable flows_admitted : int;
  mutable active_max : int;
  mutable completed : int;
  mutable fault_ops : int;
}

let fresh_extra () =
  {
    events = 0;
    pending_max = 0;
    queue_full = 0;
    probes = 0;
    probes_lost = 0;
    switches = 0;
    flows_offered = 0;
    flows_admitted = 0;
    active_max = 0;
    completed = 0;
    fault_ops = 0;
  }

let watch_engine x engine =
  Engine.on_event engine (fun ~time:_ ~pending ->
      if pending > x.pending_max then x.pending_max <- pending)

let watch_fabric x net =
  Net.add_monitor (Network.scion_fabric net) (function
    | Net.Drop { cause = Net.Queue_full; _ } -> x.queue_full <- x.queue_full + 1
    | Net.Tx _ | Net.Rx _ | Net.Drop _ -> ())

let router_totals net =
  let mesh = Network.mesh net in
  List.fold_left
    (fun (f, d, x, m) ia ->
      let c = Router.counters (Mesh.router mesh ia) in
      (f + c.Router.forwarded, d + c.Router.delivered, x + c.Router.dropped, m + c.Router.mac_failures))
    (0, 0, 0, 0) (Mesh.ases mesh)

let counters net x =
  let mesh = Network.mesh net in
  let hits = Sigcache.hits Sigcache.global and misses = Sigcache.misses Sigcache.global in
  let memo_hits, memo_misses = Mesh.memo_stats mesh in
  let ases = Mesh.ases mesh in
  let state = List.fold_left (fun a ia -> a + Mesh.state_bytes mesh ia) 0 ases in
  let fwd, dlv, drop, macf = router_totals net in
  let hops = fwd + dlv + drop in
  let i = float_of_int in
  [
    ("controlplane.sigcache_hits", i hits);
    ("controlplane.sigcache_misses", i misses);
    ("controlplane.sigcache_hit_ratio", ratio hits (hits + misses));
    ("controlplane.memo_hits", i memo_hits);
    ("controlplane.memo_misses", i memo_misses);
    ("controlplane.memo_hit_ratio", ratio memo_hits (memo_hits + memo_misses));
    ("controlplane.rebeacons", i (Network.rebeacon_count net));
    ("controlplane.state_bytes_per_as", ratio state (List.length ases));
    ("netsim.events", i x.events);
    ("netsim.pending_max", i x.pending_max);
    ("netsim.queue_full_drops", i x.queue_full);
    ("dataplane.router_hops", i hops);
    ("dataplane.router_drops", i drop);
    ("dataplane.drop_ratio", ratio drop hops);
    ("dataplane.mac_failures", i macf);
    ("pathmon.probes_sent", i x.probes);
    ("pathmon.probes_lost", i x.probes_lost);
    ("pathmon.loss_ratio", ratio x.probes_lost x.probes);
    ("pathmon.switches", i x.switches);
    ("traffic.flows_offered", i x.flows_offered);
    ("traffic.flows_admitted", i x.flows_admitted);
    ("traffic.admit_ratio", ratio x.flows_admitted x.flows_offered);
    ("traffic.active_max", i x.active_max);
    ("traffic.completed", i x.completed);
    ("fault.ops_applied", i x.fault_ops);
  ]

let rtt_ok = function `Lost -> true | `Rtt ms -> Float.is_finite ms && ms >= 0.0
let ms_text = function None -> "-" | Some ms -> fmt "%.6f" ms
let min_opt a b = match a with Some x when x <= b -> a | Some _ | None -> Some b

(* The evidence-tier generated mesh: topogen-300 with the scaling and
   containment figures' beaconing parameters. Its shape is fixed (the
   figures' generator seed); the workload seed drives what happens on it. *)
let topogen_seed = 0x5CA1_E300L
let topogen_ases = 300

let generated_network ~seed ~verify_pcbs =
  let gen =
    T.span T.Generate (fun () ->
        Topogen.generate ~seed:topogen_seed (Topogen.default ~n_ases:topogen_ases))
  in
  T.span T.Create (fun () ->
      Network.create ~seed ~topology:(Topology.of_topogen gen) ~per_origin:2 ~propagate_k:2
        ~fanout_cap:40
        ~rounds:(Topogen.max_depth gen + 2)
        ~verify_pcbs ())

(* --- campaign: the Fig. 5-7 multiping loop ---------------------------- *)

(* The measured window starts half a day before the Jan 21 maintenance, so
   every repetition re-converges through the incident calendar. *)
let campaign_start_day = 2.5

(* The Fig. 5-7 network: per_origin 8, PCB verification off. *)
let campaign_size = 288

let campaign_setup ~seed =
  let net = T.span T.Create (fun () -> Network.create ~seed ~per_origin:8 ~verify_pcbs:false ()) in
  let config = Multiping.default_config in
  let sources = Topology.measurement_ases in
  let destinations = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if Ia.equal src dst then None else Some (src, dst))
          destinations)
      sources
    |> Array.of_list
  in
  let n_pairs = Array.length pairs in
  let stalled_src =
    Array.map (fun (src, _) -> List.exists (Ia.equal src) config.Multiping.stall_sources) pairs
  in
  fun () ->
    let x = fresh_extra () in
    let probe_cache = Array.make n_pairs [] and probe_epoch = ref (-1) in
    let scion_sent = ref 0 and scion_ok = ref 0 and ip_sent = ref 0 and ip_ok = ref 0 in
    let failed = ref 0 in
    let scion_min = Array.make n_pairs None and ip_min = Array.make n_pairs None in
    for i = 0 to campaign_size - 1 do
      let t = (campaign_start_day *. 86400.0) +. (float_of_int i *. config.Multiping.interval_s) in
      T.span T.Set_day (fun () -> Network.set_day net (t /. 86400.0));
      let fresh = Network.rebeacon_count net <> !probe_epoch in
      probe_epoch := Network.rebeacon_count net;
      let hour_frac = Float.rem t 3600.0 /. 3600.0 in
      for k = 0 to n_pairs - 1 do
        let src, dst = pairs.(k) in
        if fresh then
          probe_cache.(k) <- T.span T.Paths (fun () -> Multiping.probe_paths net ~src ~dst);
        let paths = probe_cache.(k) in
        for _slot = 1 to config.Multiping.pings_per_interval do
          List.iter
            (fun p ->
              incr scion_sent;
              match T.span T.Scion_sample (fun () -> Network.scion_rtt_sample net p) with
              | `Rtt ms as r when rtt_ok r ->
                  incr scion_ok;
                  scion_min.(k) <- min_opt scion_min.(k) ms
              | `Lost -> ()
              | `Rtt _ -> incr failed)
            paths
        done;
        let stalled = stalled_src.(k) && hour_frac > 1.0 -. config.Multiping.stall_fraction in
        if not stalled then
          for _slot = 1 to config.Multiping.pings_per_interval do
            incr ip_sent;
            match T.span T.Ip_sample (fun () -> Network.ip_rtt_sample net ~src ~dst) with
            | `Rtt ms as r when rtt_ok r ->
                incr ip_ok;
                ip_min.(k) <- min_opt ip_min.(k) ms
            | `Lost -> ()
            | `Rtt _ -> incr failed
          done
      done
    done;
    (* A pair the SCION mesh never reached in the whole window is a failed
       measurement: the 29-AS mesh is connected on every calendar day. *)
    Array.iter (function None -> incr failed | Some _ -> ()) scion_min;
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (fmt "campaign pings scion %d/%d ip %d/%d\n" !scion_ok !scion_sent !ip_ok !ip_sent);
    Array.iteri
      (fun k (src, dst) ->
        Buffer.add_string buf
          (fmt "%s>%s %s %s\n" (Ia.to_string src) (Ia.to_string dst) (ms_text scion_min.(k))
             (ms_text ip_min.(k))))
      pairs;
    {
      ops = !scion_sent + !ip_sent;
      failed = !failed;
      digest = Buffer.contents buf;
      counters = counters net x;
    }

let campaign =
  {
    name = "campaign";
    size = campaign_size;
    size_unit = "600 s intervals";
    input =
      [
        ("mesh", "SCIERA Figure 1, per_origin 8, PCB verification off");
        ("ases", string_of_int (List.length Topology.ases));
        ("vantages", string_of_int (List.length Topology.measurement_ases));
        ( "window",
          fmt "days %.2f..%.2f" campaign_start_day
            (campaign_start_day +. (float_of_int campaign_size *. 600.0 /. 86400.0)) );
        ("rates", "Multiping.default_config: 600 s intervals, 3 pings per slot");
      ];
    setup = campaign_setup;
  }

(* --- churn: control-plane writes ------------------------------------- *)

let churn_size = 3
let churn_lookups = 8

let churn_setup ~seed =
  let net = generated_network ~seed ~verify_pcbs:true in
  let rng = Rng.of_label seed "bench.churn" in
  let mesh = Network.mesh net and fabric = Network.scion_fabric net in
  let links = Array.of_list (List.map fst (Mesh.links mesh)) in
  let ases = Array.of_list (Mesh.ases mesh) in
  let plan =
    Array.init churn_size (fun _ ->
        let link = Rng.pick rng links in
        let lookups =
          Array.init churn_lookups (fun _ ->
              let rec pick () =
                let a = Rng.pick rng ases and b = Rng.pick rng ases in
                if Ia.equal a b then pick () else (a, b)
              in
              pick ())
        in
        (link, lookups))
  in
  fun () ->
    let x = fresh_extra () in
    let failed = ref 0 in
    let buf = Buffer.create 4096 in
    Array.iter
      (fun (link, lookups) ->
        let before = Network.rebeacon_count net in
        T.span T.Fault_apply (fun () -> Network.apply_fault net (Scenario.Link_down link));
        let went_down = (not (Net.link_up fabric link)) && not (Mesh.link_up mesh link) in
        T.span T.Repair (fun () -> Network.apply_fault net (Scenario.Link_up link));
        let came_up = Net.link_up fabric link && Mesh.link_up mesh link in
        x.fault_ops <- x.fault_ops + 2;
        (* The failure takes the link down in both the fabric and the control
           plane, the repair brings it back in both and re-beacons, and every
           lookup after it finds a path. *)
        let ok = ref (went_down && came_up && Network.rebeacon_count net = before + 1) in
        Buffer.add_string buf (fmt "repair %d rebeacons %d\n" link (Network.rebeacon_count net));
        Array.iter
          (fun (src, dst) ->
            let paths = T.span T.Paths (fun () -> Network.paths net ~src ~dst) in
            if paths = [] then ok := false;
            Buffer.add_string buf
              (fmt " %s>%s %s\n" (Ia.to_string src) (Ia.to_string dst)
                 (String.concat "," (List.map (fun p -> p.Combinator.fingerprint) paths))))
          lookups;
        if not !ok then incr failed)
      plan;
    { ops = churn_size; failed = !failed; digest = Buffer.contents buf; counters = counters net x }

let churn =
  {
    name = "churn";
    size = churn_size;
    size_unit = "link repairs";
    input =
      [
        ( "mesh",
          fmt "topogen-%d (generator seed 0x%LX), PCB verification on" topogen_ases topogen_seed );
        ("ases", string_of_int topogen_ases);
        ("beaconing", "per_origin 2, propagate_k 2, fanout_cap 40, rounds depth+2");
        ("lookups_per_repair", string_of_int churn_lookups);
      ];
    setup = churn_setup;
  }

(* --- transfer: the traffic engine ------------------------------------ *)

(* The load figure's model constants, at its top load multiplier 2 on the
   generated mesh: far above saturation, so admission control and the
   max-min recompute both work on every arrival. *)
let cap_bps = 1.5e6
let queue_pkts = 32
let min_rate_bps = 500.0e3
let arrivals_per_s = 12.0
let candidates_n = 4
let fg_period_s = 0.5
let fg_bytes = 1500
let fg_burst = 4
let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

let transfer_size = 20000

let transfer_setup ~seed =
  let net = generated_network ~seed ~verify_pcbs:false in
  Network.arm_capacities net ~bps:cap_bps ~queue_pkts;
  let all = (Network.topology net).Topology.spec_ases in
  let step = max 1 (List.length all / 12) in
  let pops = List.filteri (fun i _ -> i mod step = 0 && i / step < 12) all in
  let latency_of = Network.scion_rtt_base net in
  let pairs = Hashtbl.create 256 in
  List.iter
    (fun (a : Topology.as_info) ->
      List.iter
        (fun (b : Topology.as_info) ->
          let src = a.Topology.ia and dst = b.Topology.ia in
          if not (Ia.equal src dst) then begin
            let ranked =
              List.filteri
                (fun i _ -> i < candidates_n)
                (Pan.sort_paths latency_policy ~latency_of
                   (T.span T.Paths (fun () -> Network.paths net ~src ~dst)))
            in
            let with_hops = List.map (fun p -> (p, Network.path_hops net ~src p)) ranked in
            Hashtbl.replace pairs (Ia.to_string src ^ ">" ^ Ia.to_string dst) (src, with_hops)
          end)
        pops)
    pops;
  (* The foreground pair: the first with a real path choice, probed over
     its statically best path. *)
  let fg_hops =
    List.find_map
      (fun (a : Topology.as_info) ->
        List.find_map
          (fun (b : Topology.as_info) ->
            match
              Hashtbl.find_opt pairs (Ia.to_string a.Topology.ia ^ ">" ^ Ia.to_string b.Topology.ia)
            with
            | Some (_, (_, hops) :: _ :: _) -> Some hops
            | Some _ | None -> None)
          pops)
      pops
    |> function
    | Some h -> h
    | None -> invalid_arg "transfer: no PoP pair with two candidate paths"
  in
  let pop_list =
    List.map
      (fun (a : Topology.as_info) ->
        { Traffic.Workload.name = Ia.to_string a.Topology.ia; weight = 1.0; phase_h = 0.0 })
      pops
  in
  let duration_s = float_of_int transfer_size /. arrivals_per_s in
  let wl_config =
    Traffic.Workload.make_config ~base_rate_per_s:arrivals_per_s ~pareto_xm_bytes:200_000.0
      ~day_s:120.0 ()
  in
  fun () ->
    let x = fresh_extra () in
    let fabric = Network.scion_fabric net in
    let engine = Engine.create () in
    watch_engine x engine;
    watch_fabric x net;
    let fcts = ref [] in
    let flows =
      Traffic.Flow.create ~min_rate_bps
        ~on_complete:(fun ~fct_s ~size_bytes:_ -> fcts := fct_s :: !fcts)
        ~engine fabric
    in
    let failed = ref 0 and unroutable = ref 0 in
    let sink ~now:_ ~src ~dst ~size_bytes =
      T.span T.Glue (fun () ->
          match Hashtbl.find_opt pairs (src.Traffic.Workload.name ^ ">" ^ dst.Traffic.Workload.name) with
          | None | Some (_, []) -> incr unroutable
          | Some (src_ia, cands) -> (
              let chosen =
                T.span T.Pick_path (fun () ->
                    Pan.pick_flow_path ~policy:latency_policy ~latency_of
                      ~headroom:(fun p -> Network.path_headroom_bps net ~src:src_ia p)
                      (List.map fst cands))
              in
              match Option.bind chosen (fun p -> List.assq_opt p cands) with
              | None -> incr unroutable
              | Some hops -> (
                  x.flows_offered <- x.flows_offered + 1;
                  match T.span T.Offer (fun () -> Traffic.Flow.offer flows ~hops ~size_bytes) with
                  | `Started _ ->
                      x.flows_admitted <- x.flows_admitted + 1;
                      let a = Traffic.Flow.active_count flows in
                      if a > x.active_max then x.active_max <- a
                  | `Rejected -> ()
                  | exception Invalid_argument _ -> incr failed)))
    in
    let rng = Rng.of_label seed "bench.traffic" in
    let wl =
      Traffic.Workload.attach ~engine ~rng ~config:wl_config ~pops:pop_list ~duration_s ~sink ()
    in
    (* Foreground bursts walked hop by hop through the loaded FIFOs. *)
    let fg_sent = ref 0 and fg_delivered = ref 0 in
    let rec walk = function
      | [] -> incr fg_delivered
      | (h : Traffic.Flow.hop) :: rest ->
          T.span T.Transmit (fun () ->
              Net.transmit fabric engine h.Traffic.Flow.link ~from:h.Traffic.Flow.from
                ~size_bytes:fg_bytes
                ~on_arrival:(fun () -> T.span T.Glue (fun () -> walk rest)))
    in
    let n_bursts = int_of_float (duration_s /. fg_period_s) in
    for k = 1 to n_bursts do
      Engine.schedule_at engine
        ~time:(float_of_int k *. fg_period_s)
        (fun () ->
          T.span T.Glue (fun () ->
              for _ = 1 to fg_burst do
                incr fg_sent;
                walk fg_hops
              done))
    done;
    T.span T.Engine_run (fun () -> Engine.run engine);
    x.events <- Engine.events_processed engine;
    let s = Traffic.Flow.stats flows in
    x.completed <- s.Traffic.Flow.completed;
    let arrivals = Traffic.Workload.arrivals wl in
    (* Byte conservation once drained, and every admitted flow finished. *)
    let conserved =
      Float.abs
        (s.Traffic.Flow.offered_bytes -. s.Traffic.Flow.delivered_bytes
       -. s.Traffic.Flow.rejected_bytes)
      <= 1e-6 *. Float.max 1.0 s.Traffic.Flow.offered_bytes
    in
    let drained =
      Traffic.Flow.active_count flows = 0
      && s.Traffic.Flow.completed = s.Traffic.Flow.started
      && s.Traffic.Flow.started + s.Traffic.Flow.rejected = x.flows_offered
    in
    if not (conserved && drained) then failed := arrivals;
    let fct = Array.of_list !fcts in
    Array.sort Float.compare fct;
    let q p = if Array.length fct = 0 then 0.0 else Scion_util.Stats.percentile fct p in
    let digest =
      fmt
        "transfer arrivals %d unroutable %d started %d completed %d rejected %d\n\
         bytes offered %.3f delivered %.3f rejected %.3f\n\
         fct p50 %.6f p90 %.6f p99 %.6f\n\
         foreground %d/%d queue_full %d events %d\n"
        arrivals !unroutable s.Traffic.Flow.started s.Traffic.Flow.completed
        s.Traffic.Flow.rejected s.Traffic.Flow.offered_bytes s.Traffic.Flow.delivered_bytes
        s.Traffic.Flow.rejected_bytes (q 50.0) (q 90.0) (q 99.0) !fg_delivered !fg_sent
        x.queue_full x.events
    in
    { ops = arrivals; failed = !failed; digest; counters = counters net x }

let transfer =
  {
    name = "transfer";
    size = transfer_size;
    size_unit = "expected flow arrivals";
    input =
      [
        ("mesh", fmt "topogen-%d (generator seed 0x%LX), 12 PoPs" topogen_ases topogen_seed);
        ("ases", string_of_int topogen_ases);
        ( "rates",
          fmt "Poisson %.0f flows/s over %.0f s, Pareto sizes >= 200 kB, %.1f Mbps links"
            arrivals_per_s
            (float_of_int transfer_size /. arrivals_per_s)
            (cap_bps /. 1e6) );
        ("foreground", fmt "%d x %d B every %.1f s" fg_burst fg_bytes fg_period_s);
      ];
    setup = transfer_setup;
  }

(* --- probe: the data plane and pathmon -------------------------------- *)

let probe_size = 50000
let probe_interval_ms = 1000.0
let probe_tick_s = 0.1

(* Faults land only on links that at least this many watched paths cross,
   so every fault window is probed many times over. *)
let fault_min_paths = 50

(* Every watched path is probed once per interval whatever its losses
   (backoff capped at the base), so the echo count of a repetition does
   not depend on which paths the seed's faults hit. *)
let fixed_cadence =
  Scion_util.Backoff.make ~base_ms:probe_interval_ms ~cap_ms:probe_interval_ms ()

(* One fault window while it is open: the echoes that crossed its link
   and how many of them were lost. *)
type window = {
  w_link : Net.link_id;
  w_outage : bool;  (** An outage; otherwise a loss burst. *)
  mutable w_crossed : int;
  mutable w_lost : int;
}

let probe_setup ~seed =
  let net = T.span T.Create (fun () -> Network.create ~seed ~per_origin:8 ~verify_pcbs:false ()) in
  let fabric = Network.scion_fabric net in
  let destinations = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  (* Per vantage: every path to every destination with its fabric links,
     by fingerprint. *)
  let vantages =
    List.map
      (fun src ->
        let by_fp = Hashtbl.create 256 in
        let pairs =
          List.filter_map
            (fun dst ->
              if Ia.equal src dst then None
              else
                match T.span T.Paths (fun () -> Network.paths net ~src ~dst) with
                | [] -> None
                | paths ->
                    List.iter
                      (fun (p : Combinator.fullpath) ->
                        if Hashtbl.mem by_fp p.Combinator.fingerprint then
                          invalid_arg "probe: duplicate path fingerprint";
                        Hashtbl.replace by_fp p.Combinator.fingerprint
                          (p, Network.path_links net p))
                      paths;
                    Some paths)
            destinations
        in
        (src, by_fp, pairs))
      Topology.measurement_ases
  in
  let n_paths = List.fold_left (fun a (_, t, _) -> a + Hashtbl.length t) 0 vantages in
  (* Ticks enough for [probe_size] echoes at one probe per path per
     interval. *)
  let horizon_s =
    Float.max 5.0
      (float_of_int probe_size /. float_of_int (max 1 n_paths) *. probe_interval_ms /. 1000.0)
  in
  let crossing = Array.make (Net.num_links fabric) 0 in
  List.iter
    (fun (_, by_fp, _) ->
      Hashtbl.iter
        (fun _ (_, links) ->
          List.iter (fun l -> crossing.(l) <- crossing.(l) + 1) (List.sort_uniq Int.compare links))
        by_fp)
    vantages;
  let busy =
    Array.of_list
      (List.filter
         (fun l -> crossing.(l) >= fault_min_paths)
         (List.init (Array.length crossing) Fun.id))
  in
  if Array.length busy = 0 then invalid_arg "probe: no link is crossed by enough watched paths";
  (* Faults are short next to the horizon, so where the seed puts them
     moves the share of echoes taking the drop path only a little. *)
  let frng = Rng.of_label seed "bench.fault" in
  let scenario =
    let bursts =
      List.init 6 (fun _ ->
          let from_s = Rng.float frng (horizon_s -. 4.0) in
          Scenario.burst ~link:(Rng.pick frng busy) ~from_s
            ~to_s:(from_s +. 1.0 +. Rng.float frng 3.0)
            ~loss:(0.2 +. Rng.float frng 0.5))
    in
    let outages =
      List.init 2 (fun _ ->
          let from_s = Rng.float frng (horizon_s -. 3.0) in
          Scenario.outage ~link:(Rng.pick frng busy) ~from_s
            ~to_s:(from_s +. 1.0 +. Rng.float frng 2.0))
    in
    Scenario.seq (bursts @ outages)
  in
  fun () ->
    let x = fresh_extra () in
    let engine = Engine.create () in
    watch_engine x engine;
    let prng = Rng.of_label seed "bench.probe" in
    let rtt_rng = Rng.of_label seed "bench.probe.rtt" in
    let failed = ref 0 and rtt_sum = ref 0.0 in
    let open_windows = ref [] and closed = Buffer.create 256 in
    let monitors =
      List.map
        (fun (src, by_fp, pairs) ->
          let probe ~fingerprint =
            match Hashtbl.find_opt by_fp fingerprint with
            | None ->
                incr failed;
                `Lost
            | Some (p, links) ->
                let crosses_down = List.exists (fun l -> not (Net.link_up fabric l)) links in
                let r = T.span T.Scmp_probe (fun () -> Network.scmp_probe net ~rng:rtt_rng p) in
                x.probes <- x.probes + 1;
                let lost = r = `Lost in
                List.iter
                  (fun w ->
                    if List.mem w.w_link links then begin
                      w.w_crossed <- w.w_crossed + 1;
                      if lost then w.w_lost <- w.w_lost + 1
                    end)
                  !open_windows;
                (* An echo across a downed link must be lost. *)
                (match r with
                | `Lost -> x.probes_lost <- x.probes_lost + 1
                | `Rtt ms as r when rtt_ok r && not crosses_down -> rtt_sum := !rtt_sum +. ms
                | `Rtt _ -> incr failed);
                r
          in
          let prober =
            Prober.create ~interval_ms:probe_interval_ms ~backoff:fixed_cadence
              ~rng:(Rng.split prng) ~probe ()
          in
          Hashtbl.iter
            (fun fingerprint _ -> Prober.watch prober ~fingerprint ~estimator:(Estimator.create ()))
            by_fp;
          let choosers =
            List.map
              (fun paths ->
                let static =
                  List.map
                    (fun (p : Combinator.fullpath) ->
                      (p.Combinator.fingerprint, Network.scion_rtt_base net p))
                    paths
                in
                let fastest =
                  List.fold_left
                    (fun (bf, bm) (f, m) -> if m < bm then (f, m) else (bf, bm))
                    ("", infinity) static
                in
                let active = ref (fst fastest) in
                (Selector.create (), static, active))
              pairs
          in
          (src, prober, choosers))
        vantages
    in
    let rec tick k =
      let now_s = float_of_int k *. probe_tick_s in
      if now_s <= horizon_s then
        Engine.schedule_at engine ~time:now_s (fun () ->
            T.span T.Glue (fun () ->
                List.iter
                  (fun (_, prober, choosers) ->
                    ignore (T.span T.Tick (fun () -> Prober.tick prober ~now_s) : int);
                    List.iter
                      (fun (sel, static, active) ->
                        let candidates =
                          List.map
                            (fun (fingerprint, static_ms) ->
                              {
                                Selector.fingerprint;
                                static_ms;
                                estimator = Prober.estimator prober ~fingerprint;
                              })
                            static
                        in
                        active :=
                          T.span T.Choose (fun () -> Selector.choose sel ~candidates ~active:!active))
                      choosers)
                  monitors;
                tick (k + 1)))
    in
    tick 1;
    (* A window closes when its link is repaired or its burst ends. Every
       window must have been probed, and must have cost at least one echo:
       an outage all of those that crossed it. *)
    let close ~link ~outage =
      let ending, still =
        List.partition (fun w -> w.w_link = link && w.w_outage = outage) !open_windows
      in
      open_windows := still;
      List.iter
        (fun w ->
          Buffer.add_string closed
            (fmt "%s link %d crossed %d lost %d\n"
               (if outage then "outage" else "burst")
               link w.w_crossed w.w_lost);
          if w.w_crossed = 0 || w.w_lost = 0 || (outage && w.w_lost <> w.w_crossed) then
            incr failed)
        (List.rev ending)
    in
    let open_window ~link ~outage =
      open_windows :=
        { w_link = link; w_outage = outage; w_crossed = 0; w_lost = 0 } :: !open_windows
    in
    let injector =
      Fault.Injector.attach ~engine ~rng:(Rng.of_label seed "bench.fault.elab")
        ~apply:(fun op ->
          x.fault_ops <- x.fault_ops + 1;
          match op with
          | Scenario.Link_up link ->
              T.span T.Repair (fun () -> Network.apply_fault net op);
              close ~link ~outage:true
          | Scenario.Link_down link ->
              T.span T.Fault_apply (fun () -> Network.apply_fault net op);
              open_window ~link ~outage:true
          | Scenario.Loss_burst { link; loss } ->
              T.span T.Fault_apply (fun () -> Network.apply_fault net op);
              if loss > 0.0 then open_window ~link ~outage:false else close ~link ~outage:false
          | _ -> T.span T.Fault_apply (fun () -> Network.apply_fault net op))
        scenario
    in
    T.span T.Engine_run (fun () -> Engine.run engine);
    x.events <- Engine.events_processed engine;
    (* Once drained, every window has closed and every faulted link is
       back: up, with no extra loss. *)
    if !open_windows <> [] then incr failed;
    List.iter
      (fun (e : Scenario.event) ->
        match e.Scenario.op with
        | Scenario.Link_down l | Scenario.Link_up l | Scenario.Loss_burst { link = l; _ } ->
            if not (Net.link_up fabric l && Float.equal (Net.extra_loss fabric l) 0.0) then
              incr failed
        | _ -> ())
      (Fault.Injector.events injector);
    x.switches <-
      List.fold_left
        (fun a (_, _, cs) -> List.fold_left (fun a (sel, _, _) -> a + Selector.switches sel) a cs)
        0 monitors;
    let fwd, dlv, drop, macf = router_totals net in
    let digest =
      fmt "probe echoes %d lost %d rtt_sum %.6f switches %d faults %d\nrouters %d %d %d %d\n%s%s"
        x.probes x.probes_lost !rtt_sum x.switches x.fault_ops fwd dlv drop macf
        (Buffer.contents closed)
        (String.concat ""
           (List.map
              (fun (src, prober, _) ->
                fmt "%s sent %d\n" (Ia.to_string src) (Prober.probes_sent prober))
              monitors))
    in
    { ops = x.probes; failed = !failed; digest; counters = counters net x }

let probe =
  {
    name = "probe";
    size = probe_size;
    size_unit = "SCMP echoes (approx.)";
    input =
      [
        ("mesh", "SCIERA Figure 1, per_origin 8");
        ("ases", string_of_int (List.length Topology.ases));
        ("vantages", string_of_int (List.length Topology.measurement_ases));
        ( "rates",
          fmt
            "every path probed each %.0f ms, ticks every %.1f s, 6 loss bursts + 2 outages on \
             links crossed by >= %d watched paths"
            probe_interval_ms probe_tick_s fault_min_paths );
      ];
    setup = probe_setup;
  }

let all = [ campaign; churn; transfer; probe ]
