open Msdq_simkit
open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Json = Msdq_obs.Json
module Metrics = Msdq_obs.Metrics
module Fault = Msdq_fault.Fault

let log_src = Logs.Src.create "msdq.exp.fault" ~doc:"fault-injection sweeps"

module Log = (val Logs.src_log log_src : Logs.LOG)

type series = {
  label : string;
  responses : float array;
  recalls : float array;
}

type sweep = {
  id : string;
  title : string;
  xlabel : string;
  xs : float array;
  samples : int;
  seed : int;
  series : series list;
}

let strategies = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
let availabilities = [| 0.7; 0.8; 0.9; 0.95; 1.0 |]

(* Certain-set recall of a degraded run against its fault-free reference:
   the fraction of fault-free certain results the faulty run still
   certifies. An empty reference certain set recalls trivially. *)
let recall ~reference ~faulty =
  let ref_c = Answer.goids reference Answer.Certain in
  let got_c = Answer.goids faulty Answer.Certain in
  let n_ref = Oid.Goid.Set.cardinal ref_c in
  if n_ref = 0 then 1.0
  else
    float_of_int (Oid.Goid.Set.cardinal (Oid.Goid.Set.inter ref_c got_c))
    /. float_of_int n_ref

type point_result = {
  (* per strategy, in [strategies] order *)
  p_responses : float array;
  p_recalls : float array;
  (* the hard-failing client observing the BL faulty run *)
  p_hard_response : float;
  p_hard_recall : float;
}

(* The fault-free reference run of every strategy, the fault horizon
   (twice the slowest reference response) and the component sites. *)
let references ~cost fed analysis =
  let fault_free =
    List.map
      (fun s ->
        let answer, m =
          Strategy.run
            ~options:{ Strategy.default_options with Strategy.cost }
            s fed analysis
        in
        (answer, m.Strategy.response))
      strategies
  in
  let longest =
    List.fold_left (fun acc (_, r) -> Time.max acc r) (Time.ms 1.0) fault_free
  in
  let n_db = List.length (Federation.databases fed) in
  (fault_free, Time.us (2.0 *. Time.to_us longest), List.init n_db (fun i -> i + 1))

(* The global site never crashes (it hosts the client), but its incoming
   link is as lossy as the others — otherwise CA, whose transfers all
   terminate there, would be trivially immune. *)
let with_global_link ~drop ~inflate sched =
  { sched with Fault.links = { Fault.dst = 0; drop; inflate; jitter = 0.0 } :: sched.Fault.links }

let point ~seed ~cost ~drop ~inflate ~idx ~si ~availability =
  match Grid.sample_case ~seed ~si with
  | None ->
    (* no analyzable query for this stream: a vacuous, neutral sample *)
    {
      p_responses = Array.make (List.length strategies) 0.0;
      p_recalls = Array.make (List.length strategies) 1.0;
      p_hard_response = 0.0;
      p_hard_recall = 1.0;
    }
  | Some (fed, analysis) ->
    let fault_free, horizon, component_sites = references ~cost fed analysis in
    let fault_rng =
      (* keyed by the flat (level, sample) index so every grid point draws
         an independent schedule, order-independently *)
      Rng.split_ix (Rng.create ~seed:(seed + 7919)) ~i:idx
    in
    let fault =
      (* the 1.0 column is the fault-free anchor, whatever the link knobs *)
      if availability >= 1.0 then Fault.none
      else
        with_global_link ~drop ~inflate
          (Fault.random ~rng:fault_rng ~sites:component_sites ~availability
             ~horizon ~drop ~inflate ())
    in
    let options = { Strategy.default_options with Strategy.cost; Strategy.fault } in
    let faulty =
      List.map (fun s -> Strategy.run ~options s fed analysis) strategies
    in
    let p_responses =
      Array.of_list
        (List.map (fun (_, m) -> Time.to_s m.Strategy.response) faulty)
    in
    let p_recalls =
      Array.of_list
        (List.map2
           (fun (reference, _) (got, _) -> recall ~reference ~faulty:got)
           fault_free faulty)
    in
    (* The hard-failing baseline: a client of the same faulty BL execution
       that has no degraded-answer mode. Any loss aborts the query — recall
       collapses to zero instead of degrading. [strategies] is CA; BL; PL,
       so BL is index 1. *)
    let _, bl_metrics = List.nth faulty 1 in
    let bl_av = bl_metrics.Strategy.availability in
    let p_hard_recall =
      if bl_av.Strategy.drops > 0 || bl_av.Strategy.partial then 0.0
      else p_recalls.(1)
    in
    { p_responses; p_recalls; p_hard_response = p_responses.(1); p_hard_recall }

(* Runs [point] over the (availability, sample) grid and returns
   [column f]: the per-availability mean of [f] over the samples. *)
let run_grid ?pool ?registry ?progress ~id ~counter ~samples point =
  let xs = availabilities in
  let nx = Array.length xs in
  let results =
    Grid.run ?pool ?registry ?progress ~id ~counter
      ~log:(fun i _ ~done_now ~total ->
        Log.info (fun m ->
            m "%s: availability=%g sample %d done (%d/%d points)" id
              xs.(i / samples) (i mod samples) done_now total))
      (fun i ->
        point ~idx:i ~si:(i mod samples) ~availability:xs.(i / samples))
      (Array.init (nx * samples) Fun.id)
  in
  fun f ->
    Array.init nx (fun li ->
        let acc = ref 0.0 in
        for si = 0 to samples - 1 do
          acc := !acc +. f results.((li * samples) + si)
        done;
        !acc /. float_of_int samples)

let run ?pool ?registry ?progress ?(samples = 12) ?(seed = 1996)
    ?(cost = Cost.default) ?(drop = 0.05) ?(inflate = 1.0) () =
  let id = "fault-sweep" in
  let column =
    run_grid ?pool ?registry ?progress ~id ~counter:"msdq_fault_samples_total"
      ~samples (point ~seed ~cost ~drop ~inflate)
  in
  let strategy_series =
    List.mapi
      (fun k s ->
        {
          label = Strategy.to_string s;
          responses = column (fun r -> r.p_responses.(k));
          recalls = column (fun r -> r.p_recalls.(k));
        })
      strategies
  in
  let hard =
    {
      label = "fail-stop";
      responses = column (fun r -> r.p_hard_response);
      recalls = column (fun r -> r.p_hard_recall);
    }
  in
  {
    id;
    title =
      "Response time and certain-set recall under site crashes and lossy links";
    xlabel = "site availability";
    xs = availabilities;
    samples;
    seed;
    series = strategy_series @ [ hard ];
  }

let floats_json a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) a))

let to_json s =
  Json.Obj
    [
      ("id", Json.Str s.id);
      ("title", Json.Str s.title);
      ("xlabel", Json.Str s.xlabel);
      ("availabilities", floats_json s.xs);
      ("samples", Json.Int s.samples);
      ("seed", Json.Int s.seed);
      ( "series",
        Json.Arr
          (List.map
             (fun ser ->
               Json.Obj
                 [
                   ("label", Json.Str ser.label);
                   ("responses_s", floats_json ser.responses);
                   ("recalls", floats_json ser.recalls);
                 ])
             s.series) );
    ]

(* The availability header row shared by both sweeps' tables. *)
let pp_axis ppf ~width ~xlabel xs =
  Format.fprintf ppf "%-*s" width xlabel;
  Array.iter (fun a -> Format.fprintf ppf " %9s" (Printf.sprintf "%.2f" a)) xs;
  Format.fprintf ppf "@,"

let pp_row ppf ~width ~fmt name values =
  Format.fprintf ppf "%-*s" width name;
  Array.iter (fun v -> Format.fprintf ppf fmt v) values;
  Format.fprintf ppf "@,"

let pp ppf s =
  Format.fprintf ppf "@[<v>%s — %s@,(%d samples per level, seed %d)@,@," s.id
    s.title s.samples s.seed;
  pp_axis ppf ~width:16 ~xlabel:s.xlabel s.xs;
  List.iter
    (fun ser ->
      pp_row ppf ~width:16 ~fmt:" %9.3f" (ser.label ^ " recall") ser.recalls;
      pp_row ppf ~width:16 ~fmt:" %8.4fs" (ser.label ^ " response")
        ser.responses)
    s.series;
  Format.fprintf ppf "@]"

(* One CSV row per availability: the axis value, then [columns] of every
   series in order. *)
let csv ~xs ~headers ~columns series =
  let b = Buffer.create 256 in
  Buffer.add_string b "availability";
  List.iter (fun ser -> Buffer.add_string b (headers ser)) series;
  Buffer.add_char b '\n';
  Array.iteri
    (fun i a ->
      Buffer.add_string b (Printf.sprintf "%g" a);
      List.iter
        (fun ser ->
          List.iter
            (fun col -> Buffer.add_string b (Printf.sprintf ",%g" col.(i)))
            (columns ser))
        series;
      Buffer.add_char b '\n')
    xs;
  Buffer.contents b

let to_csv s =
  csv ~xs:s.xs
    ~headers:(fun ser ->
      Printf.sprintf ",%s_recall,%s_response_s" ser.label ser.label)
    ~columns:(fun ser -> [ ser.recalls; ser.responses ])
    s.series

let grid_of j =
  Bench_doc.(
    grid ~section:"fault_sweep" ~axis:"availabilities"
      ~arrays:[ ("responses_s", nonneg); ("recalls", fraction) ]
      j)

let check j = Result.map ignore (grid_of j)

let win j =
  let open Bench_doc in
  let* series = grid_of j in
  let recalls label = List.assoc "recalls" (List.assoc label series) in
  let* base =
    match List.assoc_opt "fail-stop" series with
    | Some _ -> Ok (recalls "fail-stop")
    | None -> error "fault_sweep has no \"fail-stop\" series to rank against"
  in
  let* () =
    each series (fun (label, _) ->
        each
          (List.mapi (fun i p -> (i, p)) (List.combine (recalls label) base))
          (fun (i, (r, b)) ->
            check (r >= b -. 1e-9)
              "fault_sweep %s recall %.3f below fail-stop %.3f at point %d"
              label r b i))
  in
  Ok "every strategy dominates fail-stop recall"

let measures j =
  match grid_of j with
  | Ok series ->
    Bench_doc.series_means ~field:"responses_s" ~noun:"response"
      ~better:Bench_doc.Lower series
  | Error _ -> []

(* ---- the recovery sweep: retry-only vs failover vs failover+hedging ---- *)

type rmode = Retry_only | Failover | Hedged

let rmodes = [ Retry_only; Failover; Hedged ]

let rmode_label = function
  | Retry_only -> "retry"
  | Failover -> "failover"
  | Hedged -> "hedged"

let rmode_policy = function
  | Retry_only -> Strategy.Recovery.disabled
  | Failover -> Strategy.Recovery.default
  | Hedged -> Strategy.Recovery.hedged (Time.ms 0.5)

type rseries = {
  r_label : string;
  r_responses : float array;
  r_recalls : float array;
  r_demoted : float array;
}

type recovery_sweep = {
  rid : string;
  rtitle : string;
  rxlabel : string;
  rxs : float array;
  rsamples : int;
  rseed : int;
  rseries : rseries list;
}

type rpoint_result = {
  (* per (strategy, mode), flattened strategy-major *)
  rp_responses : float array;
  rp_recalls : float array;
  rp_demoted : float array;
}

let rpoint ~seed ~cost ~drop ~inflate ~idx ~si ~availability =
  let n_cells = List.length strategies * List.length rmodes in
  match Grid.sample_case ~seed ~si with
  | None ->
    {
      rp_responses = Array.make n_cells 0.0;
      rp_recalls = Array.make n_cells 1.0;
      rp_demoted = Array.make n_cells 0.0;
    }
  | Some (fed, analysis) ->
    let fault_free, horizon, component_sites = references ~cost fed analysis in
    let fault_rng = Rng.split_ix (Rng.create ~seed:(seed + 6271)) ~i:idx in
    (* unlike the fault sweep, the 1.0 column is NOT fault-free: sites never
       crash but links stay lossy (Fault.random at availability 1.0), so the
       column isolates what failover buys against pure message loss *)
    let fault =
      with_global_link ~drop ~inflate
        (Fault.random ~rng:fault_rng ~sites:component_sites ~availability
           ~horizon ~drop ~inflate ())
    in
    let cells =
      List.concat_map
        (fun (s, (reference, _)) ->
          List.map
            (fun mode ->
              let options =
                {
                  Strategy.default_options with
                  Strategy.cost;
                  Strategy.fault;
                  Strategy.recovery = rmode_policy mode;
                }
              in
              let got, m = Strategy.run ~options s fed analysis in
              ( Time.to_s m.Strategy.response,
                recall ~reference ~faulty:got,
                float_of_int m.Strategy.availability.Strategy.demoted ))
            rmodes)
        (List.combine strategies fault_free)
    in
    {
      rp_responses = Array.of_list (List.map (fun (r, _, _) -> r) cells);
      rp_recalls = Array.of_list (List.map (fun (_, r, _) -> r) cells);
      rp_demoted = Array.of_list (List.map (fun (_, _, d) -> d) cells);
    }

let run_recovery ?pool ?registry ?progress ?(samples = 12) ?(seed = 2024)
    ?(cost = Cost.default) ?(drop = 0.2) ?(inflate = 1.0) () =
  let id = "recovery-sweep" in
  let column =
    run_grid ?pool ?registry ?progress ~id ~counter:"msdq_recovery_samples_total"
      ~samples (rpoint ~seed ~cost ~drop ~inflate)
  in
  let rseries =
    List.concat
      (List.mapi
         (fun k s ->
           List.mapi
             (fun j mode ->
               let cell = (k * List.length rmodes) + j in
               {
                 r_label = Strategy.to_string s ^ "+" ^ rmode_label mode;
                 r_responses = column (fun r -> r.rp_responses.(cell));
                 r_recalls = column (fun r -> r.rp_recalls.(cell));
                 r_demoted = column (fun r -> r.rp_demoted.(cell));
               })
             rmodes)
         strategies)
  in
  {
    rid = id;
    rtitle =
      "Certain-set recall vs availability: retry-only vs failover vs \
       failover+hedging";
    rxlabel = "site availability";
    rxs = availabilities;
    rsamples = samples;
    rseed = seed;
    rseries;
  }

let recovery_to_json s =
  Json.Obj
    [
      ("id", Json.Str s.rid);
      ("title", Json.Str s.rtitle);
      ("xlabel", Json.Str s.rxlabel);
      ("availabilities", floats_json s.rxs);
      ("samples", Json.Int s.rsamples);
      ("seed", Json.Int s.rseed);
      ( "series",
        Json.Arr
          (List.map
             (fun ser ->
               Json.Obj
                 [
                   ("label", Json.Str ser.r_label);
                   ("responses_s", floats_json ser.r_responses);
                   ("recalls", floats_json ser.r_recalls);
                   ("demoted", floats_json ser.r_demoted);
                 ])
             s.rseries) );
    ]

let pp_recovery ppf s =
  Format.fprintf ppf "@[<v>%s — %s@,(%d samples per level, seed %d)@,@," s.rid
    s.rtitle s.rsamples s.rseed;
  pp_axis ppf ~width:20 ~xlabel:s.rxlabel s.rxs;
  List.iter
    (fun ser ->
      pp_row ppf ~width:20 ~fmt:" %9.3f" (ser.r_label ^ " recall") ser.r_recalls;
      pp_row ppf ~width:20 ~fmt:" %9.2f" (ser.r_label ^ " demoted")
        ser.r_demoted)
    s.rseries;
  Format.fprintf ppf "@]"

let recovery_to_csv s =
  csv ~xs:s.rxs
    ~headers:(fun ser ->
      Printf.sprintf ",%s_recall,%s_demoted,%s_response_s" ser.r_label
        ser.r_label ser.r_label)
    ~columns:(fun ser -> [ ser.r_recalls; ser.r_demoted; ser.r_responses ])
    s.rseries

let recovery_grid_of j =
  Bench_doc.(
    grid ~section:"recovery_sweep" ~axis:"availabilities"
      ~arrays:
        [ ("responses_s", nonneg); ("recalls", fraction); ("demoted", nonneg) ]
      j)

let recovery_check j = Result.map ignore (recovery_grid_of j)

let recovery_measures j =
  match recovery_grid_of j with
  | Ok series ->
    Bench_doc.series_means ~field:"responses_s" ~noun:"response"
      ~better:Bench_doc.Lower series
  | Error _ -> []
