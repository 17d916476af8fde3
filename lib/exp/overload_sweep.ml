open Msdq_simkit
open Msdq_exec
open Msdq_serve
module Json = Msdq_obs.Json
module Metrics = Msdq_obs.Metrics

let log_src = Logs.Src.create "msdq.exp.overload" ~doc:"overload-robustness sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

type point = {
  pt_policy : string;
  pt_multiplier : float;
  pt_offered : int;
  pt_admitted : int;
  pt_shed : int;
  pt_goodput : float;
  pt_deadline_hits : int;
  pt_hit_rate : float;
  pt_p50_ms : float;
  pt_p99_ms : float;
  pt_demoted_rows : int;
  pt_abandoned_checks : int;
}

type outcome = {
  id : string;
  title : string;
  seed : int;
  queries : int;
  queue_limit : int;
  solo_response_ms : float;
  deadline_ms : float;
  multipliers : float array;
  policies : string list;
  points : point list;
  cap_p99_ms : float;
}

(* The naive baseline row: unbounded queue, no deadline — what serving
   looked like before this PR. *)
let naive_policy = "naive"

let multipliers = [| 0.5; 1.0; 2.0; 3.0 |]

(* Deadline budget and shed threshold, as factors of the calibrated solo
   response. The budget sits below the 2x tail bound the validator
   enforces, so deadline truncation structurally caps admitted latency;
   the depth-2 queue admits at most one queued query behind the one in
   virtual service. *)
let deadline_factor = 1.8
let queue_limit = 2

let percentile_ms lats_us p =
  match lats_us with
  | [] -> 0.0
  | l ->
      let s = Stats.summarize l in
      (match p with
      | `P50 -> s.Stats.p50_us
      | `P99 -> s.Stats.p99_us)
      /. 1000.0

(* One (policy, multiplier) cell: [queries] identical BL jobs spaced
   [solo / multiplier] apart. Pure in its arguments — the pool can run
   cells in any order on any number of domains without changing a bit of
   the outcome. *)
let point ~cost ~fed ~analysis ~queries ~solo_us ~deadline_us ~policy
    ~multiplier =
  let spacing = solo_us /. multiplier in
  let jobs =
    List.init queries (fun i ->
        {
          Serve.strategy = Strategy.Bl;
          analysis;
          arrival = Time.us (float_of_int i *. spacing);
          deadline = None;
        })
  in
  let base =
    {
      Serve.default_config with
      Serve.options = { Strategy.default_options with Strategy.cost };
      cache_bytes = 0;
      window = Time.zero;
    }
  in
  let cfg =
    if String.equal policy naive_policy then base
    else
      match Serve.shed_policy_of_string policy with
      | Error e -> invalid_arg ("Overload_sweep: " ^ e)
      | Ok p ->
          {
            base with
            Serve.deadline = Some (Time.us deadline_us);
            queue_limit = Some queue_limit;
            shed_policy = p;
          }
  in
  let out = Serve.run cfg fed jobs in
  let admitted = List.length out.Serve.reports in
  let lats_us =
    List.map (fun r -> Time.to_us r.Serve.latency) out.Serve.reports
  in
  let deadline_hits =
    List.length
      (List.filter
         (fun (r : Serve.query_report) ->
           r.Serve.deadline_demoted = 0
           && Time.to_us r.Serve.latency <= deadline_us)
         out.Serve.reports)
  in
  let demoted =
    List.fold_left
      (fun acc (r : Serve.query_report) -> acc + r.Serve.deadline_demoted)
      0 out.Serve.reports
  in
  let makespan_s = Time.to_s out.Serve.makespan in
  {
    pt_policy = policy;
    pt_multiplier = multiplier;
    pt_offered = queries;
    pt_admitted = admitted;
    pt_shed = List.length out.Serve.shed;
    pt_goodput =
      (if makespan_s > 0.0 then float_of_int admitted /. makespan_s else 0.0);
    pt_deadline_hits = deadline_hits;
    pt_hit_rate =
      (if admitted > 0 then
         float_of_int deadline_hits /. float_of_int admitted
       else 0.0);
    pt_p50_ms = percentile_ms lats_us `P50;
    pt_p99_ms = percentile_ms lats_us `P99;
    pt_demoted_rows = demoted;
    pt_abandoned_checks =
      Metrics.total out.Serve.registry "msdq_checks_abandoned_total";
  }

let policies =
  naive_policy :: List.map Serve.shed_policy_to_string Serve.shed_policies

let run ?pool ?registry ?progress ?(queries = 16) ?(seed = 1996)
    ?(cost = Cost.default) () =
  let id = "overload-sweep" in
  (* the dense [Grid.case] makes BL issue real check round trips — the
     work deadlines abandon *)
  match Grid.case seed with
  | None -> invalid_arg "Overload_sweep: no analyzable case for this seed"
  | Some (fed, analysis) ->
      (* Calibrate capacity: the realized solo response of one served BL
         query is the service time offered load is measured against. *)
      let solo_out =
        Serve.run
          {
            Serve.default_config with
            Serve.options = { Strategy.default_options with Strategy.cost };
            cache_bytes = 0;
            window = Time.zero;
          }
          fed
          [
            {
              Serve.strategy = Strategy.Bl;
              analysis;
              arrival = Time.zero;
              deadline = None;
            };
          ]
      in
      let solo_us =
        match solo_out.Serve.reports with
        | [ r ] -> Time.to_us r.Serve.latency
        | _ -> invalid_arg "Overload_sweep: calibration run lost its query"
      in
      let deadline_us = deadline_factor *. solo_us in
      let grid =
        Array.of_list
          (List.concat_map
             (fun policy ->
               Array.to_list
                 (Array.map (fun m -> (policy, m)) multipliers))
             policies)
      in
      let points =
        Array.to_list
          (Grid.run ?pool ?registry ?progress ~id
             ~counter:"msdq_overload_points_total"
             ~log:(fun (policy, multiplier) r ~done_now ~total ->
               Log.info (fun m ->
                   m "%s: %s x%.1f done (%d/%d): p99 %.1f ms, %d/%d admitted"
                     id policy multiplier done_now total r.pt_p99_ms
                     r.pt_admitted queries))
             (fun (policy, multiplier) ->
               point ~cost ~fed ~analysis ~queries ~solo_us ~deadline_us
                 ~policy ~multiplier)
             grid)
      in
      let cap_p99_ms =
        match
          List.find_opt
            (fun p ->
              String.equal p.pt_policy
                (Serve.shed_policy_to_string Serve.Reject_newest)
              && p.pt_multiplier = 1.0)
            points
        with
        | Some p -> p.pt_p99_ms
        | None -> 0.0
      in
      {
        id;
        title = "Goodput and tail latency vs offered load and shed policy";
        seed;
        queries;
        queue_limit;
        solo_response_ms = solo_us /. 1000.0;
        deadline_ms = deadline_us /. 1000.0;
        multipliers;
        policies;
        points;
        cap_p99_ms;
      }

let points_of outcome policy =
  List.filter (fun p -> String.equal p.pt_policy policy) outcome.points

let to_json o =
  Json.Obj
    [
      ("id", Json.Str o.id);
      ("title", Json.Str o.title);
      ("seed", Json.Int o.seed);
      ("queries", Json.Int o.queries);
      ("queue_limit", Json.Int o.queue_limit);
      ("solo_response_ms", Json.Float o.solo_response_ms);
      ("deadline_ms", Json.Float o.deadline_ms);
      ("cap_p99_ms", Json.Float o.cap_p99_ms);
      ( "multipliers",
        Json.Arr
          (List.map (fun m -> Json.Float m) (Array.to_list o.multipliers)) );
      ("policies", Json.Arr (List.map (fun p -> Json.Str p) o.policies));
      ( "points",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("policy", Json.Str p.pt_policy);
                   ("multiplier", Json.Float p.pt_multiplier);
                   ("offered", Json.Int p.pt_offered);
                   ("admitted", Json.Int p.pt_admitted);
                   ("shed", Json.Int p.pt_shed);
                   ("goodput_qps", Json.Float p.pt_goodput);
                   ("deadline_hits", Json.Int p.pt_deadline_hits);
                   ("hit_rate", Json.Float p.pt_hit_rate);
                   ("p50_ms", Json.Float p.pt_p50_ms);
                   ("p99_ms", Json.Float p.pt_p99_ms);
                   ("demoted_rows", Json.Int p.pt_demoted_rows);
                   ("abandoned_checks", Json.Int p.pt_abandoned_checks);
                 ])
             o.points) );
    ]

let pp ppf o =
  Format.fprintf ppf "%s — %s@.@." o.id o.title;
  Format.fprintf ppf
    "%d queries per cell, seed %d; capacity (solo response) %.2fms, deadline \
     %.2fms, queue depth %d@.@."
    o.queries o.seed o.solo_response_ms o.deadline_ms o.queue_limit;
  Format.fprintf ppf "%-14s %5s %8s %5s %9s %5s %9s %9s %8s@." "policy" "load"
    "admitted" "shed" "goodput" "hit" "p50" "p99" "abandon";
  List.iter
    (fun pt ->
      Format.fprintf ppf
        "%-14s %4.1fx %5d/%-2d %5d %7.1f/s %5.2f %7.2fms %7.2fms %8d@."
        pt.pt_policy pt.pt_multiplier pt.pt_admitted pt.pt_offered pt.pt_shed
        pt.pt_goodput pt.pt_hit_rate pt.pt_p50_ms pt.pt_p99_ms
        pt.pt_abandoned_checks)
    o.points;
  Format.fprintf ppf
    "@.at-capacity p99 %.2fms; rejecting policies hold p99 within %.2fms at \
     every overloaded point@."
    o.cap_p99_ms (2.0 *. o.cap_p99_ms)

let what = "overload_sweep"

(* (policy, multiplier, p99_ms, goodput_qps) of every point. *)
let parse_points j =
  let open Bench_doc in
  let* points = nonempty ~what "points" j in
  map points (fun entry ->
      let* policy = str ~what:"overload_sweep point" "policy" entry in
      let what = "overload_sweep " ^ policy in
      let* multiplier = float ~what "multiplier" entry in
      let* p99 = float ~what "p99_ms" entry in
      let* goodput = float ~what "goodput_qps" entry in
      let* () =
        nonneg ~what:(Printf.sprintf "%s x%g p99_ms" what multiplier) p99
      in
      let* admitted = int ~what "admitted" entry in
      let* shed = int ~what "shed" entry in
      let* () =
        check (admitted >= 0 && shed >= 0)
          "%s x%g admitted and shed must be >= 0" what multiplier
      in
      Ok (policy, multiplier, p99, goodput))

let check j =
  let open Bench_doc in
  let* cap = float ~what "cap_p99_ms" j in
  let* () =
    check ((not (Float.is_nan cap)) && cap > 0.0)
      "overload_sweep cap_p99_ms must be positive"
  in
  Result.map ignore (parse_points j)

let win j =
  let open Bench_doc in
  let* cap = float ~what "cap_p99_ms" j in
  let* points = parse_points j in
  let row policy =
    List.sort
      (fun (_, a, _, _) (_, b, _, _) -> Float.compare a b)
      (List.filter (fun (p, _, _, _) -> String.equal p policy) points)
  in
  let naive = row naive_policy in
  let* () =
    check (naive <> []) "overload_sweep has no \"naive\" baseline row"
  in
  let* _ =
    List.fold_left
      (fun acc (_, m, p99, _) ->
        let* prev = acc in
        if p99 +. 1e-9 >= prev then Ok p99
        else
          error
            "overload_sweep naive p99 must grow with load but drops to %g ms \
             at x%g"
            p99 m)
      (Ok 0.0) naive
  in
  let _, _, worst, _ = List.nth naive (List.length naive - 1) in
  let* () =
    check (worst > 2.0 *. cap)
      "overload_sweep naive p99 %g ms never exceeds twice the at-capacity \
       p99 %g ms — the sweep is not overloaded"
      worst cap
  in
  let bound = 2.0 *. cap *. (1.0 +. 1e-9) in
  let* () =
    each [ "reject-newest"; "reject-oldest" ] (fun policy ->
        each (row policy) (fun (_, m, p99, _) ->
            check (m < 2.0 || p99 <= bound)
              "overload_sweep tail-bound regression — %s p99 %g ms at x%g \
               exceeds twice the at-capacity p99 %g ms"
              policy p99 m cap))
  in
  Ok "rejecting policies hold the 2x tail bound the naive baseline breaks"

let measures j =
  let open Bench_doc in
  let cap =
    match float ~what "cap_p99_ms" j with
    | Ok cap when cap > 0.0 ->
      [ { name = "at-capacity p99"; value = cap; better = Lower } ]
    | _ -> []
  in
  let goodput =
    match parse_points j with
    | Ok points -> (
      match
        List.filter_map
          (fun (policy, _, _, g) ->
            if String.equal policy naive_policy then None else Some g)
          points
      with
      | [] -> []
      | gs -> [ { name = "mean controlled goodput"; value = mean gs; better = Higher } ])
    | Error _ -> []
  in
  cap @ goodput
