(* The benchmark harness regenerates every table and figure of the paper's
   evaluation (Section 4), and adds:

   - a concrete-engine validation: the same sweeps at reduced scale on real
     generated data through the actual executors (not the parametric model);
   - a signature-filtering ablation (future-work extension);
   - Bechamel microbenchmarks of the core operators.

   Usage: dune exec bench/main.exe [-- --quick | -- --samples N]
   The paper's setting is 500 parameter draws per point (the default).

   Every run also writes a machine-readable BENCH_<timestamp>.json
   (schema "msdq-bench/10", see Run_report) with the per-strategy
   simulated times on the demo workload, the bechamel wall-clock
   medians, the run's seed, a parallel section (jobs, measured speedup
   of a calibration sweep), a fault_sweep section (certain-set recall
   and response under injected site crashes), a recovery_sweep
   section (retry-only vs failover vs failover+hedging recall and
   demotion counts), a serve_sweep section (workload-engine
   throughput vs cache capacity and admission window), a latency
   section (per-strategy query-latency quantiles from a
   telemetry-enabled serve run), an overload_sweep section (goodput and
   tail latency vs offered load per shed policy) and an auto_sweep section (AUTO's
   adaptive selection vs every fixed strategy — the validator enforces
   the win condition), a gray_sweep section (gray-failure tolerance)
   and a microbench section (columnar-engine throughput: boxed vs
   columnar local evaluation and signature filtering, plus
   certification rows/sec); --out DIR picks the directory, --jobs N sizes
   the domain pool (default: all cores; 1 = sequential), --smoke runs
   a reduced version for CI, and --check FILE validates an existing
   result file against the schema (/1../10 all accepted). *)

open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_exp
module Planner = Msdq_opt.Planner
module Param_sim = Msdq_opt.Param_sim

let section name = Format.printf "@.======== [%s] ========@.@." name

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2 *)

let tables () =
  section "table-1";
  Format.printf "System parameters (Table 1):@.%a@." Cost.pp Cost.default;
  section "table-2";
  Format.printf "Database and query parameters (Table 2):@.%a@." Params.pp_ranges
    Params.default

(* ------------------------------------------------------------------ *)
(* Figures 9-11 and the ablation (parametric simulation, paper method) *)

let figures ?pool ~samples ~seed () =
  List.iter
    (fun fig ->
      section fig.Figures.id;
      Format.printf "%a@.@." Report.pp_figure fig;
      Format.printf "shape checks against the paper's findings:@.%a@."
        Report.pp_checks (Shapes.check fig))
    (Figures.all ?pool ~samples ~seed ())

(* ------------------------------------------------------------------ *)
(* Parallel calibration: time one fixed sweep sequentially and on the
   pool, and assert the two outputs are byte-identical — the determinism
   contract, re-checked on every bench run, on real hardware. *)

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let figure_bytes fig =
  Msdq_obs.Json.to_string (Run_report.figure_to_json fig)

let calibrate ?pool ~seed ~samples () =
  section "parallel";
  let grid fig =
    List.length fig.Figures.series * Array.length fig.Figures.xs
  in
  let seq_fig, seq_s = wall_time (fun () -> Figures.fig10 ~samples ~seed ()) in
  let p =
    match pool with
    | None ->
      {
        Run_report.jobs = 1;
        grid_points = grid seq_fig;
        seq_s;
        par_s = seq_s;
        speedup = 1.0;
      }
    | Some pool ->
      let par_fig, par_s =
        wall_time (fun () -> Figures.fig10 ~pool ~samples ~seed ())
      in
      if not (String.equal (figure_bytes seq_fig) (figure_bytes par_fig)) then begin
        Format.eprintf
          "parallel calibration diverged from the sequential sweep@.";
        exit 1
      end;
      {
        Run_report.jobs = Msdq_par.Pool.jobs pool;
        grid_points = grid seq_fig;
        seq_s;
        par_s;
        speedup = seq_s /. par_s;
      }
  in
  Format.printf
    "calibration sweep (fig10, %d samples/point, %d grid points):@." samples
    p.Run_report.grid_points;
  Format.printf "  jobs %d: sequential %.3fs, parallel %.3fs, speedup %.2fx@."
    p.Run_report.jobs p.Run_report.seq_s p.Run_report.par_s
    p.Run_report.speedup;
  Format.printf "  parallel output identical to sequential: true@.";
  p

(* ------------------------------------------------------------------ *)
(* Concrete-engine validation: the real executors on generated data.   *)

let concrete_validation () =
  section "concrete-validation";
  Format.printf
    "The actual CA/BL/PL executors on generated federations (3 databases,@.\
     3-class chain), sweeping the number of entities per class. Times come@.\
     from the same discrete-event engine, driven by real per-phase work.@.@.";
  let query =
    "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1 and X.next.next.p2 = 3"
  in
  Format.printf "query: %s@.@." query;
  Format.printf "%-9s %-6s %12s %12s %10s %8s@." "entities" "strat" "total"
    "response" "shipped" "checks";
  let ordering_ok = ref true in
  List.iter
    (fun n_entities ->
      let cfg =
        {
          Synth.default with
          Synth.seed = 31;
          n_entities;
          p_host = 1.0;
          p_attr_present = 0.75;
          p_null = 0.12;
          p_copy = 0.4;
        }
      in
      let fed = Synth.generate cfg in
      let results =
        List.filter_map
          (fun s ->
            match Strategy.run_query s fed query with
            | Ok (answer, m) -> Some (s, answer, m)
            | Error msg ->
              Format.printf "error: %s@." msg;
              None)
          [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
      in
      List.iter
        (fun (s, _, m) ->
          Format.printf "%-9d %-6s %12s %12s %9dB %8d@." n_entities
            (Strategy.to_string s)
            (Format.asprintf "%a" Msdq_simkit.Time.pp m.Strategy.total)
            (Format.asprintf "%a" Msdq_simkit.Time.pp m.Strategy.response)
            m.Strategy.bytes_shipped m.Strategy.check_requests)
        results;
      (match results with
      | [ (_, ca_a, ca); (_, bl_a, bl); (_, pl_a, pl) ] ->
        let t m = Msdq_simkit.Time.to_us m.Strategy.total in
        let r m = Msdq_simkit.Time.to_us m.Strategy.response in
        if not (t bl < t ca && t bl <= t pl && r bl < r ca && r pl < r ca) then
          ordering_ok := false;
        if
          not
            (Answer.same_statuses bl_a pl_a && Answer.subsumes ~strong:ca_a ~weak:bl_a)
        then ordering_ok := false
      | _ -> ordering_ok := false);
      Format.printf "@.")
    [ 100; 200; 400; 800 ];
  Format.printf "paper ordering holds on concrete data (BL < PL on total,@.";
  Format.printf "both < CA; localized response < CA response): %b@." !ordering_ok

(* ------------------------------------------------------------------ *)
(* Planner accuracy: predicted vs measured strategy ordering.           *)

let planner_study () =
  section "planner";
  Format.printf "Cost-based strategy selection (extension): the planner@.";
  Format.printf "profiles the federation into Table-2 statistics and predicts@.";
  Format.printf "each strategy's cost; predicted vs measured per seed.@.@.";
  let query = "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1" in
  Format.printf "query: %s@.@." query;
  Format.printf "%-5s %-11s %-10s %12s %12s %8s@." "seed" "predicted" "measured"
    "pred total" "meas total" "regret";
  let hits = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let cfg =
        {
          Synth.default with
          Synth.seed;
          n_entities = 150;
          p_host = 1.0;
          p_attr_present = 0.75;
          p_null = 0.12;
        }
      in
      let fed = Synth.generate cfg in
      let analysis =
        Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
          (Parser.parse query)
      in
      let chosen, predictions =
        Planner.choose ~objective:Planner.Total_time fed analysis
      in
      let measured =
        List.map
          (fun s ->
            let _, m = Strategy.run s fed analysis in
            (s, m.Strategy.total))
          [ Strategy.Ca; Strategy.Cf; Strategy.Bl; Strategy.Pl ]
      in
      let best =
        fst
          (List.fold_left
             (fun ((_, bt) as b) ((_, t) as c) ->
               if Msdq_simkit.Time.compare t bt < 0 then c else b)
             (List.hd measured) (List.tl measured))
      in
      incr total;
      if chosen = best then incr hits;
      let p = List.hd predictions in
      let t s = Msdq_simkit.Time.to_us (List.assoc s measured) in
      Format.printf "%-5d %-11s %-10s %12s %12s %7.2fx@." seed
        (Strategy.to_string chosen) (Strategy.to_string best)
        (Format.asprintf "%a" Msdq_simkit.Time.pp p.Planner.total)
        (Format.asprintf "%a" Msdq_simkit.Time.pp (List.assoc chosen measured))
        (t chosen /. t best))
    [ 1; 2; 3; 4; 5; 6 ];
  Format.printf
    "@.planner picked the measured-best strategy in %d/%d cases (regret = \
     chosen / best measured total)@."
    !hits !total

(* ------------------------------------------------------------------ *)
(* Heterogeneous hardware: a straggler site (extension).               *)

let straggler_study () =
  section "straggler";
  Format.printf "Heterogeneous hardware (extension): one component database@.";
  Format.printf "runs on a slow machine (factor 0.25). CA only scans and ships@.";
  Format.printf "there; the localized strategies also evaluate there, so the@.";
  Format.printf "straggler hurts their response time relatively more.@.@.";
  let cfg =
    {
      Synth.default with
      Synth.seed = 17;
      n_entities = 300;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
    }
  in
  let fed = Synth.generate cfg in
  let analysis =
    Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1")
  in
  Format.printf "%-6s %14s %14s %9s@." "strat" "uniform resp" "straggler resp"
    "slowdown";
  List.iter
    (fun s ->
      let _, base = Strategy.run s fed analysis in
      let options =
        { Strategy.default_options with Strategy.site_speeds = [ (1, 0.25) ] }
      in
      let _, slow = Strategy.run ~options s fed analysis in
      let r m = Msdq_simkit.Time.to_us m.Strategy.response in
      Format.printf "%-6s %14s %14s %8.2fx@." (Strategy.to_string s)
        (Format.asprintf "%a" Msdq_simkit.Time.pp base.Strategy.response)
        (Format.asprintf "%a" Msdq_simkit.Time.pp slow.Strategy.response)
        (r slow /. r base))
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* ------------------------------------------------------------------ *)
(* Multi-query throughput (extension): a stream of queries shares the     *)
(* simulated system; mean latency under load separates the strategies    *)
(* further than single-query response time does.                         *)

let throughput_study () =
  let module Serve = Msdq_serve.Serve in
  section "throughput";
  Format.printf "Multi-query workloads (extension): 8 queries arrive at a@.";
  Format.printf "fixed interval; all share the simulated sites, so they queue@.";
  Format.printf "on disks, CPUs and the global site's incoming link.@.@.";
  let cfg =
    {
      Synth.default with
      Synth.seed = 23;
      n_entities = 200;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
    }
  in
  let fed = Synth.generate cfg in
  let queries =
    [
      "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1";
      "select X.key from K0 X where X.p1 = 3";
      "select X.key from K0 X where X.next.p0 = 0 and X.p2 = 1";
      "select X.key from K0 X where X.p0 = 1 or X.p1 = 2";
    ]
  in
  let analyses =
    List.map
      (fun q ->
        Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
          (Parser.parse q))
      queries
  in
  Format.printf "%-6s %-14s %14s %14s %14s@." "strat" "interval" "mean latency"
    "max latency" "makespan";
  List.iter
    (fun strategy ->
      List.iter
        (fun interval_ms ->
          let jobs =
            List.init 8 (fun i ->
                {
                  Serve.strategy;
                  analysis = List.nth analyses (i mod List.length analyses);
                  arrival = Msdq_simkit.Time.ms (float_of_int i *. interval_ms);
                  deadline = None;
                })
          in
          (* caches, batching window and framing off: the plain shared
             engine *)
          let out =
            Serve.run
              {
                Serve.default_config with
                Serve.cache_bytes = 0;
                window = Msdq_simkit.Time.zero;
                msg_header_bytes = 0;
              }
              fed jobs
          in
          let latencies =
            List.map
              (fun (r : Serve.query_report) ->
                Msdq_simkit.Time.to_ms r.Serve.latency)
              out.Serve.reports
          in
          let mean =
            List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies)
          in
          let worst = List.fold_left Float.max 0.0 latencies in
          Format.printf "%-6s %12.0fms %12.1fms %12.1fms %12.1fms@."
            (Strategy.to_string strategy) interval_ms mean worst
            (Msdq_simkit.Time.to_ms out.Serve.makespan))
        [ 1000.0; 250.0; 50.0 ])
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* ------------------------------------------------------------------ *)
(* Fault sweep (robustness extension): the concrete executors under site  *)
(* crashes and lossy links — response degradation and certain-set recall. *)

let fault_study ?pool ~seed ~samples () =
  section "fault-sweep";
  Format.printf
    "Fault injection (extension): random recoverable crash schedules and@.\
     5%% lossy links on the component sites. Recall = fraction of the@.\
     fault-free certain results the degraded run still certifies; the@.\
     fail-stop series is a client of the same faulty BL execution that@.\
     aborts on any loss instead of degrading.@.@.";
  let sweep = Fault_sweep.run ?pool ~seed ~samples () in
  Format.printf "%-10s" "series";
  Array.iter (fun a -> Format.printf " %8s" (Printf.sprintf "a=%.2f" a)) sweep.Fault_sweep.xs;
  Format.printf "@.";
  List.iter
    (fun (ser : Fault_sweep.series) ->
      Format.printf "%-10s" (ser.Fault_sweep.label ^ " rec");
      Array.iter (fun r -> Format.printf " %8.3f" r) ser.Fault_sweep.recalls;
      Format.printf "@.%-10s" (ser.Fault_sweep.label ^ " rsp");
      Array.iter (fun r -> Format.printf " %7.4fs" r) ser.Fault_sweep.responses;
      Format.printf "@.")
    sweep.Fault_sweep.series;
  sweep

(* ------------------------------------------------------------------ *)
(* Recovery sweep (failover extension): retry-only vs failover vs        *)
(* failover+hedging on the same faulty executions.                       *)

let recovery_study ?pool ~seed ~samples () =
  section "recovery-sweep";
  Format.printf
    "Failover recovery (extension): the same chaos grid, comparing the@.\
     recovery policies on each faulty execution. retry = per-link retries@.\
     only; failover adds replica re-routing behind per-link circuit@.\
     breakers; hedged also races a duplicate check to the second-best@.\
     replica. CA has no check round trips, so its triple is the flat@.\
     control. The a=1.00 column is lossy-link-only, not fault-free.@.@.";
  let sweep = Fault_sweep.run_recovery ?pool ~seed ~samples () in
  Format.printf "%-14s" "series";
  Array.iter
    (fun a -> Format.printf " %8s" (Printf.sprintf "a=%.2f" a))
    sweep.Fault_sweep.rxs;
  Format.printf "@.";
  List.iter
    (fun (ser : Fault_sweep.rseries) ->
      Format.printf "%-14s" (ser.Fault_sweep.r_label ^ " rec");
      Array.iter (fun r -> Format.printf " %8.3f" r) ser.Fault_sweep.r_recalls;
      Format.printf "@.%-14s" (ser.Fault_sweep.r_label ^ " dem");
      Array.iter (fun d -> Format.printf " %8.2f" d) ser.Fault_sweep.r_demoted;
      Format.printf "@.")
    sweep.Fault_sweep.rseries;
  sweep

let serve_study ?pool ~seed ~samples () =
  section "serve-sweep";
  Format.printf
    "Workload engine (extension): repeated-query streams through the@.\
     multi-query serve layer. Throughput = queries per simulated second;@.\
     speedup = warm-over-cold makespan ratio at each cache capacity@.\
     (capacity 0 is the cold anchor). Caching and batching never change@.\
     an answer — the cache-soundness property the test suite checks.@.@.";
  let sweep = Serve_sweep.run ?pool ~seed ~samples () in
  Format.printf "%-12s" "series";
  Array.iter
    (fun kib -> Format.printf " %10s" (Printf.sprintf "%gKiB" kib))
    sweep.Serve_sweep.xs;
  Format.printf "@.";
  List.iter
    (fun (ser : Serve_sweep.series) ->
      Format.printf "%-12s" (ser.Serve_sweep.label ^ " q/s");
      Array.iter (fun t -> Format.printf " %10.2f" t) ser.Serve_sweep.throughputs;
      Format.printf "@.%-12s" (ser.Serve_sweep.label ^ " spd");
      Array.iter (fun s -> Format.printf " %10.3f" s) ser.Serve_sweep.speedups;
      Format.printf "@.")
    sweep.Serve_sweep.series;
  sweep

(* ------------------------------------------------------------------ *)
(* Latency quantiles (telemetry extension): a telemetry-enabled serve run  *)
(* per strategy; the per-query latency summaries become the bench file's   *)
(* /6 "latency" section, so CI tracks tail latency across commits.         *)

let latency_study () =
  section "latency";
  Format.printf
    "Query-latency quantiles (telemetry): 8-query streams through the@.\
     workload engine with telemetry histograms enabled; per-strategy@.\
     p50/p90/p99/max of query latency (arrival to answer).@.@.";
  let module Serve = Msdq_serve.Serve in
  let cfg =
    {
      Synth.default with
      Synth.seed = 23;
      n_entities = 200;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
    }
  in
  let fed = Synth.generate cfg in
  let queries =
    [
      "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1";
      "select X.key from K0 X where X.p1 = 3";
      "select X.key from K0 X where X.next.p0 = 0 and X.p2 = 1";
      "select X.key from K0 X where X.p0 = 1 or X.p1 = 2";
    ]
  in
  let analyses =
    List.map
      (fun q ->
        Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
          (Parser.parse q))
      queries
  in
  let scfg =
    {
      Serve.default_config with
      Serve.options =
        { Strategy.default_options with Strategy.telemetry = true };
    }
  in
  Format.printf "%-6s %10s %10s %10s %10s@." "strat" "p50" "p90" "p99" "max";
  let summaries =
    List.map
      (fun strategy ->
        let jobs =
          List.init 8 (fun i ->
              {
                Serve.strategy;
                analysis = List.nth analyses (i mod List.length analyses);
                arrival = Msdq_simkit.Time.ms (float_of_int i *. 50.0);
                deadline = None;
              })
        in
        let out = Serve.run scfg fed jobs in
        let lats =
          List.map
            (fun (r : Serve.query_report) ->
              Msdq_simkit.Time.to_us r.Serve.latency)
            out.Serve.reports
        in
        let s = Msdq_simkit.Stats.summarize lats in
        Format.printf "%-6s %8.0fus %8.0fus %8.0fus %8.0fus@."
          (Strategy.to_string strategy) s.Msdq_simkit.Stats.p50_us
          s.Msdq_simkit.Stats.p90_us s.Msdq_simkit.Stats.p99_us
          s.Msdq_simkit.Stats.max_us;
        (Strategy.to_string strategy, s))
      [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
  in
  summaries

(* ------------------------------------------------------------------ *)
(* AUTO vs fixed strategies: the optimizer's win condition, recorded in the
   JSON file's auto_sweep section. Smoke and full runs use identical
   parameters so the CI bench gate can compare results across runs. *)

let auto_study ~seed () =
  section "auto";
  Format.printf
    "Adaptive strategy selection (AUTO): one mixed workload served once@.\
     per fixed candidate strategy and once under the cost-based@.\
     optimizer. Win condition: AUTO makespan <= best fixed makespan.@.@.";
  let a = Auto_sweep.run ~seed () in
  Format.printf "%-8s %12s@." "strategy" "makespan";
  List.iter
    (fun f ->
      Format.printf "%-8s %10.2fms@."
        (Strategy.to_string f.Auto_sweep.f_strategy)
        (f.Auto_sweep.f_makespan_s *. 1e3))
    a.Auto_sweep.fixed;
  Format.printf "%-8s %10.2fms@." "AUTO" (a.Auto_sweep.auto_makespan_s *. 1e3);
  Format.printf "@.decisions:";
  List.iter
    (fun (s, n) -> Format.printf " %s=%d" s n)
    a.Auto_sweep.decisions;
  Format.printf "  switches=%d@." a.Auto_sweep.switches;
  Format.printf "estimator rank matches: %d/%d (%.0f%%)@."
    a.Auto_sweep.rank_matches a.Auto_sweep.distinct
    (a.Auto_sweep.rank_match_rate *. 100.0);
  a

(* ------------------------------------------------------------------ *)
(* Overload robustness: goodput and tail latency vs offered load per shed
   policy, recorded in the JSON file's overload_sweep section. Every cell
   is pure in (seed, policy, multiplier), so smoke and full runs produce
   identical sections the CI bench gate can compare across commits. *)

let overload_study ?pool ~seed () =
  section "overload";
  Format.printf
    "Overload robustness: one BL workload offered at 0.5x..3x capacity,@.\
     served naively (unbounded queue, no deadline) and under each shed@.\
     policy with a depth-bounded queue and a deadline budget. Win@.\
     condition: admitted p99 under rejecting policies stays within 2x@.\
     the at-capacity p99 while the naive tail grows without bound.@.@.";
  let o = Overload_sweep.run ?pool ~seed () in
  Format.printf
    "capacity (solo response) %.2fms, deadline %.2fms, queue depth %d@.@."
    o.Overload_sweep.solo_response_ms o.Overload_sweep.deadline_ms
    o.Overload_sweep.queue_limit;
  Format.printf "%-14s %5s %8s %5s %9s %5s %9s %9s@." "policy" "load"
    "admitted" "shed" "goodput" "hit" "p50" "p99";
  List.iter
    (fun (p : Overload_sweep.point) ->
      Format.printf "%-14s %4.1fx %5d/%-2d %5d %7.1f/s %5.2f %7.2fms %7.2fms@."
        p.Overload_sweep.pt_policy p.Overload_sweep.pt_multiplier
        p.Overload_sweep.pt_admitted p.Overload_sweep.pt_offered
        p.Overload_sweep.pt_shed p.Overload_sweep.pt_goodput
        p.Overload_sweep.pt_hit_rate p.Overload_sweep.pt_p50_ms
        p.Overload_sweep.pt_p99_ms)
    o.Overload_sweep.points;
  Format.printf "@.at-capacity p99 %.2fms, tail bound %.2fms@."
    o.Overload_sweep.cap_p99_ms
    (2.0 *. o.Overload_sweep.cap_p99_ms);
  o

(* ------------------------------------------------------------------ *)
(* Gray-failure tolerance: static vs adaptive retry timeouts across the
   gray fault kinds, recorded in the JSON file's gray_sweep section. Every
   cell is pure in (seed, policy, kind, severity), so smoke and full runs
   produce identical sections the CI bench gate can compare across
   commits. *)

let gray_study ?pool ~seed () =
  section "gray";
  Format.printf
    "Gray-failure tolerance: one BL workload served per (timeout policy,@.\
     fault kind, severity) cell over a lossy link. Win condition: the@.\
     adaptive arm demotes no more rows than the static arm on every cell@.\
     and cuts mean response on the slowdown cells by at least %.0f%%.@.@."
    (100.0 *. Gray_sweep.response_margin);
  let g = Gray_sweep.run ?pool ~seed () in
  Format.printf "static timeout %.2fms, baseline drop %.2f@.@."
    g.Gray_sweep.static_timeout_ms g.Gray_sweep.drop;
  Format.printf "%-9s %-9s %-7s %8s %6s %9s %9s@." "policy" "kind" "sev"
    "demoted" "aband" "mean" "p99";
  List.iter
    (fun (p : Gray_sweep.point) ->
      Format.printf "%-9s %-9s %-7s %8d %6d %7.2fms %7.2fms@."
        p.Gray_sweep.pt_policy p.Gray_sweep.pt_kind p.Gray_sweep.pt_severity
        p.Gray_sweep.pt_demoted_rows p.Gray_sweep.pt_abandoned_checks
        p.Gray_sweep.pt_mean_ms p.Gray_sweep.pt_p99_ms)
    g.Gray_sweep.points;
  g

(* ------------------------------------------------------------------ *)
(* Per-strategy simulated times on the demo workload, for the JSON file. *)

let strategy_times () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  List.map
    (fun s ->
      let _, m = Strategy.run s fed analysis in
      ( Strategy.to_string s,
        Msdq_simkit.Time.to_s m.Strategy.total,
        Msdq_simkit.Time.to_s m.Strategy.response ))
    Strategy.all

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let microbenches ~quota () =
  section "microbench";
  let open Bechamel in
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  let db1 = ex.Paper_example.db1 in
  let john = ex.Paper_example.s1 in
  let pred = List.hd (List.rev Paper_example.q1_predicates) in
  let small_fed =
    Synth.generate
      { Synth.default with Synth.seed = 3; n_entities = 60; p_host = 1.0 }
  in
  let small_query =
    "select X.key from K0 X where X.p0 = 1 and X.next.p1 = 2"
  in
  let table = Federation.goids fed in
  let john_loid = Msdq_odb.Dbobject.loid john in
  let tests =
    Test.make_grouped ~name:"msdq"
      [
        Test.make ~name:"parse-q1" (Staged.stage (fun () ->
            ignore (Parser.parse Paper_example.q1)));
        Test.make ~name:"analyze-q1" (Staged.stage (fun () ->
            ignore (Analysis.analyze schema (Parser.parse Paper_example.q1))));
        Test.make ~name:"predicate-eval" (Staged.stage (fun () ->
            ignore (Msdq_odb.Predicate.eval db1 john pred)));
        Test.make ~name:"goid-lookup" (Staged.stage (fun () ->
            ignore (Goid_table.goid_of_local table ~db:"DB1" john_loid)));
        Test.make ~name:"materialize-paper-fed" (Staged.stage (fun () ->
            ignore (Materialize.build fed)));
        Test.make ~name:"local-eval-db1" (Staged.stage (fun () ->
            ignore (Local_eval.run fed analysis ~db:"DB1")));
        Test.make ~name:"strategy-ca-paper" (Staged.stage (fun () ->
            ignore (Strategy.run Strategy.Ca fed analysis)));
        Test.make ~name:"strategy-bl-paper" (Staged.stage (fun () ->
            ignore (Strategy.run Strategy.Bl fed analysis)));
        Test.make ~name:"strategy-bl-synth-60" (Staged.stage (fun () ->
            ignore (Strategy.run_query Strategy.Bl small_fed small_query)));
        Test.make ~name:"param-sim-bl" (Staged.stage (fun () ->
            let rng = Rng.create ~seed:1 in
            let s = Params.sample rng Params.default in
            ignore (Param_sim.simulate ~cost:Cost.default Strategy.Bl s)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result) in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows in
  Format.printf "%-32s %16s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns < 1e3 then Printf.sprintf "%.0fns" ns
        else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
        else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
        else Printf.sprintf "%.2fs" (ns /. 1e9)
      in
      Format.printf "%-32s %16s %8.3f@." name human r2)
    rows;
  List.filter_map
    (fun (name, ns, _) -> if Float.is_nan ns then None else Some (name, ns))
    rows

(* ------------------------------------------------------------------ *)
(* Columnar microbench (the /10 section): objects/sec of local predicate
   evaluation and BLS/PLS signature filtering, measured in both the boxed
   (per-object) and columnar representations over the same extent, plus
   end-to-end certification rows/sec. Each boxed/columnar pair computes the
   same answer from the same data and is cross-checked before timing, so
   the speedup ratio is honest; being a same-process ratio it is also
   machine-independent enough for tools/bench_gate to enforce the >= 5x
   acceptance bar on fresh documents. *)

(* Repeats [f] until it has accumulated enough wall-clock to trust the
   rate; returns (repeats, elapsed_s). *)
let mb_time f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < 0.05 || !reps = 0 do
    ignore (f ());
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (!reps, !elapsed)

let mb_rate ~per_pass (reps, elapsed) = float_of_int (reps * per_pass) /. elapsed

let microbench_study ~objects () =
  section "columnar microbench";
  let open Msdq_odb in
  let schema =
    Schema.create
      [
        {
          Schema.cname = "C";
          attrs =
            [
              { Schema.aname = "id"; atype = Schema.Prim Schema.P_int };
              { Schema.aname = "score"; atype = Schema.Prim Schema.P_float };
              { Schema.aname = "name"; atype = Schema.Prim Schema.P_string };
              { Schema.aname = "grade"; atype = Schema.Prim Schema.P_int };
            ];
        };
      ]
  in
  let db = Database.create ~name:"MB" ~schema in
  for i = 0 to objects - 1 do
    (* every 7th grade is null, so the null verdict path is exercised too *)
    let grade = if i mod 7 = 0 then Value.Null else Value.Int (i mod 50) in
    ignore
      (Database.add db ~cls:"C"
         [
           Value.Int i;
           Value.Float (float_of_int (i mod 1000) /. 8.0);
           Value.Str (Printf.sprintf "n%03d" (i mod 97));
           grade;
         ])
  done;
  let ext = Database.extent_handle db "C" in
  let operand = Value.Int 7 in
  let pred =
    Predicate.make ~path:[ "grade" ] ~op:Predicate.Eq ~operand
  in
  let boxed_pass () =
    let sat = ref 0 in
    Extent.iter
      (fun obj ->
        match Predicate.eval db obj pred with
        | Predicate.Sat -> incr sat
        | Predicate.Viol | Predicate.Blocked _ -> ())
      ext;
    !sat
  in
  let columnar_pass () =
    match Extent.eval_attr ext ~attr:"grade" ~op:Relop.Eq ~operand with
    | None -> assert false (* typed equality never falls back *)
    | Some codes ->
      let sat = ref 0 in
      for r = 0 to Extent.size ext - 1 do
        if Extent.verdict codes r = Extent.V_sat then incr sat
      done;
      !sat
  in
  (* the two arms must compute the same answer before either is timed *)
  if boxed_pass () <> columnar_pass () then begin
    Format.eprintf "microbench: boxed and columnar local-eval disagree@.";
    exit 1
  end;
  let boxed_eval = mb_rate ~per_pass:objects (mb_time boxed_pass) in
  let columnar_eval = mb_rate ~per_pass:objects (mb_time columnar_pass) in
  (* signature filtering: precomputed per-object signatures (the catalog
     form the boxed BLS/PLS path consulted) vs the extent's packed store *)
  let sigs = Extent.signatures ext in
  let boxed_sigs =
    Array.init (Extent.size ext) (fun r ->
        Signature.of_object (Extent.handle ext r))
  in
  let grade_index = 3 in
  let boxed_sig_pass () =
    let refuted = ref 0 in
    Array.iter
      (fun sg ->
        if not (Signature.may_satisfy sg ~index:grade_index ~op:Relop.Eq ~operand)
        then incr refuted)
      boxed_sigs;
    !refuted
  in
  let bitset_sig_pass () =
    Sigset.refuted_count sigs ~index:grade_index ~op:Relop.Eq ~operand
  in
  if boxed_sig_pass () <> bitset_sig_pass () then begin
    Format.eprintf "microbench: boxed and bitset signature filters disagree@.";
    exit 1
  end;
  let boxed_sig = mb_rate ~per_pass:objects (mb_time boxed_sig_pass) in
  let bitset_sig = mb_rate ~per_pass:objects (mb_time bitset_sig_pass) in
  (* certification throughput on a synthetic federation: local results are
     precomputed, the timed pass is the global merge + certification *)
  let fed =
    Synth.generate
      { Synth.default with Synth.seed = 11; n_entities = 300; p_host = 1.0 }
  in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse "select X.key from K0 X where X.p0 = 1 and X.next.p1 = 2")
  in
  let results =
    List.map
      (fun (p : Localize.db_plan) ->
        Local_eval.run fed analysis ~db:p.Localize.db)
      (Localize.plan fed analysis)
  in
  let rows =
    List.fold_left
      (fun acc r -> acc + List.length r.Local_result.rows)
      0 results
  in
  let certify_pass () =
    Certify.run fed analysis ~results ~verdicts:[]
  in
  let certify_rate = mb_rate ~per_pass:rows (mb_time certify_pass) in
  let m =
    {
      Run_report.mb_objects = objects;
      mb_boxed_eval = boxed_eval;
      mb_columnar_eval = columnar_eval;
      mb_eval_speedup = columnar_eval /. boxed_eval;
      mb_boxed_sig = boxed_sig;
      mb_bitset_sig = bitset_sig;
      mb_sig_speedup = bitset_sig /. boxed_sig;
      mb_certify_rows = rows;
      mb_certify_rows_per_s = certify_rate;
    }
  in
  Format.printf "%-20s %14s %14s %9s@." "arm" "boxed/s" "columnar/s" "speedup";
  Format.printf "%-20s %14.0f %14.0f %8.1fx@." "local-eval" m.Run_report.mb_boxed_eval
    m.Run_report.mb_columnar_eval m.Run_report.mb_eval_speedup;
  Format.printf "%-20s %14.0f %14.0f %8.1fx@." "signature-filter"
    m.Run_report.mb_boxed_sig m.Run_report.mb_bitset_sig
    m.Run_report.mb_sig_speedup;
  Format.printf "%-20s %d rows at %.0f rows/s@." "certify"
    m.Run_report.mb_certify_rows m.Run_report.mb_certify_rows_per_s;
  m

(* ------------------------------------------------------------------ *)
(* Machine-readable result file *)

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_bench_json ~out ~seed ~parallel ~fault_sweep ~recovery_sweep
    ~serve_sweep ~latency ~auto_sweep ~overload_sweep ~gray_sweep ~microbench
    ~wall =
  let generated_at = timestamp () in
  let doc =
    Run_report.bench_to_json ~generated_at ~seed ~parallel ~fault_sweep
      ~recovery_sweep ~serve_sweep ~latency ~auto_sweep ~overload_sweep
      ~gray_sweep ~microbench ~strategies:(strategy_times ()) ~wall
  in
  (match Run_report.validate_bench doc with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "internal error: generated an invalid bench document: %s@." msg;
    exit 1);
  let file_stamp =
    String.map (function ':' -> '-' | c -> c) generated_at
  in
  let path = Filename.concat out (Printf.sprintf "BENCH_%s.json" file_stamp) in
  let oc = open_out path in
  output_string oc (Msdq_obs.Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

let check_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Msdq_obs.Json.of_string contents with
  | Error msg ->
    Format.eprintf "%s: not valid JSON: %s@." path msg;
    exit 1
  | Ok doc -> (
    match Run_report.validate_bench doc with
    | Ok () ->
      let schema =
        match
          Option.(Msdq_obs.Json.member "schema" doc |> map Msdq_obs.Json.to_str |> join)
        with
        | Some s -> s
        | None -> Run_report.bench_schema
      in
      Format.printf "%s: valid %s document@." path schema
    | Error msg ->
      Format.eprintf "%s: %s@." path msg;
      exit 1)

(* ------------------------------------------------------------------ *)

let () =
  let samples = ref 500 in
  let seed = ref 1996 in
  let smoke = ref false in
  let out = ref "." in
  let check = ref None in
  let jobs = ref 0 in
  let spec =
    [
      ("--samples", Arg.Set_int samples, "N  parameter draws per point (default 500)");
      ("--quick", Arg.Unit (fun () -> samples := 120), " reduced draws for a fast run");
      ("--seed", Arg.Set_int seed, "N  random seed (default 1996)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N  domain-pool size for the sweeps (default: all cores; 1 = sequential)" );
      ( "--smoke",
        Arg.Set smoke,
        " minimal run for CI: skip the sweeps, still write the JSON file" );
      ("--out", Arg.Set_string out, "DIR  directory for BENCH_<timestamp>.json (default .)");
      ( "--check",
        Arg.String (fun f -> check := Some f),
        "FILE  validate FILE against the bench schema (/1../10) and exit" );
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "bench/main.exe [--quick|--samples N|--jobs N|--smoke|--check FILE]";
  match !check with
  | Some path -> check_file path
  | None ->
    let jobs =
      if !jobs = 0 then Domain.recommended_domain_count ()
      else if !jobs >= 1 then !jobs
      else begin
        Format.eprintf "--jobs must be >= 1@.";
        exit 2
      end
    in
    let pool = if jobs > 1 then Some (Msdq_par.Pool.create ~jobs ()) else None in
    Fun.protect ~finally:(fun () -> Option.iter Msdq_par.Pool.shutdown pool)
    @@ fun () ->
    Format.printf
      "Reproduction harness: Koh & Chen, ICDCS 1996 — every table and figure.@.";
    Format.printf "seed: %d, jobs: %d@." !seed jobs;
    if !smoke then begin
      Format.printf
        "smoke mode: strategy times, parallel calibration + a minimal \
         microbench only.@.";
      tables ();
      let parallel = calibrate ?pool ~seed:!seed ~samples:40 () in
      let fault_sweep = fault_study ?pool ~seed:!seed ~samples:3 () in
      let recovery_sweep = recovery_study ?pool ~seed:!seed ~samples:2 () in
      let serve_sweep = serve_study ?pool ~seed:!seed ~samples:2 () in
      let latency = latency_study () in
      let auto_sweep = auto_study ~seed:!seed () in
      let overload_sweep = overload_study ?pool ~seed:!seed () in
      let gray_sweep = gray_study ?pool ~seed:!seed () in
      let microbench = microbench_study ~objects:20_000 () in
      let wall = microbenches ~quota:0.05 () in
      write_bench_json ~out:!out ~seed:!seed ~parallel ~fault_sweep
        ~recovery_sweep ~serve_sweep ~latency ~auto_sweep ~overload_sweep
        ~gray_sweep ~microbench ~wall
    end
    else begin
      Format.printf "parameter draws per point: %d@." !samples;
      tables ();
      figures ?pool ~samples:!samples ~seed:!seed ();
      concrete_validation ();
      planner_study ();
      straggler_study ();
      throughput_study ();
      let parallel = calibrate ?pool ~seed:!seed ~samples:!samples () in
      let fault_sweep = fault_study ?pool ~seed:!seed ~samples:12 () in
      let recovery_sweep = recovery_study ?pool ~seed:!seed ~samples:8 () in
      let serve_sweep = serve_study ?pool ~seed:!seed ~samples:6 () in
      let latency = latency_study () in
      let auto_sweep = auto_study ~seed:!seed () in
      let overload_sweep = overload_study ?pool ~seed:!seed () in
      let gray_sweep = gray_study ?pool ~seed:!seed () in
      let microbench = microbench_study ~objects:200_000 () in
      let wall = microbenches ~quota:0.4 () in
      write_bench_json ~out:!out ~seed:!seed ~parallel ~fault_sweep
        ~recovery_sweep ~serve_sweep ~latency ~auto_sweep ~overload_sweep
        ~gray_sweep ~microbench ~wall;
      Format.printf "@.done.@."
    end
