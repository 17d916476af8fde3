(* Multi-query workloads sharing one simulated system (extension), run
   through the workload engine with its caches, batching window and
   message framing switched off — the plain shared-engine executor. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Serve = Msdq_serve.Serve
module Fault = Msdq_fault.Fault

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analyze src = Analysis.analyze schema (Parser.parse src) in
  (fed, analyze)

let q1 = Paper_example.q1
let q2 = "select X.name from Student X where X.age > 25"

let cold =
  {
    Serve.default_config with
    Serve.cache_bytes = 0;
    window = Time.zero;
    msg_header_bytes = 0;
  }

(* Jobs are (strategy, analysis, arrival); the outcome carries the engine
   trace so busy work can be summed. *)
let serve ?(fault = Fault.none) fed jobs =
  let options = { cold.Serve.options with Strategy.fault } in
  Serve.run ~trace:true { cold with Serve.options } fed
    (List.map
       (fun (strategy, analysis, arrival) ->
         { Serve.strategy; analysis; arrival; deadline = None })
       jobs)

(* All resource work in the system: every task that occupied a site. *)
let busy (o : Serve.outcome) =
  List.fold_left
    (fun acc (e : Trace.entry) ->
      match e.Trace.site with
      | Some _ -> acc +. Time.to_us (Time.sub e.Trace.finish e.Trace.start)
      | None -> acc)
    0.0 o.Serve.trace

let latency_us (r : Serve.query_report) = Time.to_us r.Serve.latency

let rec make_case seed attempt =
  if attempt > 20 then None
  else
    let cfg =
      {
        Synth.default with
        Synth.seed = (seed * 37) + attempt;
        p_host = 1.0;
        p_attr_present = 0.7;
        p_null = 0.15;
        p_copy = 0.4;
      }
    in
    let fed = Synth.generate cfg in
    let rng = Rng.create ~seed:(seed + (attempt * 1013)) in
    let query = Synth.random_query rng cfg ~disjunctive:(seed mod 2 = 0) in
    let schema = Global_schema.schema (Federation.global_schema fed) in
    match Analysis.analyze schema query with
    | analysis -> Some (fed, analysis)
    | exception Analysis.Error _ -> make_case seed (attempt + 1)

(* Random slowdown windows sized to a run of [horizon]: one to three slowed
   sites among [0, sites), each with one window inside the run and a
   service-time factor in [1.5, 4): windows start in the first 60% of the
   run and last 20-100% of it. Lossy links and crashes stay out: serve
   fates them at admission and Strategy.run at transfer time, by design. *)
let slowdown_schedule rng ~sites ~horizon =
  let h = Time.to_us horizon in
  let slowed =
    List.sort_uniq compare
      (List.init (Rng.range rng ~lo:1 ~hi:3) (fun _ -> Rng.int rng ~bound:sites))
  in
  {
    Fault.none with
    Fault.slowdowns =
      List.map
        (fun slow_site ->
          let down = Rng.frange rng ~lo:0.0 ~hi:(0.6 *. h) in
          let up = down +. Rng.frange rng ~lo:(0.2 *. h) ~hi:h in
          {
            Fault.slow_site;
            factor = Rng.frange rng ~lo:1.5 ~hi:4.0;
            busy = [ { Fault.down = Time.us down; up = Time.us up } ];
          })
        slowed;
  }

(* One query alone behaves exactly like Strategy.run: same answer, its
   latency is the solo response time and its busy work the solo total —
   fault-free, and under random slowdown windows over the run. CF has no
   serve-path integration. *)
let prop_single_job_equals_run =
  QCheck.Test.make ~name:"single job equals run" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      match make_case seed 0 with
      | None -> true
      | Some (fed, analysis) ->
        let sites = List.length (Federation.databases fed) + 1 in
        let rng = Rng.create ~seed in
        List.for_all
          (fun s ->
            let _, fault_free = Strategy.run s fed analysis in
            let slowed =
              slowdown_schedule rng ~sites ~horizon:fault_free.Strategy.response
            in
            List.for_all
              (fun (what, fault) ->
                let solo_answer, solo =
                  Strategy.run
                    ~options:{ Strategy.default_options with Strategy.fault }
                    s fed analysis
                in
                let out = serve ~fault fed [ (s, analysis, Time.zero) ] in
                match out.Serve.reports with
                | [ r ] ->
                  let ok =
                    String.equal
                      (Serve.answer_fingerprint solo_answer)
                      (Serve.answer_fingerprint r.Serve.answer)
                    && Float.abs
                         (Time.to_us solo.Strategy.response -. latency_us r)
                       < 1e-6
                    && Float.abs (Time.to_us solo.Strategy.total -. busy out)
                       < 1e-6
                  in
                  if not ok then
                    Printf.eprintf
                      "single job differs from Strategy.run: %s %s, case seed \
                       %d (replay: QCHECK_SEED=%s dune exec test/main.exe -- \
                       test exec.concurrent)\n%!"
                      (Strategy.to_string s) what seed
                      (Option.value ~default:"<random>"
                         (Sys.getenv_opt "QCHECK_SEED"));
                  ok
                | _ -> false)
              [ ("fault-free", Fault.none); ("slowed", slowed) ])
          (List.filter (fun s -> s <> Strategy.Cf) Strategy.all))

(* Two simultaneous queries interfere: each one's latency is at least its
   solo latency, and combined work is the sum of solo works. *)
let test_interference () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let _, solo1 = Strategy.run Strategy.Bl fed a1 in
  let _, solo2 = Strategy.run Strategy.Bl fed a2 in
  let out =
    serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Bl, a2, Time.zero) ]
  in
  (match out.Serve.reports with
  | [ x1; x2 ] ->
    Alcotest.(check bool) "q1 at least solo latency" true
      (latency_us x1 +. 1e-9 >= Time.to_us solo1.Strategy.response);
    Alcotest.(check bool) "q2 at least solo latency" true
      (latency_us x2 +. 1e-9 >= Time.to_us solo2.Strategy.response);
    Alcotest.(check bool) "someone actually waited" true
      (latency_us x1 > Time.to_us solo1.Strategy.response
      || latency_us x2 > Time.to_us solo2.Strategy.response)
  | _ -> Alcotest.fail "two queries expected");
  Alcotest.(check (float 1e-6)) "work adds up"
    (busy (serve fed [ (Strategy.Bl, a1, Time.zero) ])
    +. busy (serve fed [ (Strategy.Bl, a2, Time.zero) ]))
    (busy out);
  Alcotest.(check bool) "makespan below serial execution" true
    (Time.to_us out.Serve.makespan
    <= Time.to_us solo1.Strategy.response +. Time.to_us solo2.Strategy.response +. 1e-6)

(* Arrival staggering: a query arriving after the first one finished sees no
   interference at all. *)
let test_staggered_arrivals () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let _, solo1 = Strategy.run Strategy.Bl fed a1 in
  let _, solo2 = Strategy.run Strategy.Bl fed a2 in
  let late = Time.add solo1.Strategy.response (Time.us 10.0) in
  let out = serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Bl, a2, late) ] in
  match out.Serve.reports with
  | [ x1; x2 ] ->
    Alcotest.(check (float 1e-6)) "first query undisturbed"
      (Time.to_us solo1.Strategy.response)
      (Time.to_us x1.Serve.completed);
    Alcotest.(check (float 1e-6)) "second query undisturbed after its arrival"
      (Time.to_us solo2.Strategy.response)
      (Time.to_us x2.Serve.completed -. Time.to_us x2.Serve.arrival)
  | _ -> Alcotest.fail "two queries expected"

(* Mixed strategies in one system work and keep their answers. *)
let test_mixed_strategies () =
  let fed, analyze = setup () in
  let a1 = analyze q1 in
  let out =
    serve fed
      [
        (Strategy.Ca, a1, Time.zero);
        (Strategy.Bl, a1, Time.zero);
        (Strategy.Pl, a1, Time.zero);
      ]
  in
  match out.Serve.reports with
  | [ ca; bl; pl ] ->
    Alcotest.(check bool) "all agree on Q1" true
      (Answer.same_statuses ca.Serve.answer bl.Serve.answer
      && Answer.same_statuses bl.Serve.answer pl.Serve.answer)
  | _ -> Alcotest.fail "three queries expected"

(* Counter isolation: each query owns its registry, so two queries sharing
   the engine never bleed bytes or work into each other's reports. Each
   concurrent query's counters must equal its solo run's exactly, however
   the engine interleaves the two. *)
let test_counter_independence () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let solo s a =
    match (serve fed [ (s, a, Time.zero) ]).Serve.reports with
    | [ r ] -> r
    | _ -> Alcotest.fail "one query expected"
  in
  let solo1 = solo Strategy.Bl a1 and solo2 = solo Strategy.Ca a2 in
  let counters (r : Serve.query_report) = Msdq_obs.Metrics.counters r.Serve.registry in
  let total name (r : Serve.query_report) =
    Msdq_obs.Metrics.total r.Serve.registry name
  in
  let out =
    serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Ca, a2, Time.zero) ]
  in
  match out.Serve.reports with
  | [ x1; x2 ] ->
    List.iter
      (fun (what, solo, x) ->
        List.iter
          (fun name ->
            Alcotest.(check int) (what ^ " " ^ name) (total name solo) (total name x))
          [ "msdq_work_units_total"; "msdq_bytes_shipped_total"; "msdq_disk_bytes_total" ];
        Alcotest.(check bool) (what ^ " counters equal its solo run's") true
          (counters solo = counters x))
      [ ("q1", solo1, x1); ("q2", solo2, x2) ];
    Alcotest.(check bool) "q1 shipped bytes" true
      (total "msdq_bytes_shipped_total" x1 > 0);
    (* and the registries really are distinct objects with distinct labels *)
    Alcotest.(check int) "q2 registry has no BL series" 0
      (List.length
         (List.filter
            (fun (_, labels, _) -> List.assoc_opt "strategy" labels = Some "BL")
            (counters x2)))
  | _ -> Alcotest.fail "two queries expected"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_single_job_equals_run;
    Alcotest.test_case "interference" `Quick test_interference;
    Alcotest.test_case "staggered arrivals" `Quick test_staggered_arrivals;
    Alcotest.test_case "mixed strategies" `Quick test_mixed_strategies;
    Alcotest.test_case "counter independence" `Quick test_counter_independence;
  ]
