(* Exportable run reports: golden files for the JSON metrics document and
   the Chrome trace, plus the bench schema validator.

   The golden tests pin the exact bytes of the exports for every run in
   [Golden_cases.cases]. Everything fed into them is deterministic:
   simulated times, counter values, stable JSON field order. Host spans
   carry wall-clock timestamps, so the trace goldens run with host spans
   stripped. To regenerate after an intentional format change:
   dune exec test/gen_golden.exe. *)

open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_exp
module Json = Msdq_obs.Json

let bl_run () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  Strategy.run Strategy.Bl fed analysis

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Every case in [Golden_cases.cases] pins both exports; the two tests
   below walk the table, one export each. *)
let check_goldens ~suffix =
  List.iter
    (fun (case : Golden_cases.case) ->
      List.iter
        (fun (file, got) ->
          if Filename.check_suffix file suffix then
            Alcotest.(check string) (file ^ " bytes")
              (read_file ("golden/" ^ file))
              got)
        (Golden_cases.exports case))
    Golden_cases.cases

let test_metrics_golden () = check_goldens ~suffix:"_report.json"

let test_trace_golden () = check_goldens ~suffix:"_trace.json"

(* Acceptance shape: one complete event per engine task, attributed to
   strategy, site (pid) and phase. *)
let test_trace_attribution () =
  let _, m = bl_run () in
  let doc = Run_report.chrome_trace [ m ] in
  let events =
    match Option.(Json.member "traceEvents" doc |> map Json.to_list |> join) with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents"
  in
  let completes =
    List.filter
      (fun e -> Option.(Json.member "ph" e |> map Json.to_str |> join) = Some "X")
      events
  in
  let n_tasks =
    List.length (Msdq_simkit.Trace.entries m.Strategy.trace)
    + List.length m.Strategy.host_spans
  in
  Alcotest.(check int) "one complete event per task and host span" n_tasks
    (List.length completes);
  let sim_events =
    List.filter
      (fun e ->
        Option.(Json.member "pid" e |> map Json.to_int |> join)
        <> Some Msdq_obs.Tracer.host_pid)
      completes
  in
  Alcotest.(check bool) "simulated events exist" true (sim_events <> []);
  List.iter
    (fun e ->
      let arg k =
        Option.(
          Json.member "args" e |> map (Json.member k) |> join |> map Json.to_str
          |> join)
      in
      Alcotest.(check (option string)) "strategy attributed" (Some "BL")
        (arg "strategy");
      match Option.(Json.member "name" e |> map Json.to_str |> join) with
      | Some "answer" -> () (* the fence carries no phase *)
      | _ ->
        Alcotest.(check bool) "phase is O, P or I" true
          (match arg "phase" with
          | Some ("O" | "P" | "I") -> true
          | _ -> false))
    sim_events

let test_utilization_renders () =
  let _, m = bl_run () in
  let s = Format.asprintf "%a" Run_report.pp_utilization m in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the global site" true (contains "global" s);
  Alcotest.(check bool) "has the phase columns" true
    (contains "O" s && contains "P" s && contains "I" s)

let test_figure_json () =
  let fig = Figures.fig10 ~samples:2 ~seed:7 () in
  let j = Run_report.figure_to_json fig in
  Alcotest.(check (option string)) "id" (Some "fig10")
    Option.(Json.member "id" j |> map Json.to_str |> join);
  let series =
    match Option.(Json.member "series" j |> map Json.to_list |> join) with
    | Some s -> s
    | None -> Alcotest.fail "no series"
  in
  Alcotest.(check int) "CA, BL, PL" 3 (List.length series);
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrips" true (j = j')
  | Error msg -> Alcotest.fail msg

let parallel_section =
  {
    Run_report.jobs = 4;
    grid_points = 21;
    seq_s = 1.2;
    par_s = 0.4;
    speedup = 3.0;
  }

let fault_sweep_section =
  {
    Fault_sweep.id = "fault-sweep";
    title = "robustness";
    xlabel = "site availability";
    xs = [| 0.8; 1.0 |];
    samples = 2;
    seed = 1;
    series =
      [
        {
          Fault_sweep.label = "BL";
          responses = [| 0.2; 0.1 |];
          recalls = [| 0.9; 1.0 |];
        };
        {
          Fault_sweep.label = "fail-stop";
          responses = [| 0.2; 0.1 |];
          recalls = [| 0.0; 1.0 |];
        };
      ];
  }

let recovery_sweep_section =
  {
    Fault_sweep.rid = "recovery-sweep";
    rtitle = "recovery";
    rxlabel = "site availability";
    rxs = [| 0.8; 1.0 |];
    rsamples = 2;
    rseed = 1;
    rseries =
      [
        {
          Fault_sweep.r_label = "BL+retry";
          r_responses = [| 0.2; 0.1 |];
          r_recalls = [| 0.8; 0.9 |];
          r_demoted = [| 1.5; 0.5 |];
        };
        {
          Fault_sweep.r_label = "BL+failover";
          r_responses = [| 0.2; 0.1 |];
          r_recalls = [| 0.95; 1.0 |];
          r_demoted = [| 0.5; 0.0 |];
        };
      ];
  }

let serve_sweep_section =
  {
    Serve_sweep.id = "serve-sweep";
    title = "serve";
    xlabel = "cache capacity (KiB)";
    xs = [| 0.0; 16.0 |];
    windows_us = [| 0.0; 500.0 |];
    queries = 6;
    samples = 2;
    seed = 1;
    series =
      [
        {
          Serve_sweep.label = "BL w=0us";
          strategy = "BL";
          window_us = 0.0;
          throughputs = [| 120.0; 150.0 |];
          speedups = [| 1.0; 1.25 |];
          hits = [| 0.0; 2.5 |];
        };
      ];
  }

let parallel_json =
  Json.Obj
    [
      ("jobs", Json.Int 4);
      ("grid_points", Json.Int 21);
      ("seq_s", Json.Float 1.2);
      ("par_s", Json.Float 0.4);
      ("speedup", Json.Float 3.0);
    ]

let latency_section =
  [
    ( "BL",
      {
        Msdq_simkit.Stats.n = 8;
        mean_us = 5000.0;
        p50_us = 4000.0;
        p90_us = 9000.0;
        p99_us = 9500.0;
        max_us = 9800.0;
      } );
  ]

let auto_sweep_section =
  {
    Auto_sweep.id = "auto-sweep";
    title = "AUTO vs fixed strategies";
    queries = 8;
    distinct = 4;
    seed = 1;
    spacing_us = 20_000.0;
    fixed =
      [
        { Auto_sweep.f_strategy = Strategy.Ca; f_makespan_s = 0.30 };
        { Auto_sweep.f_strategy = Strategy.Bl; f_makespan_s = 0.25 };
        { Auto_sweep.f_strategy = Strategy.Pl; f_makespan_s = 0.28 };
      ];
    auto_makespan_s = 0.24;
    decisions = [ ("CA", 2); ("BL", 4); ("PL", 2) ];
    switches = 0;
    rank_matches = 4;
    rank_match_rate = 1.0;
  }

let overload_sweep_section =
  let point policy multiplier p99 =
    {
      Overload_sweep.pt_policy = policy;
      pt_multiplier = multiplier;
      pt_offered = 8;
      pt_admitted = 6;
      pt_shed = 2;
      pt_goodput = 5.0;
      pt_deadline_hits = 6;
      pt_hit_rate = 1.0;
      pt_p50_ms = p99 /. 2.0;
      pt_p99_ms = p99;
      pt_demoted_rows = 0;
      pt_abandoned_checks = 0;
    }
  in
  let row policy p99s =
    List.map2 (fun m p -> point policy m p) [ 0.5; 1.0; 2.0; 3.0 ] p99s
  in
  {
    Overload_sweep.id = "overload-sweep";
    title = "Goodput and tail latency vs offered load and shed policy";
    seed = 1;
    queries = 8;
    queue_limit = 2;
    solo_response_ms = 10.0;
    deadline_ms = 18.0;
    multipliers = [| 0.5; 1.0; 2.0; 3.0 |];
    policies = [ "naive"; "reject-newest"; "reject-oldest"; "degrade" ];
    points =
      row "naive" [ 10.0; 10.0; 15.0; 30.0 ]
      @ row "reject-newest" [ 10.0; 10.0; 18.0; 19.0 ]
      @ row "reject-oldest" [ 10.0; 10.0; 12.0; 10.0 ]
      @ row "degrade" [ 10.0; 12.0; 40.0; 50.0 ];
    cap_p99_ms = 10.0;
  }

let gray_sweep_section =
  let point policy kind severity ~demoted ~mean =
    {
      Gray_sweep.pt_policy = policy;
      pt_kind = kind;
      pt_severity = severity;
      pt_queries = 8;
      pt_demoted_rows = demoted;
      pt_abandoned_checks = demoted;
      pt_mean_ms = mean;
      pt_p99_ms = mean *. 2.0;
      pt_gray_sites = 3;
    }
  in
  let cells policy ~demoted ~mean =
    List.concat_map
      (fun kind ->
        List.map
          (fun sev -> point policy kind sev ~demoted ~mean)
          Gray_sweep.severities)
      Gray_sweep.kinds
  in
  {
    Gray_sweep.id = "gray-sweep";
    title = "Static vs adaptive retry timeouts across gray-failure kinds";
    seed = 1;
    queries = 8;
    drop = 0.15;
    static_timeout_ms = 4.0;
    kinds = Gray_sweep.kinds;
    severities = Gray_sweep.severities;
    policies = Gray_sweep.policies;
    points =
      cells Gray_sweep.static_policy ~demoted:4 ~mean:20.0
      @ cells Gray_sweep.adaptive_policy ~demoted:4 ~mean:15.0;
  }

let microbench_section =
  {
    Run_report.mb_objects = 20_000;
    mb_boxed_eval = 1.0e6;
    mb_columnar_eval = 1.2e7;
    mb_eval_speedup = 12.0;
    mb_boxed_sig = 2.0e7;
    mb_bitset_sig = 6.0e7;
    mb_sig_speedup = 3.0;
    mb_certify_rows = 500;
    mb_certify_rows_per_s = 4.0e5;
  }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let sweep id =
  match Sweep.find id with
  | Some s -> s
  | None -> Alcotest.failf "no sweep %s in the registry" id

let sweeps_json =
  [
    (sweep "fault-sweep", Fault_sweep.to_json fault_sweep_section);
    (sweep "recovery-sweep", Fault_sweep.recovery_to_json recovery_sweep_section);
    (sweep "serve-sweep", Serve_sweep.to_json serve_sweep_section);
    (sweep "auto-sweep", Auto_sweep.to_json auto_sweep_section);
    (sweep "overload-sweep", Overload_sweep.to_json overload_sweep_section);
    (sweep "gray-sweep", Gray_sweep.to_json gray_sweep_section);
  ]

let bench ?(parallel = parallel_section) ?(latency = latency_section)
    ?(microbench = microbench_section) ?(strategies = [ ("BL", 0.1, 0.05) ])
    () =
  Run_report.bench_to_json ~generated_at:"2026-01-01T00:00:00Z" ~seed:1996
    ~parallel ~sweeps:sweeps_json ~latency ~microbench ~strategies
    ~wall:[ ("msdq/parse-q1", 2500.0) ]

let good = bench ()
let obj_map f = function Json.Obj l -> Json.Obj (f l) | j -> j
let without key = obj_map (List.filter (fun (k, _) -> k <> key))

let replace key v =
  obj_map (List.map (fun (k, old) -> if String.equal k key then (k, v) else (k, old)))

let with_schema s = replace "schema" (Json.Str s)

(* Rewrites one field of the [index]th entry of array [key] of section
   [section] — how the tests plant a bad value a generator never emits. *)
let poke ~section ~key ?(index = 0) ~field v doc =
  let sec = Option.get (Json.member section doc) in
  let entries = Option.get Option.(Json.member key sec |> map Json.to_list |> join) in
  let entries =
    List.mapi (fun i e -> if i = index then replace field v e else e) entries
  in
  replace section (replace key (Json.Arr entries) sec) doc

let accept name j =
  match Run_report.validate_bench j with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s rejected: %s" name msg

let reject name j =
  match Run_report.validate_bench j with
  | Ok () -> Alcotest.failf "%s accepted" name
  | Error _ -> ()

let test_bench_validation () =
  accept "valid document" good;
  reject "empty object" (Json.Obj []);
  reject "wrong schema" (with_schema "msdq-bench/999" good);
  reject "empty strategies" (bench ~strategies:[] ());
  reject "negative time" (bench ~strategies:[ ("BL", -1.0, 0.05) ] ());
  (* Schemas /1 through /5 are rejected: no committed baseline uses them.
     The rejection names every accepted id. *)
  List.iter
    (fun v ->
      let schema = Printf.sprintf "msdq-bench/%d" v in
      match Run_report.validate_bench (with_schema schema good) with
      | Ok () -> Alcotest.failf "%s accepted" schema
      | Error msg ->
        List.iter
          (fun id ->
            Alcotest.(check bool)
              (Printf.sprintf "%s rejection names %s" schema id)
              true
              (contains ~sub:id msg))
          Run_report.bench_schemas)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list string))
    "accepted schemas"
    [
      "msdq-bench/6"; "msdq-bench/7"; "msdq-bench/8"; "msdq-bench/9";
      "msdq-bench/10";
    ]
    Run_report.bench_schemas;
  (* Every section is demanded from the version that introduced it on:
     the oldest accepted schema already requires everything up to /6. *)
  let v6 = with_schema "msdq-bench/6" good in
  accept "/6 document" v6;
  List.iter
    (fun key -> reject ("/6 without " ^ key) (without key v6))
    [
      "seed"; "parallel"; "fault_sweep"; "recovery_sweep"; "serve_sweep";
      "latency";
    ];
  (* A section newer than the declared schema is optional. *)
  accept "/6 without auto_sweep" (without "auto_sweep" v6);
  accept "/7 without overload_sweep"
    (with_schema "msdq-bench/7" (without "overload_sweep" good));
  accept "/9 without microbench"
    (with_schema "msdq-bench/9" (without "microbench" good));
  reject "/7 without auto_sweep" (without "auto_sweep" good);
  reject "/8 without overload_sweep" (without "overload_sweep" good);
  reject "/9 without gray_sweep" (without "gray_sweep" good);
  reject "/10 without microbench" (without "microbench" good);
  reject "non-positive microbench speedup"
    (bench ~microbench:{ microbench_section with Run_report.mb_eval_speedup = 0.0 } ());
  reject "microbench without objects"
    (bench ~microbench:{ microbench_section with Run_report.mb_objects = 0 } ());
  reject "parallel jobs < 1"
    (bench ~parallel:{ parallel_section with Run_report.jobs = 0 } ());
  reject "negative speedup"
    (bench ~parallel:{ parallel_section with Run_report.speedup = -2.0 } ())

(* One sweep section swapped for another rendering of the same sweep. *)
let with_sweep id json = replace (sweep id).Sweep.section json good

let test_sweep_validation () =
  let fault series =
    with_sweep "fault-sweep"
      (Fault_sweep.to_json { fault_sweep_section with Fault_sweep.series })
  in
  let fail_stop =
    { Fault_sweep.label = "fail-stop"; responses = [| 0.1; 0.1 |]; recalls = [| 0.0; 0.0 |] }
  in
  reject "empty fault_sweep series" (fault []);
  reject "recall above 1"
    (fault
       [
         { Fault_sweep.label = "BL"; responses = [| 0.1; 0.1 |]; recalls = [| 1.5; 1.0 |] };
         fail_stop;
       ]);
  reject "series length mismatch"
    (fault
       [ { Fault_sweep.label = "BL"; responses = [| 0.1 |]; recalls = [| 1.0 |] }; fail_stop ]);
  reject "fault sweep without fail-stop"
    (fault
       [ { Fault_sweep.label = "BL"; responses = [| 0.1; 0.1 |]; recalls = [| 1.0; 1.0 |] } ]);
  reject "recall below fail-stop"
    (fault
       [
         { Fault_sweep.label = "BL"; responses = [| 0.1; 0.1 |]; recalls = [| 0.5; 1.0 |] };
         { fail_stop with Fault_sweep.recalls = [| 0.6; 0.0 |] };
       ]);
  let recovery rseries =
    with_sweep "recovery-sweep"
      (Fault_sweep.recovery_to_json
         { recovery_sweep_section with Fault_sweep.rseries })
  in
  let rserie ?(responses = [| 0.1; 0.1 |]) ?(recalls = [| 1.0; 1.0 |])
      ?(demoted = [| 0.0; 0.0 |]) () =
    {
      Fault_sweep.r_label = "BL+failover";
      r_responses = responses;
      r_recalls = recalls;
      r_demoted = demoted;
    }
  in
  reject "empty recovery_sweep series" (recovery []);
  reject "recovery recall above 1" (recovery [ rserie ~recalls:[| 1.5; 1.0 |] () ]);
  reject "negative demoted mean" (recovery [ rserie ~demoted:[| -1.0; 0.0 |] () ]);
  reject "recovery series length mismatch"
    (recovery
       [ rserie ~responses:[| 0.1 |] ~recalls:[| 1.0 |] ~demoted:[| 0.0 |] () ]);
  let serve series =
    with_sweep "serve-sweep"
      (Serve_sweep.to_json { serve_sweep_section with Serve_sweep.series })
  in
  let sserie throughputs speedups hits =
    {
      Serve_sweep.label = "BL w=0us";
      strategy = "BL";
      window_us = 0.0;
      throughputs;
      speedups;
      hits;
    }
  in
  reject "empty serve_sweep series" (serve []);
  reject "negative throughput"
    (serve [ sserie [| -1.0; 1.0 |] [| 1.0; 1.0 |] [| 0.0; 0.0 |] ]);
  reject "negative speedup mean"
    (serve [ sserie [| 1.0; 1.0 |] [| 1.0; -0.5 |] [| 0.0; 0.0 |] ]);
  reject "serve series length mismatch"
    (serve [ sserie [| 1.0 |] [| 1.0 |] [| 0.0 |] ]);
  reject "serve speedup ends below cold start"
    (serve [ sserie [| 1.0; 1.0 |] [| 1.0; 0.5 |] [| 0.0; 0.0 |] ]);
  let auto a = with_sweep "auto-sweep" (Auto_sweep.to_json a) in
  (* The win condition is enforced: AUTO slower than the best fixed
     strategy fails validation; a tie passes. *)
  reject "auto_sweep regression"
    (auto { auto_sweep_section with Auto_sweep.auto_makespan_s = 0.26 });
  accept "AUTO tie with best fixed"
    (auto { auto_sweep_section with Auto_sweep.auto_makespan_s = 0.25 });
  reject "auto_sweep empty fixed"
    (auto { auto_sweep_section with Auto_sweep.fixed = [] });
  reject "auto_sweep rank rate above 1"
    (auto { auto_sweep_section with Auto_sweep.rank_match_rate = 1.5 });
  reject "auto_sweep negative switches"
    (auto { auto_sweep_section with Auto_sweep.switches = -1 });
  let overload o = with_sweep "overload-sweep" (Overload_sweep.to_json o) in
  let set_p99 policy multiplier p99 o =
    {
      o with
      Overload_sweep.points =
        List.map
          (fun (p : Overload_sweep.point) ->
            if
              String.equal p.Overload_sweep.pt_policy policy
              && p.Overload_sweep.pt_multiplier = multiplier
            then { p with Overload_sweep.pt_p99_ms = p99 }
            else p)
          o.Overload_sweep.points;
    }
  in
  (* A rejecting policy's p99 escaping twice the at-capacity p99 at an
     overloaded point is the regression the section exists to catch. *)
  reject "overload tail-bound regression"
    (overload (set_p99 "reject-newest" 3.0 25.0 overload_sweep_section));
  reject "overload naive p99 drops under load"
    (overload (set_p99 "naive" 2.0 5.0 overload_sweep_section));
  reject "overload sweep never overloaded"
    (overload (set_p99 "naive" 3.0 15.0 overload_sweep_section));
  reject "overload nonpositive cap_p99"
    (overload { overload_sweep_section with Overload_sweep.cap_p99_ms = 0.0 });
  (* degrade admits everything and is reported but exempt from the tail
     bound. *)
  accept "degrade row beyond the bound"
    (overload (set_p99 "degrade" 3.0 500.0 overload_sweep_section));
  let gray points =
    with_sweep "gray-sweep"
      (Gray_sweep.to_json { gray_sweep_section with Gray_sweep.points })
  in
  let set ~policy ~kind ~severity f =
    List.map
      (fun (p : Gray_sweep.point) ->
        if
          String.equal p.Gray_sweep.pt_policy policy
          && String.equal p.Gray_sweep.pt_kind kind
          && String.equal p.Gray_sweep.pt_severity severity
        then f p
        else p)
      gray_sweep_section.Gray_sweep.points
  in
  reject "gray: adaptive demotes more than static"
    (gray
       (set ~policy:"adaptive" ~kind:"jitter" ~severity:"mild" (fun p ->
            { p with Gray_sweep.pt_demoted_rows = 5 })));
  reject "gray: slowdown margin missed"
    (gray
       (set ~policy:"adaptive" ~kind:"slowdown" ~severity:"severe" (fun p ->
            { p with Gray_sweep.pt_mean_ms = 19.5 })));
  accept "gray: non-slowdown cell needs no margin"
    (gray
       (set ~policy:"adaptive" ~kind:"flap" ~severity:"severe" (fun p ->
            { p with Gray_sweep.pt_mean_ms = 20.0 })));
  reject "gray: cell missing an arm"
    (gray
       (List.filter
          (fun (p : Gray_sweep.point) ->
            not
              (String.equal p.Gray_sweep.pt_policy "static"
              && String.equal p.Gray_sweep.pt_kind "oneway"))
          gray_sweep_section.Gray_sweep.points));
  reject "gray: empty points" (gray [])

(* Every number must be a JSON number, fault and recovery responses must
   be non-negative, and a latency summary's max may not undercut its
   p99. *)
let test_validator_gaps () =
  let poke_series section field v =
    poke ~section ~key:"series" ~field (Json.Arr [ v; Json.Float 1.0 ]) good
  in
  reject "non-numeric fault recall"
    (poke_series "fault_sweep" "recalls" (Json.Str "oops"));
  reject "non-numeric recovery recall"
    (poke_series "recovery_sweep" "recalls" (Json.Str "oops"));
  reject "non-numeric recovery demoted"
    (poke_series "recovery_sweep" "demoted" Json.Null);
  reject "null serve throughput"
    (poke_series "serve_sweep" "throughputs" Json.Null);
  reject "negative fault response"
    (poke_series "fault_sweep" "responses_s" (Json.Float (-5.0)));
  reject "negative recovery response"
    (poke_series "recovery_sweep" "responses_s" (Json.Float (-5.0)));
  let summary ~p99 ~max =
    {
      Msdq_simkit.Stats.n = 8;
      mean_us = 5000.0;
      p50_us = 4000.0;
      p90_us = 9000.0;
      p99_us = p99;
      max_us = max;
    }
  in
  reject "latency max below p99"
    (bench ~latency:[ ("BL", summary ~p99:9500.0 ~max:9000.0) ] ());
  accept "latency max equal to p99"
    (bench ~latency:[ ("BL", summary ~p99:9500.0 ~max:9500.0) ] ())

let test_latency_validation () =
  let summary n p50 p90 p99 =
    {
      Msdq_simkit.Stats.n;
      mean_us = p50;
      p50_us = p50;
      p90_us = p90;
      p99_us = p99;
      max_us = p99;
    }
  in
  let with_latency latency = bench ~latency () in
  reject "empty latency section" (with_latency []);
  reject "negative latency quantile"
    (with_latency [ ("BL", summary 4 (-1.0) 2.0 3.0) ]);
  reject "non-monotone latency quantiles"
    (with_latency [ ("BL", summary 4 5.0 2.0 3.0) ]);
  (* An all-zero summary from an empty sample is fine. *)
  accept "empty-sample latency summary"
    (with_latency [ ("BL", summary 0 0.0 0.0 0.0) ])

let suite =
  [
    Alcotest.test_case "metrics golden" `Quick test_metrics_golden;
    Alcotest.test_case "trace golden" `Quick test_trace_golden;
    Alcotest.test_case "trace attribution" `Quick test_trace_attribution;
    Alcotest.test_case "utilization table" `Quick test_utilization_renders;
    Alcotest.test_case "figure json" `Quick test_figure_json;
    Alcotest.test_case "bench validation" `Quick test_bench_validation;
    Alcotest.test_case "sweep section validation" `Quick test_sweep_validation;
    Alcotest.test_case "validator gaps" `Quick test_validator_gaps;
    Alcotest.test_case "latency validation" `Quick test_latency_validation;
  ]
