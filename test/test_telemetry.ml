(* The telemetry layer: critical-path analysis, the persistent statistics
   store (EWMA merge, versioned JSON), the OpenMetrics exporter and the
   serve dashboard — plus the Stats/Metrics empty-sample guards they lean
   on. *)

module Time = Msdq_simkit.Time
module Trace = Msdq_simkit.Trace
module Stats = Msdq_simkit.Stats
module Resource = Msdq_simkit.Resource
module Metrics = Msdq_obs.Metrics
module Cp = Msdq_telemetry.Critical_path
module Store = Msdq_telemetry.Store
module Openmetrics = Msdq_telemetry.Openmetrics
module Dashboard = Msdq_telemetry.Dashboard
open Msdq_fed
open Msdq_query
open Msdq_exec

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---- Stats and Metrics guards ---- *)

let test_stats_empty_guards () =
  let s = Stats.summarize [] in
  Alcotest.(check bool) "empty summary" true (s = Stats.empty_summary);
  List.iter
    (fun v ->
      Alcotest.(check bool) "no NaN on empty samples" false (Float.is_nan v))
    [ s.Stats.mean_us; s.Stats.p50_us; s.Stats.p90_us; s.Stats.p99_us; s.Stats.max_us ];
  Alcotest.(check (float 0.)) "mean of []" 0.0 (Stats.mean []);
  Alcotest.(check (float 0.)) "percentile of []" 0.0 (Stats.percentile [] 0.5);
  let s = Stats.summarize [ 5.0; 1.0; 3.0 ] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean_us;
  Alcotest.(check (float 0.)) "p50" 3.0 s.Stats.p50_us;
  Alcotest.(check (float 0.)) "max" 5.0 s.Stats.max_us

let test_metrics_quantile_guards () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.0; 10.0 |] "msdq_t" in
  Alcotest.(check (float 0.)) "empty quantile" 0.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 0.)) "empty max" 0.0 (Metrics.histogram_max h);
  List.iter (Metrics.observe h) [ 2.0; 4.0; 50.0 ];
  Alcotest.(check (float 0.)) "max tracks observations" 50.0
    (Metrics.histogram_max h);
  let q99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "q99 bounded by max" true (q99 <= 50.0 +. 1e-9);
  Alcotest.(check bool) "q99 above lower buckets" true (q99 > 10.0)

(* ---- Critical path ---- *)

let entry ?(attrs = []) ?(deps = []) tid label site kind start finish =
  {
    Trace.tid;
    label;
    site;
    kind;
    start = Time.us start;
    finish = Time.us finish;
    deps;
    attrs;
  }

(* A hand-built four-hop chain with one off-path decoy branch:

     t1 read  (site 0, disk, O)   0 .. 10
     t2 eval  (site 0, cpu,  O)  10 .. 14   deps [1]
     t3 ship  (site 1, link, P)  20 .. 50   deps [2]   (6 us wait)
     t5 decoy (site 2, disk)      0 ..  5
     t4 integ (site 1, cpu,  I)  50 .. 60   deps [3; 5]

   The gating predecessor of t4 is t3 (latest finish among its deps), so
   the path is t1-t2-t3-t4; the sums below are computed by hand. *)
let test_critical_path_hand () =
  let entries =
    [
      entry 1 "read" (Some 0) (Some Resource.Disk) 0.0 10.0
        ~attrs:[ ("phase", "O") ];
      entry 2 "eval" (Some 0) (Some Resource.Cpu) 10.0 14.0 ~deps:[ 1 ]
        ~attrs:[ ("phase", "O") ];
      entry 5 "decoy" (Some 2) (Some Resource.Disk) 0.0 5.0;
      entry 3 "ship" (Some 1) (Some Resource.Link) 20.0 50.0 ~deps:[ 2 ]
        ~attrs:[ ("phase", "P") ];
      entry 4 "integrate" (Some 1) (Some Resource.Cpu) 50.0 60.0
        ~deps:[ 3; 5 ] ~attrs:[ ("phase", "I") ];
    ]
  in
  let r = Cp.analyze entries in
  Alcotest.(check (float 1e-9)) "response" 60.0 r.Cp.response_us;
  Alcotest.(check (list int)) "path tids" [ 1; 2; 3; 4 ]
    (List.map (fun h -> h.Cp.tid) r.Cp.path);
  Alcotest.(check (float 1e-9)) "path sums to response" r.Cp.response_us
    (Cp.total_us r);
  let waits = List.map (fun h -> h.Cp.wait_us) r.Cp.path in
  Alcotest.(check (list (float 1e-9))) "per-hop waits" [ 0.0; 0.0; 6.0; 0.0 ]
    waits;
  (* on-path busy time: site 1 carries 40 of the 54 us, the link 30 *)
  Alcotest.(check (option int)) "dominant site" (Some 1) r.Cp.dominant_site;
  Alcotest.(check bool) "dominant kind is the link" true
    (r.Cp.dominant_kind = Some Resource.Link);
  Alcotest.(check (option string)) "dominant phase" (Some "P")
    r.Cp.dominant_phase;
  Alcotest.(check bool) "empty trace" true (Cp.analyze [] = Cp.empty);
  (* the rendering and JSON export stay total *)
  let s = Format.asprintf "%a" Cp.pp r in
  Alcotest.(check bool) "pp names the dominant site" true
    (contains ~needle:"dominant site: 1" s);
  match Cp.to_json r with
  | Msdq_obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "to_json should be an object"

let demo_run () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let ast =
    match Parser.parse_result Paper_example.q1 with
    | Ok ast -> ast
    | Error msg -> Alcotest.failf "demo query does not parse: %s" msg
  in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  (fed, Analysis.analyze schema ast)

let test_critical_path_demo () =
  let fed, analysis = demo_run () in
  let _, metrics = Strategy.run Strategy.Bl fed analysis in
  let entries = Trace.entries metrics.Strategy.trace in
  Alcotest.(check bool) "trace recorded" true (entries <> []);
  let r = Cp.analyze entries in
  let response =
    List.fold_left
      (fun acc (e : Trace.entry) -> Float.max acc (Time.to_us e.Trace.finish))
      0.0 entries
  in
  Alcotest.(check (float 1e-6)) "response is the last finish" response
    r.Cp.response_us;
  Alcotest.(check (float 1e-6)) "path sums to response" r.Cp.response_us
    (Cp.total_us r);
  Alcotest.(check bool) "path non-empty" true (r.Cp.path <> []);
  Alcotest.(check bool) "a dominant site is named" true
    (r.Cp.dominant_site <> None);
  Alcotest.(check bool) "a dominant resource is named" true
    (r.Cp.dominant_kind <> None)

(* ---- Store ---- *)

let k ?(db = "*") ?(site = 0) ?(link = 0) strategy =
  { Store.db; site; link; strategy }

let sample w lat drop hit dem =
  {
    Store.weight = w;
    check_latency_us = lat;
    drop_rate = drop;
    cache_hit_rate = hit;
    demotions = dem;
  }

let test_store_observe_and_roundtrip () =
  let s = Store.create () in
  Store.observe s (k "BL") (sample 1.0 100.0 0.0 0.5 1.0);
  Store.observe s (k "BL") (sample 3.0 200.0 0.1 0.5 0.0);
  Store.record_run s;
  (match Store.find s (k "BL") with
  | None -> Alcotest.fail "observed key missing"
  | Some v ->
    Alcotest.(check (float 1e-9)) "weights add" 4.0 v.Store.weight;
    Alcotest.(check (float 1e-9)) "weighted mean latency" 175.0
      v.Store.check_latency_us;
    Alcotest.(check (float 1e-9)) "weighted mean drop" 0.075 v.Store.drop_rate);
  let txt = Store.to_string s in
  Alcotest.(check bool) "schema stamped" true
    (contains ~needle:Store.schema txt);
  (match Store.of_string txt with
  | Error msg -> Alcotest.failf "roundtrip parse: %s" msg
  | Ok s' ->
    Alcotest.(check string) "byte-stable roundtrip" txt (Store.to_string s');
    Alcotest.(check int) "runs survive" 1 (Store.runs s'));
  (match Store.load "/nonexistent/msdq-store.json" with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ());
  match Store.of_string "{\"schema\": \"msdq-telemetry/999\"}" with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ()

let test_store_ewma_decay () =
  (* alpha = 0.5: the past keeps half its weight at every merge, so fresh
     data dominates an equally-weighted past. *)
  let old_ = Store.create ~alpha:0.5 () in
  Store.observe old_ (k "BL") (sample 2.0 100.0 0.0 0.0 0.0);
  Store.record_run old_;
  let fresh = Store.create ~alpha:0.5 () in
  Store.observe fresh (k "BL") (sample 2.0 400.0 0.0 0.0 0.0);
  Store.record_run fresh;
  let merged = Store.merge old_ fresh in
  Alcotest.(check int) "runs add" 2 (Store.runs merged);
  (match Store.find merged (k "BL") with
  | None -> Alcotest.fail "merged key missing"
  | Some v ->
    (* (0.5*2*100 + 2*400) / (0.5*2 + 2) = 900 / 3 *)
    Alcotest.(check (float 1e-9)) "decayed mean" 300.0 v.Store.check_latency_us;
    Alcotest.(check (float 1e-9)) "decayed weight" 3.0 v.Store.weight);
  (* entries present on one side only are kept verbatim *)
  let one_sided = Store.create ~alpha:0.5 () in
  Store.observe one_sided (k "PL") (sample 1.0 50.0 0.0 0.0 0.0);
  let merged = Store.merge merged one_sided in
  match Store.find merged (k "PL") with
  | Some v ->
    Alcotest.(check (float 1e-9)) "one-sided kept verbatim" 50.0
      v.Store.check_latency_us
  | None -> Alcotest.fail "one-sided entry lost"

(* Generator for qcheck properties: stores built from a short list of
   well-behaved entries (dyadic floats, so equality is exact). *)
let arb_store ~alpha =
  let open QCheck in
  let entry =
    quad
      (oneofl [ "*"; "school"; "dbx" ])
      (pair small_nat (int_bound 3))
      (oneofl [ "CA"; "BL"; "PL" ])
      (quad (int_range 1 8) small_nat (int_bound 4) (int_bound 4))
  in
  let build entries =
    let s = Store.create ~alpha () in
    List.iter
      (fun (db, (site, link), strategy, (w, lat, drop4, hit4)) ->
        Store.observe s
          { Store.db; site; link; strategy }
          (sample (float_of_int w)
             (float_of_int lat)
             (float_of_int drop4 /. 4.0)
             (float_of_int hit4 /. 4.0)
             (float_of_int (w mod 3))))
      entries;
    Store.record_run s;
    s
  in
  map build (list_of_size Gen.(1 -- 6) entry)

let prop_store_save_load_merge_identity =
  QCheck.Test.make ~count:60 ~name:"store save -> load -> merge id is byte-stable"
    (arb_store ~alpha:0.7) (fun s ->
      let txt = Store.to_string s in
      let path = Filename.temp_file "msdq_store" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Store.save s path;
      match Store.load path with
      | Error msg -> QCheck.Test.fail_reportf "load failed: %s" msg
      | Ok loaded ->
        String.equal txt (Store.to_string loaded)
        && String.equal txt
             (Store.to_string (Store.merge loaded (Store.create ~alpha:0.7 ()))))

let prop_store_merge_order_insensitive =
  QCheck.Test.make ~count:60
    ~name:"alpha=1 merge is order-insensitive"
    QCheck.(pair (arb_store ~alpha:1.0) (arb_store ~alpha:1.0))
    (fun (a, b) ->
      String.equal
        (Store.to_string (Store.merge ~alpha:1.0 a b))
        (Store.to_string (Store.merge ~alpha:1.0 b a)))

(* ---- OpenMetrics ---- *)

let test_openmetrics_escape () =
  Alcotest.(check string) "backslash, quote, newline" "a\\\"b\\\\c\\nd"
    (Openmetrics.escape "a\"b\\c\nd");
  Alcotest.(check string) "clean strings untouched" "plain"
    (Openmetrics.escape "plain")

let test_openmetrics_render () =
  let reg = Metrics.create () in
  Metrics.inc
    (Metrics.counter reg ~labels:[ ("q", "say \"hi\"\n") ] "msdq_x_total")
    3;
  Metrics.set (Metrics.gauge reg "msdq_g") 1.5;
  let h =
    Metrics.histogram reg
      ~labels:[ ("strategy", "BL") ]
      ~buckets:[| 1.0; 10.0 |] "msdq_lat_us"
  in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  let store = Store.create () in
  Store.observe store (k "BL") (sample 2.0 120.0 0.05 0.75 0.5);
  Store.record_run store;
  let txt = Openmetrics.render ~store reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains ~needle txt))
    [
      "# TYPE msdq_x_total counter";
      "msdq_x_total{q=\"say \\\"hi\\\"\\n\"} 3";
      "# TYPE msdq_g gauge";
      "# TYPE msdq_lat_us histogram";
      "msdq_lat_us_bucket{strategy=\"BL\",le=\"1\"} 1";
      "msdq_lat_us_bucket{strategy=\"BL\",le=\"+Inf\"} 3";
      "msdq_lat_us_count{strategy=\"BL\"} 3";
      "msdq_store_runs 1";
      "msdq_store_check_latency_us";
      "strategy=\"BL\"";
    ];
  Alcotest.(check bool) "terminated by EOF" true
    (let tail = "# EOF\n" in
     String.length txt >= String.length tail
     && String.sub txt (String.length txt - String.length tail) (String.length tail)
        = tail);
  (* rendering an empty registry is still a well-formed exposition *)
  let empty = Openmetrics.render (Metrics.create ()) in
  Alcotest.(check bool) "empty registry renders EOF" true
    (contains ~needle:"# EOF" empty)

(* ---- Dashboard ---- *)

let test_dashboard_render () =
  let frame =
    {
      Dashboard.now_us = 120000.0;
      admitted = 8;
      completed = 5;
      total = 8;
      extent_hits = 6;
      extent_lookups = 8;
      verdict_hits = 9;
      verdict_lookups = 12;
      breakers_open = 0;
      messages = 14;
      shed = 2;
      deadline_demotions = 3;
      gray_slow_legs = 4;
      gray_fallbacks = 1;
      latency = Stats.summarize [ 9000.0; 11000.0; 8000.0; 9500.0; 10000.0 ];
      per_strategy = [ ("BL", 8, 5) ];
    }
  in
  let s = Dashboard.render frame in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains ~needle s))
    [
      "8 admitted"; "5/8 completed"; "75%"; "(6/8)"; "14 messages";
      "2 shed"; "3 deadline demotions"; "4 slow legs"; "1 CA fallbacks"; "BL";
    ];
  (* every line of the box pads to the same display width *)
  let display_width line =
    (* count UTF-8 code points, not bytes: the rules are drawn with
       multi-byte box characters *)
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) line;
    !n
  in
  let widths =
    List.filter_map
      (fun line -> if line = "" then None else Some (display_width line))
      (String.split_on_char '\n' s)
  in
  (match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: rest ->
    List.iter (fun w' -> Alcotest.(check int) "aligned box" w w') rest);
  (* an all-zero frame must render without division blowups *)
  let zero =
    {
      Dashboard.now_us = 0.0;
      admitted = 0;
      completed = 0;
      total = 0;
      extent_hits = 0;
      extent_lookups = 0;
      verdict_hits = 0;
      verdict_lookups = 0;
      breakers_open = 0;
      messages = 0;
      shed = 0;
      deadline_demotions = 0;
      gray_slow_legs = 0;
      gray_fallbacks = 0;
      latency = Stats.empty_summary;
      per_strategy = [];
    }
  in
  Alcotest.(check bool) "zero frame renders" true
    (String.length (Dashboard.render zero) > 0);
  Alcotest.(check bool) "clear is an ANSI sequence" true
    (String.length Dashboard.clear > 0 && Dashboard.clear.[0] = '\027')

(* ---- Serve integration: persistence across runs ---- *)

let serve_outcome () =
  let module Serve = Msdq_serve.Serve in
  let fed, analysis = demo_run () in
  let jobs =
    List.init 4 (fun i ->
        {
          Serve.strategy = Strategy.Bl;
          analysis;
          arrival = Time.us (float_of_int i *. 20000.0);
          deadline = None;
        })
  in
  Serve.run Serve.default_config fed jobs

(* Every serve series names its strategy and phase, link series included:
   per-query messages, and coalesced ones whose contributors share a
   strategy. Streams mixing strategies without a window, and one strategy
   under a window that coalesces across queries. *)
let test_serve_series_labelled () =
  let module Serve = Msdq_serve.Serve in
  let fed, analysis = demo_run () in
  let cfg window =
    {
      Serve.default_config with
      Serve.options = { Strategy.default_options with Strategy.telemetry = true };
      cache_bytes = 0;
      window;
    }
  in
  let job i strategy =
    {
      Serve.strategy;
      analysis;
      arrival = Time.us (float_of_int i *. 100.0);
      deadline = None;
    }
  in
  List.iter
    (fun (what, window, strategies) ->
      let out = Serve.run (cfg window) fed (List.mapi job strategies) in
      if Time.compare window Time.zero > 0 then
        Alcotest.(check bool) (what ^ ": checks coalesced") true
          (out.Serve.coalesced_checks > 0);
      let series = Metrics.histograms out.Serve.registry in
      Alcotest.(check bool) (what ^ ": link series recorded") true
        (List.exists
           (fun (_, labels, _) -> List.assoc_opt "resource" labels = Some "link")
           series);
      List.iter
        (fun (name, labels, _) ->
          List.iter
            (fun key ->
              if List.assoc_opt key labels = Some "-" then
                Alcotest.failf "%s: %s{%s} has %s=\"-\"" what name
                  (String.concat ","
                     (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
                  key)
            [ "strategy"; "phase" ])
        series)
    [
      ( "mixed, no window",
        Time.zero,
        [ Strategy.Bl; Strategy.Pl; Strategy.Ca; Strategy.Bls; Strategy.Lo ] );
      ("BL, 50 ms window", Time.ms 50.0, [ Strategy.Bl; Strategy.Bl; Strategy.Bl ]);
    ]

let test_store_persists_across_serve_runs () =
  let module Exp = Msdq_exp.Run_report in
  let path = Filename.temp_file "msdq_store_runs" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* first msdq serve --store run: fresh store, saved *)
  let first = Store.create ~alpha:1.0 () in
  Exp.record_serve_stats ~store:first (serve_outcome ());
  Store.save first path;
  (* second run: load, merge the fresh statistics, save again *)
  let fresh = Store.create ~alpha:1.0 () in
  Exp.record_serve_stats ~store:fresh (serve_outcome ());
  let merged =
    match Store.load path with
    | Ok old_ -> Store.merge ~alpha:1.0 old_ fresh
    | Error msg -> Alcotest.failf "reload failed: %s" msg
  in
  Store.save merged path;
  Alcotest.(check int) "two runs aggregated" 2 (Store.runs merged);
  let key = k "BL" in
  match (Store.find first key, Store.find merged key) with
  | Some a, Some b ->
    (* the workload is deterministic, so at alpha=1 the merged weight is
       exactly doubled and the means are unchanged *)
    Alcotest.(check (float 1e-9)) "weight doubles" (2.0 *. a.Store.weight)
      b.Store.weight;
    Alcotest.(check (float 1e-6)) "mean latency unchanged"
      a.Store.check_latency_us b.Store.check_latency_us;
    Alcotest.(check (float 1e-9)) "hit rate unchanged" a.Store.cache_hit_rate
      b.Store.cache_hit_rate
  | _ -> Alcotest.fail "BL entry missing from the store"

let suite =
  [
    Alcotest.test_case "stats empty-sample guards" `Quick test_stats_empty_guards;
    Alcotest.test_case "metrics quantile guards" `Quick
      test_metrics_quantile_guards;
    Alcotest.test_case "critical path (hand-computed)" `Quick
      test_critical_path_hand;
    Alcotest.test_case "critical path (demo query)" `Quick
      test_critical_path_demo;
    Alcotest.test_case "store observe + roundtrip" `Quick
      test_store_observe_and_roundtrip;
    Alcotest.test_case "store EWMA decay" `Quick test_store_ewma_decay;
    QCheck_alcotest.to_alcotest prop_store_save_load_merge_identity;
    QCheck_alcotest.to_alcotest prop_store_merge_order_insensitive;
    Alcotest.test_case "openmetrics escaping" `Quick test_openmetrics_escape;
    Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics_render;
    Alcotest.test_case "dashboard rendering" `Quick test_dashboard_render;
    Alcotest.test_case "store persists across serve runs" `Quick
      test_store_persists_across_serve_runs;
    Alcotest.test_case "serve series are labelled" `Quick
      test_serve_series_labelled;
  ]
