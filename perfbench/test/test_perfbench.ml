(* Unit tests for the benchmark's own pieces: the tail-percentile rule,
   span self-time accounting, the host-speed scale, seeded input generation
   and the SQL the query_scan workload sends. *)

open Perfbench
module Tracer = Msdq_obs.Tracer
module Rng = Msdq_workload.Rng
module Ast = Msdq_query.Ast
module Parser = Msdq_query.Parser

let test_highest_tail () =
  let check n want =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n = %d" n) want
      (Samples.highest_tail ~n)
  in
  check 19 None;
  check 20 (Some 0.5);
  check 199 (Some 0.9);
  check 200 (Some 0.95);
  check 999 (Some 0.95);
  check 1000 (Some 0.99);
  check 10_000 (Some 0.999);
  Alcotest.(check int) "ten beyond p95 of 200" 10 (Samples.beyond ~n:200 0.95)

let test_percentile () =
  let xs = List.init 200 (fun i -> float_of_int (200 - i)) in
  Alcotest.(check (float 0.0)) "median" 100.0 (Samples.median xs);
  Alcotest.(check (float 0.0)) "p95, nearest rank" 190.0 (Samples.p95 xs);
  Alcotest.check_raises "p95 refuses 199 samples"
    (Failure "p95 needs at least 200 samples, got 199") (fun () ->
      ignore (Samples.p95 (List.tl xs)))

let span ?(depth = true) name ~ts ~dur ~d =
  {
    Tracer.name;
    cat = "host";
    pid = Tracer.host_pid;
    tid = 0;
    ts_us = ts;
    dur_us = dur;
    args = (if depth then [ ("depth", string_of_int d) ] else []);
  }

let test_self_times () =
  (* root [0,100] holds a [10,40] and b [50,90]; a holds c [15,25]; a
     second root of the same name [200,210] has no children. The list is
     in recording order: children end, and are recorded, first. *)
  let spans =
    [
      span "c" ~ts:15.0 ~dur:10.0 ~d:2;
      span "a" ~ts:10.0 ~dur:30.0 ~d:1;
      span "b" ~ts:50.0 ~dur:40.0 ~d:1;
      span "root" ~ts:0.0 ~dur:100.0 ~d:0;
      span "root" ~ts:200.0 ~dur:10.0 ~d:0;
      span ~depth:false "event" ~ts:60.0 ~dur:0.0 ~d:0;
    ]
  in
  let totals = Spans.self_times spans in
  let self name = (Spans.find totals name).Spans.self_us in
  Alcotest.(check (float 1e-9)) "root: 100 - 30 - 40, plus 10" 40.0 (self "root");
  Alcotest.(check (float 1e-9)) "a: 30 - 10" 20.0 (self "a");
  Alcotest.(check (float 1e-9)) "b: a leaf" 40.0 (self "b");
  Alcotest.(check (float 1e-9)) "c: a leaf" 10.0 (self "c");
  Alcotest.(check int) "root ran twice" 2 (Spans.find totals "root").Spans.calls;
  Alcotest.(check bool) "events without depth are skipped" false
    (List.mem_assoc "event" totals);
  let sum = List.fold_left (fun a (_, t) -> a +. t.Spans.self_us) 0.0 totals in
  Alcotest.(check (float 1e-9)) "self times add up to the roots" 110.0 sum

let test_self_times_same_start () =
  (* A child starting on the parent's first microsecond still belongs to
     it; a sibling starting as the previous one ends does not nest. *)
  let spans =
    [
      span "x" ~ts:0.0 ~dur:5.0 ~d:1;
      span "y" ~ts:5.0 ~dur:5.0 ~d:1;
      span "p" ~ts:0.0 ~dur:12.0 ~d:0;
    ]
  in
  let totals = Spans.self_times spans in
  let self name = (Spans.find totals name).Spans.self_us in
  Alcotest.(check (float 1e-9)) "p" 2.0 (self "p");
  Alcotest.(check (float 1e-9)) "x" 5.0 (self "x");
  Alcotest.(check (float 1e-9)) "y" 5.0 (self "y")

let test_host_scale () =
  let h = Host.create ~every_s:1e9 () in
  Host.sample h;
  Host.sample h;
  Alcotest.(check int) "one kernel run per interval" 1 (List.length h.Host.samples);
  h.Host.samples <- [ 0.01; 0.03; 0.02 ];
  Alcotest.(check (float 1e-12)) "reference over the mean kernel time" 0.5 (Host.scale h);
  Alcotest.check_raises "no kernel run, no scale"
    (Invalid_argument "Host.kernel_s: the kernel never ran") (fun () ->
      ignore (Host.scale (Host.create ())))

let cfg seed = Inputs.federation_config ~seed ~entities:50 ~p_copy:0.4

let pool seed =
  List.map Ast.to_string (Inputs.query_pool (Rng.create ~seed) (cfg seed) ~n:40)

let test_zipf () =
  let cdf = Inputs.zipf_cdf ~n:8 ~s:1.1 in
  let draw seed =
    let rng = Rng.create ~seed in
    List.init 2000 (fun _ -> Inputs.zipf_draw rng cdf)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 7) (draw 7);
  Alcotest.(check bool) "another seed, another stream" false (draw 7 = draw 8);
  let counts = Array.make 8 0 in
  List.iter (fun k -> counts.(k) <- counts.(k) + 1) (draw 7);
  Alcotest.(check bool) "rank 0 is the most frequent" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool) "every rank drawn" true (Array.for_all (fun c -> c > 0) counts);
  Alcotest.(check (float 1e-12)) "cdf ends at 1" 1.0 cdf.(7)

let test_pool () =
  Alcotest.(check (list string)) "same seed, same pool" (pool 3) (pool 3);
  Alcotest.(check int) "distinct queries" 40
    (List.length (List.sort_uniq String.compare (pool 3)));
  Alcotest.(check (list int)) "child seeds are seeded"
    (Inputs.child_seeds ~seed:5 ~n:4) (Inputs.child_seeds ~seed:5 ~n:4)

let test_sql_round_trip () =
  List.iter
    (fun sql ->
      Alcotest.(check string) sql sql (Ast.to_string (Parser.parse sql)))
    (pool 3 @ pool 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "samples",
        [
          Alcotest.test_case "highest tail percentile" `Quick test_highest_tail;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested and sibling self times" `Quick test_self_times;
          Alcotest.test_case "shared start instants" `Quick test_self_times_same_start;
        ] );
      ("host", [ Alcotest.test_case "speed scale" `Quick test_host_scale ]);
      ( "inputs",
        [
          Alcotest.test_case "seeded zipf" `Quick test_zipf;
          Alcotest.test_case "seeded query pool" `Quick test_pool;
          Alcotest.test_case "generated SQL round-trips" `Quick test_sql_round_trip;
        ] );
    ]
