(* query_scan: a closed loop with one client over distinct random
   conjunctive queries, each sent as SQL text through parse, analyze and
   Strategy.run — the path of `msdq query` and of every sweep. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Common
module Rng = Msdq_workload.Rng

(* The queries spread over [feds] independent federations: with a single
   one, which attributes its databases drop swings host cost by about 15%
   from seed to seed. *)
let feds = 12

(* Distinct queries per federation. Simulated figures are taken over the
   whole pool, so it bounds their sample count (at least 200 for p95); the
   loop cycles through it while time remains. *)
let per_fed = 34

let pool_size = feds * per_fed

(* Query [i] goes to federation [i mod 12] and runs strategy
   [rotation.(i mod 5)]; as 5 and 12 are coprime, every federation sees
   every strategy. *)
let rotation = [| Strategy.Ca; Strategy.Bl; Strategy.Pl; Strategy.Bls; Strategy.Pls |]

let strategy i = rotation.(i mod Array.length rotation)

type fed = { fed : Federation.t; schema : Msdq_odb.Schema.t }

type input = { feds : fed array; sql : string array }

let fed_of inp i = inp.feds.(i mod feds)

(* One federation and its queries' SQL text: a part of the set-up. *)
let make_fed seeds k =
  let fed, schema, queries =
    Inputs.federation_and_queries ~seed:seeds.(k) ~entities:1000 ~p_copy:0.4 ~n:per_fed
  in
  ({ fed; schema }, Array.of_list (List.map Ast.to_string queries))

let inputs seed =
  let seeds = Array.of_list (Inputs.child_seeds ~seed ~n:feds) in
  let made, s = setup ~parts:feds (make_fed seeds) in
  ( {
      feds = Array.map fst made;
      sql = Array.init pool_size (fun i -> (snd made.(i mod feds)).(i / feds));
    },
    s )

(* One client request. *)
let query inp i =
  let f = fed_of inp i in
  let analysis = Analysis.analyze f.schema (Parser.parse inp.sql.(i)) in
  Strategy.run (strategy i) f.fed analysis

(* Untimed reference: BL's answer to every pool query. *)
let reference inp =
  Array.mapi
    (fun i sql ->
      let f = fed_of inp i in
      fst (Strategy.run Strategy.Bl f.fed (Analysis.analyze f.schema (Parser.parse sql))))
    inp.sql

(* BL = PL by statuses, BLS = BL, PLS = PL, and CA subsumes BL; the SQL text
   must also survive a parse/print round trip. *)
let check inp bl i answer =
  let sql = inp.sql.(i) in
  let round_trip = Ast.to_string (Parser.parse sql) = sql in
  let ok =
    match strategy i with
    | Strategy.Ca -> Answer.subsumes ~strong:answer ~weak:bl.(i)
    | _ -> Answer.same_statuses answer bl.(i)
  in
  round_trip && ok

let run ~seed ~seconds ~trace =
  let inp, setup = inputs seed in
  let bl = reference inp in
  let attempted = ref 0 and failed = ref 0 in
  let record i answer =
    incr attempted;
    match check inp bl i answer with
    | true -> ()
    | false -> incr failed
    | exception e ->
      prerr_endline ("check raised: " ^ Printexc.to_string e);
      incr failed
  in
  if not trace then begin
    let lat = ref [] in
    (* Simulated figures and allocation repeat exactly on every pass over
       the pool; the first pass gives them. The rate takes the mean pass
       after the first. *)
    let first_pass = Array.make pool_size None in
    let rep_s =
      repeated ~seconds ~min_reps:3 ~units:pool_size ~setup (fun rep i ->
          let w0 = words () in
          let t0 = now () in
          let answer, m = query inp i in
          let dt = now () -. t0 in
          let w1 = words () in
          lat := dt :: !lat;
          record i answer;
          if rep = 0 then
            first_pass.(i) <- Some (Time.to_ms m.Strategy.response, m.Strategy.messages, w1 -. w0);
          dt)
    in
    let sims = Array.to_list (Array.map Option.get first_pass) in
    let response = List.map (fun (r, _, _) -> r) sims in
    let messages = List.fold_left (fun a (_, m, _) -> a + m) 0 sims in
    let allocated = List.fold_left (fun a (_, _, w) -> a +. w) 0.0 sims in
    (* Per-query host latencies, scaled to the reference host like the
       rate. *)
    let k = Host.scale host in
    let ms = List.map (fun s -> s *. 1e3 *. k) !lat in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        host_metrics ~setup ~queries:pool_size ~seconds:rep_s
        @ [
          ("alloc_words_per_query", per pool_size allocated, "words");
          ("peak_heap_mb", peak_heap_mb (), "MB");
          ("sim_latency_ms_p50", Samples.median response, "ms");
          ("sim_latency_ms_p95", Samples.p95 response, "ms");
          ("query_ms_p50", Samples.median ms, "ms");
          ("query_ms_p95", Samples.p95 ms, "ms");
          ("sim_messages_per_query", per pool_size (float_of_int messages), "count");
          ("failed_share", per !attempted (float_of_int !failed), "ratio");
        ];
    }
  end
  else begin
    (* Each query runs untraced, for the overhead ratio, and traced:
       parse, analyze and Strategy.run timed around the calls, localize
       timed on its own outside the wall, and the host spans every
       Strategy.run records harvested. *)
    let untraced = ref 0.0 in
    let parse = ref 0.0 and analyze = ref 0.0 and localize = ref 0.0 in
    let run_s = ref 0.0 and wall = ref 0.0 in
    let spans = ref [] in
    let messages = ref 0 and requests = ref 0 and filtered = ref 0 in
    let sig_attempted = ref 0 and sig_filtered = ref 0 in
    let lookups = ref 0 and entries = ref 0 in
    let gc = gc_count () in
    for i = 0 to pool_size - 1 do
      let untraced_pass () =
        let answer, dt = time (fun () -> counted gc (fun () -> fst (query inp i))) in
        untraced := !untraced +. dt;
        record i answer
      in
      (* Whichever pass runs second finds the query's data warm, so
         the order alternates. *)
      if i mod 2 = 0 then untraced_pass ();
      let f = fed_of inp i in
      let t0, t1, t2, t3, analysis, (answer, m) =
        counted gc (fun () ->
            let t0 = now () in
            let ast = Parser.parse inp.sql.(i) in
            let t1 = now () in
            let analysis = Analysis.analyze f.schema ast in
            let t2 = now () in
            let r = Strategy.run (strategy i) f.fed analysis in
            (t0, t1, t2, now (), analysis, r))
      in
      if i mod 2 = 1 then untraced_pass ();
      localize := !localize +. snd (time (fun () -> Localize.plan f.fed analysis));
      parse := !parse +. (t1 -. t0);
      analyze := !analyze +. (t2 -. t1);
      run_s := !run_s +. (t3 -. t2);
      wall := !wall +. (t3 -. t0);
      spans := m.Strategy.host_spans :: !spans;
      messages := !messages + m.Strategy.messages;
      requests := !requests + m.Strategy.check_requests;
      filtered := !filtered + m.Strategy.checks_filtered;
      (match strategy i with
      | Strategy.Bls | Strategy.Pls ->
        sig_attempted := !sig_attempted + m.Strategy.check_requests + m.Strategy.checks_filtered;
        sig_filtered := !sig_filtered + m.Strategy.checks_filtered
      | _ -> ());
      lookups := !lookups + m.Strategy.goid_lookups;
      entries := !entries + List.length (Trace.entries m.Strategy.trace);
      record i answer
    done;
    let n = pool_size in
    let ms x = per n (x *. 1e3) and us x = per n (x *. 1e6) in
    (* Each run's spans nest on their own and runs do not overlap in time,
       so self times over their concatenation are the per-run sums. *)
    let all_spans = List.concat !spans in
    let totals = Spans.self_times all_spans in
    let builds = Spans.sum_where totals (String.starts_with ~prefix:"build:") in
    let spanned =
      span_layers ~queries:n totals
      @ [ ("simkit.engine_ms", ms !run_s -. per n (builds.Spans.total_us /. 1e3), "ms") ]
    in
    let attributed =
      List.fold_left (fun a (_, v, u) -> if u = "ms" then a +. v else a) 0.0 spanned
      +. ms !parse +. ms !analyze
    in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        spanned @ gc_metrics gc ~n:(2 * pool_size)
        @ [
            ("query.parse_us", us !parse, "us");
            ("query.analyze_us", us !analyze, "us");
            ("query.localize_us", us !localize, "us");
            ("exec.check_requests_per_query", per n (float_of_int !requests), "count");
            ("exec.checks_filtered_per_query", per n (float_of_int !filtered), "count");
            ( "exec.sig_filter_useful_ratio",
              per !sig_attempted (float_of_int !sig_filtered),
              "ratio" );
            ("fed.goid_lookups_per_query", per n (float_of_int !lookups), "count");
            ("simkit.trace_entries_per_query", per n (float_of_int !entries), "count");
            ("simkit.messages_per_query", per n (float_of_int !messages), "count");
            ("obs.host_spans_per_query", per n (float_of_int (List.length all_spans)), "count");
            ( "obs.tracing_overhead_ratio",
              !wall /. !untraced,
              "ratio" );
            ("trace.wall_ms_per_query", ms !wall, "ms");
            ("unattributed.self_ms", ms !wall -. attributed, "ms");
          ];
    }
  end
