(* The runs pinned byte for byte under test/golden/: every strategy on the
   paper's Q1, BL with deep certification, and one fallible PL run under a
   fixed crash plus lossy-link schedule with failover and hedging on. Each
   case writes [<name>_report.json] and [<name>_trace.json]. Shared by the
   golden tests and the generator (test/gen_golden.ml). *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_exp
module Json = Msdq_obs.Json
module Fault = Strategy.Fault

type case = { name : string; strategy : Strategy.t; options : Strategy.options }

(* Site 2 is down from 8 ms to 40 ms, across Q1's check round trips; the
   link into the global site loses 30% of its transfers and the link into
   site 3 loses 35% and is inflated and jittered. Under this seed the run
   retries, abandons two check requests, opens a breaker, fails one batch
   over to a replica (which itself retries) and arms a hedge timer. *)
let fallible_schedule =
  {
    Fault.seed = 3;
    slowdowns = [];
    partitions = [];
    sites =
      [ { Fault.site = 2; outages = [ { Fault.down = Time.ms 8.0; up = Time.ms 40.0 } ] } ];
    links =
      [
        { Fault.dst = 0; drop = 0.3; inflate = 1.0; jitter = 0.0 };
        { Fault.dst = 3; drop = 0.35; inflate = 1.5; jitter = 0.2 };
      ];
  }

let cases =
  List.map
    (fun s ->
      {
        name = String.lowercase_ascii (Strategy.to_string s) ^ "_q1";
        strategy = s;
        options = Strategy.default_options;
      })
    Strategy.all
  @ [
      {
        name = "bl_deep_q1";
        strategy = Strategy.Bl;
        options = { Strategy.default_options with Strategy.deep_certify = true };
      };
      {
        name = "pl_fault_q1";
        strategy = Strategy.Pl;
        options =
          {
            Strategy.default_options with
            Strategy.fault = fallible_schedule;
            recovery = Strategy.Recovery.hedged (Time.ms 0.5);
          };
      };
    ]

let run case =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  Strategy.run ~options:case.options case.strategy fed analysis

(* [(file name, contents)] for both exports of one case. Host spans carry
   wall-clock timestamps, so the trace export runs without them. *)
let exports case =
  let answer, m = run case in
  let sim_only = { m with Strategy.host_spans = [] } in
  [
    ( case.name ^ "_report.json",
      Json.to_string ~indent:2 (Run_report.run_to_json answer m) ^ "\n" );
    ( case.name ^ "_trace.json",
      Json.to_string ~indent:2 (Run_report.chrome_trace [ sim_only ]) ^ "\n" );
  ]
