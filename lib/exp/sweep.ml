module Json = Msdq_obs.Json

type ctx = {
  pool : Msdq_par.Pool.t option;
  registry : Msdq_obs.Metrics.t option;
  progress : (figure:string -> completed:int -> total:int -> unit) option;
  samples : int option;
  seed : int;
  drop : float option;
  inflate : float option;
}

type outcome = {
  json : Json.t;
  pp : Format.formatter -> unit;
  csv : string option;
}

type t = {
  id : string;
  section : string;
  since : int;
  smoke_samples : int option;
  bare_json : bool;
  run : ctx -> outcome;
  check : Json.t -> (unit, string) result;
  win : (Json.t -> (string, string) result) option;
  keys : string list;
  measures : Json.t -> Bench_doc.measure list;
  summary : string;
}

let make ~id ~section ~since ?smoke_samples ?(bare_json = false) ~run ~to_json
    ~pp ?to_csv ~check ?win ~keys ~measures ~summary () =
  let run ctx =
    let o = run ctx in
    {
      json = to_json o;
      pp = (fun ppf -> pp ppf o);
      csv = Option.map (fun f -> f o) to_csv;
    }
  in
  { id; section; since; smoke_samples; bare_json; run; check; win; keys; measures; summary }

let samples c ~default = Option.value c.samples ~default

let registry =
  [
    make ~id:"fault-sweep" ~section:"fault_sweep" ~since:3 ~smoke_samples:3
      ~run:(fun c ->
        Fault_sweep.run ?pool:c.pool ?registry:c.registry ?progress:c.progress
          ~samples:(samples c ~default:12) ~seed:c.seed ?drop:c.drop
          ?inflate:c.inflate ())
      ~to_json:Fault_sweep.to_json ~pp:Fault_sweep.pp ~to_csv:Fault_sweep.to_csv
      ~check:Fault_sweep.check ~win:Fault_sweep.win ~keys:[ "seed"; "samples" ]
      ~measures:Fault_sweep.measures ~summary:"mean responses" ();
    make ~id:"recovery-sweep" ~section:"recovery_sweep" ~since:4
      ~smoke_samples:2
      ~run:(fun c ->
        Fault_sweep.run_recovery ?pool:c.pool ?registry:c.registry
          ?progress:c.progress ~samples:(samples c ~default:8) ~seed:c.seed
          ?drop:c.drop ?inflate:c.inflate ())
      ~to_json:Fault_sweep.recovery_to_json ~pp:Fault_sweep.pp_recovery
      ~to_csv:Fault_sweep.recovery_to_csv ~check:Fault_sweep.recovery_check
      ~keys:[ "seed"; "samples" ] ~measures:Fault_sweep.recovery_measures
      ~summary:"mean responses" ();
    make ~id:"serve-sweep" ~section:"serve_sweep" ~since:5 ~smoke_samples:2
      ~bare_json:true
      ~run:(fun c ->
        Serve_sweep.run ?pool:c.pool ?registry:c.registry ?progress:c.progress
          ~samples:(samples c ~default:6) ~seed:c.seed ())
      ~to_json:Serve_sweep.to_json ~pp:Serve_sweep.pp ~check:Serve_sweep.check
      ~win:Serve_sweep.win ~keys:[ "seed"; "samples"; "queries" ]
      ~measures:Serve_sweep.measures ~summary:"mean throughputs" ();
    make ~id:"auto-sweep" ~section:"auto_sweep" ~since:7
      ~run:(fun c ->
        Auto_sweep.run ?registry:c.registry ?progress:c.progress ~seed:c.seed ())
      ~to_json:Auto_sweep.to_json ~pp:Auto_sweep.pp ~check:Auto_sweep.check
      ~win:Auto_sweep.win ~keys:[ "seed"; "queries"; "distinct" ]
      ~measures:Auto_sweep.measures
      ~summary:"AUTO makespan and rank-match rate" ();
    make ~id:"overload-sweep" ~section:"overload_sweep" ~since:8
      ~run:(fun c ->
        Overload_sweep.run ?pool:c.pool ?registry:c.registry
          ?progress:c.progress ~seed:c.seed ())
      ~to_json:Overload_sweep.to_json ~pp:Overload_sweep.pp
      ~check:Overload_sweep.check ~win:Overload_sweep.win
      ~keys:[ "seed"; "queries"; "queue_limit" ]
      ~measures:Overload_sweep.measures
      ~summary:"at-capacity p99 and controlled goodput" ();
    make ~id:"gray-sweep" ~section:"gray_sweep" ~since:9
      ~run:(fun c ->
        Gray_sweep.run ?pool:c.pool ?registry:c.registry ?progress:c.progress
          ~seed:c.seed ())
      ~to_json:Gray_sweep.to_json ~pp:Gray_sweep.pp ~check:Gray_sweep.check
      ~win:Gray_sweep.win ~keys:[ "seed"; "queries" ]
      ~measures:Gray_sweep.measures ~summary:"adaptive response" ();
  ]

let find id = List.find_opt (fun s -> String.equal s.id id) registry

let validate s j =
  let ( let* ) = Result.bind in
  let* () = s.check j in
  match s.win with None -> Ok () | Some win -> Result.map ignore (win j)
