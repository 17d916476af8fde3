open Msdq_fed
open Msdq_query
open Msdq_workload

let case ?(accept = fun _ _ -> true) seed =
  let rec attempt k =
    if k > 20 then None
    else
      (* Denser than [Synth.default]: every database hosts every class and
         a quarter of the attributes are missing, so local evaluation
         leaves real maybe sets and the strategies actually exercise
         checks, shipping and certification. *)
      let cfg =
        {
          Synth.default with
          Synth.seed = (seed * 37) + k;
          n_entities = 60;
          p_host = 1.0;
          p_attr_present = 0.75;
          p_null = 0.12;
          p_copy = 0.4;
        }
      in
      let fed = Synth.generate cfg in
      let rng = Rng.create ~seed:(seed + (k * 1013)) in
      let query = Synth.random_query rng cfg ~disjunctive:false in
      let schema = Global_schema.schema (Federation.global_schema fed) in
      match Analysis.analyze schema query with
      | analysis when accept fed analysis -> Some (fed, analysis)
      | _ -> attempt (k + 1)
      | exception Analysis.Error _ -> attempt (k + 1)
  in
  attempt 0

let sample_case ~seed ~si =
  case (Rng.int (Rng.split_ix (Rng.create ~seed) ~i:si) ~bound:100_000)

let run ?pool ?registry ?progress ~id ~counter ~log f cells =
  let total = Array.length cells in
  let completed = Atomic.make 0 in
  let feedback = Mutex.create () in
  let run_cell cell =
    let r = f cell in
    let done_now = 1 + Atomic.fetch_and_add completed 1 in
    Mutex.protect feedback (fun () ->
        log cell r ~done_now ~total;
        Option.iter (fun p -> p ~figure:id ~completed:done_now ~total) progress);
    r
  in
  let results =
    match pool with
    | Some pool when Msdq_par.Pool.jobs pool > 1 ->
      Msdq_par.Pool.map_array pool ~f:(fun _ cell -> run_cell cell) cells
    | Some _ | None -> Array.map run_cell cells
  in
  Option.iter
    (fun reg ->
      let module Metrics = Msdq_obs.Metrics in
      Metrics.inc (Metrics.counter reg ~labels:[ ("figure", id) ] counter) total)
    registry;
  results
