(* paper_figures: the paper's reproduction itself — the figures of
   Figures.all at 500 draws per point, the only workload that loads the
   parametric simulator (lib/opt Param_sim) and lib/par. *)

open Msdq_exec
open Common
module Rng = Msdq_workload.Rng
module Params = Msdq_workload.Params
module Figures = Msdq_exp.Figures
module Shapes = Msdq_exp.Shapes
module Param_sim = Msdq_opt.Param_sim
module Pool = Msdq_par.Pool

let samples = 500

(* (draw x strategy) simulations behind one Figures.all. *)
let simulations figs =
  List.fold_left
    (fun a (f : Figures.figure) ->
      a + (List.length f.Figures.series * Array.length f.Figures.xs * samples))
    0 figs

let figures ?pool seed = Figures.all ?pool ~samples ~seed ()

(* The figures Figures.all makes, one call each: the units a timed run
   repeats and times. *)
let sweeps =
  [|
    Figures.fig9;
    Figures.fig10;
    Figures.fig11;
    Figures.ablation_signatures;
    Figures.ablation_checks;
    Figures.ablation_semijoin;
  |]

(* 1 when a figure fails: its shape check does not hold, or its output
   differs from [first]. *)
let check ~first fig =
  if Shapes.all_hold (Shapes.check fig) && Marshal.to_string fig [] = first then 0 else 1

(* Simulated response times of the seed's Table 2 draws under the paper's
   three strategies, each simulated on its own: the distribution the
   figures average. *)
let draw_strategies = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

let draws seed =
  let rng = Rng.create ~seed in
  List.init samples (fun i -> Params.sample (Rng.split_ix rng ~i) Params.default)

let simulate_all ds =
  List.concat_map
    (fun st ->
      List.map (fun d -> Param_sim.simulate ~cost:Cost.default st d) ds)
    draw_strategies

(* The timed run sweeps on a single-job pool, which runs every point in the
   calling domain: on a host that lends the benchmark two cores, a second
   domain measures the scheduler and the neighbours rather than the sweep.
   The traced run measures the pool of [nproc] jobs against the sequential
   sweep. *)
let run ~seed ~seconds ~trace =
  let jobs = if trace then Domain.recommended_domain_count () else 1 in
  let made, setup = setup ~parts:1 (fun _ -> (Pool.create ~jobs (), draws seed)) in
  let pool, ds = made.(0) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  if not trace then begin
    let n = Array.length sweeps in
    let attempted = ref 0 and failed = ref 0 in
    let sims = Array.make n 0 and allocs = Array.make n infinity in
    let first = Array.make n "" in
    (* The mean repetition after the first gives the rate, as for the
       other workloads. *)
    let rep_s =
      repeated ~seconds ~min_reps:3 ~units:n ~setup (fun _ i ->
          let w0 = words () in
          let fig, dt = time (fun () -> sweeps.(i) ~pool ~samples ~seed ()) in
          allocs.(i) <- Float.min allocs.(i) (words () -. w0);
          sims.(i) <- simulations [ fig ];
          if first.(i) = "" then first.(i) <- Marshal.to_string fig [];
          incr attempted;
          failed := !failed + guarded ~n:1 (fun () -> check ~first:first.(i) fig);
          dt)
    in
    let total = Array.fold_left ( + ) 0 sims in
    let response =
      List.map (fun t -> Msdq_simkit.Time.to_ms t.Param_sim.response) (simulate_all ds)
    in
    {
      attempted = !attempted;
      failed = !failed;
      metrics =
        host_metrics ~setup ~queries:total ~seconds:rep_s
        @ [
          ("alloc_words_per_query", per total (Array.fold_left ( +. ) 0.0 allocs), "words");
          ("peak_heap_mb", peak_heap_mb (), "MB");
          ("sim_latency_ms_p50", Samples.median response, "ms");
          ("sim_latency_ms_p95", Samples.p95 response, "ms");
          ("draws_per_s", float_of_int total /. (rep_s *. Host.scale host), "1/s");
          ("failed_share", per !attempted (float_of_int !failed), "ratio");
        ];
    }
  end
  else begin
    (* The same sweep sequentially and on the pool: the speedup, and the
       pool's output must be byte-identical to the sequential one. *)
    let seq, seq_s = time (fun () -> figures seed) in
    let par, par_s = time (fun () -> figures ~pool seed) in
    let n = List.length seq in
    let failed =
      guarded ~n (fun () ->
          List.fold_left2 (fun a s p -> a + check ~first:(Marshal.to_string s []) p) 0 seq par)
    in
    let gc = gc_count () in
    let draws = List.length ds * List.length draw_strategies in
    let _, sim_s = counted gc (fun () -> time (fun () -> simulate_all ds)) in
    let per_draw_us = per draws (sim_s *. 1e6) in
    let wall_ms = per (simulations seq) (seq_s *. 1e3) in
    {
      attempted = n;
      failed;
      metrics =
        gc_metrics gc ~n:draws
        @ [
            ("opt.param_sim_us_per_draw", per_draw_us, "us");
            ("par.jobs", float_of_int (Pool.jobs pool), "count");
            ("par.speedup", seq_s /. par_s, "ratio");
            ("trace.wall_ms_per_query", wall_ms, "ms");
            ("unattributed.self_ms", wall_ms -. (per_draw_us /. 1e3), "ms");
          ];
    }
  end
