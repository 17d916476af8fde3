(* The tail-percentile rule for the benchmark's timings and simulated
   latencies. Percentiles themselves are [Msdq_simkit.Stats]'s nearest
   rank. *)

module Stats = Msdq_simkit.Stats

let median samples = Stats.percentile samples 0.5

(* How many of [n] samples lie strictly beyond the nearest-rank [p]
   percentile. *)
let beyond ~n p =
  n - int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

(* The tail percentiles the benchmark may report, highest first. *)
let tail_candidates = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest candidate percentile with at least ten samples beyond it, so
   that a tail figure is never read off a handful of outliers. [None] when
   even the median has fewer than ten samples above it. *)
let highest_tail ~n =
  List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates

(* [p95 samples] with the rule above enforced: the benchmark names its tail
   metrics p95, so a run with fewer than 200 samples is refused rather than
   reported. *)
let p95 samples =
  let n = List.length samples in
  match highest_tail ~n with
  | Some p when p >= 0.95 -> Stats.percentile samples 0.95
  | _ ->
    failwith
      (Printf.sprintf "p95 needs at least 200 samples, got %d" n)
