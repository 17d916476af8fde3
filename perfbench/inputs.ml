(* Seeded inputs: federations, query pools and Zipf-skewed template draws.
   Everything here is a pure function of the seed, so a run can be replayed
   from its command line. *)

open Msdq_workload
module Ast = Msdq_query.Ast

(* The synthetic federation every concrete workload runs on: 3 databases, a
   3-class chain, every database hosting every class. *)
let federation_config ~seed ~entities ~p_copy =
  {
    Synth.default with
    Synth.seed;
    n_entities = entities;
    p_host = 1.0;
    p_attr_present = 0.75;
    p_null = 0.12;
    p_copy;
  }

(* [n] distinct conjunctive queries from [Synth.random_query] that [valid]
   accepts, deduplicated by their SQL text, in draw order. A generated
   federation may drop an attribute from every database, so
   [federation_and_queries] passes semantic analysis against its schema as
   [valid]. *)
let query_pool ?(valid = fun _ -> true) rng cfg ~n =
  let seen = Hashtbl.create n in
  let rec draw acc k attempts =
    if k = n then List.rev acc
    else if attempts > 100 * n then
      failwith (Printf.sprintf "query_pool: only %d distinct queries" k)
    else
      let q = Synth.random_query rng cfg ~disjunctive:false in
      let sql = Ast.to_string q in
      if Hashtbl.mem seen sql || not (valid q) then draw acc k (attempts + 1)
      else begin
        Hashtbl.add seen sql ();
        draw (q :: acc) (k + 1) (attempts + 1)
      end
  in
  draw [] 0 0

(* A seeded federation, its global schema, and [n] distinct queries over it
   that pass semantic analysis. *)
let federation_and_queries ~seed ~entities ~p_copy ~n =
  let cfg = federation_config ~seed ~entities ~p_copy in
  let fed = Synth.generate cfg in
  let schema = Msdq_fed.(Global_schema.schema (Federation.global_schema fed)) in
  let valid q =
    match Msdq_query.Analysis.analyze schema q with
    | _ -> true
    | exception Msdq_query.Analysis.Error _ -> false
  in
  (fed, schema, query_pool ~valid (Rng.create ~seed) cfg ~n)

(* [n] independent seeds derived from [seed], one per federation a workload
   spreads its queries over. *)
let child_seeds ~seed ~n =
  let rng = Rng.create ~seed in
  List.init n (fun i -> Rng.int (Rng.split_ix rng ~i) ~bound:(1 lsl 30))

(* Cumulative Zipf(s) weights over ranks 0..n-1: rank k has weight
   1 / (k + 1)^s. *)
let zipf_cdf ~n ~s =
  if n < 1 then invalid_arg "zipf_cdf: n < 1";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* One rank drawn by inverse CDF. *)
let zipf_draw rng cdf =
  let u = Rng.float rng in
  let n = Array.length cdf in
  let rec find k = if k >= n - 1 || u < cdf.(k) then k else find (k + 1) in
  find 0
