(* The repo benchmark: one workload per invocation.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints every figure it measured as "name value unit", then, as its last
   line, one JSON object with the keys correct, attempted, failed and
   metrics. A timed run (--trace 0) puts the end-to-end metrics every
   workload defines into that line; a traced run (--trace 1) the per-layer
   metrics. See perfbench/README.md. *)

open Common

let workloads =
  [
    ("serve_zipf", Serve_work.serve_zipf);
    ("serve_faulty", Serve_work.serve_faulty);
    ("query_scan", Scan_work.run);
    ("paper_figures", Figures_work.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <serve_zipf|serve_faulty|query_scan|paper_figures> \
     --seed <int> --seconds <float> --trace <0|1>";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key conv =
    match Option.bind (List.assoc_opt key args) conv with
    | Some v -> v
    | None -> usage ()
  in
  let workload =
    get "--workload" (fun w -> Option.map (fun f -> (w, f)) (List.assoc_opt w workloads))
  in
  let seed = get "--seed" int_of_string_opt in
  let seconds =
    get "--seconds" (fun s ->
        Option.bind (float_of_string_opt s) (fun x -> if x > 0.0 then Some x else None))
  in
  let trace =
    get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  (workload, seed, seconds, trace)

(* The result line's metrics: exactly [names], in that order. A timed run
   must have measured each; a traced run reads 0 for a layer the workload
   does not load. *)
let select ~trace metrics =
  let find name = List.find_opt (fun (n, _, _) -> n = name) metrics in
  if trace then begin
    List.iter
      (fun (n, _, _) ->
        if not (List.mem_assoc n layer_names) then
          failwith ("traced run measured an unlisted metric: " ^ n))
      metrics;
    List.map
      (fun (name, unit) ->
        match find name with Some m -> m | None -> (name, 0.0, unit))
      layer_names
  end
  else
    List.map
      (fun name ->
        match find name with
        | Some m -> m
        | None -> failwith ("timed run did not measure " ^ name))
      e2e_names

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %g" v)

let () =
  let (name, run), seed, seconds, trace = parse_args () in
  let r = run ~seed ~seconds ~trace in
  Printf.printf "workload %s, seed %d, %s run, nproc %d\n" name seed
    (if trace then "traced" else "timed")
    (Domain.recommended_domain_count ());
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) r.metrics;
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  let selected = select ~trace r.metrics in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         selected)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed metrics
