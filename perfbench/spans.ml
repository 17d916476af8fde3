(* Self-time accounting over host spans recorded by [Msdq_obs.Tracer].

   A span's self time is its duration minus the time its direct children
   cover. [Tracer.with_span] runs on one thread and records each span's
   nesting depth in a ["depth"] argument, so children of one parent never
   overlap and their durations add up to the covered time. *)

module Tracer = Msdq_obs.Tracer

type totals = { calls : int; total_us : float; self_us : float }

let zero = { calls = 0; total_us = 0.0; self_us = 0.0 }

let plus a b =
  { calls = a.calls + b.calls; total_us = a.total_us +. b.total_us; self_us = a.self_us +. b.self_us }

let depth (s : Tracer.span) =
  match List.assoc_opt "depth" s.Tracer.args with
  | Some d -> int_of_string_opt d
  | None -> None

type open_span = { span : Tracer.span; d : int; mutable children_us : float }

(* Per span name: how often it ran, its total duration and its self time.
   Spans without a depth (instant events added with [Tracer.add]) are not
   host work and are skipped. *)
let self_times (spans : Tracer.span list) : (string * totals) list =
  let timed =
    List.filter_map
      (fun s -> Option.map (fun d -> (s, d)) (depth s))
      spans
  in
  let by_start =
    List.stable_sort
      (fun ((a : Tracer.span), da) ((b : Tracer.span), db) ->
        match Float.compare a.Tracer.ts_us b.Tracer.ts_us with
        | 0 -> compare da db
        | c -> c)
      timed
  in
  let acc = Hashtbl.create 16 in
  let close o =
    let prev =
      Option.value ~default:zero (Hashtbl.find_opt acc o.span.Tracer.name)
    in
    Hashtbl.replace acc o.span.Tracer.name
      (plus prev
         {
           calls = 1;
           total_us = o.span.Tracer.dur_us;
           self_us = Float.max 0.0 (o.span.Tracer.dur_us -. o.children_us);
         })
  in
  let rec pop_until d = function
    | o :: rest when o.d >= d ->
      close o;
      pop_until d rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack ((s : Tracer.span), d) ->
        let stack = pop_until d stack in
        (match stack with
        | parent :: _ when parent.d = d - 1 ->
          parent.children_us <- parent.children_us +. s.Tracer.dur_us
        | _ -> ());
        { span = s; d; children_us = 0.0 } :: stack)
      [] by_start
  in
  ignore (pop_until min_int stack);
  Hashtbl.fold (fun name t l -> (name, t) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find totals name = Option.value ~default:zero (List.assoc_opt name totals)

(* Sum over every span name satisfying [pred], e.g. all ["build:<S>"]. *)
let sum_where totals pred =
  List.fold_left (fun a (name, t) -> if pred name then plus a t else a) zero totals
