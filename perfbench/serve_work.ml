(* serve_zipf and serve_faulty: query streams through the workload engine
   (lib/serve), repeated for the measured seconds.

   A run serves one stream on each of several independent federations. One
   small synthetic federation per seed makes host cost swing by 15-20% from
   seed to seed (which attributes it drops decides how much checking every
   query needs); many of them average that out, so the figures reflect the
   code rather than the seed. Each stream is timed on its own and checked
   outside its timing. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Common
module Serve = Msdq_serve.Serve
module Lru = Msdq_serve.Lru
module Tracer = Msdq_obs.Tracer
module Metrics = Msdq_obs.Metrics
module Rng = Msdq_workload.Rng
module Synth = Msdq_workload.Synth
module Planner = Msdq_opt.Planner
module Fault = Msdq_fault.Fault
module Goids = Msdq_odb.Oid.Goid.Set

(* Arrivals are evenly spaced on the simulated clock, one per simulated
   second: below saturation for both serve workloads (about 2 queries per
   simulated second saturate them), so simulated latency does not grow
   with the stream. *)
let arrival i = Time.s (float_of_int i)

type 'job tenant = {
  seed : int;  (** of this federation, its queries and its fault draws *)
  fed : Federation.t;
  pool : Analysis.t array;  (** distinct analyzed queries *)
  draws : int array;  (** pool index of each job *)
  jobs : 'job list;
}

(* A federation of the serve workloads' shape, [pool_size] distinct queries
   over it, and a stream of [queries] jobs drawing from the pool with
   [draw]. *)
let tenant ~pool_size ~queries ~draw ~job seed =
  let fed, schema, asts =
    Inputs.federation_and_queries ~seed ~entities:200 ~p_copy:Synth.default.Synth.p_copy
      ~n:pool_size
  in
  let pool = Array.of_list (List.map (Analysis.analyze schema) asts) in
  let rng = Rng.split_ix (Rng.create ~seed) ~i:0 in
  let draws = Array.init queries (fun _ -> draw rng) in
  { seed; fed; pool; draws; jobs = List.init queries (fun i -> job pool draws.(i) (arrival i)) }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* What a workload plugs into the shared timed and traced runs. ['a] is the
   result of serving one tenant's stream. *)
type ('job, 'a) workload = {
  tenants : 'job tenant array;
  queries : int;  (** per tenant *)
  serve : ?tracer:Tracer.t -> ?trace:bool -> 'job tenant -> 'a;
  outcome : 'a -> Serve.outcome;
  check : int -> 'a -> int;  (** failing reports of tenant [i]'s result *)
  certain : int -> 'a -> int * int;
      (** certain rows served and their fault-free count, for recall *)
  switches : 'a -> int;
}

let total w = Array.length w.tenants * w.queries

(* ------------------------------------------------------------------ *)
(* Timed run *)

(* Every stream is served in turn until the measured seconds are spent,
   each stream timed on its own; host figures take the mean repetition
   after the first. Checks run between streams, outside their timing. Through
   the first repetition every outcome stays alive, so the heap peaks
   holding one outcome per query of a repetition, as one long stream's
   outcome would; later repetitions drop each outcome once it is checked,
   so that a heap grown by the benchmark does not slow them. *)
let timed ~seconds ~setup ~recall w =
  let n = total w in
  let units = Array.length w.tenants in
  let held = Array.make units None in
  let attempted = ref 0 and failed = ref 0 in
  let allocs = Array.make units infinity in
  let lat = ref [] and messages = ref 0 and got = ref 0 and want = ref 0 in
  let rep_s =
    repeated ~seconds ~min_reps:3 ~units ~setup (fun rep i ->
        if rep = 1 && i = 0 then Array.fill held 0 units None;
        let w0 = words () in
        let t0 = now () in
        let r = w.serve w.tenants.(i) in
        let dt = now () -. t0 in
        if rep = 0 then held.(i) <- Some r;
        allocs.(i) <- Float.min allocs.(i) (words () -. w0);
        attempted := !attempted + w.queries;
        failed := !failed + guarded ~n:w.queries (fun () -> w.check i r);
        (* Simulated figures are identical on every repetition. *)
        if rep = 0 then begin
          let o = w.outcome r in
          List.iter
            (fun (q : Serve.query_report) -> lat := Time.to_ms q.Serve.latency :: !lat)
            o.Serve.reports;
          messages := !messages + o.Serve.messages;
          let g, c = w.certain i r in
          got := !got + g;
          want := !want + c
        end;
        dt)
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics =
      host_metrics ~setup ~queries:n ~seconds:rep_s
      @ [
        ("alloc_words_per_query", per n (Array.fold_left ( +. ) 0.0 allocs), "words");
        ("peak_heap_mb", peak_heap_mb (), "MB");
        ("sim_latency_ms_p50", Samples.median !lat, "ms");
        ("sim_latency_ms_p95", Samples.p95 !lat, "ms");
        ("sim_messages_per_query", per n (float_of_int !messages), "count");
      ]
      @ (if recall then [ ("certain_recall", per !want (float_of_int !got), "ratio") ]
         else [])
      @ [ ("failed_share", per !attempted (float_of_int !failed), "ratio") ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Streams whose outcomes are held at once to measure what an outcome
   retains. *)
let retained_tenants = 8

(* Serves every stream untraced and traced, one stream after the other so
   that drift on the host hits both alike; then serves the first
   [retained_tenants] again with their outcomes held across a full major
   collection. *)
let traced w =
  let n = total w in
  let failed = ref 0 in
  let check i r = failed := !failed + guarded ~n:w.queries (fun () -> w.check i r) in
  let gc = gc_count () in
  let serve ?tracer ?trace t = counted gc (fun () -> w.serve ?tracer ?trace t) in
  let tracer = Tracer.create () in
  let untraced_s = ref 0.0 and wall = ref 0.0 in
  let counts = Hashtbl.create 16 in
  let get name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  let add name v = Hashtbl.replace counts name (get name + v) in
  Array.iteri
    (fun i t ->
      let untraced () =
        let r, dt = time (fun () -> serve t) in
        untraced_s := !untraced_s +. dt;
        check i r
      in
      (* Whichever pass runs second finds the stream's data warm, so
         the order alternates. *)
      if i mod 2 = 0 then untraced ();
      let r, dt = time (fun () -> serve ~tracer ~trace:true t) in
      wall := !wall +. dt;
      check i r;
      if i mod 2 = 1 then untraced ();
      let o = w.outcome r in
      let reports f = sum f o.Serve.reports in
      let counter name = Metrics.total o.Serve.registry name in
      add "trace_entries" (List.length o.Serve.trace);
      add "messages" o.Serve.messages;
      add "extent_hits" o.Serve.extent_cache.Lru.hits;
      add "extent_misses" o.Serve.extent_cache.Lru.misses;
      add "extent_evictions" o.Serve.extent_cache.Lru.evictions;
      add "verdict_hits" o.Serve.verdict_cache.Lru.hits;
      add "verdict_misses" o.Serve.verdict_cache.Lru.misses;
      add "coalesced" o.Serve.coalesced_checks;
      add "deadline_demoted" (reports (fun q -> q.Serve.deadline_demoted));
      add "demotions"
        (reports (fun q -> Goids.cardinal (Answer.degraded q.Serve.answer)));
      add "drops" (counter "msdq_fault_drops_total");
      add "retries" (counter "msdq_fault_retries_total");
      add "abandoned" (counter "msdq_checks_abandoned_total");
      add "switches" (w.switches r))
    w.tenants;
  let held_tenants = min retained_tenants (Array.length w.tenants) in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let held = List.init held_tenants (fun i -> w.serve w.tenants.(i)) in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  List.iteri check held;
  let count name = per n (float_of_int (get name)) in
  let ratio hits misses = per (get hits + get misses) (float_of_int (get hits)) in
  let spans = Tracer.spans tracer in
  let totals = Spans.self_times spans in
  let self name = per n ((Spans.find totals name).Spans.self_us /. 1e3) in
  let spanned =
    span_layers ~queries:n totals
    @ [
        ("serve.build_ms", self "serve.build", "ms");
        ("simkit.engine_ms", self "serve.run", "ms");
      ]
  in
  let wall_ms = per n (!wall *. 1e3) in
  {
    attempted = (2 * n) + (held_tenants * w.queries);
    failed = !failed;
    metrics =
      spanned @ gc_metrics gc ~n:(2 * n)
      @ [
          ("simkit.trace_entries_per_query", count "trace_entries", "count");
          ("simkit.messages_per_query", count "messages", "count");
          ("serve.extent_hit_ratio", ratio "extent_hits" "extent_misses", "ratio");
          ("serve.extent_evictions", count "extent_evictions", "count");
          ("serve.verdict_hit_ratio", ratio "verdict_hits" "verdict_misses", "ratio");
          ("serve.coalesced_checks_per_query", count "coalesced", "count");
          ("serve.deadline_demoted_per_query", count "deadline_demoted", "count");
          ( "serve.retained_words_per_query",
            per (held_tenants * w.queries) (float_of_int (live1 - live0)),
            "words" );
          ("fault.drops", count "drops", "count");
          ("fault.retries", count "retries", "count");
          ("fault.abandoned_checks", count "abandoned", "count");
          ("fault.demotions", count "demotions", "count");
          ("opt.switches", count "switches", "count");
          ("obs.host_spans_per_query", per n (float_of_int (List.length spans)), "count");
          ("obs.tracing_overhead_ratio", !wall /. !untraced_s, "ratio");
          ("trace.wall_ms_per_query", wall_ms, "ms");
          ( "unattributed.self_ms",
            wall_ms
            -. List.fold_left (fun a (_, v, u) -> if u = "ms" then a +. v else a) 0.0 spanned,
            "ms" );
        ];
  }

let tenants_of seed ~n make =
  let seeds = Array.of_list (Inputs.child_seeds ~seed ~n) in
  setup ~parts:n (fun k -> make seeds.(k))

(* ------------------------------------------------------------------ *)
(* serve_zipf: repeated templates, caches that fit the working set *)

(* The Zipf mix concentrates each stream on one or two templates, whose
   cost and simulated latency vary by 20% and more from federation to
   federation: with 16 federations the seed-to-seed spread of simulated
   p50 latency and host throughput was about 20%, with 64 about 5%. A
   stream of n queries misses about 7.5 / n of its extent lookups, on each
   template's first use, so 40 queries per stream hit about 82% of the
   time. 40 rather than more keeps a repetition near 3 s, so that the
   measured seconds hold several; the 99% of one long stream would need
   750 queries on each of the 64 federations, 48,000 per repetition. *)
let zipf_tenants = 64
let zipf_queries = 40
let templates = 8
let zipf_s = 1.1
let pinned = [| Strategy.Bl; Strategy.Pl; Strategy.Ca; Strategy.Bls |]
let pinned_of k = pinned.(k mod Array.length pinned)

let zipf_config =
  { Serve.default_config with Serve.cache_bytes = 4 * 1024 * 1024; window = Time.us 500.0 }

let zipf_tenant seed =
  let cdf = Inputs.zipf_cdf ~n:templates ~s:zipf_s in
  tenant seed ~pool_size:templates ~queries:zipf_queries
    ~draw:(fun rng -> Inputs.zipf_draw rng cdf)
    ~job:(fun pool k arrival ->
      { Serve.strategy = pinned_of k; analysis = pool.(k); arrival; deadline = None })

(* Every report must answer exactly as Strategy.run does on its own for the
   same (template, strategy). *)
let zipf_check ts expected i (o : Serve.outcome) =
  zipf_queries - List.length o.Serve.reports
  + sum
      (fun (r : Serve.query_report) ->
        if Serve.answer_fingerprint r.Serve.answer = expected.(i).(ts.(i).draws.(r.Serve.index))
        then 0
        else 1)
      o.Serve.reports

let serve_zipf ~seed ~seconds ~trace =
  let ts, setup = tenants_of seed ~n:zipf_tenants zipf_tenant in
  (* Untimed reference: the single-query answer of every (template,
     strategy). *)
  let expected =
    Array.map
      (fun t ->
        Array.mapi
          (fun k a -> Serve.answer_fingerprint (fst (Strategy.run (pinned_of k) t.fed a)))
          t.pool)
      ts
  in
  let w =
    {
      tenants = ts;
      queries = zipf_queries;
      serve = (fun ?tracer ?trace t -> Serve.run ?tracer ?trace zipf_config t.fed t.jobs);
      outcome = Fun.id;
      check = zipf_check ts expected;
      certain = (fun _ _ -> (0, 0));
      switches = (fun _ -> 0);
    }
  in
  if trace then traced w else timed ~seconds ~setup ~recall:false w

(* ------------------------------------------------------------------ *)
(* serve_faulty: distinct queries, caches smaller than the working set,
   lossy links, deadlines, AUTO selection *)

(* Uniform draws over 32 queries, each drawn about twice per stream. Host
   cost varies from federation to federation, so a repetition spreads over
   32 of them; the 128 KiB caches stay smaller than one stream's working
   set, so about 60% of extent lookups miss. *)
let faulty_tenants = 32
let faulty_queries = 62
let pool_size = 32

(* 5% loss on every database site's incoming link (site i + 1 hosts
   database i). The 400 ms deadline sits near the median simulated latency,
   so about half the queries demote at their deadline while the rest run
   their check round trips through loss fates and retries; at 200 ms every
   round trip is abandoned at admission and no loss fate is ever drawn. *)
let faulty_config seed =
  let links =
    List.init 3 (fun i -> { Fault.dst = i + 1; drop = 0.05; inflate = 1.0; jitter = 0.0 })
  in
  {
    Serve.default_config with
    Serve.options =
      {
        Strategy.default_options with
        Strategy.fault = { Fault.none with Fault.seed; links };
        retry = { Strategy.default_retry with adaptive = Some Strategy.default_adaptive };
      };
    cache_bytes = 128 * 1024;
    window = Time.us 500.0;
    deadline = Some (Time.ms 400.0);
  }

let faulty_tenant seed =
  tenant seed ~pool_size ~queries:faulty_queries
    ~draw:(fun rng -> Rng.int rng ~bound:pool_size)
    ~job:(fun pool k arrival -> (pool.(k), arrival))

(* Fault-free certain rows of (pool query, strategy), computed on demand
   outside the timed region and memoized. *)
let certain_reference t =
  let memo = Hashtbl.create 128 in
  fun k st ->
    match Hashtbl.find_opt memo (k, st) with
    | Some s -> s
    | None ->
      let s = Answer.goids (fst (Strategy.run st t.fed t.pool.(k))) Answer.Certain in
      Hashtbl.add memo (k, st) s;
      s

(* (certain rows of a report, fault-free certain rows of the strategy AUTO
   chose for it) for every report of tenant [i]. *)
let faulty_pairs ts references i (a : Serve.auto_outcome) =
  let chosen = Hashtbl.create faulty_queries in
  List.iter
    (fun (d : Serve.auto_decision) -> Hashtbl.replace chosen d.Serve.d_index d.Serve.d_chosen)
    a.Serve.decisions;
  List.map
    (fun (r : Serve.query_report) ->
      ( Answer.goids r.Serve.answer Answer.Certain,
        references.(i) ts.(i).draws.(r.Serve.index) (Hashtbl.find chosen r.Serve.index) ))
    a.Serve.auto.Serve.reports

let serve_faulty ~seed ~seconds ~trace =
  let ts, setup = tenants_of seed ~n:faulty_tenants faulty_tenant in
  let references = Array.map certain_reference ts in
  let pairs = faulty_pairs ts references in
  let w =
    {
      tenants = ts;
      queries = faulty_queries;
      (* Each federation draws its own fault fates: one schedule shared by
         all of them would not average out from seed to seed. *)
      serve =
        (fun ?tracer ?trace t ->
          Serve.run_auto ?tracer ?trace (faulty_config t.seed) t.fed t.jobs);
      outcome = (fun a -> a.Serve.auto);
      (* certain(report) must lie within certain(fault-free run) *)
      check =
        (fun i a ->
          let p = pairs i a in
          faulty_queries - List.length p
          + List.length (List.filter (fun (got, want) -> not (Goids.subset got want)) p));
      certain =
        (fun i a ->
          let p = pairs i a in
          ( sum (fun (got, _) -> Goids.cardinal got) p,
            sum (fun (_, want) -> Goids.cardinal want) p ));
      switches = (fun a -> a.Serve.switches);
    }
  in
  if trace then begin
    (* Planner.choose on its own, once per distinct query. *)
    let choose =
      List.concat_map
        (fun t ->
          List.map
            (fun a ->
              snd (time (fun () -> Planner.choose ~objective:Planner.Response_time t.fed a)))
            (Array.to_list t.pool))
        (Array.to_list ts)
    in
    let r = traced w in
    { r with metrics = r.metrics @ [ ("opt.choose_us", Samples.Stats.mean choose *. 1e6, "us") ] }
  end
  else timed ~seconds ~setup ~recall:true w
