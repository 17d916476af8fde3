(* Measurement helpers shared by the workloads, and the metric names the
   benchmark reports. *)

(* A reported figure: name, value, unit. *)
type metric = string * float * string

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
      (* A timed run lists end-to-end metrics, a traced run per-layer ones.
         A timed run may add figures only its workload defines; they are
         printed but kept out of the result line. *)
}

(* The end-to-end metrics every workload defines; the result line of a
   timed run carries exactly these. *)
let e2e_names =
  [
    "setup_s";
    "queries_per_s";
    "alloc_words_per_query";
    "peak_heap_mb";
    "sim_latency_ms_p50";
    "sim_latency_ms_p95";
  ]

(* The per-layer metrics of a traced run and their units, named
   [<layer>.<what>] after the lib/ module that does the work. Counts and
   times are per query (per draw on paper_figures). A layer a workload does
   not load reads 0. *)
let layer_names =
  [
    ("query.parse_us", "us");
    ("query.analyze_us", "us");
    ("query.localize_us", "us");
    ("exec.local_eval.self_ms", "ms");
    ("exec.local_eval.calls", "count");
    ("exec.probe.self_ms", "ms");
    ("exec.checks_build.self_ms", "ms");
    ("exec.checks_serve.self_ms", "ms");
    ("exec.certify.self_ms", "ms");
    ("exec.ca.self_ms", "ms");
    ("exec.build.self_ms", "ms");
    ("exec.check_requests_per_query", "count");
    ("exec.checks_filtered_per_query", "count");
    ("exec.sig_filter_useful_ratio", "ratio");
    ("fed.materialize.self_ms", "ms");
    ("fed.global_eval.self_ms", "ms");
    ("fed.goid_lookups_per_query", "count");
    ("simkit.engine_ms", "ms");
    ("simkit.trace_entries_per_query", "count");
    ("simkit.messages_per_query", "count");
    ("serve.admit.self_ms", "ms");
    ("serve.prepare_query.self_ms", "ms");
    ("serve.build_ms", "ms");
    ("serve.extent_hit_ratio", "ratio");
    ("serve.extent_evictions", "count");
    ("serve.verdict_hit_ratio", "ratio");
    ("serve.coalesced_checks_per_query", "count");
    ("serve.deadline_demoted_per_query", "count");
    ("serve.retained_words_per_query", "words");
    ("fault.drops", "count");
    ("fault.retries", "count");
    ("fault.abandoned_checks", "count");
    ("fault.demotions", "count");
    ("opt.choose_us", "us");
    ("opt.switches", "count");
    ("opt.param_sim_us_per_draw", "us");
    ("par.jobs", "count");
    ("par.speedup", "ratio");
    ("obs.host_spans_per_query", "count");
    ("obs.tracing_overhead_ratio", "ratio");
    ("gc.minor_collections_per_query", "count");
    ("gc.major_collections_per_query", "count");
    ("trace.wall_ms_per_query", "ms");
    ("unattributed.self_ms", "ms");
  ]

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Words this domain has allocated so far, minor and major heap. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The process-wide peak of the major heap; meaningful only because every
   run of a workload is its own process. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up is made of parts (one federation and its queries, say), each set
   up once before the measured work and again, outside the rate's timing and
   its copy dropped, in every repetition of the measured work after the
   first. On a shared host speed drifts by up to a factor of two over a few
   seconds, so the samples of one part spread over the whole run rather
   than one stretch of it. [setup_s] sums each part's median time. *)
type 'a setup = { make : int -> 'a; samples : float list array }

(* The parts, made once each, and the set-up that remakes them. *)
let setup ~parts make =
  let s = { make; samples = Array.make parts [] } in
  let made =
    Array.init parts (fun k ->
        let v, dt = time (fun () -> make k) in
        s.samples.(k) <- [ dt ];
        v)
  in
  (made, s)

(* Remakes part [k] at least once and until [resetup_min_s] are spent, so
   that a part of a millisecond or less still gets enough samples for its
   median to be more than timer and cache noise. *)
let resetup_min_s = 0.01

let resetup s k =
  let rec go spent =
    let _, dt = time (fun () -> Sys.opaque_identity (s.make k)) in
    s.samples.(k) <- dt :: s.samples.(k);
    if spent +. dt < resetup_min_s then go (spent +. dt)
  in
  go 0.0

let setup_s s = Array.fold_left (fun a l -> a +. Samples.median l) 0.0 s.samples

(* The host kernel's samples for this run (see [Host]). *)
let host = Host.create ()

(* Runs [units] units of work in turn, [f rep i] running unit [i] for the
   [rep]th time and returning the seconds it measured, until [seconds] are
   measured and every unit ran [min_reps] times. The first repetition warms
   up; through the others the host kernel runs every 0.1 s and each part of
   [setup] is remade once, after units spaced evenly through the
   repetition. Returns the mean seconds of one repetition after the
   first. *)
let repeated ~seconds ~min_reps ~units ~setup f =
  let parts = Array.length setup.samples in
  let rec go rep spent timed =
    if rep >= min_reps && spent >= seconds then timed /. float_of_int (rep - 1)
    else begin
      let spent = ref spent and timed = ref timed in
      let next = ref 0 in
      for i = 0 to units - 1 do
        let dt = f rep i in
        spent := !spent +. dt;
        if rep > 0 then begin
          timed := !timed +. dt;
          Host.sample host;
          while !next < parts && !next * units / parts <= i do
            resetup setup !next;
            incr next
          done
        end
      done;
      go (rep + 1) !spent !timed
    end
  in
  go 0 0.0 0.0

(* A timed run's host figures: set-up time and the rate of [queries] done
   in [seconds], both scaled to the reference host, then both as
   measured and the host kernel's mean time. Only the scaled ones enter
   the result line. *)
let host_metrics ~setup ~queries ~seconds =
  let k = Host.scale host in
  let raw_setup = setup_s setup and raw_rate = float_of_int queries /. seconds in
  [
    ("setup_s", raw_setup *. k, "s");
    ("queries_per_s", raw_rate /. k, "1/s");
    ("setup_s.measured", raw_setup, "s");
    ("queries_per_s.measured", raw_rate, "1/s");
    ("host.kernel_ms", Host.kernel_s host *. 1e3, "ms");
  ]

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* Runs a check, counting an exception as [n] failures. *)
let guarded ~n check =
  match check () with
  | bad -> bad
  | exception e ->
    prerr_endline ("check raised: " ^ Printexc.to_string e);
    n

(* GC collections during the calls passed to [counted], and only those:
   the benchmark's own checks and reference runs happen between them. *)
type gc_count = { mutable minor : int; mutable major : int }

let gc_count () = { minor = 0; major = 0 }

let counted c f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  c.minor <- c.minor + s1.Gc.minor_collections - s0.Gc.minor_collections;
  c.major <- c.major + s1.Gc.major_collections - s0.Gc.major_collections;
  v

let gc_metrics c ~n =
  [
    ("gc.minor_collections_per_query", per n (float_of_int c.minor), "count");
    ("gc.major_collections_per_query", per n (float_of_int c.major), "count");
  ]

(* Host ms per query of the layers whose lib/ functions record spans
   (exec, fed, serve), from self times over a run's host spans. *)
let span_layers ~queries totals =
  let self name =
    per queries ((Spans.find totals name).Spans.self_us /. 1e3)
  in
  let builds =
    Spans.sum_where totals (String.starts_with ~prefix:"build:")
  in
  [
    ("exec.local_eval.self_ms", self "local_eval.run", "ms");
    ( "exec.local_eval.calls",
      per queries (float_of_int (Spans.find totals "local_eval.run").Spans.calls),
      "count" );
    ("exec.probe.self_ms", self "probe.run", "ms");
    ("exec.checks_build.self_ms", self "checks.build", "ms");
    ("exec.checks_serve.self_ms", self "checks.serve", "ms");
    ("exec.certify.self_ms", self "certify.run", "ms");
    ("exec.ca.self_ms", self "ca.run", "ms");
    ("exec.build.self_ms", per queries (builds.Spans.self_us /. 1e3), "ms");
    ("fed.materialize.self_ms", self "ca.materialize", "ms");
    ("fed.global_eval.self_ms", self "ca.global-eval", "ms");
    ("serve.admit.self_ms", self "serve.prepare", "ms");
    ("serve.prepare_query.self_ms", self "serve.prepare.query", "ms");
  ]
