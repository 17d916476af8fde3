(** Exportable run reports: JSON metrics, Chrome traces, utilization tables
    and the bench result schema.

    Everything here is deterministic given its inputs (no clock reads), so
    the emitted bytes are stable and golden-testable. JSON goes through
    {!Msdq_obs.Json}; the repo carries no third-party JSON dependency. *)

open Msdq_query
open Msdq_exec
module Json = Msdq_obs.Json

val metrics_to_json : Strategy.metrics -> Json.t
(** One strategy run: totals, per-phase (O/P/I) busy time and task counts,
    shipping/disk/message/check counters, the per-label breakdown, and the
    full metrics registry dump. When the run had a fault schedule installed,
    an extra ["availability"] object carries the fault/degradation report
    (failed sites, drops, retries, abandoned checks, demotions,
    resurrections, the partial flag and the degradation ratio); fault-free
    documents are byte-identical to what earlier versions emitted. *)

val availability_to_json : Strategy.availability -> Json.t
(** The ["availability"] section alone. *)

val run_to_json : Answer.t -> Strategy.metrics -> Json.t
(** {!metrics_to_json} plus an answer summary (certain/maybe counts). *)

val query_to_json :
  query:string -> (Answer.t * Strategy.metrics) list -> Json.t
(** The [msdq query --json] document: the query string and one entry per
    strategy run. *)

val chrome_trace : Strategy.metrics list -> Json.t
(** Chrome [trace_event] document for one or several runs sharing a site
    numbering: one complete event per engine task (pid = site, tid =
    resource, args = strategy/phase/db attribution), fences on a separate
    lane, host spans under {!Msdq_obs.Tracer.host_pid}, plus one flow
    event pair per recorded task dependency — the causal edges that let
    Perfetto draw each query's tree across sites. Opens in
    [chrome://tracing] or Perfetto. *)

val chrome_trace_of_entries : Msdq_simkit.Trace.entry list -> Json.t
(** Same document for a raw engine trace (no host spans) — the serve
    path's [outcome.trace], where the whole workload shares one engine. *)

val pp_utilization : Format.formatter -> Strategy.metrics -> unit
(** Per-site, per-phase busy-time table computed from the task trace. *)

val figure_to_json : Figures.figure -> Json.t
(** One regenerated figure: id, title, axis, xs and every series. *)

val figures_to_json : Figures.figure list -> Json.t
(** The [msdq experiment --json] document. *)

(** {2 Bench results} *)

val bench_schema : string
(** ["msdq-bench/10"] — the schema every new document is written with. *)

val bench_schemas : string list
(** Every schema {!validate_bench} accepts, oldest first: ["msdq-bench/6"]
    through {!bench_schema}. Earlier generations have no committed
    baseline left and are rejected. *)

type parallel = {
  jobs : int;  (** worker domains incl. the caller ([--jobs]) *)
  grid_points : int;  (** grid points in the timed calibration sweep *)
  seq_s : float;  (** wall-clock of the calibration sweep at [--jobs 1] *)
  par_s : float;  (** wall-clock of the same sweep on the pool *)
  speedup : float;  (** [seq_s /. par_s] *)
}
(** The [/2] parallel section: how much the domain pool actually bought on
    this machine, measured on a fixed calibration sweep whose output is
    asserted identical between the two timed runs. *)

type microbench = {
  mb_objects : int;  (** extent rows in the evaluation arms *)
  mb_boxed_eval : float;  (** objs/s, per-object [Predicate.eval] *)
  mb_columnar_eval : float;  (** objs/s, [Extent.eval_attr] *)
  mb_eval_speedup : float;  (** columnar / boxed *)
  mb_boxed_sig : float;  (** objs/s, per-object [Signature.may_satisfy] *)
  mb_bitset_sig : float;  (** objs/s, [Sigset.refuted_count] *)
  mb_sig_speedup : float;  (** bitset / boxed *)
  mb_certify_rows : int;  (** local rows fed to one [Certify.run] pass *)
  mb_certify_rows_per_s : float;
}
(** The [/10] microbench section: columnar-engine throughput in objects/sec
    for local predicate evaluation and signature filtering — each measured
    in both representations, so the speedup ratios are same-process and
    safe to gate on — plus end-to-end certification rows/sec.
    docs/PERFORMANCE.md explains how to run and read it. *)

val bench_to_json :
  generated_at:string ->
  seed:int ->
  parallel:parallel ->
  sweeps:(Sweep.t * Json.t) list ->
  latency:(string * Msdq_simkit.Stats.summary) list ->
  microbench:microbench ->
  strategies:(string * float * float) list ->
  wall:(string * float) list ->
  Json.t
(** The [BENCH_<timestamp>.json] document. [sweeps] carries each sweep's
    section (its {!Sweep.outcome} [json]); every versioned section —
    [parallel] (/2), the sweeps (their {!Sweep.t} [since]), [latency]
    (/6, per-strategy query-latency quantile summaries) and [microbench]
    (/10, columnar-engine throughput) — is placed in the order of the
    version that introduced it. [strategies] carries one
    [(name, total_s, response_s)] triple per simulated strategy run on the
    demo workload; [wall] carries bechamel wall-clock medians as
    [(benchmark, ns_per_run)]; [seed] is the run's base rng seed.
    [generated_at] is injected (not read from the clock) so tests stay
    deterministic. *)

val validate_bench : Json.t -> (unit, string) result
(** Structural validation of a bench document, used by the test suite,
    [bench/main.exe --check] and the bench gate. Accepts exactly
    {!bench_schemas}; every section is required from the version that
    introduced it: [seed] and [parallel] (/2), each sweep's section from
    its {!Sweep.t} [since], checked by {!Sweep.validate} — shape plus win
    condition, so a regressing optimizer or serving engine fails
    validation, not just a human reading the numbers — the [latency]
    section (/6: non-empty, one quantile summary per strategy, all values
    non-negative and p50 <= p90 <= p99 <= max whenever the count is
    positive) and the [microbench] section (/10: positive throughputs and
    well-formed counts; the >= 5x local-eval speedup bar lives in the
    bench gate, so a noisy machine still produces a valid document).
    Every number must be a JSON number. Errors start with
    ["bench document: "]. *)

val pp_explain : Format.formatter -> Answer.t -> unit
(** Per-row provenance table ([msdq query --explain]): every row's GOid and
    status plus {e why} — degraded rows print the recorded reason (the
    check round trip that never returned), cache-certified rows say so,
    and the remaining maybe rows are honest missing-data maybes. *)

val record_serve_stats : store:Msdq_telemetry.Store.t -> Msdq_serve.Serve.outcome -> unit
(** Fold one serve outcome into a persistent telemetry store: one entry
    per strategy in the workload (keyed [db="*", site=0, link=0]) carrying
    the strategy's mean query latency and mean demotions plus the
    workload's drop and cache-hit rates, then counts the run. Inputs for
    the AUTO strategy selector (ROADMAP item 2). *)
