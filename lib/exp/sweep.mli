(** The sweep registry: every experiment sweep beyond the paper's own
    figures, defined once.

    A sweep is a concrete-execution study over a fixed grid — fault,
    recovery, serve, auto, overload and gray. Its spec below is everything
    the rest of the repo needs to know about it: the bench harness runs
    and prints it and embeds its section in the bench document,
    {!Run_report.validate_bench} checks that section (shape plus win
    condition) from the schema version that introduced it, the bench gate
    re-checks the win condition and compares the section against a
    baseline, and [msdq experiment <id>] runs it from the command line.
    Adding a sweep is one module (runner, encoder, printer, checks) plus
    one entry in {!registry}. *)

module Json = Msdq_obs.Json

type ctx = {
  pool : Msdq_par.Pool.t option;  (** parallelizes the grid; results never depend on it *)
  registry : Msdq_obs.Metrics.t option;  (** receives the sweep's counters *)
  progress : (figure:string -> completed:int -> total:int -> unit) option;
  samples : int option;
      (** draws per grid point; [None] = the sweep's default (its full
          size). Sweeps with a fixed grid ignore it. *)
  seed : int;
  drop : float option;
      (** link loss of the sweeps that inject lossy links; [None] = the
          sweep's default *)
  inflate : float option;  (** likewise, the link latency inflation *)
}
(** How to run a sweep. *)

type outcome = {
  json : Json.t;  (** the bench section, also the [--json] payload *)
  pp : Format.formatter -> unit;  (** the text table *)
  csv : string option;  (** the CSV export, for sweeps that have one *)
}
(** A finished run, already rendered every way a consumer needs. *)

type t = {
  id : string;  (** the [msdq experiment] spelling and CSV file stem *)
  section : string;  (** the bench document key *)
  since : int;
      (** the bench schema version ([msdq-bench/N]) that introduced the
          section; documents from N on must carry it *)
  smoke_samples : int option;
      (** draws per grid point in the bench's smoke run; [None] for
          fixed-grid sweeps *)
  bare_json : bool;
      (** [msdq experiment <id> --json] prints the bare section rather
          than [{section: ..., registry: ...}] (the serve sweep's
          historical document) *)
  run : ctx -> outcome;
  check : Json.t -> (unit, string) result;  (** the section's shape *)
  win : (Json.t -> (string, string) result) option;
      (** the section's win condition; [Ok] carries the one-line summary
          the bench gate prints *)
  keys : string list;
      (** integer fields two documents must agree on before the gate
          compares their sections (seed, sample counts, sizes) *)
  measures : Json.t -> Bench_doc.measure list;
      (** the numbers the gate compares against the baseline *)
  summary : string;  (** what the gate's comparison line calls them *)
}

val registry : t list
(** Every sweep, in bench-document order (by [since]). *)

val find : string -> t option
(** The sweep with that [id]. *)

val validate : t -> Json.t -> (unit, string) result
(** [check] then [win]. *)
