(** Reading and checking sections of a bench document.

    The validators built from these helpers return [Error] with a message
    that names the offending section and field; {!Run_report.validate_bench}
    prefixes it with ["bench document: "]. Every number a section carries
    must be a JSON number: an entry of any other type is an error, never
    silently skipped. *)

module Json = Msdq_obs.Json

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val error : ('a, unit, string, ('b, string) result) format4 -> 'a
(** [error fmt ...] is [Error (sprintf fmt ...)]. *)

val check : bool -> ('a, unit, string, (unit, string) result) format4 -> 'a
(** [check ok fmt ...] is [Ok ()] when [ok], else the formatted error. *)

val int : what:string -> string -> Json.t -> (int, string) result
(** [int ~what key j]: member [key] of [j] as an integer; [what] names
    [j] in the error. *)

val member : what:string -> string -> Json.t -> (Json.t, string) result
(** Member [key] of [j], of any type. *)

val float : what:string -> string -> Json.t -> (float, string) result
val str : what:string -> string -> Json.t -> (string, string) result
val list : what:string -> string -> Json.t -> (Json.t list, string) result

val floats : what:string -> string -> Json.t -> (float list, string) result
(** An array member whose entries must all be numbers. *)

val nonempty :
  what:string -> string -> Json.t -> (Json.t list, string) result
(** An array member that must hold at least one entry. *)

val each : 'a list -> ('a -> (unit, string) result) -> (unit, string) result
(** The first error of [f] over the list, in order. *)

val map : 'a list -> ('a -> ('b, string) result) -> ('b list, string) result

val nonneg : what:string -> float -> (unit, string) result
(** Rejects NaN and negative values. *)

val fraction : what:string -> float -> (unit, string) result
(** Rejects NaN and values outside [[0, 1]]. *)

val grid :
  section:string ->
  axis:string ->
  arrays:(string * (what:string -> float -> (unit, string) result)) list ->
  Json.t ->
  ((string * (string * float list) list) list, string) result
(** A grid section: a non-empty numeric [axis] array and a non-empty
    ["series"] list. Each series carries a ["label"] and, for every
    [(field, ok)] of [arrays], a numeric array of the axis's length whose
    entries all pass [ok]. Returns [(label, [(field, values)])] per
    series, in document order. *)

(** {2 Cross-document comparison} *)

type better =
  | Lower  (** a time: may grow by at most the tolerance, relatively *)
  | Higher  (** a throughput: may shrink by at most the tolerance, relatively *)
  | Rate  (** a fraction: may drop by at most the tolerance, absolutely *)

type measure = { name : string; value : float; better : better }
(** One number the bench gate compares between a baseline and a fresh
    document; measures pair up by [name]. *)

val mean : float list -> float
(** 0 for the empty list. *)

val series_means :
  field:string ->
  noun:string ->
  better:better ->
  (string * (string * float list) list) list ->
  measure list
(** One ["<label> mean <noun>"] measure per {!grid} series: the mean of
    its [field] array. *)
