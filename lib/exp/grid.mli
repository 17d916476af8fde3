(** What every concrete sweep shares: the synthetic case each grid point
    draws, and the grid runner. *)

val case :
  ?accept:(Msdq_fed.Federation.t -> Msdq_query.Analysis.t -> bool) ->
  int ->
  (Msdq_fed.Federation.t * Msdq_query.Analysis.t) option
(** [case seed]: a dense synthetic federation (every database hosts every
    class, a quarter of the attributes missing, some nulls and copies)
    plus a random conjunctive query that analyzes against its global
    schema and passes [accept] (default: any). A random path may name an
    attribute no constituent kept, so up to 21 draws are tried; [None]
    when all fail. Pure in [seed]. *)

val sample_case :
  seed:int -> si:int -> (Msdq_fed.Federation.t * Msdq_query.Analysis.t) option
(** Sample [si]'s case: drawn from its own index-derived rng stream, so
    samples are order-independent. *)


val run :
  ?pool:Msdq_par.Pool.t ->
  ?registry:Msdq_obs.Metrics.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  id:string ->
  counter:string ->
  log:('cell -> 'r -> done_now:int -> total:int -> unit) ->
  ('cell -> 'r) ->
  'cell array ->
  'r array
(** [run ~id ~counter ~log f cells] is [Array.map f cells], computed on
    [pool] when it has more than one worker. Results merge in index order,
    so they never depend on the pool. After each cell, [log] and
    [progress] (under figure [id]) see the completion count, one at a
    time. The cell count is added to [registry]'s [counter], labelled
    [figure=id]. *)
