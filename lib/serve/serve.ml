open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Fault = Msdq_fault.Fault
module Metrics = Msdq_obs.Metrics
module Tracer = Msdq_obs.Tracer
module Optimizer = Msdq_opt.Optimizer
module Planner = Msdq_opt.Planner

type shed_policy = Reject_newest | Reject_oldest | Degrade

let shed_policies = [ Reject_newest; Reject_oldest; Degrade ]

let shed_policy_to_string = function
  | Reject_newest -> "reject-newest"
  | Reject_oldest -> "reject-oldest"
  | Degrade -> "degrade"

let shed_policy_of_string s =
  match String.lowercase_ascii s with
  | "reject-newest" -> Ok Reject_newest
  | "reject-oldest" -> Ok Reject_oldest
  | "degrade" -> Ok Degrade
  | other ->
      Error
        (Printf.sprintf "unknown shed policy %S (accepted: %s)" other
           (String.concat " | " (List.map shed_policy_to_string shed_policies)))

type config = {
  options : Strategy.options;
  cache_bytes : int;
  window : Time.t;
  msg_header_bytes : int;
  deadline : Time.t option;
  queue_limit : int option;
  shed_policy : shed_policy;
}

let default_config =
  {
    options = Strategy.default_options;
    cache_bytes = 4 * 1024 * 1024;
    window = Time.zero;
    msg_header_bytes = 64;
    deadline = None;
    queue_limit = None;
    shed_policy = Reject_newest;
  }

type job = {
  strategy : Strategy.t;
  analysis : Analysis.t;
  arrival : Time.t;
  deadline : Time.t option;
}

type query_report = {
  index : int;
  strategy : Strategy.t;
  arrival : Time.t;
  completed : Time.t;
  latency : Time.t;
  answer : Answer.t;
  extent_hits : int;
  verdict_hits : int;
  deadline_demoted : int;
  registry : Metrics.t;
}

type shed_report = {
  s_index : int;
  s_strategy : Strategy.t;
  s_arrival : Time.t;
  s_policy : shed_policy;
}

type outcome = {
  reports : query_report list;
  shed : shed_report list;
  makespan : Time.t;
  throughput : float;
  extent_cache : Lru.stats;
  verdict_cache : Lru.stats;
  messages : int;
  coalesced_checks : int;
  max_queue_depth : int;
  check_latency : (int * float * int) list;
      (** per destination site: (site, mean delivered check-leg latency in
          microseconds, legs observed) — the gray-health signal the
          telemetry store feeds back into adaptive timeouts *)
  registry : Metrics.t;
  trace : Trace.entry list;
}

let throughput (o : outcome) = o.throughput

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate_deadline what = function
  | None -> ()
  | Some d ->
      if (not (Time.is_finite d)) || Time.compare d Time.zero <= 0 then
        invalid_arg
          (Printf.sprintf
             "Serve: %s must be a positive, finite duration (got %s)" what
             (if Time.is_finite d then
                Printf.sprintf "%.0f us" (Time.to_us d)
              else "a non-finite value"))

(* [arrivals]: each job's arrival and own deadline, in admission order. *)
let validate cfg arrivals =
  Strategy.validate_options cfg.options;
  if cfg.options.Strategy.deep_certify then
    invalid_arg "Serve: deep_certify is not supported by the workload engine";
  if cfg.cache_bytes < 0 then invalid_arg "Serve: negative cache_bytes";
  if cfg.msg_header_bytes < 0 then invalid_arg "Serve: negative msg_header_bytes";
  if (not (Time.is_finite cfg.window)) || Time.compare cfg.window Time.zero < 0
  then invalid_arg "Serve: window must be non-negative and finite";
  validate_deadline "deadline" cfg.deadline;
  (match cfg.queue_limit with
  | Some l when l < 1 ->
      invalid_arg
        (Printf.sprintf
           "Serve: queue_limit must be >= 1 (got %d); omit it for an \
            unbounded queue"
           l)
  | Some _ | None -> ());
  ignore
    (List.fold_left
       (fun prev (arrival, deadline) ->
         if (not (Time.is_finite arrival)) || Time.compare arrival Time.zero < 0
         then invalid_arg "Serve: job arrivals must be non-negative and finite";
         if Time.compare arrival prev < 0 then
           invalid_arg "Serve: jobs must be listed in non-decreasing arrival order";
         validate_deadline "job deadline" deadline;
         arrival)
       Time.zero arrivals)

(* ------------------------------------------------------------------ *)
(* Fault fating — pure, timing-independent.

   Every check round trip's fate is a function of the schedule and the
   query's arrival instant only: drop draws use the schedule's pure hash
   with synthetic per-(query, leg, attempt) labels and the arrival as the
   draw's [start]. Caching can therefore never change which rows demote. *)

let site_generation (s : Fault.schedule) ~site ~at =
  List.fold_left
    (fun acc (sf : Fault.site_faults) ->
      if sf.Fault.site = site then
        acc
        + List.length
            (List.filter
               (fun (w : Fault.window) -> Time.compare w.Fault.up at <= 0)
               sf.Fault.outages)
      else acc)
    0 s.Fault.sites

let link_inflate sched ~dst =
  match Fault.link_of sched dst with Some l -> l.Fault.inflate | None -> 1.0

type leg = {
  delivered : bool;
  attempts : int;  (** attempts consumed, including the successful one *)
  extra_wait : Time.t;  (** retransmission waits accumulated before giving
                            up or succeeding *)
}

let leg_fate sched (retry : Strategy.retry) ?latency_of ~src ~dst ~label ~at
    () =
  let p = match Fault.link_of sched dst with Some l -> l.Fault.drop | None -> 0.0 in
  let down = Fault.site_down sched ~site:dst ~at in
  (* Asymmetric partitions fate like outages: checked once at the query's
     arrival, so the fate stays timing- and cache-independent. *)
  let cut = Fault.one_way_cut sched ~src:(Some src) ~dst ~at in
  (* Adaptive retry: the per-destination effective timeout replaces the
     static one in every wait. The drop draws below ignore the timeout
     entirely, so which legs deliver — and hence which rows demote — is
     identical under static and adaptive policies; only the waits differ. *)
  let timeout = Strategy.effective_timeout ?latency_of retry ~dst in
  let rec go k wait =
    let dropped =
      down || cut
      || Fault.drop_draw sched ~dst
           ~label:(Printf.sprintf "%s:a%d" label k)
           ~start:at ~p
    in
    if not dropped then { delivered = true; attempts = k; extra_wait = wait }
    else
      let wait = Time.add wait (Strategy.backoff_wait retry ~base:timeout k) in
      if k >= retry.Strategy.max_attempts then
        { delivered = false; attempts = k; extra_wait = wait }
      else go (k + 1) wait
  in
  go 1 Time.zero

(* ------------------------------------------------------------------ *)
(* Admission control — pure, timing-independent.

   Arrivals walk a deterministic virtual single-server FIFO queue over
   Planner-predicted response times: entry [i] virtually starts at
   [max arrival_i (previous virtual finish)] and finishes one predicted
   service later. The queue depth seen by an arrival (entries whose
   virtual finish lies beyond it) drives the shed decision and, together
   with the deadline-miss EWMA, the overload score fed back to the
   optimizer. Everything here is a function of arrivals and catalog-only
   predictions — never of engine timing or cache state — so admission
   decisions, like fault fates, are identical warm and cold. *)

let miss_alpha = 0.2

(* Gray detection (run_auto): a delivered check leg counts as slow when its
   latency stretch over the fault-free baseline reaches [gray_slow_ratio];
   per-site slow observations feed an EWMA with [gray_alpha], and a site
   whose EWMA exceeds [gray_threshold] is reported gray to the optimizer. *)
let gray_slow_ratio = 1.5
let gray_alpha = 0.4
let gray_threshold = 0.5

type vq_entry = {
  e_index : int;
  e_arrival : Time.t;
  e_service : Time.t;
  mutable e_vstart : Time.t;
  mutable e_vfinish : Time.t;
}

type admission = {
  a_limit : int option;
  (* admitted, oldest first; a growable array ([a_len] live entries) so the
     per-arrival hot path appends in O(1) and depth checks count in place
     instead of rebuilding lists *)
  mutable a_entries : vq_entry array;
  mutable a_len : int;
  mutable a_miss_ewma : float;  (* predicted deadline misses, EWMA *)
  mutable a_max_depth : int;
}

let admission_create cfg =
  {
    a_limit = cfg.queue_limit;
    a_entries = [||];
    a_len = 0;
    a_miss_ewma = 0.0;
    a_max_depth = 0;
  }

(* Recompute the virtual start/finish chain after a structural change
   (eviction); a push only needs the tail's finish, see below. *)
let vq_rechain adm =
  let last = ref Time.zero in
  for i = 0 to adm.a_len - 1 do
    let e = adm.a_entries.(i) in
    e.e_vstart <- Time.max e.e_arrival !last;
    e.e_vfinish <- Time.add e.e_vstart e.e_service;
    last := e.e_vfinish
  done

let admission_depth adm ~at =
  let d = ref 0 in
  for i = 0 to adm.a_len - 1 do
    if Time.compare adm.a_entries.(i).e_vfinish at > 0 then incr d
  done;
  if !d > adm.a_max_depth then adm.a_max_depth <- !d;
  !d

let admission_overload adm ~at =
  (match adm.a_limit with
  | Some l -> float_of_int (admission_depth adm ~at) /. float_of_int l
  | None -> 0.0)
  +. adm.a_miss_ewma

let over_capacity adm ~at =
  match adm.a_limit with
  | Some l -> admission_depth adm ~at >= l
  | None -> false

let admission_grow adm e =
  if adm.a_len = Array.length adm.a_entries then begin
    let cap = if adm.a_len = 0 then 16 else 2 * adm.a_len in
    let entries = Array.make cap e in
    Array.blit adm.a_entries 0 entries 0 adm.a_len;
    adm.a_entries <- entries
  end

(* Admit one job; returns its predicted queueing delay. Arrivals come in
   admission order, so the new entry's chain position depends only on the
   tail's virtual finish — no rechain of the earlier entries needed. *)
let admission_push adm ~index ~arrival ~service =
  let last =
    if adm.a_len = 0 then Time.zero
    else adm.a_entries.(adm.a_len - 1).e_vfinish
  in
  let vstart = Time.max arrival last in
  let e =
    {
      e_index = index;
      e_arrival = arrival;
      e_service = service;
      e_vstart = vstart;
      e_vfinish = Time.add vstart service;
    }
  in
  admission_grow adm e;
  adm.a_entries.(adm.a_len) <- e;
  adm.a_len <- adm.a_len + 1;
  Time.sub e.e_vstart arrival

(* Reject_oldest: drop the oldest admitted job that has not virtually
   started (the queue head); [None] when every earlier job is already in
   virtual service, in which case the arrival itself must shed. *)
let admission_evict_oldest adm ~at =
  let rec find i =
    if i >= adm.a_len then None
    else
      let e = adm.a_entries.(i) in
      if Time.compare e.e_vstart at > 0 then begin
        Array.blit adm.a_entries (i + 1) adm.a_entries i (adm.a_len - i - 1);
        adm.a_len <- adm.a_len - 1;
        vq_rechain adm;
        Some e.e_index
      end
      else find (i + 1)
  in
  find 0

let admission_observe_miss adm ~deadline ~qdelay ~service =
  let miss =
    match deadline with
    | Some budget when Time.compare (Time.add qdelay service) budget > 0 -> 1.0
    | Some _ | None -> 0.0
  in
  adm.a_miss_ewma <-
    ((1.0 -. miss_alpha) *. adm.a_miss_ewma) +. (miss_alpha *. miss)

(* ------------------------------------------------------------------ *)
(* Host-side preparation: real answers, cache decisions, fault fates.

   All data decisions happen here, in job-admission order, before any
   simulated time elapses — the engine pass below only charges durations.
   This is what makes the whole workload's answers independent of engine
   interleaving, cache capacity and batching window by construction. *)

(* What serving adds to one of Strategy's check groups: the leg fates, the
   verdict-cache split and the cost of the shipped subset. *)
type check_group = {
  g_plan : Strategy.check_group;
  g_wire : Checks.request list;  (* cache misses actually shipped *)
  g_hits : Checks.verdict list;  (* served from the verdict cache *)
  g_full_verdicts : Checks.verdict list;  (* every request answered *)
  g_cost : Strategy.round_trip;  (* of [g_wire] *)
  g_req_leg : leg;
  g_ver_leg : leg;
  g_doomed : bool;  (* abandoned at the query's deadline *)
  g_deadline_est : Time.t;  (* estimated completion that blew the budget *)
  g_leg_us : (int * float) list;
      (* (destination site, modeled latency) of each delivered leg that
         went on the wire *)
}

let group_lost g = not (g.g_req_leg.delivered && g.g_ver_leg.delivered)

(* Strategy's plan plus what serving adds: which extent reads hit a cache,
   and the check groups' fates. *)
type qplan =
  | Centralized of { central : Strategy.central_phase; hits : bool list }
      (* [hits]: per [central.ships] entry, served from the global site's
         extent cache *)
  | Localized of {
      phases : Strategy.local_phase list;
      read_hits : bool list;  (* per phase, served from its site's cache *)
      groups : check_group list;
    }

type prepared = {
  p_index : int;
  p_acc : Strategy.acc;  (* registry, strategy label, trace id [q<index>] *)
  p_strategy : Strategy.t;
  p_arrival : Time.t;
  p_deadline : Time.t option;  (* effective latency budget *)
  p_plan : qplan;
  p_answer : Answer.t;
  p_global_units : int;
      (* the global site's work before the answer: CA's integration (one
         unit per cached extent included; its global evaluation follows),
         or certification *)
  p_extent_hits : int;
  p_verdict_hits : int;
  p_deadline_demoted : int;
}

let involved_sig involved =
  String.concat ";"
    (List.map
       (fun gcls ->
         gcls ^ ":" ^ String.concat "," (Involved.attrs_of_class involved gcls))
       (Involved.classes involved))

(* One extent cache per site: each site owns [cache_bytes] of cache RAM. *)
let extent_cache_of caches ~cache_bytes ~site =
  match Hashtbl.find_opt caches site with
  | Some c -> c
  | None ->
      let c = Lru.create ~capacity_bytes:cache_bytes in
      Hashtbl.add caches site c;
      c

let count_true l = List.length (List.filter Fun.id l)

(* [qdelay] is the admission queue's predicted queueing delay for this
   query and [predicted] the Planner-predicted response of its strategy;
   both are zero when neither deadline nor queue limit is configured.
   Together with each group's retry waits they decide — at admission,
   timing-independently — which check round trips the deadline abandons. *)
let prepare (cfg : config) fed tracer ~extent_caches ~verdict_cache
    ~signatures ~qdelay ~predicted index (j : job) =
  let deadline =
    match j.deadline with Some _ as d -> d | None -> cfg.deadline
  in
  let opts = cfg.options in
  let sched = opts.Strategy.fault in
  let c = opts.Strategy.cost in
  let multi_valued = opts.Strategy.multi_valued in
  let caching = cfg.cache_bytes > 0 in
  let gsite = Federation.global_site fed in
  let analysis = j.analysis in
  let involved =
    Involved.compute (Global_schema.schema (Federation.global_schema fed)) analysis
  in
  let isig = involved_sig involved in
  let at = j.arrival in
  let prepared plan answer ~global_units ~extent_hits ~verdict_hits ~demoted =
    {
      p_index = index;
      p_acc =
        Strategy.new_acc
          ~trace_id:(Printf.sprintf "q%d" index)
          (Metrics.create ()) j.strategy;
      p_strategy = j.strategy;
      p_arrival = at;
      p_deadline = deadline;
      p_plan = plan;
      p_answer = answer;
      p_global_units = global_units;
      p_extent_hits = extent_hits;
      p_verdict_hits = verdict_hits;
      p_deadline_demoted = demoted;
    }
  in
  (* Generation of a cache at [holder]: the holder's crashes wipe its RAM;
     for artifacts derived from another site's data ([source]), that site's
     crashes stale the copy too. *)
  let gen ~holder ~source =
    site_generation sched ~site:holder ~at
    + if source = holder then 0 else site_generation sched ~site:source ~at
  in
  (* Whether [holder]'s extent cache serves the projection under [key]; a
     miss caches it. *)
  let extent_hit ~holder ~source ~key ~bytes =
    caching
    &&
    let cache =
      extent_cache_of extent_caches ~cache_bytes:cfg.cache_bytes ~site:holder
    in
    let g = gen ~holder ~source in
    match Lru.find cache ~gen:g key with
    | Some _ -> true
    | None ->
        Lru.add cache ~gen:g ~key ~bytes ();
        false
  in
  match j.strategy with
  | Strategy.Cf -> assert false (* rejected by [run] *)
  | Strategy.Ca ->
      let central =
        Strategy.compute_central_phase ~cost:c ~involved ~multi_valued ~tracer
          fed analysis
      in
      let hits =
        List.map
          (fun (db_name, site, bytes) ->
            extent_hit ~holder:gsite ~source:site
              ~key:(Printf.sprintf "ca|%s|%s" db_name isig)
              ~bytes)
          central.Strategy.ships
      in
      let extent_hits = count_true hits in
      prepared
        (Centralized { central; hits })
        central.Strategy.outcome.Ca.answer
        ~global_units:(central.Strategy.integrate_units + extent_hits)
        ~extent_hits ~verdict_hits:0 ~demoted:0
  | Strategy.Bl | Strategy.Pl | Strategy.Bls | Strategy.Pls | Strategy.Lo ->
      let plan =
        Strategy.compute_local_phases ~cost:c ~involved ~signatures ~tracer
          j.strategy fed analysis
      in
      let phases = plan.Strategy.phases in
      let read_hits =
        List.map
          (fun (ph : Strategy.local_phase) ->
            extent_hit ~holder:ph.Strategy.site ~source:ph.Strategy.site
              ~key:(Printf.sprintf "loc|%s|%s" ph.Strategy.plan.Localize.db isig)
              ~bytes:ph.Strategy.read_bytes)
          phases
      in
      let verdict_hits = ref 0 in
      let retry = opts.Strategy.retry in
      let groups =
        List.map
          (fun (sg : Strategy.check_group) ->
            let target = sg.Strategy.target in
            let tsite = sg.Strategy.target_site in
            let label what =
              Printf.sprintf "serve:q%d:%s->%s:%s" index sg.Strategy.origin
                target what
            in
            (* Fate first — a doomed round trip never consults the cache,
               so warm demotions coincide with cold ones. *)
            let req_leg =
              leg_fate sched retry ?latency_of:opts.Strategy.latency_of
                ~src:gsite ~dst:tsite ~label:(label "req") ~at ()
            in
            let ver_leg =
              leg_fate sched retry ?latency_of:opts.Strategy.latency_of
                ~src:tsite ~dst:gsite ~label:(label "verdict") ~at ()
            in
            let lost = not (req_leg.delivered && ver_leg.delivered) in
            (* Deadline fate, decided at admission like loss fates: the
               round trip is abandoned iff its estimated completion —
               predicted queueing delay + predicted response + this
               group's retry waits — blows the query's budget. A doomed
               round trip never consults or populates the cache either,
               so cached verdicts can never resurrect a deadline-demoted
               row (the fault-dooming suppression rule). *)
            let est =
              Time.add qdelay
                (Time.add predicted
                   (Time.add req_leg.extra_wait ver_leg.extra_wait))
            in
            let doomed =
              match deadline with
              | None -> false
              | Some budget -> Time.compare est budget > 0
            in
            let dead = lost || doomed in
            let reqs = sg.Strategy.requests in
            let g = gen ~holder:gsite ~source:tsite in
            let wire, hits =
              if dead || not caching then (reqs, [])
              else
                List.partition_map
                  (fun (r : Checks.request) ->
                    match
                      Lru.find verdict_cache ~gen:g (Checks.request_signature r)
                    with
                    | Some truth ->
                        Either.Right
                          {
                            Checks.origin_db = r.Checks.origin_db;
                            item = r.Checks.item;
                            atom = r.Checks.atom;
                            truth;
                          }
                    | None -> Either.Left r)
                  reqs
            in
            verdict_hits := !verdict_hits + List.length hits;
            (* Serve the shipped subset once: a dead group ships every
               request, so its verdicts plus the cache hits are always the
               full set that anchors the fault-free reference answer. *)
            let served_wire = Checks.serve ~tracer fed ~db:target wire in
            let full = hits @ served_wire.Checks.verdicts in
            if (not dead) && caching then
              List.iter2
                (fun (r : Checks.request) (v : Checks.verdict) ->
                  Lru.add verdict_cache ~gen:g
                    ~key:(Checks.request_signature r)
                    ~bytes:(Wire.verdict_bytes c) v.Checks.truth)
                wire served_wire.Checks.verdicts;
            let cost = Strategy.round_trip c wire served_wire in
            (* The modeled latency at [dst] of a delivered leg that goes on
               the wire (inflation and jitter included, retry waits
               excluded), drawn under the leg's fate label at the query's
               arrival. *)
            let leg_us ~delivered ~dst what payload =
              if (not delivered) || wire = [] || doomed then []
              else
                let duration =
                  Cost.net c ~bytes:(payload + cfg.msg_header_bytes)
                in
                [
                  ( dst,
                    Time.to_us
                      (Fault.link_duration sched ~dst ~label:(label what)
                         ~start:at ~duration) );
                ]
            in
            {
              g_plan = sg;
              g_wire = wire;
              g_hits = hits;
              g_full_verdicts = full;
              g_cost = cost;
              g_req_leg = req_leg;
              g_ver_leg = ver_leg;
              g_doomed = doomed;
              g_deadline_est = (if doomed then est else Time.zero);
              g_leg_us =
                leg_us ~delivered:req_leg.delivered ~dst:tsite "req"
                  cost.Strategy.request_bytes
                @ leg_us ~delivered:(not lost) ~dst:gsite "verdict"
                    cost.Strategy.verdict_bytes;
            })
          plan.Strategy.groups
      in
      (* Certification: the fault-free reference uses every verdict; lost
         batches are withheld to find exactly which rows demote. *)
      let results =
        List.map (fun (ph : Strategy.local_phase) -> ph.Strategy.result) phases
      in
      let local_verdicts =
        List.concat_map
          (fun (ph : Strategy.local_phase) ->
            ph.Strategy.built.Checks.local_verdicts)
          phases
      in
      let full_verdicts =
        local_verdicts @ List.concat_map (fun g -> g.g_full_verdicts) groups
      in
      let ff =
        Certify.run ~multi_valued ~tracer fed analysis ~results
          ~verdicts:full_verdicts
      in
      let lost_groups = List.filter group_lost groups in
      let doomed_groups =
        List.filter (fun g -> g.g_doomed && not (group_lost g)) groups
      in
      (* Demotion by construction, in two layers: withholding the lost
         batches' verdicts finds the fault demotions; additionally
         withholding the deadline-doomed batches' verdicts finds the rows
         the budget demotes on top. certain(final) ⊆ certain(fault-only)
         ⊆ certain(fault-free), and the deadline demotions are exactly
         certain(fault-only) minus certain(final) — the reconciliation
         the soundness property pins. *)
      let answer, deadline_demoted_count =
        if lost_groups = [] && doomed_groups = [] then (ff.Certify.answer, 0)
        else begin
          let certain_with keep =
            let verdicts =
              local_verdicts
              @ List.concat_map
                  (fun g -> if keep g then g.g_full_verdicts else [])
                  groups
            in
            let r =
              Certify.run ~multi_valued ~tracer fed analysis ~results ~verdicts
            in
            Answer.goids r.Certify.answer Answer.Certain
          in
          let ff_certain = Answer.goids ff.Certify.answer Answer.Certain in
          let fault_certain =
            if lost_groups = [] then ff_certain
            else certain_with (fun g -> not (group_lost g))
          in
          let final_certain =
            if doomed_groups = [] then fault_certain
            else certain_with (fun g -> not (group_lost g || g.g_doomed))
          in
          let fault_demoted = Oid.Goid.Set.diff ff_certain fault_certain in
          let deadline_demoted =
            Oid.Goid.Set.diff fault_certain final_certain
          in
          let fault_reason =
            Answer.Fault
              (Printf.sprintf "check batch lost: %s"
                 (String.concat "; "
                    (List.map
                       (fun g ->
                         Printf.sprintf "%s->%s after %d attempts"
                           g.g_plan.Strategy.origin g.g_plan.Strategy.target
                           (max g.g_req_leg.attempts g.g_ver_leg.attempts))
                       lost_groups)))
          in
          let deadline_reason =
            let elapsed =
              List.fold_left
                (fun acc g -> Time.max acc g.g_deadline_est)
                Time.zero doomed_groups
            in
            Answer.Deadline
              {
                elapsed_us = Time.to_us elapsed;
                budget_us =
                  (match deadline with
                  | Some b -> Time.to_us b
                  | None -> 0.0);
              }
          in
          let demoted = Oid.Goid.Set.union fault_demoted deadline_demoted in
          let demoted_answer = Answer.demote ff.Certify.answer ~goids:demoted in
          ( Answer.annotate_degraded demoted_answer
              ~reasons:
                (List.map
                   (fun g -> (g, fault_reason))
                   (Oid.Goid.Set.elements fault_demoted)
                @ List.map
                    (fun g -> (g, deadline_reason))
                    (Oid.Goid.Set.elements deadline_demoted)),
            Oid.Goid.Set.cardinal deadline_demoted )
        end
      in
      (* Cache provenance: rows certified through at least one cache-served
         verdict. *)
      let answer =
        let hit_keys =
          List.concat_map
            (fun g ->
              List.map
                (fun (v : Checks.verdict) ->
                  (v.Checks.origin_db, Oid.Loid.to_int v.Checks.item, v.Checks.atom))
                g.g_hits)
            groups
        in
        if hit_keys = [] then answer
        else
          let key_set = Hashtbl.create 16 in
          List.iter (fun k -> Hashtbl.replace key_set k ()) hit_keys;
          let goids =
            List.fold_left
              (fun acc (res : Local_result.t) ->
                List.fold_left
                  (fun acc (row : Local_result.row) ->
                    if
                      List.exists
                        (fun (u : Local_result.unsolved) ->
                          Hashtbl.mem key_set
                            ( res.Local_result.db,
                              Oid.Loid.to_int (Dbobject.loid u.Local_result.item),
                              u.Local_result.atom ))
                        row.Local_result.unsolved
                    then Oid.Goid.Set.add row.Local_result.goid acc
                    else acc)
                  acc res.Local_result.rows)
              Oid.Goid.Set.empty results
          in
          Answer.mark_cached answer ~goids
      in
      prepared
        (Localized { phases; read_hits; groups })
        answer
        ~global_units:
          (Meter.units ff.Certify.work + ff.Certify.goid_lookups
         + !verdict_hits)
        ~extent_hits:(count_true read_hits)
        ~verdict_hits:!verdict_hits ~demoted:deadline_demoted_count

(* ------------------------------------------------------------------ *)
(* Engine pass: charge the shared simulated clock. *)

type contrib = {
  b_origin_site : int;
  b_n_reqs : int;  (* wire requests carried *)
  b_cost : Strategy.round_trip;  (* message payloads exclude framing *)
  b_promise : Engine.handle;
  b_acc : Strategy.acc;  (* the contributing query's *)
}

type ctx = {
  cfg : config;
  eng : Engine.t;
  wl : Metrics.t;
  gsite : int;
  batchers : (int, contrib list ref) Hashtbl.t;  (* reverse order *)
  mutable messages : int;
  mutable coalesced : int;
}

let cost_of ctx = ctx.cfg.options.Strategy.cost

let bump reg name labels n =
  if n <> 0 then Metrics.inc (Metrics.counter reg ~labels name) n

let shipped (acc : Strategy.acc) ~phase bytes =
  bump acc.Strategy.reg "msdq_bytes_shipped_total"
    [ ("strategy", acc.Strategy.sname); ("phase", phase) ]
    bytes

(* A serve-path message that is never lost: waits out a destination outage
   (computed at send time from the schedule), then occupies the
   destination's link for the schedule's stretched duration. [payload]
   excludes the framing header; callers attribute shipped bytes to the
   owning queries' registries themselves (a coalesced message splits its
   payload across contributors). Returns a promise completed at
   delivery. *)
let critical_transfer ctx ~src ~dst ~payload ~label ~deps ~attrs
    ?(on_delivered = fun () -> ()) () =
  let sched = ctx.cfg.options.Strategy.fault in
  let bytes = payload + ctx.cfg.msg_header_bytes in
  ctx.messages <- ctx.messages + 1;
  bump ctx.wl "msdq_messages_total" [ ("path", "serve") ] 1;
  let p = Engine.promise ctx.eng ~label:(label ^ ":done") in
  let send () =
    let now = Engine.now ctx.eng in
    let deps =
      if Fault.site_down sched ~site:dst ~at:now then
        match Fault.next_up sched ~site:dst ~at:now with
        | Some up ->
            [
              Engine.delay ctx.eng ~label:(label ^ ":wait-up") ~attrs
                ~duration:(Time.sub up now) ();
            ]
        | None -> [] (* permanent outage: documented as unreachable-for-
                        checks only; critical sends proceed *)
      else []
    in
    let duration =
      Fault.link_duration sched ~dst ~label ~start:now
        ~duration:(Cost.net (cost_of ctx) ~bytes)
    in
    ignore
      (Engine.transfer ctx.eng ~deps ~src ~dst ~label ~attrs ~duration
         ~on_complete:(fun () ->
           on_delivered ();
           Engine.resolve ctx.eng p)
         ())
  in
  ignore
    (Engine.fence ctx.eng ~deps ~label:(label ^ ":ready") ~attrs
       ~on_complete:send ());
  p

(* Flush one coalesced batch to [tsite]: one request message per
   contributing origin site, one read + serve at the target, one verdict
   message to the global site, then every contributor's promise resolves. *)
let flush ctx ~target_db ~tsite contribs =
  let contribs = List.rev contribs in
  let same f cs = List.for_all (fun c -> f c.b_acc = f (List.hd cs).b_acc) cs in
  (* A coalesced message belongs to one query's trace when it carries a
     single query's checks, and to the shared [batch] trace otherwise; it
     names a strategy when every contributor ran the same one. *)
  let attrs_of cs =
    let first = (List.hd cs).b_acc in
    let qid =
      if same (fun a -> a.Strategy.qid) cs then first.Strategy.qid else "batch"
    in
    let attrs =
      Strategy.task_attrs { first with Strategy.qid } ~phase:"O" ~db:target_db ()
    in
    if same (fun a -> a.Strategy.sname) cs then attrs
    else List.remove_assoc "strategy" attrs
  in
  (* Per-query payloads share one message and one header; each query is
     charged its own. *)
  let payload cs bytes =
    List.fold_left
      (fun sum c ->
        shipped c.b_acc ~phase:"O" (bytes c.b_cost);
        sum + bytes c.b_cost)
      0 cs
  in
  let origins =
    List.fold_left
      (fun os c -> if List.mem c.b_origin_site os then os else c.b_origin_site :: os)
      [] contribs
  in
  let req_done =
    List.map
      (fun osite ->
        let cs = List.filter (fun c -> c.b_origin_site = osite) contribs in
        (* Checks that shared a message with another query's checks. *)
        if not (same (fun a -> a.Strategy.qid) cs) then
          ctx.coalesced <-
            ctx.coalesced + List.fold_left (fun n c -> n + c.b_n_reqs) 0 cs;
        critical_transfer ctx ~src:osite ~dst:tsite
          ~payload:(payload cs (fun rt -> rt.Strategy.request_bytes))
          ~label:(Printf.sprintf "serve:ship-requests:%s" target_db)
          ~attrs:(attrs_of cs) ~deps:[] ())
      (List.rev origins)
  in
  (* The target's disk and CPU are FIFO, so per-contributor tasks keep the
     timing of one fused batch task while attributing work to the query
     that caused it. *)
  let evals =
    List.map
      (fun c ->
        Strategy.check_tasks ctx.eng c.b_acc (cost_of ctx)
          ~name:(fun what -> Printf.sprintf "serve:%s:%s" what target_db)
          ~site:tsite ~db:target_db c.b_cost ~deps:req_done)
      contribs
  in
  ignore
    (critical_transfer ctx ~src:tsite ~dst:ctx.gsite
       ~payload:(payload contribs (fun rt -> rt.Strategy.verdict_bytes))
       ~label:(Printf.sprintf "serve:ship-verdicts:%s" target_db)
       ~attrs:(attrs_of contribs) ~deps:evals
       ~on_delivered:(fun () ->
         List.iter (fun c -> Engine.resolve ctx.eng c.b_promise) contribs)
       ())

(* Hand a contribution to the target site's admission window. With a zero
   window it flushes alone; otherwise the first contribution opens the
   window and every contribution arriving before expiry rides along. *)
let batcher_add ctx ~target_db ~tsite contrib =
  if Time.compare ctx.cfg.window Time.zero <= 0 then
    flush ctx ~target_db ~tsite [ contrib ]
  else
    match Hashtbl.find_opt ctx.batchers tsite with
    | Some b -> b := contrib :: !b
    | None ->
        let b = ref [ contrib ] in
        Hashtbl.add ctx.batchers tsite b;
        ignore
          (Engine.delay ctx.eng
             ~label:(Printf.sprintf "serve:window:%s" target_db)
             ~duration:ctx.cfg.window
             ~on_complete:(fun () ->
               Hashtbl.remove ctx.batchers tsite;
               flush ctx ~target_db ~tsite !b)
             ())

let build_query ctx (p : prepared) ~completed =
  let acc = p.p_acc in
  let c = cost_of ctx in
  (* The span context every serve-path engine task carries: the owning
     query's trace id (the causal parent edges are the dependency tids the
     engine records on its own). *)
  let q = [ ("trace", acc.Strategy.qid) ] in
  let lbl fmt = Printf.sprintf ("serve:q%d:" ^^ fmt) p.p_index in
  let cpu ~site ~phase ?db ~label ~units ~deps () =
    Strategy.cpu_task ctx.eng acc c ~site ~phase ?db ~label ~units ~deps ()
  in
  (* One of the query's own messages to the global site, charged to it. *)
  let ship_to_global ~phase ~db ~src ~bytes ~label ~deps =
    shipped acc ~phase bytes;
    critical_transfer ctx ~src ~dst:ctx.gsite ~payload:bytes ~label
      ~attrs:(Strategy.task_attrs acc ~phase ~db ()) ~deps ()
  in
  let arrive =
    Engine.delay ctx.eng ~label:(lbl "arrival") ~attrs:q ~duration:p.p_arrival ()
  in
  let finishf handle =
    ignore
      (Engine.fence ctx.eng ~deps:[ handle ] ~label:(lbl "answer") ~attrs:q
         ~on_complete:(fun () -> completed p.p_index (Engine.now ctx.eng))
         ())
  in
  match p.p_plan with
  | Centralized { central; hits } ->
      let deps =
        List.map2
          (fun (db_name, site, bytes) hit ->
            if hit then
              cpu ~site:ctx.gsite ~phase:"O" ~db:db_name
                ~label:(lbl "cache-extents:%s" db_name)
                ~units:1 ~deps:[ arrive ] ()
            else
              let read =
                Strategy.disk_task ctx.eng acc c ~site ~phase:"O" ~db:db_name
                  ~label:(lbl "read-extents:%s" db_name)
                  ~bytes ~deps:[ arrive ] ()
              in
              ship_to_global ~phase:"O" ~db:db_name ~src:site ~bytes
                ~label:(lbl "ship-objects:%s" db_name) ~deps:[ read ])
          central.Strategy.ships hits
      in
      let integrate =
        cpu ~site:ctx.gsite ~phase:"I" ~label:(lbl "integrate")
          ~units:p.p_global_units ~deps ()
      in
      finishf
        (cpu ~site:ctx.gsite ~phase:"P" ~label:(lbl "global-eval")
           ~units:central.Strategy.eval_units ~deps:[ integrate ] ())
  | Localized { phases; read_hits; groups } ->
      let dispatch_of = Hashtbl.create 4 in
      let ships =
        List.map2
          (fun (ph : Strategy.local_phase) read_hit ->
            let db = ph.Strategy.plan.Localize.db in
            let site = ph.Strategy.site in
            let name what = lbl "%s:%s" what db in
            let read =
              if read_hit then
                Some
                  (cpu ~site ~phase:"P" ~db ~label:(name "cache-extents")
                     ~units:1 ~deps:[ arrive ] ())
              else None
            in
            let dispatch, last =
              Strategy.local_chain ctx.eng acc c ~name ?read ~deps:[ arrive ] ph
            in
            Hashtbl.replace dispatch_of db dispatch;
            ship_to_global ~phase:"I" ~db ~src:site ~bytes:ph.Strategy.ship_bytes
              ~label:(lbl "ship-results:%s" db) ~deps:[ last ])
          phases read_hits
      in
      let group_promises =
        List.filter_map
          (fun g ->
            if g.g_wire = [] && not (group_lost g) && not g.g_doomed then None
            else begin
              let { Strategy.origin; target; origin_site; requests; _ } = g.g_plan in
              let tsite = g.g_plan.Strategy.target_site in
              let glbl what = lbl "%s:%s->%s" what origin target in
              let dispatch = Hashtbl.find dispatch_of origin in
              let wait = Time.add g.g_req_leg.extra_wait g.g_ver_leg.extra_wait in
              let promise = Engine.promise ctx.eng ~label:(glbl "checks") in
              let resolve () = Engine.resolve ctx.eng promise in
              if g.g_doomed || group_lost g then
                bump ctx.wl "msdq_checks_abandoned_total" []
                  (List.length requests);
              if g.g_doomed then begin
                (* Deadline abandonment: the anytime answer waits out the
                   query's budget from its arrival, then gives up the round
                   trip without putting anything on the wire. The rows it
                   alone certified already demoted in [prepare]; the local
                   result ships still feed certification — that is the
                   anytime floor. *)
                ignore
                  (Engine.delay ctx.eng ~deps:[ arrive ] ~attrs:q
                     ~label:(glbl "deadline")
                     ~duration:(Option.value ~default:Time.zero p.p_deadline)
                     ~on_complete:resolve ())
              end
              else if group_lost g then begin
                (* Abandoned round trip: its retransmission waits are pure
                   latency (PR-4 precedent); the rows already demoted. *)
                bump ctx.wl "msdq_fault_drops_total" []
                  (g.g_req_leg.attempts
                  + if g.g_req_leg.delivered then g.g_ver_leg.attempts else 0);
                ignore
                  (Engine.fence ctx.eng ~deps:[ dispatch ] ~attrs:q
                     ~label:(glbl "lost")
                     ~on_complete:(fun () ->
                       ignore
                         (Engine.delay ctx.eng ~label:(glbl "abandon") ~attrs:q
                            ~duration:wait ~on_complete:resolve ()))
                     ())
              end
              else begin
                let retries = g.g_req_leg.attempts - 1 + (g.g_ver_leg.attempts - 1) in
                bump ctx.wl "msdq_fault_retries_total" [] retries;
                bump ctx.wl "msdq_fault_drops_total" [] retries;
                let contrib =
                  {
                    b_origin_site = origin_site;
                    b_n_reqs = List.length g.g_wire;
                    b_cost = g.g_cost;
                    b_promise = promise;
                    b_acc = acc;
                  }
                in
                ignore
                  (Engine.fence ctx.eng ~deps:[ dispatch ] ~attrs:q
                     ~label:(glbl "dispatch")
                     ~on_complete:(fun () ->
                       if retries = 0 then
                         batcher_add ctx ~target_db:target ~tsite contrib
                       else
                         (* A retry-laden round trip cannot share the
                            window: it replays its own waits first, then
                            flushes alone. *)
                         ignore
                           (Engine.delay ctx.eng ~label:(glbl "retry-wait")
                              ~attrs:q ~duration:wait
                              ~on_complete:(fun () ->
                                flush ctx ~target_db:target ~tsite [ contrib ])
                              ()))
                     ())
              end;
              Some promise
            end)
          groups
      in
      finishf
        (cpu ~site:ctx.gsite ~phase:"I" ~label:(lbl "certify")
           ~units:p.p_global_units ~deps:(ships @ group_promises) ())

(* ------------------------------------------------------------------ *)

let answer_fingerprint answer =
  let buf = Buffer.create 256 in
  List.iter
    (fun (r : Answer.row) ->
      Buffer.add_string buf (Oid.Goid.to_string r.Answer.goid);
      Buffer.add_char buf '|';
      Buffer.add_string buf (Answer.status_to_string r.Answer.status);
      Buffer.add_char buf '|';
      List.iter
        (fun v ->
          Buffer.add_string buf (Value.to_string v);
          Buffer.add_char buf ',')
        r.Answer.values;
      Buffer.add_char buf '\n')
    (Answer.rows answer);
  Oid.Goid.Set.iter
    (fun g ->
      Buffer.add_string buf "degraded ";
      Buffer.add_string buf (Oid.Goid.to_string g);
      (match Answer.degraded_reason answer g with
      | Some why ->
          Buffer.add_string buf ": ";
          Buffer.add_string buf (Answer.reason_to_string why)
      | None -> ());
      Buffer.add_char buf '\n')
    (Answer.degraded answer);
  Buffer.contents buf

(* Engine half: charge the prepared workload to one shared simulated clock
   and assemble the outcome. Shared by {!run} (fixed per-job strategies)
   and {!run_auto} (per-query optimizer decisions) — both prepare first,
   then execute, so AUTO can never change what is answered, only when. *)
let execute ~tracer ~wl ~trace ~shed ~max_queue_depth cfg fed ~extent_caches
    ~verdict_cache prepared =
  let telemetry = cfg.options.Strategy.telemetry in
  let eng = Engine.create ~trace:(trace || telemetry) () in
  Strategy.apply_site_speeds eng cfg.options.Strategy.site_speeds;
  (* Gray slowdowns stretch CPU/disk work at execution time through the
     solo path's fault judge. Link faults stay host-side (fates are
     precomputed at admission; critical transfers never drop), so Link
     tasks bypass the judge. Only installed when the schedule has slowdown
     windows — otherwise the engine runs judge-free as before. *)
  (let sched = cfg.options.Strategy.fault in
   let judge = Fault.judge sched in
   if sched.Fault.slowdowns <> [] then
     Engine.set_judge eng (fun ~site ~kind ~src ~label ~start ~duration ->
         if kind = Resource.Link then None
         else judge ~site ~kind ~src ~label ~start ~duration));
  let ctx =
    {
      cfg;
      eng;
      wl;
      gsite = Federation.global_site fed;
      batchers = Hashtbl.create 4;
      messages = 0;
      coalesced = 0;
    }
  in
  let n = List.length prepared in
  (* Shedding leaves holes in the index space: size completions by the
     largest admitted index, not the admitted count. *)
  let slots =
    List.fold_left (fun m (p : prepared) -> max m (p.p_index + 1)) 1 prepared
  in
  let completions = Array.make slots Time.zero in
  let completed i t = completions.(i) <- t in
  Tracer.with_span tracer ~cat:"serve" "serve.build" (fun () ->
      List.iter (fun p -> build_query ctx p ~completed) prepared);
  Tracer.with_span tracer ~cat:"serve" "serve.run" (fun () -> Engine.run eng);
  let makespan = Array.fold_left Time.max Time.zero completions in
  let reports =
    List.map
      (fun p ->
        bump wl "msdq_deadline_demotions_total"
          [ ("strategy", Strategy.to_string p.p_strategy) ]
          p.p_deadline_demoted;
        {
          index = p.p_index;
          strategy = p.p_strategy;
          arrival = p.p_arrival;
          completed = completions.(p.p_index);
          latency = Time.sub completions.(p.p_index) p.p_arrival;
          answer = p.p_answer;
          extent_hits = p.p_extent_hits;
          verdict_hits = p.p_verdict_hits;
          deadline_demoted = p.p_deadline_demoted;
          registry = p.p_acc.Strategy.reg;
        })
      prepared
  in
  let extent_stats =
    Hashtbl.fold
      (fun _ cache (acc : Lru.stats) ->
        let s = Lru.stats cache in
        {
          Lru.hits = acc.Lru.hits + s.Lru.hits;
          misses = acc.Lru.misses + s.Lru.misses;
          evictions = acc.Lru.evictions + s.Lru.evictions;
          invalidations = acc.Lru.invalidations + s.Lru.invalidations;
          entries = acc.Lru.entries + s.Lru.entries;
          bytes = acc.Lru.bytes + s.Lru.bytes;
        })
      extent_caches
      {
        Lru.hits = 0;
        misses = 0;
        evictions = 0;
        invalidations = 0;
        entries = 0;
        bytes = 0;
      }
  in
  let verdict_stats = Lru.stats verdict_cache in
  (* Per-destination observed check-leg latency: the legs [prepare] timed
     (delivered legs that went on the wire; loss is a separate signal),
     averaged per site over the admitted queries, so a shed victim's legs
     drop out with it. This is what a real sender's RTT estimator would
     see, and what the telemetry store records for adaptive timeouts to
     consult. *)
  let check_latency =
    let legs =
      List.concat_map
        (fun (p : prepared) ->
          match p.p_plan with
          | Centralized _ -> []
          | Localized { groups; _ } -> List.concat_map (fun g -> g.g_leg_us) groups)
        prepared
    in
    List.map
      (fun site ->
        let us =
          List.filter_map (fun (s, us) -> if s = site then Some us else None) legs
        in
        let n = List.length us in
        (site, List.fold_left ( +. ) 0.0 us /. float_of_int n, n))
      (List.sort_uniq compare (List.map fst legs))
  in
  let cache_counters label (s : Lru.stats) =
    bump wl "msdq_cache_hits_total" [ ("cache", label) ] s.Lru.hits;
    bump wl "msdq_cache_misses_total" [ ("cache", label) ] s.Lru.misses;
    bump wl "msdq_cache_evictions_total" [ ("cache", label) ] s.Lru.evictions;
    bump wl "msdq_cache_invalidations_total" [ ("cache", label) ]
      s.Lru.invalidations
  in
  cache_counters "extent" extent_stats;
  cache_counters "verdict" verdict_stats;
  bump wl "msdq_coalesced_checks_total" [] ctx.coalesced;
  List.iter
    (fun s ->
      bump wl "msdq_shed_total"
        [ ("policy", shed_policy_to_string s.s_policy) ]
        1)
    shed;
  Metrics.set
    (Metrics.gauge wl "msdq_queue_depth")
    (float_of_int max_queue_depth);
  let entries = Trace.entries (Engine.trace eng) in
  if telemetry then begin
    Strategy.record_latency_histograms wl entries;
    List.iter
      (fun r ->
        Strategy.observe_query_latency wl
          ~sname:(Strategy.to_string r.strategy)
          r.latency)
      reports
  end;
  {
    reports;
    shed;
    makespan;
    throughput =
      (if Time.compare makespan Time.zero > 0 then
         float_of_int n /. Time.to_s makespan
       else 0.0);
    extent_cache = extent_stats;
    verdict_cache = verdict_stats;
    messages = ctx.messages;
    coalesced_checks = ctx.coalesced;
    max_queue_depth;
    check_latency;
    registry = wl;
    trace = entries;
  }

(* One arrival through the bounded queue. Returns [`Shed] or
   [`Admit (strategy, qdelay, predicted response, evicted index)].
   [degrade_to] supplies the cheapest predicted plan (only consulted when
   the Degrade policy fires over capacity); [predicted] maps a strategy to
   its [(total, response)] Planner prediction. The virtual single-server
   queue charges each query its predicted {e total} work: a single server
   has no idle parallelism to exploit, so total charged work — not the
   critical-path response the model credits with cross-site overlap — is
   the occupancy unit, and over-estimating service sheds early, the safe
   direction for a tail-latency bound. Deadline fating keeps using the
   response: the budget races the verdicts' critical path, not the
   server's occupancy. *)
let admission_step adm cfg ~index ~arrival ~deadline ~strategy ~degrade_to
    ~predicted =
  let admit ~evicted st =
    let service, response = predicted st in
    let qdelay = admission_push adm ~index ~arrival ~service in
    admission_observe_miss adm ~deadline ~qdelay ~service:response;
    `Admit (st, qdelay, response, evicted)
  in
  if not (over_capacity adm ~at:arrival) then admit ~evicted:None strategy
  else
    match cfg.shed_policy with
    | Degrade -> admit ~evicted:None (degrade_to ())
    | Reject_newest -> `Shed
    | Reject_oldest -> (
        match admission_evict_oldest adm ~at:arrival with
        | Some victim -> admit ~evicted:(Some victim) strategy
        | None -> `Shed)

(* One arrival as a chooser hands it to the admission loop: the job to
   admit, carrying the strategy the chooser picked; the Planner's
   [(total, response)] prediction per strategy; the cheapest predicted plan
   for the Degrade policy; and what to learn from the query once it is
   admitted and prepared. *)
type choice = {
  job : job;
  predict : Strategy.t -> Time.t * Time.t;
  degrade_to : unit -> Strategy.t;
  on_admit : prepared -> unit;
}

let predict_one ~cost fed analysis st =
  match Planner.predict ~cost ~strategies:[ st ] fed analysis with
  | [ pr ] -> (pr.Planner.total, pr.Planner.response)
  | _ -> (Time.zero, Time.zero)

(* The admission loop {!run} and {!run_auto} share: each arrival, in order,
   gets its [choose] decision, goes through the bounded queue and, when
   admitted, is prepared; the prepared workload then runs on one engine. *)
let serve_stream ~tracer ~wl ~trace cfg fed arrivals ~choose =
  let extent_caches : (int, unit Lru.t) Hashtbl.t = Hashtbl.create 8 in
  let verdict_cache = Lru.create ~capacity_bytes:cfg.cache_bytes in
  let signatures = lazy (Sig_catalog.build fed) in
  let adm = admission_create cfg in
  let rev_shed = ref [] in
  let rev_prepared = ref [] in
  let shed s_index s_strategy s_arrival =
    rev_shed :=
      { s_index; s_strategy; s_arrival; s_policy = cfg.shed_policy } :: !rev_shed
  in
  Tracer.with_span tracer ~cat:"serve" "serve.prepare" (fun () ->
      List.iteri
        (fun i a ->
          let ch = choose adm a in
          let j = ch.job in
          let deadline =
            match j.deadline with Some _ as d -> d | None -> cfg.deadline
          in
          match
            admission_step adm cfg ~index:i ~arrival:j.arrival ~deadline
              ~strategy:j.strategy ~degrade_to:ch.degrade_to
              ~predicted:ch.predict
          with
          | `Shed -> shed i j.strategy j.arrival
          | `Admit (st, qdelay, response, evicted) ->
              Option.iter
                (fun victim ->
                  match
                    List.find_opt (fun p -> p.p_index = victim) !rev_prepared
                  with
                  | Some vp ->
                      rev_prepared :=
                        List.filter (fun p -> p.p_index <> victim) !rev_prepared;
                      shed victim vp.p_strategy vp.p_arrival
                  | None -> ())
                evicted;
              let p =
                Tracer.with_span tracer ~cat:"serve"
                  ~args:
                    [
                      ("query", string_of_int i);
                      ("strategy", Strategy.to_string st);
                    ]
                  "serve.prepare.query"
                @@ fun () ->
                prepare cfg fed tracer ~extent_caches ~verdict_cache
                  ~signatures ~qdelay ~predicted:response i
                  { j with strategy = st }
              in
              ch.on_admit p;
              rev_prepared := p :: !rev_prepared)
        arrivals);
  let shed = List.sort (fun a b -> compare a.s_index b.s_index) !rev_shed in
  execute ~tracer ~wl ~trace ~shed ~max_queue_depth:adm.a_max_depth cfg fed
    ~extent_caches ~verdict_cache (List.rev !rev_prepared)

let run ?(tracer = Tracer.disabled) ?registry ?(trace = false) cfg fed jobs =
  validate cfg (List.map (fun (j : job) -> (j.arrival, j.deadline)) jobs);
  if List.exists (fun (j : job) -> j.strategy = Strategy.Cf) jobs then
    invalid_arg "Serve: strategy CF has no serve-path integration";
  let cost = cfg.options.Strategy.cost in
  (* Predictions cost catalog work; skip them entirely when no overload
     control is configured, so unbounded serving is byte-for-byte the
     pre-overload engine. *)
  let need_pred =
    cfg.deadline <> None || cfg.queue_limit <> None
    || List.exists (fun (j : job) -> j.deadline <> None) jobs
  in
  serve_stream ~tracer ~trace cfg fed jobs
    ~wl:(match registry with Some r -> r | None -> Metrics.create ())
    ~choose:(fun _ (j : job) ->
      {
        job = j;
        predict =
          (fun st ->
            if need_pred then predict_one ~cost fed j.analysis st
            else (Time.zero, Time.zero));
        degrade_to =
          (fun () ->
            fst
              (Planner.choose ~cost ~strategies:Optimizer.candidates
                 ~objective:Planner.Response_time fed j.analysis));
        on_admit = ignore;
      })

(* ------------------------------------------------------------------ *)
(* AUTO: adaptive per-query strategy selection with breaker-driven
   re-planning. *)

type auto_decision = {
  d_index : int;
  d_arrival : Time.t;
  d_preferred : Strategy.t;
  d_chosen : Strategy.t;
  d_switched : bool;
  d_reason : string option;
}

type auto_outcome = {
  auto : outcome;
  decisions : auto_decision list;
  switches : int;
}

let run_auto ?(tracer = Tracer.disabled) ?registry ?(trace = false) ?store
    ?objective cfg fed jobs =
  validate cfg (List.map (fun (_, arrival) -> (arrival, None)) jobs);
  let wl = match registry with Some r -> r | None -> Metrics.create () in
  let sched = cfg.options.Strategy.fault in
  let cost = cfg.options.Strategy.cost in
  let breaker =
    Recovery.Breaker.create
      ~threshold:cfg.options.Strategy.recovery.Recovery.breaker_threshold
      ~sched ()
  in
  let switches = ref 0 in
  let rev_decisions = ref [] in
  (* Gray detection: a per-site EWMA over "slow check leg" observations
     from earlier queries. A delivered leg counts as slow when adaptive
     timeouts are armed and its latency exceeds the site's fault-free
     baseline by [gray_slow_ratio] — in the simulation the observed/
     baseline ratio is exactly the schedule's stretch (link inflation, or
     the target's slowdown factor for the serving work), so the detector
     reduces to comparing the stretch itself. Purely causal: query i's
     decision sees only legs of queries < i, and static-timeout runs never
     mark anything gray (the historical behaviour). *)
  let adaptive_on = cfg.options.Strategy.retry.Strategy.adaptive <> None in
  let gray_ewma : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let gray_cell site =
    match Hashtbl.find_opt gray_ewma site with
    | Some r -> r
    | None ->
        let r = ref 0.0 in
        Hashtbl.add gray_ewma site r;
        r
  in
  (* Feed the breaker from a query's check-request legs (request legs only
     — verdict legs terminate at the global site, which has no alternative
     route; see {!Recovery.Breaker}) and the gray EWMA from every leg the
     detector could time: delivered legs observe their stretch, and a leg
     that was not slow decays the signal. *)
  let learn (p : prepared) =
    match p.p_plan with
    | Centralized _ -> ()
    | Localized { groups; _ } ->
        List.iter
          (fun g ->
            let tsite = g.g_plan.Strategy.target_site in
            let leg = g.g_req_leg in
            let failures =
              if leg.delivered then leg.attempts - 1 else leg.attempts
            in
            for _ = 1 to failures do
              Recovery.Breaker.failure breaker ~site:tsite ~at:p.p_arrival
            done;
            if leg.delivered then Recovery.Breaker.success breaker ~site:tsite;
            if adaptive_on && leg.delivered then begin
              let stretch =
                Float.max
                  (link_inflate sched ~dst:tsite)
                  (Fault.slow_factor sched ~site:tsite ~at:p.p_arrival)
              in
              let slow = stretch >= gray_slow_ratio in
              if slow then bump wl "msdq_gray_slow_legs_total" [] 1;
              let cell = gray_cell tsite in
              cell :=
                ((1.0 -. gray_alpha) *. !cell)
                +. (gray_alpha *. if slow then 1.0 else 0.0)
            end)
          groups
  in
  let choose adm (analysis, arrival) =
    (* Mid-stream re-planning: a link whose breaker opened on earlier
       queries' check legs is degraded for every query admitted before its
       half-open probe instant. *)
    let degraded =
      List.filter_map
        (fun (db_name, _) ->
          let site = Federation.site_of fed db_name in
          if Recovery.Breaker.live breaker ~site ~at:arrival then None
          else Some site)
        (Federation.databases fed)
    in
    let gray =
      Hashtbl.fold
        (fun site r acc -> if !r > gray_threshold then site :: acc else acc)
        gray_ewma []
    in
    (* Backpressure: the virtual queue's depth plus the deadline-miss EWMA
       penalize expensive candidates inside the optimizer. *)
    let overload = admission_overload adm ~at:arrival in
    let d =
      Optimizer.decide ?store ?objective ~degraded ~gray ~overload fed analysis
    in
    (match d.Optimizer.fallback with
    | Some (Optimizer.Gray _) -> bump wl "msdq_gray_fallbacks_total" [] 1
    | Some (Optimizer.Breaker_open _) | None -> ());
    {
      job = { strategy = d.Optimizer.chosen; analysis; arrival; deadline = None };
      predict =
        (fun st ->
          match
            List.find_opt
              (fun pr -> pr.Planner.strategy = st)
              d.Optimizer.predictions
          with
          | Some pr -> (pr.Planner.total, pr.Planner.response)
          | None -> predict_one ~cost fed analysis st);
      degrade_to =
        (fun () ->
          match
            List.sort
              (fun a b ->
                Float.compare
                  (Time.to_us a.Planner.response)
                  (Time.to_us b.Planner.response))
              d.Optimizer.predictions
          with
          | best :: _ -> best.Planner.strategy
          | [] -> d.Optimizer.chosen);
      on_admit =
        (fun p ->
          let st = p.p_strategy in
          let forced = st <> d.Optimizer.chosen in
          if d.Optimizer.switched || forced then incr switches;
          bump wl "msdq_auto_decisions_total"
            [ ("strategy", Strategy.to_string st) ]
            1;
          rev_decisions :=
            {
              d_index = p.p_index;
              d_arrival = arrival;
              d_preferred = d.Optimizer.preferred;
              d_chosen = st;
              d_switched = d.Optimizer.switched || forced;
              d_reason =
                (if forced then
                   Some
                     (Printf.sprintf
                        "over capacity: degraded plan to cheapest predicted \
                         (%s)"
                        (Strategy.to_string st))
                 else Optimizer.reason d);
            }
            :: !rev_decisions;
          learn p);
    }
  in
  let outcome = serve_stream ~tracer ~wl ~trace cfg fed jobs ~choose in
  bump wl "msdq_auto_switches_total" [] !switches;
  { auto = outcome; decisions = List.rev !rev_decisions; switches = !switches }
