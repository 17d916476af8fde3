(* bench_gate — the CI bench-regression gate.

   Compares a freshly generated BENCH_*.json against the committed baseline
   in bench/results/ and fails (exit 1) on:

   - schema violations in either document (Run_report.validate_bench);
   - a broken win condition in the fresh document: every sweep in
     Sweep.registry that declares one is re-checked here and reported on
     its own line (the conditions themselves live with the sweeps — see
     each sweep module's [win]);
   - a microbench bar break (the columnar local-eval speedup falling under
     5x, or the bitset signature filter losing to the per-object one —
     both same-process ratios, so safe to gate cross-machine);
   - per-section simulated-time regressions beyond --tolerance (default
     0.2 = 20%) against the baseline: the demo-workload strategies, the
     latency quantiles and each sweep's measures.

   Simulated times are deterministic given a seed, so a sweep section is
   only compared when the two documents agree on its keys (seed, sample
   count, sizes); anything else is an apples-to-oranges diff and is
   skipped with a printed reason. The demo-workload strategies section and
   the latency quantiles use fixed internal seeds and are always compared.
   Bechamel wall-clock medians are machine-dependent and never gated.

   Usage: bench_gate --baseline FILE|DIR --fresh FILE [--tolerance F]
   A DIR baseline picks the lexicographically last BENCH_*.json in it
   (timestamps sort, so that is the newest). *)

module Json = Msdq_obs.Json
module Run_report = Msdq_exp.Run_report
module Sweep = Msdq_exp.Sweep
module Bench_doc = Msdq_exp.Bench_doc

let failed = ref false

let fail fmt =
  Format.kasprintf
    (fun s ->
      failed := true;
      Format.printf "FAIL %s@." s)
    fmt

let skip fmt = Format.kasprintf (fun s -> Format.printf "skip %s@." s) fmt
let pass fmt = Format.kasprintf (fun s -> Format.printf "ok   %s@." s) fmt

(* A missing or unreadable input is a usage error, not a regression. *)
let die_unreadable msg =
  Format.eprintf "bench_gate: cannot read %s@." msg;
  exit 1

(* ---- JSON helpers ---- *)

let str k j = Option.bind (Json.member k j) Json.to_str
let int k j = Option.bind (Json.member k j) Json.to_int
let num k j = Option.bind (Json.member k j) Json.to_float

(* Entries of an array section keyed by a name field. *)
let keyed ~key ~section j =
  match Option.bind (Json.member section j) Json.to_list with
  | None -> []
  | Some entries ->
    List.filter_map
      (fun e -> Option.map (fun name -> (name, e)) (str key e))
      entries

(* ---- document loading ---- *)

let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die_unreadable msg

let load_doc ~role path contents =
  match Json.of_string contents with
  | Error msg ->
    fail "%s %s: not valid JSON: %s" role path msg;
    None
  | Ok doc -> (
    match Run_report.validate_bench doc with
    | Ok () ->
      pass "%s %s: valid %s document" role path
        (Option.value ~default:"(unversioned)" (str "schema" doc));
      Some doc
    | Error msg ->
      fail "%s %s: %s" role path msg;
      None)

let resolve_baseline path =
  match Sys.is_directory path with
  | exception Sys_error msg -> die_unreadable msg
  | false -> Some path
  | true -> (
    let entries =
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    match List.rev entries with
    | [] ->
      fail "baseline directory %s holds no BENCH_*.json" path;
      None
    | latest :: _ -> Some (Filename.concat path latest))

(* ---- win conditions on the fresh document ---- *)

(* The id's first word names the rank line: "x-sweep" reports as
   "x ranks". *)
let rank_label (spec : Sweep.t) =
  match String.index_opt spec.Sweep.id '-' with
  | Some i -> String.sub spec.Sweep.id 0 i
  | None -> spec.Sweep.id

let check_win fresh (spec : Sweep.t) =
  match spec.Sweep.win with
  | None -> ()
  | Some win -> (
    let label = rank_label spec in
    match Json.member spec.Sweep.section fresh with
    | None ->
      skip "%s ranks: fresh document has no %s section" label
        spec.Sweep.section
    | Some section -> (
      match win section with
      | Ok summary -> pass "%s ranks: %s" label summary
      | Error msg -> fail "%s ranks: %s" label msg))

(* The columnar engine's acceptance bar (the /10 section): the same-process
   speedup of columnar over boxed local evaluation must hold >= 5x, and the
   bitset signature filter must not be slower than the per-object one.
   Raw objects/sec are machine-dependent and never compared across
   documents — only these within-document ratios are gated. *)
let check_microbench_ranks fresh =
  match Json.member "microbench" fresh with
  | None -> skip "microbench ranks: fresh document has no microbench section"
  | Some m ->
    let speedup section =
      Option.bind (Json.member section m) (num "speedup")
    in
    (match speedup "local_eval" with
    | None -> fail "microbench ranks: local_eval speedup missing"
    | Some s when s < 5.0 ->
      fail "microbench ranks: columnar local-eval speedup %.2fx below the \
            5x bar"
        s
    | Some s -> pass "microbench ranks: columnar local-eval speedup %.1fx" s);
    (match speedup "signature_filter" with
    | None -> fail "microbench ranks: signature_filter speedup missing"
    | Some s when s < 1.0 ->
      fail "microbench ranks: bitset signature filter %.2fx slower than the \
            per-object filter"
        s
    | Some s ->
      pass "microbench ranks: bitset signature-filter speedup %.1fx" s)

(* ---- regression comparisons against the baseline ---- *)

(* Every fresh measure against the baseline measure of the same name. A
   relative bound needs a positive baseline, so a zero baseline time is
   not compared. *)
let compare_measures ~tolerance ~what ~summary ~base ~fresh =
  List.iter
    (fun (f : Bench_doc.measure) ->
      let name = Printf.sprintf "%s %s" what f.Bench_doc.name in
      match
        List.find_opt
          (fun (b : Bench_doc.measure) ->
            String.equal b.Bench_doc.name f.Bench_doc.name)
          base
      with
      | None -> skip "%s: not in baseline" name
      | Some b -> (
        let baseline = b.Bench_doc.value and fresh = f.Bench_doc.value in
        match f.Bench_doc.better with
        | Bench_doc.Lower ->
          if baseline > 0.0 && fresh > (baseline *. (1.0 +. tolerance)) +. 1e-12
          then
            fail "%s: %g regressed beyond %g x (1 + %.2f)" name fresh baseline
              tolerance
        | Bench_doc.Higher ->
          if fresh < (baseline /. (1.0 +. tolerance)) -. 1e-12 then
            fail "%s: %g dropped beyond %g / (1 + %.2f)" name fresh baseline
              tolerance
        | Bench_doc.Rate ->
          if fresh < baseline -. tolerance then
            fail "%s: %s fell from %.2f to %.2f" what f.Bench_doc.name
              baseline fresh))
    fresh;
  pass "%s: %s within tolerance" what summary

(* One time measure per (entry, field) of an array section keyed by name. *)
let entry_times ~section ~fields doc =
  List.concat_map
    (fun (name, entry) ->
      List.filter_map
        (fun field ->
          Option.map
            (fun value ->
              {
                Bench_doc.name = name ^ " " ^ field;
                value;
                better = Bench_doc.Lower;
              })
            (num field entry))
        fields)
    (keyed ~key:"name" ~section doc)

(* A sweep section is only comparable when both documents drew it with
   the same keys. *)
let compare_sweep ~tolerance ~base ~fresh (spec : Sweep.t) =
  let section = spec.Sweep.section in
  match (Json.member section base, Json.member section fresh) with
  | None, _ -> skip "%s: baseline predates this section" section
  | _, None -> skip "%s: missing from the fresh document" section
  | Some b, Some f -> (
    let mismatches =
      List.filter_map
        (fun key ->
          match (int key b, int key f) with
          | Some x, Some y when x = y -> None
          | Some x, Some y -> Some (Printf.sprintf "%s %d vs %d" key x y)
          | _ -> Some (key ^ " missing"))
        spec.Sweep.keys
    in
    match mismatches with
    | _ :: _ -> skip "%s: %s" section (String.concat ", " mismatches)
    | [] ->
      compare_measures ~tolerance ~what:section ~summary:spec.Sweep.summary
        ~base:(spec.Sweep.measures b) ~fresh:(spec.Sweep.measures f))

(* ---- driver ---- *)

let () =
  let baseline = ref "" in
  let fresh = ref "" in
  let tolerance = ref 0.2 in
  let spec =
    [
      ( "--baseline",
        Arg.Set_string baseline,
        "PATH  baseline BENCH_*.json, or a directory (newest file wins)" );
      ("--fresh", Arg.Set_string fresh, "FILE  freshly generated BENCH_*.json");
      ( "--tolerance",
        Arg.Set_float tolerance,
        "F  allowed relative regression (default 0.2)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench_gate --baseline FILE|DIR --fresh FILE [--tolerance F]";
  if !baseline = "" || !fresh = "" then begin
    prerr_endline "bench_gate: --baseline and --fresh are required";
    exit 2
  end;
  if !tolerance < 0.0 || Float.is_nan !tolerance then begin
    prerr_endline "bench_gate: --tolerance must be >= 0";
    exit 2
  end;
  let tolerance = !tolerance in
  (match resolve_baseline !baseline with
  | None -> ()
  | Some base_path -> (
    (* read both before reporting on either *)
    let base_text = read base_path in
    let fresh_text = read !fresh in
    let base = load_doc ~role:"baseline" base_path base_text in
    let fresh = load_doc ~role:"fresh" !fresh fresh_text in
    match (base, fresh) with
    | Some base, Some fresh ->
      List.iter (check_win fresh) Sweep.registry;
      check_microbench_ranks fresh;
      compare_measures ~tolerance ~what:"strategies"
        ~summary:"per-strategy demo times"
        ~base:
          (entry_times ~section:"strategies" ~fields:[ "total_s"; "response_s" ]
             base)
        ~fresh:
          (entry_times ~section:"strategies" ~fields:[ "total_s"; "response_s" ]
             fresh);
      compare_measures ~tolerance ~what:"latency"
        ~summary:"per-strategy quantiles"
        ~base:(entry_times ~section:"latency" ~fields:[ "p50_us"; "p99_us" ] base)
        ~fresh:
          (entry_times ~section:"latency" ~fields:[ "p50_us"; "p99_us" ] fresh);
      List.iter (compare_sweep ~tolerance ~base ~fresh) Sweep.registry
    | _ -> ()));
  if !failed then begin
    Format.printf "@.bench gate: FAILED@.";
    exit 1
  end
  else Format.printf "@.bench gate: passed@."
