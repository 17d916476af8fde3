(* Byte-for-byte pins of the sweep and serve command lines and of the bench
   gate, plus the bench tools' handling of missing inputs.

   Every registered sweep runs as [msdq experiment <id>] at two samples,
   seed 1996, on one worker, in text and in --json form; the output must
   match test/golden/sweeps/<id>.{txt,json}. (CI diffs the same --json
   output at four workers against the same files.)
   The bench gate runs once per committed baseline, as
   [bench_gate --baseline bench/results --fresh bench/results/<f>] from the
   source root, and must print test/golden/gate/<f>.txt.

   To regenerate a sweep golden after an intentional change, from the
   repo root:
     dune exec bin/msdq.exe -- experiment fault-sweep --samples 2 \
       --seed 1996 --jobs 1 [--json] > test/golden/sweeps/fault-sweep.txt
   and likewise for the gate. Review the diff before committing.

   Four [msdq serve --queries 6] runs (see [serve_cases]) are pinned the
   same way in test/golden/serve/<case>.{txt,json}; the gray run's
   --trace-out Chrome trace is pinned as test/golden/serve/gray.trace.json.
   Regenerate with, e.g.:
     dune exec bin/msdq.exe -- serve --queries 6 --strategy auto --json \
       > test/golden/serve/auto.json *)

let root = Filename.dirname (Filename.dirname Sys.executable_name)
let msdq_exe = Filename.concat root "bin/msdq.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Runs [cmd] (already quoted, stdout redirected to a temp file) and
   returns its stdout; a non-zero exit fails the test. *)
let stdout_of ~what build =
  let tmp = Filename.temp_file "msdq_golden" ".out" in
  let rc = Sys.command (build tmp) in
  let out = read_file tmp in
  Sys.remove tmp;
  if rc <> 0 then Alcotest.failf "%s exited %d" what rc;
  out

let msdq args =
  stdout_of
    ~what:(String.concat " " ("msdq" :: args))
    (fun tmp -> Filename.quote_command msdq_exe ~stdout:tmp args)

(* [msdq args] and [msdq args --json] must print [dir/name.txt] and
   [dir/name.json]. *)
let test_text_and_json ~dir name args () =
  List.iter
    (fun (ext, extra) ->
      Alcotest.(check string)
        (name ^ ext)
        (read_file (Printf.sprintf "golden/%s/%s%s" dir name ext))
        (msdq (args @ extra)))
    [ (".txt", []); (".json", [ "--json" ]) ]

let test_sweep id =
  test_text_and_json ~dir:"sweeps" id
    [ "experiment"; id; "--samples"; "2"; "--seed"; "1996"; "--jobs"; "1" ]

let serve_cases =
  [
    ("bl-cache-window", [ "--strategy"; "BL"; "--cache-mb"; "4"; "--window"; "500" ]);
    ("auto", [ "--strategy"; "auto" ]);
    ( "overload",
      [
        "--arrival"; "200"; "--deadline"; "40"; "--queue-limit"; "1";
        "--shed-policy"; "reject-oldest";
      ] );
    ( "gray",
      [
        "--strategy"; "auto"; "--adaptive"; "--flap-ms"; "27"; "--drop"; "0.1";
        "--inflate"; "2";
      ] );
  ]

let serve_args args = "serve" :: "--queries" :: "6" :: args

let test_serve_trace () =
  let trace = Filename.temp_file "msdq_golden" ".trace.json" in
  ignore
    (msdq
       (serve_args (List.assoc "gray" serve_cases @ [ "--json"; "--trace-out"; trace ])));
  let got = read_file trace in
  Sys.remove trace;
  Alcotest.(check string) "gray.trace.json" (read_file "golden/serve/gray.trace.json") got

(* The baselines are a dune dependency of the suite; outside [dune test]
   (e.g. [dune exec test/main.exe -- test fault]) the directory is absent
   and the gate cases are simply not registered. *)
let baselines =
  match Sys.readdir (Filename.concat root "bench/results") with
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  | exception Sys_error _ -> []

let test_gate file () =
  let fresh = "bench/results/" ^ file in
  let got =
    stdout_of ~what:("bench_gate --fresh " ^ fresh) (fun tmp ->
        Printf.sprintf "cd %s && %s" (Filename.quote root)
          (Filename.quote_command "tools/bench_gate.exe" ~stdout:tmp
             [ "--baseline"; "bench/results"; "--fresh"; fresh ]))
  in
  Alcotest.(check string)
    file
    (read_file ("golden/gate/" ^ Filename.chop_suffix file ".json" ^ ".txt"))
    got

(* A missing input is a one-line diagnostic naming the path and exit 1,
   never an uncaught exception. *)
let test_missing_inputs () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "msdq-no-such" in
  let missing_json = missing ^ ".json" in
  List.iter
    (fun (exe, args, path) ->
      let out = Filename.temp_file "msdq_missing" ".out" in
      let rc =
        Sys.command
          (Filename.quote_command (Filename.concat root exe) ~stdout:out
             ~stderr:out args)
      in
      let text = read_file out in
      Sys.remove out;
      let what = String.concat " " (exe :: args) in
      Alcotest.(check int) (what ^ " exit code") 1 rc;
      Alcotest.(check int)
        (what ^ " prints one line") 1
        (List.length (String.split_on_char '\n' (String.trim text)));
      let contains =
        let n = String.length text and m = String.length path in
        let rec scan i = i + m <= n && (String.sub text i m = path || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (what ^ " names " ^ path) true contains)
    [
      ("tools/bench_gate.exe", [ "--baseline"; missing; "--fresh"; missing_json ], missing);
      ( "tools/bench_gate.exe",
        [ "--baseline"; Filename.concat root "bench/results"; "--fresh"; missing_json ],
        missing_json );
      ("bench/main.exe", [ "--check"; missing_json ], missing_json);
    ]

let suite =
  List.map
    (fun (s : Msdq_exp.Sweep.t) ->
      let id = s.Msdq_exp.Sweep.id in
      Alcotest.test_case (id ^ " output") `Quick (test_sweep id))
    Msdq_exp.Sweep.registry
  @ List.map
      (fun (name, args) ->
        Alcotest.test_case ("serve " ^ name ^ " output") `Quick
          (test_text_and_json ~dir:"serve" name (serve_args args)))
      serve_cases
  @ [ Alcotest.test_case "serve trace" `Quick test_serve_trace ]
  @ List.map
      (fun file ->
        Alcotest.test_case ("gate on " ^ file) `Quick (test_gate file))
      baselines
  @ [ Alcotest.test_case "missing inputs diagnosed" `Quick test_missing_inputs ]
