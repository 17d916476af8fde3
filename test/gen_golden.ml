(* Regenerates the golden files under test/golden/ from the current export
   code, one report and one trace per case in [Golden_cases.cases]. Run from
   the repository root after an intentional format change:

     dune exec test/gen_golden.exe

   and review the diff before committing. *)

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  List.iter
    (fun case ->
      List.iter
        (fun (file, contents) -> write ("test/golden/" ^ file) contents)
        (Golden_cases.exports case))
    Golden_cases.cases
