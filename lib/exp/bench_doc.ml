module Json = Msdq_obs.Json

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf (fun s -> Error s) fmt
let check ok fmt = Printf.ksprintf (fun s -> if ok then Ok () else Error s) fmt

let field conv ~what key j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> error "missing or ill-typed %s %S" what key

let member = field Option.some
let int = field Json.to_int
let float = field Json.to_float
let str = field Json.to_str
let list = field Json.to_list

let rec each xs f =
  match xs with
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    each rest f

let rec map xs f =
  match xs with
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map rest f in
    Ok (y :: ys)

let floats ~what key j =
  let* items = list ~what key j in
  map items (fun v ->
      match Json.to_float v with
      | Some x -> Ok x
      | None -> error "%s %S holds a non-number" what key)

let nonempty ~what key j =
  let* items = list ~what key j in
  if items = [] then error "%s %S is empty" what key else Ok items

let nonneg ~what v =
  check ((not (Float.is_nan v)) && v >= 0.0) "%s must be a non-negative number" what

let fraction ~what v =
  check ((not (Float.is_nan v)) && v >= 0.0 && v <= 1.0) "%s outside [0, 1]" what

let grid ~section ~axis ~arrays j =
  let* xs = floats ~what:section axis j in
  let* () = check (xs <> []) "%s %S is empty" section axis in
  let* series = nonempty ~what:section "series" j in
  map series (fun ser ->
      let* label = str ~what:(section ^ " series") "label" ser in
      let what = section ^ " " ^ label in
      let* columns =
        map arrays (fun (field, ok) ->
            let* values = floats ~what field ser in
            let* () =
              check
                (List.length values = List.length xs)
                "%s %s length differs from %s" what field axis
            in
            let* () = each values (ok ~what:(what ^ " " ^ field)) in
            Ok (field, values))
      in
      Ok (label, columns))

type better = Lower | Higher | Rate
type measure = { name : string; value : float; better : better }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let series_means ~field ~noun ~better series =
  List.map
    (fun (label, columns) ->
      {
        name = Printf.sprintf "%s mean %s" label noun;
        value = mean (List.assoc field columns);
        better;
      })
    series
