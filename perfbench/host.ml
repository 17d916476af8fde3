(* Host speed, measured so that host timings can be reported at one fixed
   speed.

   On a shared host the same code runs up to 1.7 times slower from one
   minute to the next, and the slowdown reaches every workload alike. A
   fixed kernel, built from the standard library alone so that no change to
   lib/ alters it, runs at intervals through the measured work. Host times
   are then reported scaled to a host on which the kernel takes
   [reference_s]: a time t measured during the run becomes
   t * reference_s / m, with m the run's mean kernel time. The kernel runs
   at even intervals of wall time, so m is proportional to the mean
   slowdown over the run, which is what stretches the run's total time; a
   median would not scale the same way. *)

let reference_s = 0.01

(* Allocation, hashing and array traffic, as in the workloads. About 8 ms
   on an unloaded 2-core x86-64 VM. *)
let kernel () =
  let h = Hashtbl.create 4096 in
  let a = Array.make 65536 0 in
  let acc = ref 0 in
  for i = 0 to 6_000 do
    let l = List.init 16 (fun j -> ((i * 7919) + (j * 104729)) land 65535) in
    List.iter
      (fun k ->
        a.(k) <- a.(k) + i;
        Hashtbl.replace h (k land 4095) (float_of_int k *. 1.5, l))
      l;
    acc := !acc + List.fold_left ( + ) 0 l
  done;
  ignore (Sys.opaque_identity (!acc, h, a))

type t = { every_s : float; mutable last : float; mutable samples : float list }

let create ?(every_s = 0.1) () = { every_s; last = neg_infinity; samples = [] }

(* Runs and times the kernel if [every_s] have passed since it last ran. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  if t0 -. t.last >= t.every_s then begin
    kernel ();
    let t1 = Unix.gettimeofday () in
    t.samples <- (t1 -. t0) :: t.samples;
    t.last <- t1
  end

let kernel_s t =
  if t.samples = [] then invalid_arg "Host.kernel_s: the kernel never ran";
  Samples.Stats.mean t.samples

(* The factor that turns a time measured during the run into reference
   seconds. *)
let scale t = reference_s /. kernel_s t
