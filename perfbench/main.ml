(* Entry point: main.exe --workload NAME --seed N --seconds S --trace 0|1
   --rundir DIR --cli PATH, run from the repository root.  [run.py]
   builds this and the CLI, makes the private run directory and removes
   it afterwards. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rundir = ref "" and cli = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "dispatch-bound | serve-mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 for the traced run (per-layer metrics)");
      ("--rundir", Arg.Set_string rundir, "private scratch directory");
      ("--cli", Arg.Set_string cli, "path of the built ogb CLI (serve-mixed)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --rundir DIR --cli PATH";
  if !rundir = "" then (prerr_endline "--rundir is required"; exit 2);
  let trace = !trace = 1 in
  let seconds = !seconds and seed = !seed and rundir = !rundir in
  let result =
    match !workload with
    | "dispatch-bound" -> Passes.run ~seed ~seconds ~trace ~rundir
    | "serve-mixed" -> Serve.run ~seed ~seconds ~trace ~rundir ~cli:!cli
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  exit (Report.emit ~workload:!workload ~trace result)
