let suites =
  [ ("internals", Test_internals.suite);
    ("dtype", Test_dtype.suite);
    ("operators", Test_operators.suite);
    ("containers", Test_containers.suite);
    ("output-write", Test_output.suite);
    ("ewise", Test_ewise.suite);
    ("matmul", Test_matmul.suite);
    ("apply-reduce", Test_apply_reduce.suite);
    ("extract-assign", Test_extract_assign.suite);
    ("utilities", Test_utilities.suite);
    ("matrix-market", Test_io.suite);
    ("graphs", Test_graphs.suite);
    ("jit", Test_jit.suite);
    ("jit-codegen", Test_jit_codegen.suite);
    ("minivm", Test_minivm.suite);
    ("dsl", Test_dsl.suite);
    ("vm-bridge", Test_vm_bridge.suite);
    ("expr-random", Test_expr_random.suite);
    ("exec", Test_exec.suite);
    ("pprint", Test_pprint.suite);
    ("notation (Table I)", Test_notation.suite);
    ("algorithms", Test_algorithms.suite);
    ("workloads", Test_workloads.suite);
    ("formats", Test_formats.suite);
    ("extensions", Test_extensions.suite);
    ("analysis", Test_analysis.suite);
    ("effects", Test_effects.suite);
    ("fault", Test_fault.suite);
    ("parallel", Test_parallel.suite);
    ("serve", Test_serve.suite);
    ("cost", Test_cost.suite);
    ("oocore", Test_oocore.suite);
  ]

(* The suite keeps its JIT disk cache (and the calibration file beside
   it) in a temporary directory of its own, removed at exit, so a run
   leaves nothing behind under the temp dir. *)
let () =
  let dir = Filename.temp_dir "ogb-test-jit-cache-" "" in
  at_exit (fun () -> Helpers.remove_tree dir);
  Jit.Disk_cache.set_dir dir;
  Cost.Calibration.reload ();
  Alcotest.run "ogb" suites
