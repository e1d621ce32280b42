(* Exhaustive equivalence of the two JIT backends: for every operator and
   dtype combination the codegen supports, the natively compiled kernel
   must agree with the closure-specialized kernel on random inputs.
   This pins the generated OCaml source (Codegen) against the shared
   array algorithms (Array_kernels). *)

open Gbtl

let native_available () = Jit.Native_backend.available ()

let with_backend backend f =
  let saved = Jit.Dispatch.backend () in
  Jit.Dispatch.set_backend backend;
  Fun.protect ~finally:(fun () -> Jit.Dispatch.set_backend saved) f

let run_both f =
  let n = with_backend Jit.Dispatch.Native f in
  Jit.Dispatch.clear_memory_cache ();
  let c = with_backend Jit.Dispatch.Closure f in
  Jit.Dispatch.clear_memory_cache ();
  (n, c)

(* random sparse data per dtype *)
let rand_vec (type a) (dt : a Dtype.t) rng size : a Svector.t =
  let v = Svector.create dt size in
  for i = 0 to size - 1 do
    if Graphs.Rng.float rng < 0.5 then
      Svector.set v i (Dtype.of_int dt (Graphs.Rng.int rng 9 - 4))
  done;
  v

let rand_mat (type a) (dt : a Dtype.t) rng nrows ncols : a Smatrix.t =
  let triples = ref [] in
  for r = 0 to nrows - 1 do
    for c = 0 to ncols - 1 do
      if Graphs.Rng.float rng < 0.35 then
        triples := (r, c, Dtype.of_int dt (Graphs.Rng.int rng 9 - 4)) :: !triples
    done
  done;
  Smatrix.of_coo dt nrows ncols !triples

let entries_list (type a) (dt : a Dtype.t) e =
  let acc = ref [] in
  Entries.iter (fun i v -> acc := (i, Dtype.to_string dt v) :: !acc) e;
  List.rev !acc

let codegen_semirings =
  (* semirings whose parts the codegen supports *)
  [ Jit.Op_spec.arithmetic; Jit.Op_spec.logical; Jit.Op_spec.min_plus;
    { Jit.Op_spec.add_op = "Max"; add_identity = "MaxIdentity"; mul_op = "Times" };
    { Jit.Op_spec.add_op = "Min"; add_identity = "MinIdentity"; mul_op = "Second" };
    { Jit.Op_spec.add_op = "Plus"; add_identity = "Zero"; mul_op = "First" };
  ]

let check_all _name checks () =
  if not (native_available ()) then Alcotest.skip ()
  else List.iter (fun f -> f ()) checks

let matvec_case (type a) (dt : a Dtype.t) sr transpose seed () =
  let rng = Graphs.Rng.create ~seed in
  let m = rand_mat dt rng 7 5 in
  let u = rand_vec dt rng (if transpose then 7 else 5) in
  let run () = entries_list dt (Jit.Kernels.mxv dt sr ~transpose m u) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "mxv %s %s/%s/%s transpose=%b" (Dtype.name dt)
       sr.Jit.Op_spec.add_op sr.Jit.Op_spec.add_identity sr.Jit.Op_spec.mul_op
       transpose)
    c n

let vxm_case (type a) (dt : a Dtype.t) sr transpose seed () =
  let rng = Graphs.Rng.create ~seed in
  let m = rand_mat dt rng 7 5 in
  let u = rand_vec dt rng (if transpose then 5 else 7) in
  let run () = entries_list dt (Jit.Kernels.vxm dt sr ~transpose u m) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "vxm %s %s transpose=%b" (Dtype.name dt)
       sr.Jit.Op_spec.mul_op transpose)
    c n

let test_matvec_combinations =
  check_all "matvec"
    (List.concat_map
       (fun sr ->
         List.concat_map
           (fun transpose ->
             [ matvec_case Dtype.FP64 sr transpose 11;
               matvec_case Dtype.Int64 sr transpose 12;
               matvec_case Dtype.Bool sr transpose 13;
               vxm_case Dtype.FP64 sr transpose 14;
               vxm_case Dtype.Int64 sr transpose 15;
             ])
           [ false; true ])
       codegen_semirings)

let mxm_case (type a) (dt : a Dtype.t) sr (ta, tb) seed () =
  let rng = Graphs.Rng.create ~seed in
  let a = rand_mat dt rng 6 5 in
  let b = rand_mat dt rng 5 7 in
  let a_arg = if ta then Smatrix.transpose a else a in
  let b_arg = if tb then Smatrix.transpose b else b in
  let run () =
    let m =
      Jit.Kernels.mxm dt sr ~transpose_a:ta ~transpose_b:tb
        ~mask:Gbtl.Mask.No_mmask a_arg b_arg
    in
    List.map
      (fun (r, c, x) -> (r, c, Dtype.to_string dt x))
      (Smatrix.to_coo m)
  in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (triple int int string))
    (Printf.sprintf "mxm %s %s ta=%b tb=%b" (Dtype.name dt)
       sr.Jit.Op_spec.mul_op ta tb)
    c n;
  (* and against the polymorphic library *)
  let expected = Smatrix.create dt 6 7 in
  Matmul.mxm
    (Jit.Op_spec.instantiate_semiring dt sr)
    ~out:expected a b;
  Alcotest.check
    Alcotest.(list (triple int int string))
    "mxm kernel = Gbtl.Matmul"
    (List.map
       (fun (r, c, x) -> (r, c, Dtype.to_string dt x))
       (Smatrix.to_coo expected))
    n

let test_mxm_combinations =
  check_all "mxm"
    (List.concat_map
       (fun sr ->
         [ mxm_case Dtype.FP64 sr (false, false) 91;
           mxm_case Dtype.Int64 sr (false, false) 92;
           mxm_case Dtype.Bool sr (false, false) 93;
           mxm_case Dtype.FP64 sr (true, false) 94;
           mxm_case Dtype.FP64 sr (false, true) 95;
           mxm_case Dtype.FP64 sr (true, true) 96;
         ])
       codegen_semirings)

let ewise_case (type a) (dt : a Dtype.t) kind op seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 and v = rand_vec dt rng 12 in
  let run () = entries_list dt (Jit.Kernels.ewise_v kind dt ~op u v) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "ewise %s %s %s" (Dtype.name dt)
       (match kind with `Add -> "add" | `Mult -> "mult")
       op)
    c n

let test_ewise_all_ops =
  check_all "ewise"
    (List.concat_map
       (fun op ->
         List.concat_map
           (fun kind ->
             [ ewise_case Dtype.FP64 kind op 21;
               ewise_case Dtype.Int64 kind op 22;
               ewise_case Dtype.Bool kind op 23;
             ])
           [ `Add; `Mult ])
       Binop.names)

let apply_case (type a) (dt : a Dtype.t) f seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 in
  let run () = entries_list dt (Jit.Kernels.apply_v dt f u) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "apply %s %s" (Dtype.name dt) (Jit.Op_spec.unary_name f))
    c n

let test_apply_all_ops =
  check_all "apply"
    (List.concat_map
       (fun f ->
         [ apply_case Dtype.FP64 f 31; apply_case Dtype.Int64 f 32;
           apply_case Dtype.Bool f 33 ])
       ([ Jit.Op_spec.Named "Identity"; Named "AdditiveInverse";
          Named "LogicalNot"; Named "MultiplicativeInverse";
          Bound { op = "Times"; side = `Second; const = 3.0 };
          Bound { op = "Plus"; side = `First; const = -2.0 };
          Bound { op = "Minus"; side = `Second; const = 1.0 };
          Bound { op = "Max"; side = `Second; const = 0.0 } ]
         : Jit.Op_spec.unary list))

let reduce_case (type a) (dt : a Dtype.t) op identity seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 in
  let run () =
    Dtype.to_string dt (Jit.Kernels.reduce_v_scalar dt ~op ~identity u)
  in
  let n, c = run_both run in
  Alcotest.check Alcotest.string
    (Printf.sprintf "reduce %s %s/%s" (Dtype.name dt) op identity)
    c n

let test_reduce_all_monoids =
  check_all "reduce"
    (List.concat_map
       (fun (op, identity) ->
         [ reduce_case Dtype.FP64 op identity 41;
           reduce_case Dtype.Int64 op identity 42;
           reduce_case Dtype.Bool op identity 43 ])
       [ ("Plus", "Zero"); ("Times", "One"); ("Min", "MinIdentity");
         ("Max", "MaxIdentity"); ("LogicalOr", "False");
         ("LogicalAnd", "True") ])

let test_disk_cache_roundtrip () =
  if not (native_available ()) then Alcotest.skip ()
  else
    (* asserts exact disk-hit bookkeeping, which a globally armed chaos
       spec (OGB_FAULTS corrupting the artifact) legitimately breaks *)
    Fault.suspended @@ fun () ->
    begin
    (* a natively compiled kernel must load back from the .cmxs on disk *)
    let saved_dir = Jit.Disk_cache.dir () in
    Helpers.with_temp_dir "ogb-dcache" @@ fun dir ->
    Jit.Disk_cache.set_dir dir;
    Jit.Disk_cache.clear ();
    Jit.Dispatch.clear_memory_cache ();
    Fun.protect
      ~finally:(fun () ->
        Jit.Disk_cache.clear ();
        Jit.Disk_cache.set_dir saved_dir;
        Jit.Dispatch.clear_memory_cache ())
      (fun () ->
        with_backend Jit.Dispatch.Native (fun () ->
            let rng = Graphs.Rng.create ~seed:5 in
            let m = rand_mat Dtype.FP64 rng 6 6 in
            let u = rand_vec Dtype.FP64 rng 6 in
            let first =
              entries_list Dtype.FP64
                (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic
                   ~transpose:false m u)
            in
            Jit.Jit_stats.reset ();
            Jit.Dispatch.clear_memory_cache ();
            let second =
              entries_list Dtype.FP64
                (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic
                   ~transpose:false m u)
            in
            let stats = Jit.Jit_stats.snapshot () in
            Alcotest.check Alcotest.int "served from disk" 1
              stats.Jit.Jit_stats.disk_hits;
            Alcotest.check Alcotest.int "no recompilation" 0
              stats.Jit.Jit_stats.compiles;
            Alcotest.check
              Alcotest.(list (pair int string))
              "same result" first second))
  end

let suite =
  [ Alcotest.test_case "matvec: native = closure (all combos)" `Quick
      test_matvec_combinations;
    Alcotest.test_case "mxm: native = closure = library" `Quick
      test_mxm_combinations;
    Alcotest.test_case "ewise: native = closure (17 ops x 3 dtypes)" `Quick
      test_ewise_all_ops;
    Alcotest.test_case "apply: native = closure (incl. bound ops)" `Quick
      test_apply_all_ops;
    Alcotest.test_case "reduce: native = closure (6 monoids)" `Quick
      test_reduce_all_monoids;
    Alcotest.test_case "disk cache roundtrip" `Quick test_disk_cache_roundtrip;
  ]
