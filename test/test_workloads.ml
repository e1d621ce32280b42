(* Workload-breadth suite for the three newest tier-1 workloads: label
   propagation, k-truss and single-source betweenness centrality.  Each
   workload is checked four ways — deterministic cross-tier agreement
   against its tier-3 reference, qcheck blocking≡nonblocking
   bit-identity, parallel-twin bit-identity across grain and domain
   settings, and chaos-matrix equivalence under one OGB_FAULTS spec. *)

open Gbtl
module C = Ogb.Container
module Pool = Parallel.Pool

(* ---- fixtures ---- *)

(* Symmetric loop-free adjacency (labelprop / ktruss operate on
   undirected graphs). *)
let sym_graph ~seed ~n ~m =
  let rng = Graphs.Rng.create ~seed in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m in
  Graphs.Convert.bool_adjacency (Graphs.Edge_list.symmetrize g)

(* Directed loop-free adjacency plus its edge pairs (bc). *)
let digraph ~seed ~n ~m =
  let rng = Graphs.Rng.create ~seed in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m in
  ( Graphs.Convert.bool_adjacency g,
    List.map (fun (s, d, _) -> (s, d)) g.Graphs.Edge_list.edges )

let int_svector_alist sv =
  List.rev (Svector.fold (fun acc i l -> (i, l) :: acc) [] sv)

let float_svector_alist sv =
  List.rev (Svector.fold (fun acc i x -> (i, x) :: acc) [] sv)

let int_labels_of_container c =
  List.map (fun (v, l) -> (v, int_of_float l)) (C.vector_entries c)

(* ---- label propagation ---- *)

let test_labelprop_tiers_agree () =
  List.iter
    (fun seed ->
      let adj = sym_graph ~seed ~n:18 ~m:30 in
      let expected = int_svector_alist (Algorithms.Labelprop.native adj) in
      let gc = C.of_smatrix adj in
      let check name labels =
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s agrees (seed %d)" name seed)
          expected
          (int_labels_of_container labels)
      in
      let blocking, rounds_b = Algorithms.Labelprop.dsl gc in
      let nonblocking, rounds_n = Algorithms.Labelprop.nonblocking gc in
      check "dsl" blocking;
      check "nonblocking" nonblocking;
      Alcotest.(check int)
        (Printf.sprintf "round counts agree (seed %d)" seed)
        rounds_b rounds_n;
      check "vm_loops" (Algorithms.Labelprop.vm_loops gc))
    [ 81; 82; 83 ]

let test_labelprop_two_cliques () =
  (* two disjoint 4-cliques: propagation settles on one label per
     clique (the smallest member), so exactly two communities *)
  let clique base = List.concat_map (fun i ->
      List.filter_map (fun j ->
          if i <> j then Some (base + i, base + j, true) else None)
        [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let adj = Smatrix.of_coo Dtype.Bool 8 8 (clique 0 @ clique 4) in
  let labels = Algorithms.Labelprop.native adj in
  Alcotest.(check int) "two communities" 2
    (Algorithms.Labelprop.community_count labels);
  Alcotest.(check (list (pair int int)))
    "each clique adopts its smallest label"
    [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 4); (5, 4); (6, 4); (7, 4) ]
    (int_svector_alist labels)

let test_labelprop_isolated_keep_labels () =
  (* an edgeless graph is already at its fixpoint *)
  let adj = Smatrix.create Dtype.Bool 5 5 in
  let labels = Algorithms.Labelprop.native adj in
  Alcotest.(check (list (pair int int)))
    "isolated vertices keep their seed label"
    [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ]
    (int_svector_alist labels)

(* ---- k-truss ---- *)

let truss_alist c =
  List.map (fun (i, j, _) -> (i, j)) (C.matrix_entries c)

let test_ktruss_tiers_agree () =
  List.iter
    (fun (seed, k) ->
      let adj = sym_graph ~seed ~n:16 ~m:44 in
      let expected =
        List.map (fun (i, j, _) -> (i, j))
          (List.sort compare
             (Smatrix.fold
                (fun acc i j v -> (i, j, v) :: acc)
                [] (Algorithms.Ktruss.native ~k adj)))
      in
      let gc = C.of_smatrix adj in
      let check name edges =
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s agrees (seed %d, k=%d)" name seed k)
          expected
          (List.sort compare edges)
      in
      check "dsl" (truss_alist (Algorithms.Ktruss.dsl ~k gc));
      check "nonblocking" (truss_alist (Algorithms.Ktruss.nonblocking ~k gc));
      check "vm_loops" (truss_alist (Algorithms.Ktruss.vm_loops ~k gc)))
    [ (91, 3); (92, 3); (93, 4); (94, 4) ]

let test_ktruss_two_triangles () =
  (* two triangles sharing edge (0,1): every edge sits in >= 1 triangle
     so the 3-truss keeps everything; only (0,1) has support 2, and once
     its companions are pruned it loses them too, so the 4-truss is
     empty *)
  let edges =
    [ (0, 1); (0, 2); (1, 2); (0, 3); (1, 3) ]
  in
  let coo =
    List.concat_map (fun (i, j) -> [ (i, j, true); (j, i, true) ]) edges
  in
  let adj = Smatrix.of_coo Dtype.Bool 4 4 coo in
  Alcotest.(check int) "3-truss keeps all 5 edges" 5
    (Algorithms.Ktruss.edge_count (Algorithms.Ktruss.native ~k:3 adj));
  Alcotest.(check int) "4-truss is empty" 0
    (Algorithms.Ktruss.edge_count (Algorithms.Ktruss.native ~k:4 adj))

(* ---- betweenness centrality (single source) ---- *)

(* One Brandes sweep: the dependency contribution delta_s(v) of a
   single source, the ground truth for [Bc.single_source]. *)
let ref_brandes_single edges n s =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  let sigma = Array.make n 0.0 and dist = Array.make n (-1) in
  let delta = Array.make n 0.0 in
  sigma.(s) <- 1.0;
  dist.(s) <- 0;
  let order = ref [] in
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    List.iter
      (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end;
        if dist.(w) = dist.(v) + 1 then sigma.(w) <- sigma.(w) +. sigma.(v))
      adj.(v)
  done;
  List.iter
    (fun w ->
      List.iter
        (fun x ->
          if dist.(x) = dist.(w) + 1 then
            delta.(w) <-
              delta.(w) +. (sigma.(w) /. sigma.(x) *. (1.0 +. delta.(x))))
        adj.(w))
    !order;
  (* the GraphBLAS decode is dense: zeros stored, source pinned to 0 *)
  List.init n (fun v -> (v, if v = s then 0.0 else delta.(v)))

let test_bc_single_source_against_brandes () =
  List.iter
    (fun seed ->
      let adj, edges = digraph ~seed ~n:16 ~m:40 in
      List.iter
        (fun src ->
          let expected = ref_brandes_single edges 16 src in
          let got =
            float_svector_alist (Algorithms.Bc.single_source adj ~src)
          in
          Alcotest.check
            Alcotest.(list (pair int (float 1e-9)))
            (Printf.sprintf "single_source matches Brandes (seed %d, src %d)"
               seed src)
            expected got)
        [ 0; 3; 7 ])
    [ 95; 96; 97 ]

let test_bc_tiers_agree () =
  List.iter
    (fun seed ->
      let adj, _ = digraph ~seed ~n:14 ~m:36 in
      let src = 0 in
      let expected = float_svector_alist (Algorithms.Bc.single_source adj ~src) in
      let gc = C.of_smatrix adj in
      let check name c =
        Alcotest.check
          Alcotest.(list (pair int (float 1e-9)))
          (Printf.sprintf "%s agrees (seed %d)" name seed)
          expected (C.vector_entries c)
      in
      check "dsl" (Algorithms.Bc.dsl gc ~src);
      check "nonblocking" (Algorithms.Bc.nonblocking gc ~src);
      check "vm_loops" (Algorithms.Bc.vm_loops gc ~src))
    [ 101; 102; 103 ]

let test_bc_single_vs_batched () =
  let adj, _ = digraph ~seed:104 ~n:12 ~m:30 in
  List.iter
    (fun src ->
      let batched = Algorithms.Bc.native ~sources:[ src ] adj in
      let single = Algorithms.Bc.single_source adj ~src in
      Alcotest.check
        Alcotest.(list (pair int (float 1e-9)))
        (Printf.sprintf "single_source = native ~sources:[%d]" src)
        (float_svector_alist batched)
        (float_svector_alist single))
    [ 0; 5; 11 ]

(* ---- qcheck: blocking ≡ nonblocking bit-identity ---- *)

(* A generated undirected instance: vertex count and an edge budget,
   realized through the seeded graph generator so shrinking stays
   meaningful. *)
let graph_case_gen =
  let open QCheck.Gen in
  int_range 4 16 >>= fun n ->
  int_range n (3 * n) >>= fun m ->
  int_bound 10_000 >|= fun seed -> (n, m, seed)

let graph_case_arb =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    graph_case_gen

let qtest name law = Helpers.qtest ~count:40 name graph_case_arb law

let qcheck_labelprop_nonblocking =
  qtest "labelprop: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      let lb, rb = Algorithms.Labelprop.dsl gc in
      let ln, rn = Algorithms.Labelprop.nonblocking gc in
      rb = rn && C.equal lb ln)

let qcheck_ktruss_nonblocking =
  qtest "ktruss: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      List.for_all
        (fun k ->
          C.equal (Algorithms.Ktruss.dsl ~k gc)
            (Algorithms.Ktruss.nonblocking ~k gc))
        [ 3; 4 ])

let qcheck_bc_nonblocking =
  qtest "bc: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let adj, _ = digraph ~seed ~n ~m in
      let gc = C.of_smatrix adj in
      C.equal (Algorithms.Bc.dsl gc ~src:0) (Algorithms.Bc.nonblocking gc ~src:0))

(* ---- qcheck: parallel-twin bit-identity across grains ---- *)

(* Force a specific chunk grain through the pool's grain hook (clamped
   to the legal [base, pow2_ceil n] band — small requests exercise the
   finest legal decomposition, large ones merge chunks), pin a 4-domain
   budget and a zero threshold so every kernel takes its parallel twin,
   and require bit-identity with the fully sequential run. *)
let with_forced_grain grain f =
  Pool.set_domains 4;
  Fun.protect
    ~finally:(fun () -> Pool.clear_domains_override ())
    (fun () ->
      Pool.with_grain_hook
        (fun ~n:_ ~base:_ -> Some grain)
        (fun () -> Pool.with_threshold 0 f))

let grain_case_gen =
  let open QCheck.Gen in
  graph_case_gen >>= fun g ->
  oneofl [ 1; 2; 3; 7; 16 ] >|= fun grain -> (g, grain)

let grain_case_arb =
  QCheck.make
    ~print:(fun ((n, m, seed), grain) ->
      Printf.sprintf "n=%d m=%d seed=%d grain=%d" n m seed grain)
    grain_case_gen

let qgrain name law = Helpers.qtest ~count:25 name grain_case_arb law

let qcheck_labelprop_parallel_twin =
  qgrain "labelprop: parallel twin bit-identical at every grain"
    (fun ((n, m, seed), grain) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      let seq, sr = Pool.with_threshold max_int (fun () -> Algorithms.Labelprop.dsl gc) in
      let par, pr = with_forced_grain grain (fun () -> Algorithms.Labelprop.dsl gc) in
      sr = pr && C.equal seq par)

let qcheck_ktruss_parallel_twin =
  qgrain "ktruss: parallel twin bit-identical at every grain"
    (fun ((n, m, seed), grain) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      let seq = Pool.with_threshold max_int (fun () -> Algorithms.Ktruss.dsl ~k:3 gc) in
      let par = with_forced_grain grain (fun () -> Algorithms.Ktruss.dsl ~k:3 gc) in
      C.equal seq par)

let qcheck_bc_parallel_twin =
  qgrain "bc: parallel twin bit-identical at every grain"
    (fun ((n, m, seed), grain) ->
      let adj, _ = digraph ~seed ~n ~m in
      let gc = C.of_smatrix adj in
      let seq = Pool.with_threshold max_int (fun () -> Algorithms.Bc.dsl gc ~src:0) in
      let par = with_forced_grain grain (fun () -> Algorithms.Bc.dsl gc ~src:0) in
      C.equal seq par)

(* ---- chaos: one OGB_FAULTS spec per workload ---- *)

(* Faults may only show up in the resilience counters: the nonblocking
   run under an armed spec must be bit-identical to the clean blocking
   result.  Scheduler faults need a multi-domain scheduler; the pool
   fault needs pool workers plus a zero threshold to reach the chunked
   twins at these sizes. *)
let with_chaos spec f =
  (match Fault.arm_spec spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad chaos spec %S: %s" spec e);
  Exec.Scheduler.set_domains 2;
  Pool.set_domains 4;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Pool.clear_domains_override ();
      Exec.Scheduler.clear_domains_override ())
    (fun () -> Pool.with_threshold 0 f)

let test_labelprop_chaos () =
  let gc = C.of_smatrix (sym_graph ~seed:111 ~n:24 ~m:60) in
  let clean, rounds = Algorithms.Labelprop.dsl gc in
  let chaos, chaos_rounds =
    with_chaos "sched.worker.exn=p0.4,seed=11" (fun () ->
        Algorithms.Labelprop.nonblocking gc)
  in
  Alcotest.(check int) "round counts identical" rounds chaos_rounds;
  Alcotest.(check bool) "labels identical under worker exceptions" true
    (C.equal clean chaos)

let test_ktruss_chaos () =
  let gc = C.of_smatrix (sym_graph ~seed:112 ~n:20 ~m:70) in
  let clean = Algorithms.Ktruss.dsl ~k:3 gc in
  let chaos =
    with_chaos "sched.worker.slow=p0.5,seed=5" (fun () ->
        Algorithms.Ktruss.nonblocking ~k:3 gc)
  in
  Alcotest.(check bool) "truss identical under slow workers" true
    (C.equal clean chaos)

let test_bc_chaos () =
  let adj, _ = digraph ~seed:113 ~n:24 ~m:70 in
  let gc = C.of_smatrix adj in
  let clean = Algorithms.Bc.dsl gc ~src:0 in
  let chaos =
    with_chaos "par.worker.exn=p0.3,seed=7" (fun () ->
        Algorithms.Bc.nonblocking gc ~src:0)
  in
  Alcotest.(check bool) "centrality identical under pool faults" true
    (C.equal clean chaos)

(* ---- tier-1 fixpoint exits ---- *)

let wrap = Ogb.Vm_bridge.wrap_container

(* The tier-1 scripts leave their loops at the fixpoint.  The reference
   runs the same script for the whole round budget: one call per round,
   each capped at a single round, with the state carried over in the
   same containers. *)
let labelprop_full_budget ~rounds gc =
  let n = fst (C.shape gc) in
  let adj = C.cast (Dtype.P Dtype.Int64) gc in
  let diag = Algorithms.Labelprop.tie_break_diagonal n in
  let labels = Algorithms.Labelprop.seed_labels n in
  for _ = 1 to rounds do
    ignore
      (Algorithms.Vm_runtime.call_program Algorithms.Labelprop.vm_program
         "labelprop"
         [ wrap adj; wrap diag; wrap labels; Minivm.Value.Int 1 ])
  done;
  labels

let ktruss_full_budget ~k ~rounds gc =
  let nrows, ncols = C.shape gc in
  let e = C.cast (Dtype.P Dtype.Int64) gc in
  let support = C.matrix_empty ~dtype:(Dtype.P Dtype.Int64) nrows ncols in
  for _ = 1 to rounds do
    ignore
      (Algorithms.Vm_runtime.call_program Algorithms.Ktruss.vm_program "ktruss"
         [ wrap e; wrap support;
           Minivm.Value.Float (float_of_int (k - 2));
           Minivm.Value.Int 1 ])
  done;
  e

let qcheck_fixpoint_exit_equals_budget =
  qtest "labelprop/ktruss: vm fixpoint exit ≡ full round budget"
    (fun (n, m, seed) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      let rounds = Algorithms.Labelprop.default_rounds in
      C.equal
        (Algorithms.Labelprop.vm_loops gc)
        (labelprop_full_budget ~rounds gc)
      && List.for_all
           (fun k ->
             C.equal
               (Algorithms.Ktruss.vm_loops ~k gc)
               (ktruss_full_budget ~k ~rounds:Algorithms.Ktruss.default_rounds
                  gc))
           [ 3; 4 ])

let test_labelprop_oscillation_hits_cap () =
  (* a 4-cycle is bipartite: synchronous sweeps flip between two
     labelings forever, so only the round cap ends the loop *)
  let coo =
    List.concat_map
      (fun (i, j) -> [ (i, j, true); (j, i, true) ])
      [ (0, 1); (1, 2); (2, 3); (3, 0) ]
  in
  let adj = Smatrix.of_coo Dtype.Bool 4 4 coo in
  let gc = C.of_smatrix adj in
  let at rounds = Algorithms.Labelprop.vm_loops ~rounds gc in
  List.iter
    (fun rounds ->
      let name what = Printf.sprintf "%s (%d rounds)" what rounds in
      Alcotest.(check (list (pair int int)))
        (name "vm ≡ full budget")
        (int_labels_of_container (labelprop_full_budget ~rounds gc))
        (int_labels_of_container (at rounds));
      Alcotest.(check (list (pair int int)))
        (name "vm ≡ native")
        (int_svector_alist (Algorithms.Labelprop.native ~rounds adj))
        (int_labels_of_container (at rounds));
      Alcotest.(check int) (name "dsl ran to the cap") rounds
        (snd (Algorithms.Labelprop.dsl ~rounds gc)))
    [ 5; Algorithms.Labelprop.default_rounds ];
  Alcotest.(check bool) "consecutive caps differ (still oscillating)" false
    (C.equal (at 5) (at 6))

(* Symmetric graphs made of several components plus isolated vertices:
   blocks of consecutive ids get random internal edges (the last vertex
   is a block of its own), then a permutation interleaves the
   components. *)
let components_arb =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 2 6) (int_range 1 6) >>= fun blocks ->
    let n = List.fold_left ( + ) 1 blocks in
    list_repeat (2 * n) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun pairs ->
    shuffle_l (List.init n Fun.id) >|= fun perm -> (blocks, pairs, perm)
  in
  let print (blocks, pairs, perm) =
    Printf.sprintf "blocks=[%s] pairs=[%s] perm=[%s]"
      (String.concat ";" (List.map string_of_int blocks))
      (String.concat ";"
         (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) pairs))
      (String.concat ";" (List.map string_of_int perm))
  in
  QCheck.make ~print gen

let components_graph (blocks, pairs, perm) =
  let n = List.length perm in
  let block = Array.make n (List.length blocks) in
  ignore
    (List.fold_left
       (fun (b, start) size ->
         for v = start to start + size - 1 do
           block.(v) <- b
         done;
         (b + 1, start + size))
       (0, 0) blocks);
  let perm = Array.of_list perm in
  let coo =
    List.concat_map
      (fun (a, b) ->
        if a = b || block.(a) <> block.(b) then []
        else [ (perm.(a), perm.(b), true); (perm.(b), perm.(a), true) ])
      pairs
  in
  Smatrix.of_coo Dtype.Bool n n coo

let qcheck_cc_tiers_agree =
  Helpers.qtest ~count:60 "cc: vm_loops ≡ native ≡ dsl on multi-component graphs"
    components_arb
    (fun case ->
      let adj = components_graph case in
      let expected = int_svector_alist (Algorithms.Connected_components.native adj) in
      let gc = C.of_smatrix adj in
      Algorithms.Connected_components.component_count
        (Algorithms.Connected_components.native adj)
      >= 2
      && int_labels_of_container (Algorithms.Connected_components.dsl gc) = expected
      && int_labels_of_container (Algorithms.Connected_components.vm_loops gc)
         = expected)

let suite =
  [ Alcotest.test_case "labelprop: tiers agree" `Quick
      test_labelprop_tiers_agree;
    Alcotest.test_case "labelprop: two cliques" `Quick
      test_labelprop_two_cliques;
    Alcotest.test_case "labelprop: isolated vertices" `Quick
      test_labelprop_isolated_keep_labels;
    Alcotest.test_case "ktruss: tiers agree" `Quick test_ktruss_tiers_agree;
    Alcotest.test_case "ktruss: two triangles" `Quick
      test_ktruss_two_triangles;
    Alcotest.test_case "bc: single source vs Brandes" `Quick
      test_bc_single_source_against_brandes;
    Alcotest.test_case "bc: tiers agree" `Quick test_bc_tiers_agree;
    Alcotest.test_case "bc: single vs batched" `Quick
      test_bc_single_vs_batched;
    Helpers.to_alcotest qcheck_labelprop_nonblocking;
    Helpers.to_alcotest qcheck_ktruss_nonblocking;
    Helpers.to_alcotest qcheck_bc_nonblocking;
    Helpers.to_alcotest qcheck_labelprop_parallel_twin;
    Helpers.to_alcotest qcheck_ktruss_parallel_twin;
    Helpers.to_alcotest qcheck_bc_parallel_twin;
    Alcotest.test_case "chaos: labelprop under sched.worker.exn" `Quick
      test_labelprop_chaos;
    Alcotest.test_case "chaos: ktruss under sched.worker.slow" `Quick
      test_ktruss_chaos;
    Alcotest.test_case "chaos: bc under par.worker.exn" `Quick test_bc_chaos;
    Helpers.to_alcotest qcheck_fixpoint_exit_equals_budget;
    Alcotest.test_case "labelprop: oscillation hits the round cap" `Quick
      test_labelprop_oscillation_hits_cap;
    Helpers.to_alcotest qcheck_cc_tiers_agree ]
