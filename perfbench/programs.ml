(* The programs a pass runs, each at every tier the benchmark times.

   A tier's entry point returns a converter: the call itself is what is
   timed, and turning its result into a comparable [output] happens
   after the clock stops.  The tier-3 side runs the same algorithm as
   tier 1 ([Bfs.native_sparse], [Bc.single_source]); the default
   format-aware entry points form their own pass. *)

open Gbtl
module C = Ogb.Container
module V = Minivm.Value

(* Sorted (index, value) pairs; a matrix cell (i, j) is index i*n + j. *)
type output = (int * float) array

type tier = unit -> unit -> output

type t = {
  name : string;
  tier1 : tier;  (** MiniVM [vm_loops] *)
  tier1_traced : Perfbench_core.Spans.t -> tier;
      (** the same program with the interpreter's bridge hooks and
          builtins wrapped in spans *)
  tier3 : tier;
  format_aware : tier;
  dsl : tier;
  nonblocking : tier;
  reference : output Lazy.t;
}

let sort_out l =
  let a = Array.of_list l in
  Array.sort (fun (i, _) (j, _) -> compare i j) a;
  a

let of_container c = sort_out (C.vector_entries c)
let of_svector conv v = sort_out (Svector.fold (fun acc i x -> (i, conv x) :: acc) [] v)
let of_array a = Array.mapi (fun i x -> (i, float_of_int x)) a
let scalar x = [| (0, x) |]

(* Centralities compare with exact zeros dropped: some tiers store them,
   some leave the entry out. *)
let nonzero (o : output) = Array.of_list (List.filter (fun (_, x) -> x <> 0.0) (Array.to_list o))

let of_pairs n pairs = sort_out (List.map (fun (i, j) -> ((i * n) + j, 1.0)) pairs)
let of_bool_matrix m = of_pairs (Smatrix.nrows m) (List.map (fun (i, j, _) -> (i, j)) (Smatrix.to_coo m))
let of_matrix_container c =
  let n = fst (C.shape c) in
  of_pairs n (List.map (fun (i, j, _) -> (i, j)) (C.matrix_entries c))

(* Relative tolerance for float results: tiers and references sum in
   different orders. *)
let agree ?(tol = 1e-9) (a : output) (b : output) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (i, x) (j, y) ->
         i = j && Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.abs y))
       a b

let timed f conv () =
  let r = f () in
  fun () -> conv r

(* ---- tier 1 with the bridge wrapped ---- *)

(* Load [program] into a fresh bridge environment, wrap every installed
   interpreter hook and every bridge builtin in a "bridge" span, and call
   [entry] under a "vm.<name>" span: that span's self time is the
   interpreter's own time.  The hooks are process-global, so the
   original set is restored afterwards. *)
let traced_call spans ~name ~program ~entry args =
  let module S = Perfbench_core.Spans in
  let env = Algorithms.Vm_runtime.fresh_env () in
  let h = Minivm.Interp.hooks () in
  let b f = S.with_span spans "bridge" f in
  Minivm.Interp.set_hooks
    { Minivm.Interp.foreign_binary = (fun op x y -> b (fun () -> h.foreign_binary op x y));
      foreign_unary = (fun op x -> b (fun () -> h.foreign_unary op x));
      foreign_attr = (fun f a -> b (fun () -> h.foreign_attr f a));
      foreign_method = (fun f m args -> b (fun () -> h.foreign_method f m args));
      foreign_index_get = (fun f i -> b (fun () -> h.foreign_index_get f i));
      foreign_index_set = (fun f i v -> b (fun () -> h.foreign_index_set f i v));
      context_enter = (fun v -> b (fun () -> h.context_enter v));
      context_exit = (fun v -> b (fun () -> h.context_exit v)) };
  List.iter
    (fun (bname, _) ->
      match Minivm.Env.lookup env bname with
      | V.Builtin (n, f) -> Minivm.Env.define env bname (V.Builtin (n, fun a -> b (fun () -> f a)))
      | _ -> ())
    Ogb.Vm_bridge.builtin_arities;
  Fun.protect
    ~finally:(fun () -> Minivm.Interp.set_hooks h)
    (fun () ->
      S.with_span spans ("vm." ^ name) (fun () ->
          Ogb.Exec_hook.with_sequential (fun () ->
              Minivm.Interp.exec_block env program;
              Minivm.Interp.call_value (Minivm.Env.lookup env entry) args)))

let cont_result default = function V.Foreign (Ogb.Vm_bridge.Cont c) -> c | _ -> default
let wrap = Ogb.Vm_bridge.wrap_container
let f64 = Dtype.P Dtype.FP64
let i64 = Dtype.P Dtype.Int64

(* ---- the eight tier-1 programs (plus triangles on karate) ---- *)

let bfs ~(graph : bool Smatrix.t) ~src =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let levels_out c = sort_out (List.map (fun (i, l) -> (i, float_of_int l)) (Algorithms.Bfs.levels_of_container c)) in
  let levels_sv v = of_svector float_of_int v in
  { name = "bfs";
    tier1 = timed (fun () -> Algorithms.Bfs.vm_loops g ~src) levels_out;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let levels = C.vector_empty ~dtype:i64 n in
            cont_result levels
              (traced_call spans ~name:"bfs" ~program:Algorithms.Bfs.vm_program ~entry:"bfs"
                 [ wrap g; wrap (C.vector_coo ~dtype:(Dtype.P Dtype.Bool) ~size:n [ (src, 1.0) ]);
                   wrap levels ]))
          levels_out);
    tier3 = timed (fun () -> Algorithms.Bfs.native_sparse graph ~src) levels_sv;
    format_aware = timed (fun () -> Algorithms.Bfs.native graph ~src) levels_sv;
    dsl = timed (fun () -> Algorithms.Bfs.dsl g ~src) levels_out;
    nonblocking =
      timed (fun () -> Exec.with_mode Exec.Nonblocking (fun () -> Algorithms.Bfs.dsl g ~src)) levels_out;
    reference = lazy (levels_sv (Algorithms.Bfs.generic graph ~src)) }

let sssp ~(graph : float Smatrix.t) ~src =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let dist_out c = sort_out (Algorithms.Sssp.distances_of_container c) in
  let dist_sv v = of_svector Fun.id v in
  { name = "sssp";
    tier1 = timed (fun () -> Algorithms.Sssp.vm_loops g ~src) dist_out;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let path = C.vector_coo ~size:n [ (src, 0.0) ] in
            cont_result path
              (traced_call spans ~name:"sssp" ~program:Algorithms.Sssp.vm_program ~entry:"sssp"
                 [ wrap g; wrap path ]))
          dist_out);
    tier3 = timed (fun () -> Algorithms.Sssp.native graph ~src) dist_sv;
    format_aware = timed (fun () -> Algorithms.Sssp.native graph ~src) dist_sv;
    dsl = timed (fun () -> Algorithms.Sssp.dsl g ~src) dist_out;
    nonblocking =
      timed (fun () -> Exec.with_mode Exec.Nonblocking (fun () -> Algorithms.Sssp.dsl g ~src)) dist_out;
    reference = lazy (dist_sv (Algorithms.Sssp.generic graph ~src)) }

(* PageRank is timed at a fixed iteration count: threshold 0 never
   converges early.  The paper's threshold is checked separately
   ({!pagerank_threshold_check}). *)
let pr_iters = 20

let pagerank ~(graph : float Smatrix.t) =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let damping = 0.85 and threshold = 0.0 and max_iters = pr_iters in
  let ranks_c c = sort_out (Algorithms.Pagerank.ranks_of_container c) in
  let ranks_sv v = of_svector Fun.id v in
  { name = "pagerank";
    tier1 = timed (fun () -> Algorithms.Pagerank.vm_loops ~damping ~threshold ~max_iters g) ranks_c;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let rank = C.vector_empty ~dtype:f64 n in
            cont_result rank
              (traced_call spans ~name:"pagerank" ~program:Algorithms.Pagerank.vm_program
                 ~entry:"page_rank"
                 [ wrap g; wrap (C.matrix_empty ~dtype:f64 n n); wrap rank;
                   wrap (C.vector_empty ~dtype:f64 n); wrap (C.vector_empty ~dtype:f64 n);
                   V.Float damping; V.Float threshold; V.Int max_iters; V.Float (float_of_int n) ]))
          ranks_c);
    tier3 = timed (fun () -> fst (Algorithms.Pagerank.native ~damping ~threshold ~max_iters graph)) ranks_sv;
    format_aware =
      timed (fun () -> fst (Algorithms.Pagerank.native ~damping ~threshold ~max_iters graph)) ranks_sv;
    dsl = timed (fun () -> fst (Algorithms.Pagerank.dsl ~damping ~threshold ~max_iters g)) ranks_c;
    nonblocking =
      timed (fun () -> fst (Algorithms.Pagerank.nonblocking ~damping ~threshold ~max_iters g)) ranks_c;
    reference =
      lazy (ranks_sv (fst (Algorithms.Pagerank.generic ~damping ~threshold ~max_iters graph))) }

(* Every PageRank tier at the paper's default threshold against
   [Pagerank.generic]: same iteration count (where the tier reports it)
   and the same ranks.  Returns the number of disagreeing tiers. *)
let pagerank_threshold_check (graph : float Smatrix.t) =
  let g = C.of_smatrix graph in
  let ref_ranks, ref_iters = Algorithms.Pagerank.generic graph in
  let r = of_svector Fun.id ref_ranks in
  let rc c = sort_out (Algorithms.Pagerank.ranks_of_container c) in
  let checks =
    [ agree (rc (Algorithms.Pagerank.vm_loops g)) r;
      (let v, i = Algorithms.Pagerank.native graph in
       agree (of_svector Fun.id v) r && i = ref_iters);
      (let c, i = Algorithms.Pagerank.dsl g in
       agree (rc c) r && i = ref_iters);
      (let c, i = Algorithms.Pagerank.nonblocking g in
       agree (rc c) r && i = ref_iters) ]
  in
  List.length (List.filter not checks)

let triangle_of ~name (sym : bool Smatrix.t) =
  let l = Algorithms.Triangle.of_undirected sym in
  let lc = C.of_smatrix l in
  let n = Smatrix.nrows l in
  let f x = scalar x in
  { name;
    tier1 = timed (fun () -> Algorithms.Triangle.vm_loops lc) f;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            match
              traced_call spans ~name ~program:Algorithms.Triangle.vm_program
                ~entry:"triangle_count"
                [ wrap lc; wrap (C.matrix_empty ~dtype:(C.dtype lc) n n) ]
            with
            | V.Float x -> x
            | V.Int i -> float_of_int i
            | _ -> nan)
          f);
    tier3 = timed (fun () -> float_of_int (Algorithms.Triangle.native l)) f;
    format_aware = timed (fun () -> float_of_int (Algorithms.Triangle.native l)) f;
    dsl = timed (fun () -> Algorithms.Triangle.dsl lc) f;
    nonblocking = timed (fun () -> Algorithms.Triangle.nonblocking lc) f;
    reference = lazy (scalar (float_of_int (Perfbench_core.Reference.triangles sym))) }

let triangle sym = triangle_of ~name:"triangle" sym

let cc ~(graph : bool Smatrix.t) =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let labels_sv v = of_svector float_of_int v in
  { name = "cc";
    tier1 = timed (fun () -> Algorithms.Connected_components.vm_loops g) of_container;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let labels = C.vector_coo ~dtype:i64 ~size:n (List.init n (fun v -> (v, float_of_int v))) in
            cont_result labels
              (traced_call spans ~name:"cc" ~program:Algorithms.Connected_components.vm_program
                 ~entry:"cc" [ wrap g; wrap labels ]))
          of_container);
    tier3 = timed (fun () -> Algorithms.Connected_components.native graph) labels_sv;
    format_aware = timed (fun () -> Algorithms.Connected_components.native graph) labels_sv;
    dsl = timed (fun () -> Algorithms.Connected_components.dsl g) of_container;
    nonblocking =
      timed
        (fun () -> Exec.with_mode Exec.Nonblocking (fun () -> Algorithms.Connected_components.dsl g))
        of_container;
    reference = lazy (of_array (Perfbench_core.Reference.cc graph)) }

let labelprop ~(graph : bool Smatrix.t) =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let rounds = Algorithms.Labelprop.default_rounds in
  let labels_sv v = of_svector float_of_int v in
  { name = "labelprop";
    tier1 = timed (fun () -> Algorithms.Labelprop.vm_loops g) of_container;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let labels = Algorithms.Labelprop.seed_labels n in
            cont_result labels
              (traced_call spans ~name:"labelprop" ~program:Algorithms.Labelprop.vm_program
                 ~entry:"labelprop"
                 [ wrap (C.cast i64 g); wrap (Algorithms.Labelprop.tie_break_diagonal n);
                   wrap labels; V.Int rounds ]))
          of_container);
    tier3 = timed (fun () -> Algorithms.Labelprop.native graph) labels_sv;
    format_aware = timed (fun () -> Algorithms.Labelprop.native graph) labels_sv;
    dsl = timed (fun () -> fst (Algorithms.Labelprop.dsl g)) of_container;
    nonblocking = timed (fun () -> fst (Algorithms.Labelprop.nonblocking g)) of_container;
    reference = lazy (of_array (Perfbench_core.Reference.labelprop ~rounds graph)) }

let ktruss_k = 4

let ktruss ~(graph : bool Smatrix.t) =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let k = ktruss_k in
  { name = "ktruss";
    tier1 = timed (fun () -> Algorithms.Ktruss.vm_loops ~k g) of_matrix_container;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let e = C.cast i64 g in
            cont_result e
              (traced_call spans ~name:"ktruss" ~program:Algorithms.Ktruss.vm_program
                 ~entry:"ktruss"
                 [ wrap e; wrap (C.matrix_empty ~dtype:i64 n n);
                   V.Float (float_of_int (k - 2)); V.Int Algorithms.Ktruss.default_rounds ]))
          of_matrix_container);
    tier3 = timed (fun () -> Algorithms.Ktruss.native ~k graph) of_bool_matrix;
    format_aware = timed (fun () -> Algorithms.Ktruss.native ~k graph) of_bool_matrix;
    dsl = timed (fun () -> Algorithms.Ktruss.dsl ~k g) of_matrix_container;
    nonblocking = timed (fun () -> Algorithms.Ktruss.nonblocking ~k g) of_matrix_container;
    reference = lazy (of_pairs n (Perfbench_core.Reference.ktruss ~k graph)) }

let bc ~(graph : bool Smatrix.t) ~src =
  let g = C.of_smatrix graph in
  let n = Smatrix.nrows graph in
  let cent c = nonzero (of_container c) in
  let cent_sv v = nonzero (of_svector Fun.id v) in
  (* the tier-1 script returns bcu = 1 + dependency; vm_loops subtracts
     the one and drops the source *)
  let of_bcu c =
    nonzero (Array.map (fun (v, x) -> (v, if v = src || x = 1.0 then 0.0 else x -. 1.0)) (of_container c))
  in
  { name = "bc";
    tier1 = timed (fun () -> Algorithms.Bc.vm_loops g ~src) cent;
    tier1_traced =
      (fun spans ->
        timed
          (fun () ->
            let one () = C.vector_coo ~dtype:f64 ~size:n [ (src, 1.0) ] in
            let vec () = C.vector_empty ~dtype:f64 n in
            let bcu = C.vector_dense ~dtype:f64 (List.init n (fun _ -> 1.0)) in
            cont_result bcu
              (traced_call spans ~name:"bc" ~program:Algorithms.Bc.vm_program ~entry:"bc"
                 [ wrap (C.cast f64 g); wrap (one ()); wrap (one ());
                   wrap (C.vector_empty ~dtype:i64 n); wrap bcu; wrap (vec ()); wrap (vec ());
                   wrap (vec ()); wrap (C.vector_empty ~dtype:i64 n);
                   wrap (C.vector_empty ~dtype:i64 n) ]))
          of_bcu);
    tier3 = timed (fun () -> Algorithms.Bc.single_source graph ~src) cent_sv;
    format_aware = timed (fun () -> Algorithms.Bc.native ~sources:[ src ] graph) cent_sv;
    dsl = timed (fun () -> Algorithms.Bc.dsl g ~src) cent;
    nonblocking = timed (fun () -> Algorithms.Bc.nonblocking g ~src) cent;
    reference =
      lazy
        (nonzero
           (Array.mapi (fun i x -> (i, x)) (Perfbench_core.Reference.bc_single_source graph ~src))) }
