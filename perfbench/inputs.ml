(* Seeded inputs.  Every graph and the serve request mix are a pure
   function of the seed the benchmark is given; the program under test
   only ever receives the generated values. *)

open Gbtl

(* One independent sub-seed per input, so adding an input never shifts
   the others. *)
let sub_seed seed k = (seed * 7919) + (k * 104729) + 1

(* ER graph at the paper's density, |E| = ceil(|V|^1.5), loop-free, with
   small integer weights so shortest-path sums stay exact. *)
let er ~seed ~n =
  let rng = Graphs.Rng.create ~seed in
  let nedges = int_of_float (ceil (float_of_int n ** 1.5)) in
  Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges ~weight:(fun r ->
      float_of_int (1 + Graphs.Rng.int r 9))

let fp64 g = Graphs.Convert.matrix_of_edges Dtype.FP64 g
let bool_ g = Graphs.Convert.bool_adjacency g
let symmetric g = Graphs.Edge_list.symmetrize g

(* A source vertex with at least one out-edge. *)
let pick_source ~seed (m : 'a Smatrix.t) =
  let rng = Graphs.Rng.create ~seed in
  let n = Smatrix.nrows m in
  let rec go tries =
    let v = Graphs.Rng.int rng n in
    if Smatrix.row_nvals m v > 0 || tries = 0 then v else go (tries - 1)
  in
  go 1000

(* ---- the serve-mixed request mix ---- *)

type graph = G | S | W
(** [G]: directed ER (reads), [S]: symmetric ER (reads), [W]: the
    write target (updates; its reads are checked for status only). *)

let graph_name = function G -> "g" | S -> "s" | W -> "w"

type run = { algo : string; tier : string; graph : graph; src : int }

type request =
  | Run of run
  | Product of { op : string; graph : graph }
  | Update

type mix = {
  requests : request array;
  order_seed : int;  (** seeds each connection's per-cycle order *)
  edge_a : int;
  edge_b : int;
}

(* One cycle of the closed loop, in a seeded order.  The composition
   is synthetic and follows one rule, not observed traffic: every
   request kind gets the same weight, [per_kind] requests a cycle,
   spread evenly over what the daemon serves for that kind.  The kinds
   are the reads [run] at tier vm (bfs, sssp, pagerank, tc) and at tier
   nonblocking (pagerank, tc), [mxv] and [vxm] (each on the three
   graphs), the write [update], and [run] at tier native (sssp,
   pagerank, tc), the other side of the vm runs' penalty.  BFS has no
   native run: the daemon's native BFS is the direction-optimized one,
   not the top-down BFS of the vm encoding.  SSSP and tc run on the
   symmetric graph, bfs and pagerank on the directed one.  The seed
   moves the graphs, the BFS and SSSP sources and the order. *)
let per_kind = 12

let kinds ~bfs_src ~sssp_src =
  let run tier algo =
    let graph, src =
      match algo with
      | "bfs" -> (G, bfs_src)
      | "sssp" -> (S, sssp_src)
      | "pagerank" -> (G, 0)
      | _ -> (S, 0)
    in
    Run { algo; tier; graph; src }
  in
  [ List.map (run "vm") [ "bfs"; "sssp"; "pagerank"; "tc" ];
    List.map (run "nonblocking") [ "pagerank"; "tc" ];
    List.map (run "native") [ "sssp"; "pagerank"; "tc" ];
    List.map (fun graph -> Product { op = "mxv"; graph }) [ G; S; W ];
    List.map (fun graph -> Product { op = "vxm"; graph }) [ G; S; W ];
    [ Update ] ]

let mix ~seed ~n_g ~n_s =
  let rng = Graphs.Rng.create ~seed in
  let bfs_src = Graphs.Rng.int rng n_g in
  let sssp_src = Graphs.Rng.int rng n_s in
  let spread templates = List.concat (List.init (per_kind / List.length templates) (fun _ -> templates)) in
  let requests = Array.of_list (List.concat_map spread (kinds ~bfs_src ~sssp_src)) in
  Graphs.Rng.shuffle rng requests;
  (* the edge-candidate permutation k -> (a k + b) mod n^2 needs an odd
     multiplier for the power-of-two n^2 used here *)
  { requests; order_seed = Graphs.Rng.int rng 1_000_000; edge_a = (2 * Graphs.Rng.int rng 100_000) + 1;
    edge_b = Graphs.Rng.int rng 1_000_000 }

(* Connection [conn]'s order of the cycle's requests: every cycle is
   a fresh seeded permutation, so concurrent connections do not settle
   into fixed pairs of requests that run side by side. *)
let cycle_orders mix ~conn =
  let rng = Graphs.Rng.create ~seed:(sub_seed mix.order_seed conn) in
  fun () ->
    let order = Array.init (Array.length mix.requests) Fun.id in
    Graphs.Rng.shuffle rng order;
    order

(* The [k]-th candidate edge of the write target, walking a bijection
   over all n^2 cells, so distinct [k] give distinct cells.  [None] for
   self loops and edges already in [m]: those candidates are skipped. *)
let candidate mix (m : float Smatrix.t) k =
  let n = Smatrix.nrows m in
  let cells = n * n in
  let p = ((mix.edge_a * k) + mix.edge_b) mod cells in
  let i = p / n and j = p mod n in
  if i = j || Smatrix.mem m i j then None
  else Some (i, j, float_of_int (1 + ((i + (3 * j)) mod 7)))
