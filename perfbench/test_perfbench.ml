(* The benchmark's own arithmetic and inputs: percentiles and the tail
   rule, the geometric-mean penalty with its base, span self time, the
   seeded inputs, and the plain-OCaml references. *)

open Perfbench_core

let close = Alcotest.float 1e-12

let test_quantiles () =
  Alcotest.check close "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "median even interpolates" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "p25" 1.75 (Stats.quantile [ 1.0; 2.0; 3.0; 4.0 ] 0.25)

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (match Stats.tail (xs 100) with
  | None -> Alcotest.fail "100 samples have a p90"
  | Some t ->
    (* ten samples (91..100) lie beyond the value *)
    Alcotest.check close "value" 90.0 t.Stats.value;
    Alcotest.check close "percentile" 90.0 t.Stats.pct;
    Alcotest.(check int) "samples" 100 t.Stats.samples;
    Alcotest.(check int) "beyond" 10 t.Stats.beyond);
  Alcotest.(check bool) "99 samples are not enough" true (Stats.tail (xs 99) = None);
  (match Stats.tail (xs 999) with
  | Some t ->
    Alcotest.check close "999: still p90" 90.0 t.Stats.pct;
    Alcotest.check close "999: value" 900.0 t.Stats.value;
    Alcotest.(check int) "999: beyond" 99 t.Stats.beyond
  | None -> Alcotest.fail "999 samples have a tail");
  match Stats.tail (xs 20000) with
  | Some t ->
    Alcotest.check close "20000: p99, the top of the ladder" 99.0 t.Stats.pct;
    Alcotest.check close "20000: value" 19800.0 t.Stats.value;
    Alcotest.(check int) "20000: beyond" 200 t.Stats.beyond
  | None -> Alcotest.fail "20000 samples have a tail"

let test_penalty () =
  let p = Stats.penalty [ ("a", 4.0, 1.0); ("b", 1.0, 1.0) ] in
  Alcotest.check close "geomean of 4 and 1" 2.0 p.Stats.geomean;
  Alcotest.(check (list (triple string (float 0.0) (float 0.0))))
    "base kept" [ ("a", 4.0, 1.0); ("b", 1.0, 1.0) ] p.Stats.base;
  Alcotest.check_raises "zero median" (Invalid_argument "Stats.penalty: non-positive median for z")
    (fun () -> ignore (Stats.penalty [ ("z", 0.0, 1.0) ]))

let test_span_self () =
  let t = ref 0.0 in
  let sp = Spans.create ~clock:(fun () -> !t) () in
  let at x = t := x in
  at 0.0;
  Spans.enter sp "a";
  at 1.0;
  Spans.enter sp "b";
  at 2.0;
  Spans.enter sp "b";
  at 2.5;
  Spans.leave sp;
  at 3.0;
  Spans.leave sp;
  at 4.0;
  ignore (Spans.with_span sp "c" (fun () -> at 5.0));
  at 10.0;
  Spans.leave sp;
  Alcotest.check close "a total" 10.0 (Spans.total sp "a");
  Alcotest.check close "a self = span minus children" 7.0 (Spans.self sp "a");
  Alcotest.check close "b total counts nested twice" 2.5 (Spans.total sp "b");
  Alcotest.check close "b self sums to the outer span" 2.0 (Spans.self sp "b");
  Alcotest.check close "c self" 1.0 (Spans.self sp "c");
  Alcotest.(check int) "b count" 2 (Spans.count sp "b")

let edges g = g.Graphs.Edge_list.edges

let test_seeded_inputs () =
  let same a b = Alcotest.(check bool) "same seed, same input" true (a = b) in
  same (edges (Inputs.er ~seed:5 ~n:64)) (edges (Inputs.er ~seed:5 ~n:64));
  Alcotest.(check bool) "another seed, another graph" false
    (edges (Inputs.er ~seed:5 ~n:64) = edges (Inputs.er ~seed:6 ~n:64));
  let m1 = Inputs.mix ~seed:9 ~n_g:512 ~n_s:256 and m2 = Inputs.mix ~seed:9 ~n_g:512 ~n_s:256 in
  same m1 m2;
  Alcotest.(check bool) "another seed, another mix" false (m1 = Inputs.mix ~seed:10 ~n_g:512 ~n_s:256);
  (* the mix's rule: the same number of requests of every kind *)
  let kind = function
    | Inputs.Run r -> "run@" ^ r.Inputs.tier
    | Inputs.Product p -> p.op
    | Inputs.Update -> "update"
  in
  let counts =
    List.map
      (fun k -> List.length (List.filter (fun r -> kind r = k) (Array.to_list m1.Inputs.requests)))
      [ "run@vm"; "run@nonblocking"; "run@native"; "mxv"; "vxm"; "update" ]
  in
  Alcotest.(check (list int)) "equal weight per kind" (List.init 6 (fun _ -> Inputs.per_kind)) counts;
  Alcotest.(check int) "no other kind" (6 * Inputs.per_kind) (Array.length m1.Inputs.requests);
  let orders m = let next = Inputs.cycle_orders m ~conn:1 in List.init 3 (fun _ -> next ()) in
  same (orders m1) (orders m2);
  let w = Inputs.fp64 (Inputs.er ~seed:3 ~n:16) in
  let cands = List.filter_map (Inputs.candidate m1 w) (List.init 256 Fun.id) in
  same cands (List.filter_map (Inputs.candidate m1 w) (List.init 256 Fun.id));
  (* the walk visits every cell once: the candidates are exactly the
     off-diagonal cells not already in the graph *)
  Alcotest.(check int) "distinct new edges"
    ((16 * 15) - Gbtl.Smatrix.nvals w)
    (List.length (List.sort_uniq compare (List.map (fun (i, j, _) -> (i, j)) cands)))

let adj n pairs =
  Inputs.bool_ (Inputs.symmetric (Graphs.Edge_list.of_pairs ~nvertices:n pairs))

let test_references () =
  let k4 = adj 4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "K4 triangles" 4 (Reference.triangles k4);
  Alcotest.(check int) "K4 is its own 4-truss" 12 (List.length (Reference.ktruss ~k:4 k4));
  let tail = adj 5 [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4) ] in
  Alcotest.(check int) "a triangle with a tail has no 3-truss tail" 6
    (List.length (Reference.ktruss ~k:3 tail));
  Alcotest.(check (array int)) "components" [| 0; 0; 2; 2; 4 |]
    (Reference.cc (adj 5 [ (0, 1); (2, 3) ]));
  let path = Inputs.bool_ (Graphs.Edge_list.of_pairs ~nvertices:3 [ (0, 1); (1, 2) ]) in
  Alcotest.(check (array (float 1e-12))) "dependency on a path" [| 0.0; 1.0; 0.0 |]
    (Reference.bc_single_source path ~src:0);
  Alcotest.(check (array int)) "labels settle on the smallest tied label" [| 0; 0; 0 |]
    (Reference.labelprop ~rounds:16 (adj 3 [ (0, 1); (1, 2); (0, 2) ]))

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "tail rule" `Quick test_tail;
          Alcotest.test_case "penalty" `Quick test_penalty;
          Alcotest.test_case "span self time" `Quick test_span_self ] );
      ( "inputs",
        [ Alcotest.test_case "seeded" `Quick test_seeded_inputs;
          Alcotest.test_case "references" `Quick test_references ] ) ]
