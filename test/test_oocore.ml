(* Out-of-core tiled storage (PR 9): bit-identity of the streamed
   kernels against the in-memory tier-1 path over random tile shapes,
   eviction under memory pressure, crash-safe tile I/O under armed
   fault points, checkpointed iteration resuming after a crash, and
   certified delta recompute ≡ full recompute for PageRank/BFS/CC. *)

open Gbtl

let f64 = Dtype.FP64

(* Every tiled matrix in this file gets its own store root so tests
   can't see each other's blobs (or a previous run's); the root is
   removed when the test is done with it. *)
let with_tile_dir f = Helpers.with_temp_dir "ogb-test-tiles" f

let with_tiled ?tile ?budget m f =
  with_tile_dir @@ fun dir ->
  let t = Tmatrix.of_smatrix ~dir ?tile ?budget m in
  Fun.protect ~finally:(fun () -> Tmatrix.destroy t) (fun () -> f t)

let svec = Helpers.svector_testable f64

(* -- random graphs + tile shapes for qcheck -- *)

let graph_gen =
  let open QCheck.Gen in
  int_range 2 28 >>= fun n ->
  int_range 0 (3 * n) >>= fun ne ->
  list_repeat ne (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 4))
  >>= fun edges ->
  pair (int_range 1 (n + 3)) (int_range 1 (n + 3)) >>= fun tile ->
  oneofl [ 0; 1; 400; 4000 ] >|= fun budget ->
  let coo = List.map (fun (r, c, v) -> (r, c, float_of_int v)) edges in
  (n, coo, tile, budget)

let print_case (n, coo, (tr, tc), budget) =
  Printf.sprintf "n=%d nnz=%d tile=%dx%d budget=%d" n (List.length coo) tr tc
    budget

let graph_arb = QCheck.make graph_gen ~print:print_case

(* make a symmetric bool graph out of the same raw coo (for BFS/CC) *)
let sym_bool n coo =
  Smatrix.of_coo Dtype.Bool n n
    (List.concat_map
       (fun (r, c, _) -> if r = c then [] else [ (r, c, true); (c, r, true) ])
       coo)

(* -- 1. streamed vxm ≡ in-memory pull, bitwise, any tile shape -- *)

let qcheck_vxm_bit_identity =
  Helpers.qtest ~count:150 "tiled vxm bit-identical to vxm_pull_dense"
    graph_arb
    (fun (n, coo, tile, budget) ->
      let m = Smatrix.of_coo f64 n n coo in
      let u = Array.init n (fun i -> float_of_int ((i mod 5) + 1) /. 3.0) in
      let occ = Array.init n (fun i -> i mod 4 <> 3) in
      let sr = Jit.Op_spec.arithmetic in
      let ev, eo = Jit.Kernels.vxm_pull_dense f64 sr (u, occ) m in
      with_tiled ~tile ~budget m (fun t ->
          let gv, go = Oocore.Stream.vxm_tiled f64 sr (u, occ) t in
          gv = ev && go = eo))

(* -- 2. streamed PageRank ≡ in-memory PageRank, bitwise -- *)

let qcheck_pagerank_bit_identity =
  Helpers.qtest ~count:60 "tiled pagerank bit-identical to native"
    graph_arb
    (fun (n, coo, tile, budget) ->
      let m = Smatrix.of_coo f64 n n coo in
      let expect, eiters =
        Format_stats.with_enabled true (fun () -> Algorithms.Pagerank.native m)
      in
      with_tiled ~tile ~budget m (fun t ->
          let got, giters = Oocore.Stream.pagerank t in
          giters = eiters && Svector.equal got expect))

(* -- 3. eviction under pressure: budget forces tile streaming, the
   result does not change by a single bit -- *)

let test_eviction_under_pressure () =
  let n = 120 in
  let coo =
    List.init (n * 8) (fun k ->
        let r = (k * 37) mod n and c = (k * 17 + 5) mod n in
        (r, c, 1.0 +. float_of_int (k mod 7)))
  in
  let m = Smatrix.of_coo f64 n n coo in
  let expect, _ =
    Format_stats.with_enabled true (fun () -> Algorithms.Pagerank.native m)
  in
  let ev0 = Tile_stats.get_evictions () in
  let wf0 = List.assoc "tile_write_failures" (Tile_stats.counters ()) in
  with_tiled ~tile:(16, 16) ~budget:6_000 m (fun t ->
      let got, _ = Oocore.Stream.pagerank t in
      (* under an externally armed write fault (the CI ENOSPC run) dirty
         tiles refuse to evict rather than lose data, so the pressure
         shows up as write failures instead of evictions *)
      let failed =
        List.assoc "tile_write_failures" (Tile_stats.counters ()) > wf0
      in
      Alcotest.(check bool)
        "pressure observed (evictions or refused writebacks)" true
        (Tile_stats.get_evictions () > ev0 || failed);
      if not failed then
        Alcotest.(check bool)
          "stayed within budget" true
          (Tmatrix.resident_bytes t <= Tmatrix.budget t);
      Alcotest.check svec "bit-identical under pressure" expect got)

(* -- 4. crash-safe tile I/O under each armed fault point -- *)

let pagerank_under_fault point mode =
  let n = 60 in
  let coo =
    List.init (n * 6) (fun k -> ((k * 13) mod n, (k * 7 + 3) mod n, 2.0))
  in
  let m = Smatrix.of_coo f64 n n coo in
  let expect, _ =
    Format_stats.with_enabled true (fun () -> Algorithms.Pagerank.native m)
  in
  with_tiled ~tile:(9, 9) ~budget:4_000 m (fun t ->
      Fault.arm [ (point, mode) ];
      Fun.protect ~finally:Fault.disarm (fun () ->
          let got, _ = Oocore.Stream.pagerank t in
          Alcotest.check svec
            (Printf.sprintf "bit-identical under %s" point)
            expect got))

let counter name = List.assoc name (Tile_stats.counters ())

let test_fault_read_corrupt () =
  let q0 = counter "tile_quarantines" and r0 = counter "tile_rebuilds" in
  pagerank_under_fault "tile.read.corrupt" (Fault.Times 3);
  Alcotest.(check bool)
    "corrupt loads quarantined" true
    (counter "tile_quarantines" > q0);
  Alcotest.(check bool)
    "quarantined tiles rebuilt from source" true
    (counter "tile_rebuilds" > r0)

let test_fault_write_enospc () =
  pagerank_under_fault "tile.write.enospc" (Fault.Times 3)

let test_fault_io_exn () = pagerank_under_fault "tile.io.exn" (Fault.Times 2)
let test_fault_evict_slow () = pagerank_under_fault "tile.evict.slow" Fault.Once

(* a matrix built with [create] has no construction-time source: the
   per-tile edit journal must rebuild a corrupted tile instead of
   hard-failing, including overwrites and deletes *)
let test_create_rebuilds_from_journal () =
  with_tile_dir @@ fun dir ->
  let t = Tmatrix.create ~dir ~tile:(4, 4) ~budget:1 f64 12 12 in
  Fun.protect ~finally:(fun () -> Tmatrix.destroy t) @@ fun () ->
  ignore
    (Tmatrix.update_edges t
       (List.init 24 (fun k ->
            ((k * 5) mod 12, ((k * 7) + 1) mod 12, Some (float_of_int (k + 1))))));
  ignore (Tmatrix.update_edges t [ (0, 1, Some 99.0); (5, 8, None) ]);
  let expect = Tmatrix.to_smatrix t in
  Tmatrix.flush t;
  let r0 = counter "tile_rebuilds" in
  Fault.arm [ ("tile.read.corrupt", Fault.Times 4) ];
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let got = Tmatrix.to_smatrix t in
  Alcotest.(check bool)
    "journal rebuild happened" true
    (counter "tile_rebuilds" > r0);
  Alcotest.check (Helpers.smatrix_testable f64) "rebuilt content identical"
    expect got

(* -- 5. checkpointed iteration: a crash mid-run resumes from the last
   good checkpoint, and the resumed result equals the uninterrupted
   one -- *)

let test_checkpoint_resume_after_crash () =
  with_tile_dir @@ fun dir ->
  let store = Tile_store.open_store ~dir "ckpt" in
  let codec = Exec.Iterate.marshal_codec () in
  let step ~crash_at ~iter st =
    if iter = crash_at then failwith "simulated crash";
    let st = st * 3 in
    if iter >= 9 then `Done st else `Continue st
  in
  let run ?(crash_at = -1) () =
    Exec.Iterate.run ~store ~name:"t" ~codec ~every:2 ~init:(fun () -> 1)
      ~step:(step ~crash_at) ~max_iters:50 ()
  in
  (* uninterrupted reference *)
  let straight = run () in
  Exec.Iterate.clear ~store ~name:"t" ();
  (* crash at iteration 6: checkpoints at 2 and 4 exist *)
  (match run ~crash_at:6 () with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Failure _ -> ());
  let resumed = run () in
  Alcotest.(check bool) "resumed past iteration 0" true
    (resumed.Exec.Iterate.resumed_from >= 2);
  Alcotest.(check int) "same fixed point" straight.Exec.Iterate.state
    resumed.Exec.Iterate.state;
  Alcotest.(check bool) "converged" true resumed.Exec.Iterate.converged

(* a checkpoint left by a different job under the same name (foreign
   fingerprint) must read as "no checkpoint" and be dropped, not
   resumed into the wrong run *)
let test_checkpoint_fingerprint_mismatch () =
  with_tile_dir @@ fun dir ->
  let store = Tile_store.open_store ~dir "ckpt" in
  let codec = Exec.Iterate.marshal_codec () in
  let step ~crash_at ~iter st =
    if iter = crash_at then failwith "simulated crash";
    let st = st * 3 in
    if iter >= 9 then `Done st else `Continue st
  in
  let run ?(crash_at = -1) ~fingerprint () =
    Exec.Iterate.run ~store ~name:"t" ~codec ~every:2 ~fingerprint
      ~init:(fun () -> 1) ~step:(step ~crash_at) ~max_iters:50 ()
  in
  (* crash mid-run under job A: job A's checkpoints exist under "t" *)
  (match run ~crash_at:6 ~fingerprint:"job-a n=10" () with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Failure _ -> ());
  let fresh = run ~fingerprint:"job-b n=99" () in
  Alcotest.(check int) "foreign checkpoint not resumed" 0
    fresh.Exec.Iterate.resumed_from;
  Alcotest.(check int) "job B ran from scratch" 19683
    fresh.Exec.Iterate.state

let test_checkpointed_pagerank () =
  let n = 40 in
  let coo = List.init (n * 4) (fun k -> ((k * 11) mod n, (k * 5 + 1) mod n, 1.0)) in
  let m = Smatrix.of_coo f64 n n coo in
  let expect, eiters =
    Format_stats.with_enabled true (fun () -> Algorithms.Pagerank.native m)
  in
  (* the checkpoint stream lives under the default tile root: point it
     at a temporary directory for the length of the test *)
  with_tile_dir @@ fun root ->
  let saved = Option.value ~default:"" (Sys.getenv_opt "OGB_TILE_DIR") in
  Unix.putenv "OGB_TILE_DIR" root;
  Fun.protect ~finally:(fun () -> Unix.putenv "OGB_TILE_DIR" saved) @@ fun () ->
  with_tiled ~tile:(8, 8) m (fun t ->
      let got, giters = Oocore.Stream.pagerank ~ckpt:"pr-test" ~every:2 t in
      Alcotest.(check int) "same iterations" eiters giters;
      Alcotest.check svec "checkpointed run bit-identical" expect got)

(* -- 6. delta recompute ≡ full recompute -- *)

let qcheck_delta_bfs_cc =
  Helpers.qtest ~count:60 "delta BFS/CC additions equal full recompute"
    graph_arb
    (fun (n, coo, tile, budget) ->
      let m = sym_bool n coo in
      (* previous results on the pre-batch graph *)
      with_tile_dir @@ fun dir ->
      let t = Tmatrix.of_smatrix ~dir ~tile ~budget m in
      Fun.protect ~finally:(fun () -> Tmatrix.destroy t) @@ fun () ->
      let prev_bfs =
        Oocore.Delta.dense_of_svector ~n ~fill:0
          (Algorithms.Bfs.native m ~src:0)
      in
      let prev_cc =
        Oocore.Delta.dense_of_svector ~n ~fill:0
          (Algorithms.Connected_components.native m)
      in
      (* additions-only symmetric batch derived from the seed *)
      let a = (List.length coo * 7 + 1) mod n
      and b = (List.length coo * 3 + n / 2) mod n in
      let batch = if a = b then [] else [ (a, b, Some true); (b, a, Some true) ] in
      let bfs, vb = Oocore.Delta.bfs_after ~src:0 ~prev:prev_bfs ~batch t in
      let cc, vc = Oocore.Delta.cc_after ~prev:prev_cc ~batch t in
      (batch = [] || Analysis.Incr.usable vb)
      && (batch = [] || Analysis.Incr.usable vc)
      && bfs = Oocore.Delta.bfs_full t ~src:0
      && cc = Oocore.Delta.cc_full t)

(* the same equivalence on directed (asymmetric) graphs with a one-way
   batch edge: the full algorithms only propagate labels along edge
   direction, so the delta seeding must not push backwards *)
let qcheck_delta_bfs_cc_directed =
  Helpers.qtest ~count:60
    "delta BFS/CC on asymmetric graphs equal full recompute" graph_arb
    (fun (n, coo, tile, budget) ->
      let m =
        Smatrix.of_coo Dtype.Bool n n
          (List.filter_map
             (fun (r, c, _) -> if r = c then None else Some (r, c, true))
             coo)
      in
      with_tile_dir @@ fun dir ->
      let t = Tmatrix.of_smatrix ~dir ~tile ~budget m in
      Fun.protect ~finally:(fun () -> Tmatrix.destroy t) @@ fun () ->
      let prev_bfs =
        Oocore.Delta.dense_of_svector ~n ~fill:0
          (Algorithms.Bfs.native m ~src:0)
      in
      let prev_cc =
        Oocore.Delta.dense_of_svector ~n ~fill:0
          (Algorithms.Connected_components.native m)
      in
      (* a single directed edge, no reverse: label v's component must
         not leak back into u *)
      let a = (List.length coo * 5 + 2) mod n
      and b = (List.length coo * 11 + 3) mod n in
      let batch = if a = b then [] else [ (a, b, Some true) ] in
      let bfs, _ = Oocore.Delta.bfs_after ~src:0 ~prev:prev_bfs ~batch t in
      let cc, _ = Oocore.Delta.cc_after ~prev:prev_cc ~batch t in
      bfs = Oocore.Delta.bfs_full t ~src:0 && cc = Oocore.Delta.cc_full t)

let test_delta_deletion_falls_back () =
  let n = 10 in
  let m = sym_bool n (List.init n (fun i -> (i, (i + 1) mod n, 1.0))) in
  with_tiled ~tile:(4, 4) m (fun t ->
      let prev =
        Oocore.Delta.dense_of_svector ~n ~fill:0 (Algorithms.Bfs.native m ~src:0)
      in
      let batch = [ (0, 1, None); (1, 0, None) ] in
      let bfs, verdict = Oocore.Delta.bfs_after ~src:0 ~prev ~batch t in
      (match verdict with
      | Analysis.Incr.Full_recompute _ -> ()
      | v -> Alcotest.failf "expected rejection, got %s" (Analysis.Incr.explain v));
      Alcotest.(check (array int)) "full recompute after deletion"
        (Oocore.Delta.bfs_full t ~src:0)
        bfs)

let test_delta_pagerank_warm_restart () =
  let n = 50 in
  let threshold = 1.e-14 in
  let coo = List.init (n * 5) (fun k -> ((k * 7) mod n, (k * 3 + 1) mod n, 1.0)) in
  let m = Smatrix.of_coo f64 n n coo in
  with_tiled ~tile:(12, 12) m (fun t ->
      let prev, _ = Oocore.Stream.pagerank ~threshold t in
      let prev = Oocore.Delta.dense_of_svector ~n ~fill:0.0 prev in
      let batch = [ (1, n - 1, Some 1.0); (n - 1, 1, Some 1.0) ] in
      let (got, warm_iters), verdict =
        Oocore.Delta.pagerank_after ~threshold ~prev ~batch t
      in
      (match verdict with
      | Analysis.Incr.Warm_restart _ -> ()
      | v ->
        Alcotest.failf "expected warm restart, got %s" (Analysis.Incr.explain v));
      let full, full_iters =
        Format_stats.with_enabled true (fun () ->
            Algorithms.Pagerank.native ~threshold (Tmatrix.to_smatrix t))
      in
      Alcotest.(check bool)
        "warm restart no slower than cold" true (warm_iters <= full_iters);
      (* both runs are within the (tiny) convergence threshold of the
         same unique fixed point — the certifier's contraction
         argument *)
      Svector.iter
        (fun i v ->
          let w = Option.value ~default:0.0 (Svector.get full i) in
          if abs_float (v -. w) > 1.e-5 then
            Alcotest.failf "rank %d differs: %.17g vs %.17g" i v w)
        got)

(* -- 7. Matrix Market hardening: malformed inputs land as located
   errors, never exceptions or garbage -- *)

let err_check name content ~wants_line =
  Test_io.with_temp_file content (fun path ->
      match Matrix_market.read_result f64 path with
      | Ok _ -> Alcotest.failf "%s: malformed input accepted" name
      | Error e ->
        Alcotest.(check bool)
          (name ^ ": file located") true
          (e.Error.file = Some path);
        if wants_line then
          Alcotest.(check bool)
            (name ^ ": line located") true
            (e.Error.line <> None))

let test_mm_bad_header () =
  err_check "bad banner" "%%NotMatrixMarket nope\n1 1 0\n" ~wants_line:true;
  err_check "bad field"
    "%%MatrixMarket matrix coordinate quaternion general\n1 1 0\n"
    ~wants_line:true;
  err_check "bad symmetry"
    "%%MatrixMarket matrix coordinate real palindromic\n1 1 0\n"
    ~wants_line:true;
  err_check "bad size line"
    "%%MatrixMarket matrix coordinate real general\nthree by three\n"
    ~wants_line:true

let test_mm_bad_indices () =
  err_check "row out of range"
    "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n"
    ~wants_line:true;
  err_check "zero index"
    "%%MatrixMarket matrix coordinate real general\n3 3 1\n0 2 1.0\n"
    ~wants_line:true;
  err_check "overflowing index"
    "%%MatrixMarket matrix coordinate real general\n\
     3 3 1\n99999999999999999999999 1 1.0\n"
    ~wants_line:true;
  err_check "non-numeric value"
    "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 banana\n"
    ~wants_line:true

let test_mm_truncated () =
  err_check "truncated entries"
    "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n"
    ~wants_line:false;
  Test_io.with_temp_file
    "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n"
    (fun path ->
      match Matrix_market.read f64 path with
      | _ -> Alcotest.fail "legacy reader accepted truncated file"
      | exception Matrix_market.Parse_error msg ->
        Alcotest.(check bool)
          "legacy error carries location" true
          (Helpers.contains_substring msg path))

let test_mm_missing_file () =
  match Matrix_market.read_result f64 "/no/such/file.mtx" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error e ->
    Alcotest.(check bool) "file recorded" true (e.Error.file <> None)

(* -- 8. real graph through the tiled path -- *)

let find_karate () =
  (* dune runs the test binary from _build; the data file lives in the
     source tree *)
  let candidates =
    [ "data/karate.mtx"; "../data/karate.mtx"; "../../data/karate.mtx";
      "../../../data/karate.mtx"; "../../../../data/karate.mtx" ]
  in
  List.find_opt Sys.file_exists candidates

let test_karate_tiled_ingest () =
  match find_karate () with
  | None -> Alcotest.skip ()
  | Some path -> (
    with_tile_dir @@ fun dir ->
    match Tmatrix.of_mm_file ~dir ~tile:(10, 10) ~budget:3_000 f64 path with
    | Error e -> Alcotest.failf "karate ingest failed: %s" (Error.to_string e)
    | Ok t ->
      Fun.protect ~finally:(fun () -> Tmatrix.destroy t) @@ fun () ->
      Alcotest.(check (pair int int)) "shape" (34, 34) (Tmatrix.shape t);
      Alcotest.(check int) "symmetric nvals" 156 (Tmatrix.nvals t);
      let expect, _ =
        Format_stats.with_enabled true (fun () ->
            Algorithms.Pagerank.native (Matrix_market.read f64 path))
      in
      let got, _ = Oocore.Stream.pagerank t in
      Alcotest.check svec "karate pagerank through tiles" expect got)

(* -- 9. health surface: the tile counters show up in doctor's report -- *)

let test_health_reports_tiles () =
  let report = Jit.Health.collect ~probe:false () in
  let json = Jit.Health.to_json report in
  Alcotest.(check bool) "tiles section present" true
    (Helpers.contains_substring json "\"tiles\"");
  Alcotest.(check bool) "eviction counter present" true
    (Helpers.contains_substring json "tile_evictions")

let suite =
  [ Helpers.to_alcotest qcheck_vxm_bit_identity;
    Helpers.to_alcotest qcheck_pagerank_bit_identity;
    Alcotest.test_case "eviction under pressure, bit-identical" `Quick
      test_eviction_under_pressure;
    Alcotest.test_case "fault: tile.read.corrupt quarantines + rebuilds" `Quick
      test_fault_read_corrupt;
    Alcotest.test_case "fault: tile.write.enospc keeps tile resident" `Quick
      test_fault_write_enospc;
    Alcotest.test_case "fault: tile.io.exn contained" `Quick test_fault_io_exn;
    Alcotest.test_case "fault: tile.evict.slow tolerated" `Quick
      test_fault_evict_slow;
    Alcotest.test_case "create-built tiles rebuild from edit journal" `Quick
      test_create_rebuilds_from_journal;
    Alcotest.test_case "checkpoint resumes after crash" `Quick
      test_checkpoint_resume_after_crash;
    Alcotest.test_case "foreign checkpoint fingerprint starts fresh" `Quick
      test_checkpoint_fingerprint_mismatch;
    Alcotest.test_case "checkpointed pagerank bit-identical" `Quick
      test_checkpointed_pagerank;
    Helpers.to_alcotest qcheck_delta_bfs_cc;
    Helpers.to_alcotest qcheck_delta_bfs_cc_directed;
    Alcotest.test_case "delta with deletions falls back to full" `Quick
      test_delta_deletion_falls_back;
    Alcotest.test_case "delta pagerank warm restart" `Quick
      test_delta_pagerank_warm_restart;
    Alcotest.test_case "matrix market: bad headers rejected" `Quick
      test_mm_bad_header;
    Alcotest.test_case "matrix market: bad indices rejected" `Quick
      test_mm_bad_indices;
    Alcotest.test_case "matrix market: truncation rejected" `Quick
      test_mm_truncated;
    Alcotest.test_case "matrix market: missing file is an error" `Quick
      test_mm_missing_file;
    Alcotest.test_case "karate club through the tiled path" `Quick
      test_karate_tiled_ingest;
    Alcotest.test_case "health report carries tile stats" `Quick
      test_health_reports_tiles ]
