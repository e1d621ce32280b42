(* The in-process workload, dispatch-bound: set up from an empty
   private JIT cache, then a closed loop with one caller that runs
   rounds of passes (tier 1, tier 3, nonblocking; in the traced run also
   the traced tier 1, the dsl tier and the format-aware tier 3) until
   the time is up.  Every output is checked. *)

open Gbtl
module S = Perfbench_core.Stats
module I = Perfbench_core.Inputs
module Sp = Perfbench_core.Spans
module P = Programs

let now = Unix.gettimeofday
let ms s = 1000.0 *. s

type inputs = {
  programs : P.t list;
  warm_entries : (string * int) list;  (** tier-1 encodings and their |V| *)
  directed : float Smatrix.t;  (** PageRank's paper-threshold check runs here *)
}

(* ER at |V| = 256: operands are small, dispatch dominates.  The two
   programs whose work is a data-dependent number of sweeps to a
   fixpoint (labelprop, ktruss) run on the fixed karate graph, so the
   seed moves their cost no more than noise does. *)
let build_inputs ~seed =
  let n = 256 in
  let dir = I.er ~seed:(I.sub_seed seed 1) ~n in
  let sym = I.symmetric (I.er ~seed:(I.sub_seed seed 2) ~n) in
  let dir_b = I.bool_ dir and dir_f = I.fp64 dir and sym_b = I.bool_ sym in
  let karate = Matrix_market.read Dtype.Bool "data/karate.mtx" in
  if Perfbench_core.Reference.triangles karate <> 45 then
    failwith "data/karate.mtx: expected Zachary's 45 triangles";
  let src = I.pick_source ~seed:(I.sub_seed seed 3) dir_b in
  { programs =
      [ P.bfs ~graph:dir_b ~src; P.sssp ~graph:dir_f ~src; P.pagerank ~graph:dir_f;
        P.triangle sym_b; P.cc ~graph:sym_b; P.labelprop ~graph:karate; P.ktruss ~graph:karate;
        P.bc ~graph:dir_b ~src; P.triangle_of ~name:"karate_tc" karate ];
    warm_entries =
      List.map (fun e -> (e, n)) [ "bfs"; "sssp"; "pagerank"; "triangle"; "cc"; "bc" ]
      @ List.map (fun e -> (e, Smatrix.nrows karate)) [ "labelprop"; "ktruss"; "triangle" ];
    directed = dir_f }

(* ---- outcome bookkeeping ---- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.notes < 20 then t.notes <- msg :: t.notes

(* Run one program at one tier, timing only the call; a wrong result or
   an exception counts as a failure. *)
let run_checked t ~tier_name (p : P.t) (f : P.tier) =
  t.attempted <- t.attempted + 1;
  match
    let t0 = now () in
    let conv = f () in
    let dt = now () -. t0 in
    (dt, conv ())
  with
  | dt, out ->
    if not (P.agree out (Lazy.force p.reference)) then
      fail t (Printf.sprintf "%s/%s: output differs from the reference" p.name tier_name);
    dt
  | exception e ->
    fail t (Printf.sprintf "%s/%s: %s" p.name tier_name (Printexc.to_string e));
    nan

(* A pass: every program once.  Returns per-program seconds. *)
let pass t ~tier_name ~(tier : P.t -> P.tier) programs =
  List.map (fun p -> (p.P.name, run_checked t ~tier_name p (tier p))) programs

let pass_total per = List.fold_left (fun a (_, s) -> a +. s) 0.0 per

(* ---- set-up ---- *)

type setup = {
  inputs : inputs;
  setup_s : float;
  gen_s : float;
  warm_s : float;
  warm_sigs : int;
  compiles : int;
  native_compiles : int;
  compile_s : float;
  disk_hits : int;
  distinct_sigs : int;
}

let tiers =
  [ ("tier1", fun (p : P.t) -> p.tier1);
    ("tier3", fun (p : P.t) -> p.tier3);
    ("nonblocking", fun (p : P.t) -> p.nonblocking);
    ("dsl", fun (p : P.t) -> p.dsl);
    ("format_aware", fun (p : P.t) -> p.format_aware) ]

(* One cold set-up: an empty private cache directory, an empty kernel
   table and plan cache, input generation, the static warm-up over the
   tier-1 signatures, then one checked pass at every tier so that
   whatever the warm-up does not reach is compiled before timing
   starts. *)
let setup t ~seed ~cache_dir =
  let t0 = now () in
  Jit.Disk_cache.set_dir cache_dir;
  Jit.Dispatch.clear_memory_cache ();
  Exec.Planner.clear_cache ();
  let before = Jit.Jit_stats.snapshot () in
  let inputs = build_inputs ~seed in
  let gen_s = now () -. t0 in
  let tw = now () in
  let seen = Hashtbl.create 64 in
  let sigs =
    List.concat_map
      (fun (name, n) ->
        match Analysis.Tier1.find name with
        | None -> []
        | Some e ->
          List.filter
            (fun k ->
              let key = Jit.Kernel_sig.key k in
              (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
            (Analysis.Tier1.signatures e ~n))
      inputs.warm_entries
  in
  ignore (Analysis.Warmup.warm sigs);
  let warm_s = now () -. tw in
  List.iter (fun (tier_name, tier) -> ignore (pass t ~tier_name ~tier inputs.programs)) tiers;
  t.attempted <- t.attempted + 1;
  let pr_bad = P.pagerank_threshold_check inputs.directed in
  if pr_bad > 0 then fail t (Printf.sprintf "pagerank: %d tiers disagree at the paper's threshold" pr_bad);
  let after = Jit.Jit_stats.snapshot () in
  let module J = Jit.Jit_stats in
  { inputs;
    setup_s = now () -. t0;
    gen_s;
    warm_s;
    warm_sigs = List.length sigs;
    compiles = after.J.compiles - before.J.compiles;
    native_compiles = after.J.native_compiles - before.J.native_compiles;
    compile_s = after.J.compile_seconds -. before.J.compile_seconds;
    disk_hits = after.J.disk_hits - before.J.disk_hits;
    distinct_sigs = Jit.Dispatch.memory_cache_size () }

(* ---- counters read around a pass ---- *)

let assoc_delta a b k = List.assoc k b - List.assoc k a

let sum_kernel_seconds () =
  List.fold_left (fun acc (_, _, s, _) -> acc +. s) 0.0 (Jit.Jit_stats.kernel_times ())

let sum_fusions () = List.fold_left (fun acc (_, n) -> acc + n) 0 (Jit.Jit_stats.fusions ())

(* [around f] runs [f] and returns its result with the counter deltas. *)
type deltas = {
  lookups : int;
  formats : (string * int) list;
  pool : (string * int) list;
  busy_s : float;
  kernel_s : float;
  fusions : int;
  planner : (string * int) list;
}

let around f =
  let l0 = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  let f0 = Format_stats.counters () and p0 = Parallel.Pool.counters () in
  let b0 = Parallel.Pool.busy_seconds () and k0 = sum_kernel_seconds () in
  let u0 = sum_fusions () and q0 = Exec.Planner.counters () in
  let r = f () in
  let f1 = Format_stats.counters () and p1 = Parallel.Pool.counters () in
  let q1 = Exec.Planner.counters () in
  ( r,
    { lookups = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups - l0;
      formats = List.map (fun (k, _) -> (k, assoc_delta f0 f1 k)) f1;
      pool = List.map (fun (k, _) -> (k, assoc_delta p0 p1 k)) p1;
      busy_s = Parallel.Pool.busy_seconds () -. b0;
      kernel_s = sum_kernel_seconds () -. k0;
      fusions = sum_fusions () - u0;
      planner = List.map (fun (k, _) -> (k, assoc_delta q0 q1 k)) q1 } )

(* A warm kernel dispatch on a one-entry operand: signature build, table
   lookup and the call, with almost no kernel work. *)
let lookup_us () =
  let u = Svector.of_coo Dtype.FP64 8 [ (3, 2.0) ] in
  let f = Jit.Op_spec.Named "AdditiveInverse" in
  ignore (Jit.Kernels.apply_v Dtype.FP64 f u);
  let reps = 2000 in
  let samples =
    List.init 15 (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          ignore (Jit.Kernels.apply_v Dtype.FP64 f u)
        done;
        1e6 *. (now () -. t0) /. float_of_int reps)
  in
  S.median samples

(* ---- the measured loop ---- *)

let median_of f xs = S.median (List.map f xs)

type pass_times = (string * float) list

type measured = {
  programs : P.t list;
  t1 : pass_times list;
  t3 : pass_times list;
  nb : pass_times list;
  t1x : pass_times list;  (** traced tier 1 *)
  dsl : pass_times list;
  fa : pass_times list;  (** format-aware tier 3 *)
  d_t1x : deltas list;
  d_dsl : deltas list;
  d_t3 : deltas list;
  d_nb : deltas list;
  d_fa : deltas list;
  traced : (float * int) list;  (** per traced pass: interpreter self seconds, bridge calls *)
  spans : Sp.t;
  compiles : int;  (** JIT compiles during the loop *)
}

(* Rounds of passes until [seconds] are up and there are tier-1 samples
   enough for the tail's lowest rung (p90 with ten beyond): two tier-1
   passes (the tail needs the most samples), one tier-3 and one
   nonblocking pass; with [trace] also the traced tier 1, the dsl tier
   and the format-aware tier 3. *)
let measure t ~programs ~seconds ~trace =
  let compiles0 = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles in
  let spans = Sp.create () in
  let t1 = ref [] and t3 = ref [] and nb = ref [] in
  let t1x = ref [] and dsl = ref [] and fa = ref [] in
  let d_t1x = ref [] and d_dsl = ref [] and d_t3 = ref [] and d_nb = ref [] and d_fa = ref [] in
  let traced = ref [] in
  let deadline = now () +. seconds in
  let timed_pass name = pass t ~tier_name:name ~tier:(List.assoc name tiers) programs in
  let vm_self () = List.fold_left (fun a (p : P.t) -> a +. Sp.self spans ("vm." ^ p.name)) 0.0 programs in
  while now () < deadline || List.length !t1 < 100 do
    t1 := timed_pass "tier1" :: timed_pass "tier1" :: !t1;
    let p3, d3 = around (fun () -> timed_pass "tier3") in
    t3 := p3 :: !t3;
    d_t3 := d3 :: !d_t3;
    let pn, dn = around (fun () -> timed_pass "nonblocking") in
    nb := pn :: !nb;
    d_nb := dn :: !d_nb;
    if trace then begin
      let self0 = vm_self () and calls0 = Sp.count spans "bridge" in
      let px, dx =
        around (fun () ->
            pass t ~tier_name:"tier1_traced" ~tier:(fun p -> p.P.tier1_traced spans) programs)
      in
      t1x := px :: !t1x;
      d_t1x := dx :: !d_t1x;
      traced := (vm_self () -. self0, Sp.count spans "bridge" - calls0) :: !traced;
      let pd, dd = around (fun () -> timed_pass "dsl") in
      dsl := pd :: !dsl;
      d_dsl := dd :: !d_dsl;
      let pf, df = around (fun () -> timed_pass "format_aware") in
      fa := pf :: !fa;
      d_fa := df :: !d_fa
    end
  done;
  { programs; t1 = !t1; t3 = !t3; nb = !nb; t1x = !t1x; dsl = !dsl; fa = !fa; d_t1x = !d_t1x;
    d_dsl = !d_dsl; d_t3 = !d_t3; d_nb = !d_nb; d_fa = !d_fa; traced = !traced; spans;
    compiles = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles - compiles0 }

let totals xs = List.map (fun p -> ms (pass_total p)) xs
let prog_med xs name = S.median (List.map (fun p -> List.assoc name p) xs)
let names m = List.map (fun (p : P.t) -> p.P.name) m.programs

let penalty m = S.penalty (List.map (fun n -> (n, prog_med m.t1 n, prog_med m.t3 n)) (names m))

let penalty_note label (p : S.penalty) =
  Printf.sprintf "penalty_geomean base (%s, ms): %s" label
    (String.concat ", " (List.map (fun (n, a, b) -> Printf.sprintf "%s %.3f/%.3f" n a b) p.S.base))

(* The library layers' metrics from a traced [measure]: the interpreter,
   core, the programs' penalties, jit lookups, gbtl formats, the
   nonblocking engine and the pool, with the ledger that ties them to
   the traced tier-1 pass. *)
let layer_metrics m =
  let t1_p50 = S.median (totals m.t1) and t3_p50 = S.median (totals m.t3) in
  let t1x_p50 = S.median (totals m.t1x) in
  let vm_self_ms = ms (median_of fst m.traced) in
  let dsl_p50 = S.median (totals m.dsl) in
  let core_overhead = dsl_p50 -. t3_p50 in
  (* The rest of the traced pass is bridge time in library calls the
     dsl programs do not make (cc's encoding runs |V| rounds where dsl
     stops at the fixpoint).  It runs in core/jit and gbtl and is split
     between them by a measured quantity: the traced pass's extra jit
     lookups over the dsl pass, each priced at what one lookup costs in
     core+jit on the dsl pass (core.overhead_ms over the dsl pass's
     lookups beyond tier 3's); what is left is kernel work. *)
  let encoding = t1x_p50 -. vm_self_ms -. dsl_p50 in
  let lookups ds = median_of (fun d -> float_of_int d.lookups) ds in
  let dsl_extra = lookups m.d_dsl -. lookups m.d_t3 in
  let per_lookup_ms = if dsl_extra > 0.0 then Float.max 0.0 core_overhead /. dsl_extra else 0.0 in
  let vm_extra = Float.max 0.0 (lookups m.d_t1x -. lookups m.d_dsl) in
  let extra_dispatch = Float.min (Float.max 0.0 encoding) (vm_extra *. per_lookup_ms) in
  let extra_kernel = encoding -. extra_dispatch in
  let fmt k ds = median_of (fun d -> float_of_int (List.assoc k d.formats)) ds in
  let pool k ds = median_of (fun d -> float_of_int (List.assoc k d.pool)) ds in
  let nb_p50 = S.median (totals m.nb) in
  let kernel_ms = ms (median_of (fun d -> d.kernel_s) m.d_nb) in
  let searches = median_of (fun d -> float_of_int (List.assoc "searches" d.planner)) m.d_nb in
  let hits = median_of (fun d -> float_of_int (List.assoc "cache_hits" d.planner)) m.d_nb in
  let busy = median_of (fun d -> d.busy_s) m.d_t3 in
  let domains = float_of_int (Parallel.Pool.domains ()) in
  let metrics =
    [ ("minivm.self_ms", vm_self_ms, "ms");
      ("minivm.bridge_calls", median_of (fun (_, c) -> float_of_int c) m.traced, "count");
      ("minivm.self_share", vm_self_ms /. t1x_p50, "ratio");
      ("core.dsl_pass_ms", dsl_p50, "ms");
      ("core.overhead_ms", core_overhead, "ms");
      ("algorithms.vm_extra_share", encoding /. t1x_p50, "ratio") ]
    @ List.map (fun n -> ("penalty." ^ n, prog_med m.t1 n /. prog_med m.t3 n, "ratio")) (names m)
    @ [ ("jit.lookups", lookups m.d_t1x, "count");
        ("jit.lookup_us", lookup_us (), "us");
        ("gbtl.format_aware_pass_ms", S.median (totals m.fa), "ms");
        ("gbtl.csc_builds", fmt "csc_builds" m.d_fa, "count");
        ("gbtl.pull_steps", fmt "pull_steps" m.d_fa, "count");
        ("gbtl.push_steps", fmt "push_steps" m.d_fa, "count");
        ("gbtl.densify", fmt "densify" m.d_fa, "count");
        ("exec.kernel_ms", kernel_ms, "ms");
        ("exec.overhead_ms", nb_p50 -. kernel_ms, "ms");
        ("exec.fusions", median_of (fun d -> float_of_int d.fusions) m.d_nb, "count");
        ("exec.planner_searches", searches, "count");
        ("exec.plan_cache_hit_ratio", (if searches +. hits > 0.0 then hits /. (searches +. hits) else 0.0), "ratio");
        ("parallel.par_jobs", pool "par_jobs" m.d_t3, "count");
        ("parallel.seq_jobs", pool "seq_jobs" m.d_t3, "count");
        ("parallel.chunks", pool "chunks" m.d_t3, "count");
        ("parallel.degrades", pool "degrades" m.d_t3, "count");
        ("parallel.utilization", busy /. (t3_p50 /. 1000.0 *. domains), "ratio");
        ("cores", float_of_int (Domain.recommended_domain_count ()), "count") ]
  in
  let shares =
    [ ("minivm", vm_self_ms /. t1x_p50);
      ("core+jit", (core_overhead +. extra_dispatch) /. t1x_p50);
      ("gbtl+parallel", (t3_p50 +. extra_kernel) /. t1x_p50) ]
  in
  let per_program (p : P.t) =
    let a = Sp.find m.spans ("vm." ^ p.name) in
    let mean x = ms (x /. float_of_int (max 1 a.Sp.count)) in
    Printf.sprintf "%s %.3f = %.3f + %.3f; dsl %.3f; tier3 %.3f" p.name (mean a.Sp.total) (mean a.Sp.self)
      (mean (a.Sp.total -. a.Sp.self)) (ms (prog_med m.dsl p.name)) (ms (prog_med m.t3 p.name))
  in
  let closes = Float.abs encoding /. t1x_p50 <= Float.abs ((t1x_p50 /. t1_p50) -. 1.0) in
  let pct x = 100.0 *. x /. t1x_p50 in
  let notes =
    [ Printf.sprintf
        "ledger: minivm.self_ms + core.overhead_ms + tier-3 pass = %.1f%% of the traced tier-1 pass; \
         closes within the tracing overhead: %s"
        (pct (vm_self_ms +. core_overhead +. t3_p50))
        (if closes then "yes" else "NO");
      Printf.sprintf
        "the rest, %.1f%% (algorithms.vm_extra_share), is bridge time in library calls the dsl programs \
         do not make: %.0f extra jit lookups per pass at %.2f us of core+jit each (the dsl pass's \
         core.overhead_ms over its %.0f lookups beyond tier 3) = %.1f%% core+jit, the remaining %.1f%% \
         kernel work, counted under gbtl+parallel"
        (pct encoding) vm_extra (1000.0 *. per_lookup_ms) dsl_extra (pct extra_dispatch) (pct extra_kernel);
      "ledger per program, traced tier 1 = minivm self + bridge (ms, means): "
      ^ String.concat "; " (List.map per_program m.programs) ]
  in
  (metrics, shares, notes, t1x_p50 /. t1_p50)

let run ~seed ~seconds ~trace ~rundir =
  let t = tally () in
  let reps = 3 in
  let setups =
    List.init reps (fun k ->
        setup t ~seed ~cache_dir:(Filename.concat rundir (Printf.sprintf "jit-%d" k)))
  in
  let su = List.nth setups (reps - 1) in
  let m = measure t ~programs:su.inputs.programs ~seconds ~trace in
  let t1_ms = totals m.t1 in
  let penalty = penalty m in
  let tail = S.tail t1_ms in
  let end_to_end =
    [ ("setup_s", S.median (List.map (fun s -> s.setup_s) setups), "s");
      ("latency_ms_p50", S.median t1_ms, "ms");
      ("latency_ms_tail", (match tail with Some x -> x.S.value | None -> nan), "ms");
      ("throughput_per_s", 1000.0 *. float_of_int (List.length t1_ms) /. List.fold_left ( +. ) 0.0 t1_ms, "1/s");
      ("native_ms_p50", S.median (totals m.t3), "ms");
      ("nonblocking_ms_p50", S.median (totals m.nb), "ms");
      ("penalty_geomean", penalty.S.geomean, "ratio");
      ("peak_mem_mb", Report.peak_mem_mb "/proc/self/status", "MB") ]
  in
  let notes =
    [ Printf.sprintf "tier-1 pass: %d samples; tail = p%.2f (%d samples beyond)" (List.length t1_ms)
        (match tail with Some x -> x.S.pct | None -> nan)
        (match tail with Some x -> x.S.beyond | None -> 0);
      penalty_note "tier-1 p50 / tier-3 p50"
        { penalty with S.base = List.map (fun (n, a, b) -> (n, ms a, ms b)) penalty.S.base };
      Printf.sprintf "cores %d, pool domains %d" (Domain.recommended_domain_count ()) (Parallel.Pool.domains ()) ]
  in
  let per_layer, shares, trace_notes =
    if not trace then ([], [], [])
    else begin
      let metrics, shares, notes, overhead = layer_metrics m in
      ( metrics
        @ [ ("jit.compiles_steady", float_of_int m.compiles, "count");
            ("jit.setup_compiles", float_of_int su.compiles, "count");
            ("jit.native_compiles", float_of_int su.native_compiles, "count");
            ("jit.compile_s", su.compile_s, "s");
            ("jit.disk_hits", float_of_int su.disk_hits, "count");
            ("jit.distinct_sigs", float_of_int su.distinct_sigs, "count");
            ("analysis.warm_s", su.warm_s, "s");
            ("analysis.warm_sigs", float_of_int su.warm_sigs, "count");
            ("graphs.gen_s", su.gen_s, "s");
            ("trace.overhead", overhead, "ratio") ],
        shares,
        notes )
    end
  in
  { Report.end_to_end; per_layer; notes = notes @ trace_notes; attempted = t.attempted; failed = t.failed;
    failures = List.rev t.notes; shares }
