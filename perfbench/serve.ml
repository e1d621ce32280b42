(* The serve-mixed workload: [ogb serve] in its own process with a
   private socket and a private, empty JIT cache, [nproc] closed-loop
   client connections over a seeded request mix of reads and edge
   updates.  Reads of the read-only graphs are checked against
   references; the write target's final state is checked against a
   reference that applied every acknowledged batch. *)

open Gbtl
module J = Server.Json
module W = Server.Wire
module S = Perfbench_core.Stats
module I = Perfbench_core.Inputs
module R = Perfbench_core.Reference
module Sp = Perfbench_core.Spans

let now = Unix.gettimeofday
let ms s = 1000.0 *. s
let cores = Domain.recommended_domain_count ()

(* ---- the daemon process ---- *)

type daemon = { pid : int; out : W.conn; mutable alive : bool }

let live : daemon list ref = ref []

let stop d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        reap ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    Unix.close (W.fd d.out)
  end

let () = at_exit (fun () -> List.iter stop !live)

(* Spawn [cli serve] and wait for its "listening" line, which it prints
   once the startup warm-up is done and the socket accepts. *)
let spawn ~cli ~sock ~cache_dir ~log () =
  let keep kv =
    not
      (List.exists
         (fun p -> String.starts_with ~prefix:p kv)
         [ "OGB_JIT_CACHE="; "OGB_SERVE_WORKERS="; "OGB_SERVE_NO_WARM="; "OGB_DOMAINS=" ])
  in
  let env =
    Array.append
      (Array.of_list
         (("OGB_JIT_CACHE=" ^ cache_dir) :: Printf.sprintf "OGB_SERVE_WORKERS=%d" cores
         :: List.filter keep (Array.to_list (Unix.environment ()))))
      [||]
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process_env cli [| cli; "serve"; "--sock"; sock |] env in_r out_w logfd in
  List.iter Unix.close [ in_r; in_w; out_w; logfd ];
  let d = { pid; out = W.conn out_r; alive = true } in
  live := d :: !live;
  match W.recv_line ~timeout_s:120.0 d.out with
  | `Line l when String.starts_with ~prefix:"ogb serve: listening" l -> d
  | _ ->
    stop d;
    failwith ("the daemon did not start; see " ^ log)

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  W.retry_eintr (fun () -> Unix.connect fd (Unix.ADDR_UNIX sock));
  W.conn fd

let roundtrip conn line =
  match W.send_line conn line with
  | Error e -> Error e
  | Ok () -> (
    match W.recv_line ~timeout_s:120.0 conn with
    | `Line l -> Ok l
    | `Eof -> Error "connection closed"
    | `Timeout -> Error "no response in 120 s")

let request conn fields =
  match roundtrip conn (J.to_string (J.Obj fields)) with
  | Error e -> failwith e
  | Ok l -> J.parse l

let status resp = J.str_field "status" resp = Some "ok"
let num_field k resp = Option.value ~default:nan (Option.bind (J.member k resp) J.num)
let str s = J.Str s
let num x = J.Num x

(* ---- inputs ---- *)

type inputs = {
  g : float Smatrix.t;  (** directed ER, n = 512 *)
  s : float Smatrix.t;  (** symmetric ER, n = 256 *)
  w : float Smatrix.t;  (** write target (initial state), n = 512 *)
  mix : I.mix;
  paths : (I.graph * string) list;
}

let build_inputs ~seed ~rundir =
  let g = I.fp64 (I.er ~seed:(I.sub_seed seed 11) ~n:512) in
  let s = I.fp64 (I.symmetric (I.er ~seed:(I.sub_seed seed 12) ~n:256)) in
  let w = I.fp64 (I.er ~seed:(I.sub_seed seed 13) ~n:512) in
  let paths =
    List.map
      (fun (k, m) ->
        let p = Filename.concat rundir (I.graph_name k ^ ".mtx") in
        Matrix_market.write m p;
        (k, p))
      [ (I.G, g); (I.S, s); (I.W, w) ]
  in
  { g; s; w; mix = I.mix ~seed:(I.sub_seed seed 14) ~n_g:512 ~n_s:256; paths }

let matrix inp = function I.G -> inp.g | I.S -> inp.s | I.W -> inp.w

(* ---- set-up: spawn, warm-up, graph loads ---- *)

type setup = {
  d : daemon;
  sock : string;
  conn : W.conn;  (** control connection *)
  setup_s : float;
  warm_s : float;  (** spawn to listening: the daemon's startup warm-up *)
  after_setup : J.t;  (** [stats] right after set-up *)
  health : J.t;  (** [health] right after set-up *)
}

let setup ~cli ~rundir ~name ~cache_dir inp =
  let sock = Filename.concat rundir (name ^ ".sock") in
  let t0 = now () in
  let d = spawn ~cli ~sock ~cache_dir ~log:(Filename.concat rundir (name ^ ".log")) () in
  let warm_s = now () -. t0 in
  let conn = connect sock in
  List.iter
    (fun (k, path) ->
      let r = request conn [ ("op", str "load"); ("name", str (I.graph_name k)); ("graph", str path) ] in
      if not (status r) then failwith ("load failed: " ^ J.to_string r))
    inp.paths;
  let setup_s = now () -. t0 in
  let after_setup = request conn [ ("op", str "stats") ] in
  let health = request conn [ ("op", str "health"); ("probe", J.Bool false) ] in
  { d; sock; conn; setup_s; warm_s; after_setup; health }

let teardown su =
  W.close su.conn;
  stop su.d

let path_num keys j =
  let rec go j = function
    | [] -> J.num j
    | k :: ks -> Option.bind (J.member k j) (fun v -> go v ks)
  in
  Option.value ~default:nan (go j keys)

(* ---- the request mix ---- *)

type sample = { idx : int; seconds : float; lib_ms : float; traced : bool }

type shared = {
  inp : inputs;
  next_k : int Atomic.t;  (** next write-target candidate *)
  lock : Mutex.t;
  mutable applied : (int * int * float) list;  (** acknowledged additions *)
  mutable first : (int * J.t) list;  (** first result seen per template *)
  mutable failed : int;
  mutable attempted : int;
  mutable notes : string list;
}

let shared inp ~attempted =
  { inp; next_k = Atomic.make 0; lock = Mutex.create (); applied = []; first = []; failed = 0; attempted;
    notes = [] }

let note sh msg =
  Mutex.protect sh.lock (fun () ->
      sh.failed <- sh.failed + 1;
      if List.length sh.notes < 20 then sh.notes <- msg :: sh.notes)

let batch_size = 4

let take_batch sh =
  let rec go acc =
    if List.length acc = batch_size then acc
    else
      match I.candidate sh.inp.mix sh.inp.w (Atomic.fetch_and_add sh.next_k 1) with
      | Some e -> go (e :: acc)
      | None -> go acc
  in
  go []

let render sh = function
  | I.Run { algo; tier; graph; src } ->
    ( [ ("op", str "run"); ("algo", str algo); ("tier", str tier);
        ("graph", str (I.graph_name graph)); ("src", num (float_of_int src)); ("top", num 0.0) ],
      [] )
  | I.Product { op; graph } -> ([ ("op", str op); ("graph", str (I.graph_name graph)) ], [])
  | I.Update ->
    let edges = take_batch sh in
    ( [ ("op", str "update"); ("name", str "w");
        ( "edges",
          J.Arr (List.map (fun (i, j, v) -> J.Arr [ num (float_of_int i); num (float_of_int j); num v ]) edges) ) ],
      edges )

(* The part of a response that must repeat for the same request. *)
let payload resp = match J.member "result" resp with Some r -> Some r | None -> J.member "value" resp

(* Send template [idx] once; check what can be checked right away and
   remember the first payload per read template for the reference check
   after the loop.  Returns the round-trip seconds and, for [run], the
   algorithm's own time as the daemon reports it (ms). *)
let send sh conn idx =
  let req = sh.inp.mix.I.requests.(idx) in
  let fields, edges = render sh req in
  let line = J.to_string (J.Obj (("id", num (float_of_int idx)) :: fields)) in
  Mutex.protect sh.lock (fun () -> sh.attempted <- sh.attempted + 1);
  let t0 = now () in
  let r = roundtrip conn line in
  let dt = now () -. t0 in
  let lib_ms = ref nan in
  (match r with
  | Error e -> note sh (Printf.sprintf "request %d: %s" idx e)
  | Ok l -> (
    match J.parse l with
    | exception J.Parse_error e -> note sh ("unparseable response: " ^ e)
    | resp ->
      if not (status resp) then note sh (Printf.sprintf "request %d: %s" idx l)
      else begin
        match req with
        | I.Update ->
          if num_field "additions" resp <> float_of_int (List.length edges) then
            note sh (Printf.sprintf "update: %s" l)
          else Mutex.protect sh.lock (fun () -> sh.applied <- edges @ sh.applied)
        | I.Product { graph = I.W; _ } -> ()  (* the write target changes: status only *)
        | I.Run _ | I.Product _ -> (
          (match req with I.Run _ -> lib_ms := num_field "ms" resp | _ -> ());
          let p = payload resp in
          match (p, Mutex.protect sh.lock (fun () -> List.assoc_opt idx sh.first)) with
          | None, _ -> note sh (Printf.sprintf "request %d: no result in %s" idx l)
          | Some p, None -> Mutex.protect sh.lock (fun () -> sh.first <- (idx, p) :: sh.first)
          | Some p, Some q -> if p <> q then note sh (Printf.sprintf "request %d: result changed" idx))
      end));
  (dt, !lib_ms)

(* ---- references ---- *)

let entries_of = function
  | J.Arr es ->
    let l =
      List.filter_map
        (function J.Arr [ J.Num i; J.Num x ] -> Some (int_of_float i, x) | _ -> None)
        es
    in
    Programs.sort_out l
  | _ -> [||]

let of_opt_array a =
  Programs.sort_out (List.filter_map Fun.id (Array.to_list (Array.mapi (fun i x -> Option.map (fun v -> (i, v)) x) a)))

let expected inp = function
  | I.Run { algo = "bfs"; graph; src; _ } ->
    let m = Smatrix.cast ~into:Dtype.Bool (matrix inp graph) in
    Programs.of_svector float_of_int (Algorithms.Bfs.generic m ~src)
  | I.Run { algo = "sssp"; graph; src; _ } ->
    Programs.of_svector Fun.id (Algorithms.Sssp.generic (matrix inp graph) ~src)
  | I.Run { algo = "pagerank"; graph; _ } ->
    Programs.of_svector Fun.id (fst (Algorithms.Pagerank.generic (matrix inp graph)))
  | I.Run { algo = "tc"; graph; _ } -> Programs.scalar (float_of_int (R.triangles (matrix inp graph)))
  | I.Run { algo; _ } -> failwith ("no reference for " ^ algo)
  | I.Product { op; graph } ->
    let m = matrix inp graph in
    let ones = Array.make (Smatrix.nrows m) 1.0 in
    of_opt_array (if op = "mxv" then R.mxv m ones else R.vxm m ones)
  | I.Update -> [||]

let check_reads sh =
  List.iter
    (fun (idx, p) ->
      let req = sh.inp.mix.I.requests.(idx) in
      let got = match p with J.Num x -> Programs.scalar x | p -> entries_of p in
      sh.attempted <- sh.attempted + 1;
      if not (Programs.agree got (expected sh.inp req)) then
        note sh (Printf.sprintf "request %d: result differs from the reference" idx))
    sh.first

(* The write target after the loop against the initial graph plus every
   acknowledged batch: edge count, and A x for two vectors (row sums and
   a column-weighted sum), which pins every row's stored weights. *)
let check_writes sh conn =
  let w = sh.inp.w in
  let n = Smatrix.nrows w in
  let final = Smatrix.dup w in
  List.iter (fun (i, j, v) -> Smatrix.set final i j v) sh.applied;
  let graphs = request conn [ ("op", str "graphs") ] in
  let edges =
    match J.member "graphs" graphs with
    | Some (J.Arr gs) ->
      List.find_map
        (fun g -> if J.str_field "name" g = Some "w" then J.num (Option.get (J.member "edges" g)) else None)
        gs
    | _ -> None
  in
  sh.attempted <- sh.attempted + 1;
  if edges <> Some (float_of_int (Smatrix.nvals final)) then note sh "write target: edge count differs";
  List.iter
    (fun x ->
      let vector = J.Arr (List.init n (fun j -> J.Arr [ num (float_of_int j); num x.(j) ])) in
      let r = request conn [ ("op", str "mxv"); ("graph", str "w"); ("vector", vector) ] in
      sh.attempted <- sh.attempted + 1;
      let got = match J.member "result" r with Some p -> entries_of p | None -> [||] in
      if not (status r && Programs.agree got (of_opt_array (R.mxv final x))) then
        note sh "write target: final state differs from the reference")
    [ Array.make n 1.0; Array.init n (fun j -> float_of_int (j + 1)) ]

(* ---- in-process replay (traced run) ---- *)

(* The same mix through [Json.parse], [Daemon.handle] and
   [Json.to_string] in this process, without a socket. *)
let replay sh ~cache_dir ~seconds =
  Jit.Disk_cache.set_dir cache_dir;
  Analysis.Hook.install ();
  let cfg = { (Server.Daemon.default_config ()) with Server.Daemon.workers = cores } in
  let st = Server.Daemon.create_state cfg in
  let session = Server.Session.create () in
  List.iter
    (fun (k, path) ->
      ignore
        (Server.Daemon.handle st session
           (J.Obj [ ("op", str "load"); ("name", str (I.graph_name k)); ("graph", str path) ])))
    sh.inp.paths;
  let parse = ref [] and handle = ref [] and ser = ref [] and total = ref [] in
  let reqs = sh.inp.mix.I.requests in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while now () < deadline || !i < Array.length reqs do
    let fields, _ = render sh reqs.(!i mod Array.length reqs) in
    let line = J.to_string (J.Obj fields) in
    let t0 = now () in
    let req = J.parse line in
    let t1 = now () in
    let resp = Server.Daemon.handle st session req in
    let t2 = now () in
    let out = J.to_string resp in
    let t3 = now () in
    ignore (Sys.opaque_identity out);
    Mutex.protect sh.lock (fun () -> sh.attempted <- sh.attempted + 1);
    if not (status resp) then note sh ("in-process: " ^ out);
    parse := (t1 -. t0) :: !parse;
    handle := (t2 -. t1) :: !handle;
    ser := (t3 -. t2) :: !ser;
    total := (t3 -. t0) :: !total;
    incr i
  done;
  (S.median !parse, S.median !handle, S.median !ser, S.median !total)

(* Median time of the bare kernel call behind each product request,
   on the read-only graphs' initial state (the write target's reads are
   priced at its initial state too). *)
let product_lib_ms inp =
  let table =
    List.concat_map
      (fun g ->
        let m = matrix inp g in
        let u = Svector.of_dense Dtype.FP64 (Array.make (Smatrix.nrows m) 1.0) in
        let time f = S.median (List.init 200 (fun _ -> let t0 = now () in ignore (f ()); ms (now () -. t0))) in
        [ (("mxv", g), time (fun () -> Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic ~transpose:false m u));
          (("vxm", g), time (fun () -> Jit.Kernels.vxm Dtype.FP64 Jit.Op_spec.arithmetic ~transpose:false u m)) ])
      [ I.G; I.S; I.W ]
  in
  fun op g -> List.assoc (op, g) table

(* ---- the closed loop ---- *)

(* [conns] connections, each cycling through the mix in its own seeded
   orders until [seconds] are up.  With [trace], whole cycles alternate between
   requests wrapped in client spans and bare ones. *)
let loop sh ~sock ~conns ~seconds ~trace =
  let len = Array.length sh.inp.mix.I.requests in
  let cs = List.init conns (fun _ -> connect sock) in
  let samples = Array.make conns [] in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let threads =
    List.mapi
      (fun c conn ->
        Thread.create
          (fun () ->
            let spans = Sp.create () in
            let next_order = I.cycle_orders sh.inp.mix ~conn:c in
            let order = ref (next_order ()) and k = ref 0 in
            while now () < deadline do
              if !k > 0 && !k mod len = 0 then order := next_order ();
              let traced = trace && !k / len mod 2 = 1 in
              let idx = !order.(!k mod len) in
              let dt, lib_ms =
                if traced then Sp.with_span spans "client.request" (fun () -> send sh conn idx)
                else send sh conn idx
              in
              samples.(c) <- { idx; seconds = dt; lib_ms; traced } :: samples.(c);
              incr k
            done)
          ())
      cs
  in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  List.iter W.close cs;
  (List.concat (Array.to_list samples), elapsed)

let prime sh conn = Array.iteri (fun idx _ -> ignore (send sh conn idx)) sh.inp.mix.I.requests

(* Median round trip of the samples whose request satisfies [p]. *)
let p50_where requests p l =
  S.median (List.filter_map (fun s -> if p requests.(s.idx) then Some (ms s.seconds) else None) l)

(* The server layer: in-process parse / handle / serialize medians, the
   transport as the socket round trip minus their sum, per-operation
   round trips and the daemon's own counters. *)
let server_metrics ~requests ~untraced ~after_loop (parse, handle, ser, total) =
  let serve k = path_num [ "serve"; k ] after_loop in
  let batched = serve "batched" and singles = serve "singles" in
  [ ("server.parse_us", 1e6 *. parse, "us");
    ("server.handle_ms", ms handle, "ms");
    ("server.serialize_us", 1e6 *. ser, "us");
    ("server.transport_ms", S.median (List.map (fun s -> ms s.seconds) untraced) -. ms total, "ms");
    ("server.run_ms_p50", p50_where requests (function I.Run _ -> true | _ -> false) untraced, "ms");
    ("server.product_ms_p50", p50_where requests (function I.Product _ -> true | _ -> false) untraced, "ms");
    ("server.update_ms_p50", p50_where requests (( = ) I.Update) untraced, "ms");
    ("server.shed", serve "shed", "count");
    ("server.errors", serve "errors", "count");
    ("server.queue_depth", serve "queue_depth", "count");
    ("server.batch_coalesced_ratio", (if batched +. singles > 0.0 then batched /. (batched +. singles) else 0.0), "ratio") ]

(* ---- the workload ---- *)

let run ~seed ~seconds ~trace ~rundir ~cli =
  let t_gen = now () in
  let inp = build_inputs ~seed ~rundir in
  let gen_s = now () -. t_gen in
  let reps = 3 in
  let setups =
    List.init reps (fun rep ->
        let name = Printf.sprintf "d%d" rep in
        let su = setup ~cli ~rundir ~name ~cache_dir:(Filename.concat rundir ("jit-" ^ name)) inp in
        if rep < reps - 1 then teardown su;
        su)
  in
  let su = List.nth setups (reps - 1) in
  let cache_dir = Filename.concat rundir (Printf.sprintf "jit-d%d" (reps - 1)) in
  let sh = shared inp ~attempted:(3 * reps) (* the graph loads *) in
  (* one untimed request per template, so first-use work the daemon's
     warm-up did not cover is not timed (it still counts in
     jit.compiles_steady) *)
  prime sh su.conn;
  let before_loop = request su.conn [ ("op", str "stats") ] in
  (* the traced run splits its time: socket loop, in-process replay *)
  let part = if trace then seconds /. 2.0 else seconds in
  let all, loop_s = loop sh ~sock:su.sock ~conns:cores ~seconds:part ~trace in
  let after_loop = request su.conn [ ("op", str "stats") ] in
  let health = request su.conn [ ("op", str "health"); ("probe", J.Bool false) ] in
  check_reads sh;
  check_writes sh su.conn;
  let peak = Report.peak_mem_mb (Printf.sprintf "/proc/%d/status" su.d.pid) in
  teardown su;
  let untraced = List.filter (fun s -> not s.traced) all in
  let rt = List.map (fun s -> ms s.seconds) untraced in
  let tail = S.tail rt in
  let rt_p50 = S.median rt in
  (* Medians per distinct run request (a request appears more than once
     in the cycle).  A tier's "pass over the wire" is the sum of its
     distinct runs' medians, and the daemon-side Fig. 10 pairs each vm
     run with the native run of the same algorithm, graph and source,
     where the mix has one (not bfs, see [Inputs.mix]). *)
  let runs tier =
    List.sort_uniq compare
      (List.filter_map
         (function I.Run x when x.tier = tier -> Some x | _ -> None)
         (Array.to_list inp.mix.I.requests))
  in
  let run_p50 (r : I.run) = p50_where inp.mix.I.requests (( = ) (I.Run r)) untraced in
  let tier_pass tier = List.fold_left (fun a r -> a +. run_p50 r) 0.0 (runs tier) in
  let penalty =
    S.penalty
      (List.map
         (fun (v : I.run) ->
           (Printf.sprintf "%s@%d" v.algo v.src, run_p50 v, run_p50 { v with tier = "native" }))
         (List.filter (fun (v : I.run) -> List.mem { v with tier = "native" } (runs "native")) (runs "vm")))
  in
  let end_to_end =
    [ ("setup_s", S.median (List.map (fun s -> s.setup_s) setups), "s");
      ("latency_ms_p50", rt_p50, "ms");
      ("latency_ms_tail", (match tail with Some x -> x.S.value | None -> nan), "ms");
      ("throughput_per_s", float_of_int (List.length all) /. loop_s, "1/s");
      ("native_ms_p50", tier_pass "native", "ms");
      ("nonblocking_ms_p50", tier_pass "nonblocking", "ms");
      ("penalty_geomean", penalty.S.geomean, "ratio");
      ("peak_mem_mb", peak, "MB") ]
  in
  let notes =
    [ Printf.sprintf "requests: %d over %.1f s on %d connections; tail = p%.2f (%d samples beyond)"
        (List.length rt) loop_s cores
        (match tail with Some x -> x.S.pct | None -> nan)
        (match tail with Some x -> x.S.beyond | None -> 0);
      (let share = su.warm_s /. su.setup_s in
       Printf.sprintf
         "set-up: the daemon's start-up warm-up (analysis + jit compiles, %.3f s compiling) takes %.3f s of \
          %.3f s = %.0f%%; predicted to dominate set-up: %s"
         (path_num [ "health"; "stats"; "compile_seconds" ] su.health)
         su.warm_s su.setup_s (100.0 *. share)
         (if share >= 0.5 then "holds" else "FAILS"));
      Printf.sprintf "passes over the wire (sum of per-request p50s): vm %.3f ms, native %.3f ms, nonblocking %.3f ms"
        (tier_pass "vm") (tier_pass "native") (tier_pass "nonblocking");
      Passes.penalty_note "vm run p50 / native run p50" penalty;
      "departures from the in-process workload, set by the daemon: bfs has no native pair (its native \
       BFS is direction-optimized), and pagerank runs to the 1e-5 threshold at every tier, not 20 fixed \
       iterations";
      Printf.sprintf "cores %d, OGB_SERVE_WORKERS %d" cores cores ]
  in
  let per_layer, shares =
    if not trace then ([], [])
    else begin
      let timings = replay sh ~cache_dir ~seconds:part in
      let traced_rt = List.filter_map (fun s -> if s.traced then Some (ms s.seconds) else None) all in
      let h = su.health and a = su.after_setup in
      let jit k j = path_num [ "jit"; k ] j in
      let metrics =
        [ ("jit.lookups", (jit "lookups" after_loop -. jit "lookups" before_loop) /. float_of_int (List.length all), "count");
          ("jit.compiles_steady", jit "compiles" after_loop -. jit "compiles" a, "count");
          ("jit.setup_compiles", jit "compiles" a, "count");
          ("jit.native_compiles", path_num [ "health"; "stats"; "native_compiles" ] h, "count");
          ("jit.compile_s", path_num [ "health"; "stats"; "compile_seconds" ] h, "s");
          ("jit.disk_hits", jit "disk_hits" a, "count");
          ("jit.distinct_sigs", path_num [ "health"; "cache"; "ok" ] health, "count");
          ("analysis.warm_s", su.warm_s, "s");
          ("analysis.warm_sigs", path_num [ "serve"; "warm_sigs" ] a, "count");
          ("graphs.gen_s", gen_s, "s");
          ("trace.overhead", S.median traced_rt /. rt_p50, "ratio");
          ("cores", float_of_int cores, "count") ]
        @ server_metrics ~requests:inp.mix.I.requests ~untraced ~after_loop timings
      in
      (* time-weighted over the mix: a run's library time is what the
         daemon reports for the algorithm, a product's is the kernel call
         timed here, an update's is all registry (server) work *)
      let product_ms = product_lib_ms inp in
      let lib =
        List.fold_left
          (fun a s ->
            match inp.mix.I.requests.(s.idx) with
            | I.Run _ -> a +. s.lib_ms
            | I.Product { op; graph } -> a +. product_ms op graph
            | I.Update -> a)
          0.0 untraced
      in
      let total_rt = List.fold_left (fun a s -> a +. ms s.seconds) 0.0 untraced in
      (metrics, [ ("server", 1.0 -. (lib /. total_rt)); ("library", lib /. total_rt) ])
    end
  in
  { Report.end_to_end; per_layer; notes; attempted = sh.attempted; failed = sh.failed;
    failures = List.rev sh.notes; shares }
