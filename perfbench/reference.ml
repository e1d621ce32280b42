(* Plain-OCaml reference results, written independently of the
   GraphBLAS formulations they check: adjacency lists, queues and
   union-find, no semirings and no kernels from the library. *)

open Gbtl

let adjacency (m : 'a Smatrix.t) =
  let n = Smatrix.nrows m in
  let adj = Array.make n [] in
  Smatrix.iter (fun i j _ -> adj.(i) <- j :: adj.(i)) m;
  Array.map (fun l -> Array.of_list (List.rev l)) adj

(* Component id = smallest vertex in the component (undirected). *)
let cc (m : 'a Smatrix.t) =
  let n = Smatrix.nrows m in
  let parent = Array.init n Fun.id in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  Smatrix.iter
    (fun i j _ ->
      let a = find i and b = find j in
      if a < b then parent.(b) <- a else if b < a then parent.(a) <- b)
    m;
  Array.init n find

(* Synchronous label propagation: each vertex takes the most frequent
   label among its neighbours, ties to the smallest label; isolated
   vertices keep theirs; at most [rounds] sweeps, stopping at a
   fixpoint. *)
let labelprop ~rounds (m : 'a Smatrix.t) =
  let adj = adjacency m in
  let n = Array.length adj in
  let labels = Array.init n Fun.id in
  let rec sweep r =
    if r < rounds then begin
      let next =
        Array.mapi
          (fun v nbrs ->
            if Array.length nbrs = 0 then labels.(v)
            else begin
              let counts = Hashtbl.create 8 in
              Array.iter
                (fun u ->
                  let l = labels.(u) in
                  Hashtbl.replace counts l
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
                nbrs;
              fst
                (Hashtbl.fold
                   (fun l c (bl, bc) ->
                     if c > bc || (c = bc && l < bl) then (l, c) else (bl, bc))
                   counts (max_int, 0))
            end)
          adj
      in
      if next <> labels then begin
        Array.blit next 0 labels 0 n;
        sweep (r + 1)
      end
    end
  in
  sweep 0;
  labels

(* k-truss of an undirected graph: repeatedly drop every edge with
   fewer than k - 2 common neighbours.  Returns the surviving directed
   pairs, sorted. *)
let ktruss ~k (m : 'a Smatrix.t) =
  let n = Smatrix.nrows m in
  let edges = Hashtbl.create (Smatrix.nvals m) in
  Smatrix.iter (fun i j _ -> if i <> j then Hashtbl.replace edges (i, j) ()) m;
  let rec prune () =
    let nbrs = Array.make n [] in
    Hashtbl.iter (fun (i, j) () -> nbrs.(i) <- j :: nbrs.(i)) edges;
    let sets = Array.map (fun l -> Hashtbl.of_seq (List.to_seq (List.map (fun x -> (x, ())) l))) nbrs in
    let doomed =
      Hashtbl.fold
        (fun (i, j) () acc ->
          let support =
            List.fold_left
              (fun c x -> if Hashtbl.mem sets.(j) x then c + 1 else c)
              0 nbrs.(i)
          in
          if support < k - 2 then (i, j) :: acc else acc)
        edges []
    in
    if doomed <> [] then begin
      List.iter (Hashtbl.remove edges) doomed;
      prune ()
    end
  in
  prune ();
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys edges))

(* Triangles of an undirected graph, each counted once. *)
let triangles (m : 'a Smatrix.t) =
  let adj = adjacency m in
  let n = Array.length adj in
  let mark = Array.make n false in
  let count = ref 0 in
  for i = 0 to n - 1 do
    Array.iter (fun j -> if j < i then mark.(j) <- true) adj.(i);
    Array.iter
      (fun j ->
        if j < i then
          Array.iter (fun l -> if l < j && mark.(l) then incr count) adj.(j))
      adj.(i);
    Array.iter (fun j -> mark.(j) <- false) adj.(i)
  done;
  !count

(* Brandes' single-source dependency delta_s(v) on an unweighted
   directed graph, 0 for the source and for vertices off every shortest
   path from it. *)
let bc_single_source (m : 'a Smatrix.t) ~src =
  let adj = adjacency m in
  let n = Array.length adj in
  let dist = Array.make n (-1) and sigma = Array.make n 0.0 in
  let order = ref [] in
  let q = Queue.create () in
  dist.(src) <- 0;
  sigma.(src) <- 1.0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    Array.iter
      (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end;
        if dist.(w) = dist.(v) + 1 then sigma.(w) <- sigma.(w) +. sigma.(v))
      adj.(v)
  done;
  let delta = Array.make n 0.0 in
  List.iter
    (fun v ->
      Array.iter
        (fun w ->
          if dist.(w) = dist.(v) + 1 then
            delta.(v) <- delta.(v) +. (sigma.(v) /. sigma.(w) *. (1.0 +. delta.(w))))
        adj.(v))
    !order;
  delta.(src) <- 0.0;
  delta

(* y = A x and y = x A over plain floats, for the daemon's mxv/vxm
   responses; [None] marks a row or column with no stored entry. *)
let mxv (m : float Smatrix.t) x =
  let y = Array.make (Smatrix.nrows m) None in
  Smatrix.iter
    (fun i j a ->
      y.(i) <- Some (Option.value ~default:0.0 y.(i) +. (a *. x.(j))))
    m;
  y

let vxm (m : float Smatrix.t) x =
  let y = Array.make (Smatrix.ncols m) None in
  Smatrix.iter
    (fun i j a ->
      y.(j) <- Some (Option.value ~default:0.0 y.(j) +. (x.(i) *. a)))
    m;
  y
