let merge_with f c t =
  let out = Entries.create () in
  let nc = Entries.length c and nt = Entries.length t in
  let i = ref 0 and j = ref 0 in
  while !i < nc || !j < nt do
    if !i >= nc then begin
      Entries.push out (Entries.get_idx t !j) (Entries.get_val t !j);
      incr j
    end
    else if !j >= nt then begin
      Entries.push out (Entries.get_idx c !i) (Entries.get_val c !i);
      incr i
    end
    else begin
      let ic = Entries.get_idx c !i and it = Entries.get_idx t !j in
      if ic < it then begin
        Entries.push out ic (Entries.get_val c !i);
        incr i
      end
      else if it < ic then begin
        Entries.push out it (Entries.get_val t !j);
        incr j
      end
      else begin
        Entries.push out ic (f (Entries.get_val c !i) (Entries.get_val t !j));
        incr i;
        incr j
      end
    end
  done;
  out

let masked_entries ~allowed ~accum ~replace ~c ~t =
  let z = match accum with None -> t | Some f -> merge_with f c t in
  let out = Entries.create () in
  let nz = Entries.length z and nc = Entries.length c in
  let i = ref 0 (* walks z *) and j = ref 0 (* walks c *) in
  let keep_z idx v = if allowed idx then Entries.push out idx v in
  let keep_c idx v = if (not (allowed idx)) && not replace then Entries.push out idx v in
  while !i < nz || !j < nc do
    if !i >= nz then begin
      keep_c (Entries.get_idx c !j) (Entries.get_val c !j);
      incr j
    end
    else if !j >= nc then begin
      keep_z (Entries.get_idx z !i) (Entries.get_val z !i);
      incr i
    end
    else begin
      let iz = Entries.get_idx z !i and ic = Entries.get_idx c !j in
      if iz < ic then begin
        keep_z iz (Entries.get_val z !i);
        incr i
      end
      else if ic < iz then begin
        keep_c ic (Entries.get_val c !j);
        incr j
      end
      else begin
        (* Present in both: allowed -> Z wins, masked out -> C survives
           unless replace. *)
        if allowed iz then Entries.push out iz (Entries.get_val z !i)
        else if not replace then Entries.push out ic (Entries.get_val c !j);
        incr i;
        incr j
      end
    end
  done;
  out

(* -- the fused write --

   One pass per index space computes masked_entries without building Z or
   any intermediate Entries: C is read where it lies (a sparse target's
   own arrays, a dense target's payload), T is read through its arrays,
   and the result goes to arrays sized up front (or, for a dense target,
   straight into its payload).  Masks are consulted in ascending index
   order, so a sparse mask is walked with a cursor instead of a binary
   search per position. *)

(* Allowed-position predicate for ascending queries. *)
let vallowed = function
  | Mask.No_vmask -> fun _ -> true
  | Mask.Vmask { dense; complemented } -> fun i -> dense.(i) <> complemented
  | Mask.Vmask_sparse { idx; complemented; _ } ->
    let p = ref 0 and n = Array.length idx in
    fun i ->
      while !p < n && idx.(!p) < i do
        incr p
      done;
      (!p < n && idx.(!p) = i) <> complemented

(* Merge C's cells [c0, c1) with T's cells [t0, t1) into [ri]/[rv] from
   position [n]; returns the new fill.  Per index: allowed takes Z (T,
   or C ⊕ T with an accumulator, C alone surviving only when there is
   one); masked out keeps C unless [replace]. *)
let merge_into ~allowed ~accum ~replace (ci, cv, c0, c1) (ti, tv, t0, t1)
    (ri, rv) n =
  let n = ref n and i = ref c0 and j = ref t0 in
  let emit k x =
    ri.(!n) <- k;
    rv.(!n) <- x;
    incr n
  in
  while !i < c1 || !j < t1 do
    let ic = if !i < c1 then ci.(!i) else max_int
    and it = if !j < t1 then ti.(!j) else max_int in
    if ic < it then begin
      if allowed ic then (if Option.is_some accum then emit ic cv.(!i))
      else if not replace then emit ic cv.(!i);
      incr i
    end
    else if it < ic then begin
      if allowed it then emit it tv.(!j);
      incr j
    end
    else begin
      if allowed ic then
        emit ic (match accum with Some f -> f cv.(!i) tv.(!j) | None -> tv.(!j))
      else if not replace then emit ic cv.(!i);
      incr i;
      incr j
    end
  done;
  !n

(* Dense target: T lands in the payload.  Without a mask every position
   is allowed, so an accumulated write touches only T's positions. *)
let write_dense ~mask ~accum ~replace out (dvals, valid) (ti, tv, nt) =
  match mask, accum with
  | Mask.No_vmask, Some f ->
    let n = ref (Svector.nvals out) in
    for k = 0 to nt - 1 do
      let i = ti.(k) in
      if valid.(i) then dvals.(i) <- f dvals.(i) tv.(k)
      else begin
        dvals.(i) <- tv.(k);
        valid.(i) <- true;
        incr n
      end
    done;
    Svector.commit_dense out ~nvals:!n
  | _, _ ->
    let allowed = vallowed mask in
    let n = ref 0 and k = ref 0 in
    for i = 0 to Svector.size out - 1 do
      let in_t = !k < nt && ti.(!k) = i in
      if allowed i then begin
        if in_t then begin
          let x = tv.(!k) in
          (match accum with
          | Some f when valid.(i) -> dvals.(i) <- f dvals.(i) x
          | Some _ | None -> dvals.(i) <- x);
          valid.(i) <- true
        end
        else if Option.is_none accum then valid.(i) <- false
      end
      else if replace then valid.(i) <- false;
      if in_t then incr k;
      if valid.(i) then incr n
    done;
    Svector.commit_dense out ~nvals:!n

let write_vector ~mask ~accum ~replace ~out ~t =
  Mask.v_check_size mask (Svector.size out);
  match mask, accum with
  | Mask.No_vmask, None ->
    (* C = T exactly; replace is irrelevant without a mask *)
    Svector.replace_contents out t
  | _, _ -> (
    let accum = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let ti, tv, nt = Entries.to_arrays_unsafe t in
    if nt > 0 && ti.(nt - 1) >= Svector.size out then
      raise
        (Svector.Index_out_of_bounds
           (Printf.sprintf "Output.write_vector: index %d outside [0, %d)"
              ti.(nt - 1) (Svector.size out)));
    match Svector.dense_payload out with
    | Some payload -> write_dense ~mask ~accum ~replace out payload (ti, tv, nt)
    | None ->
      let ci, cv, nc = Svector.sparse_view out in
      let cap = nc + nt in
      if cap = 0 then Svector.clear out
      else begin
        let ri = Array.make cap 0
        and rv = Array.make cap (if nc > 0 then cv.(0) else tv.(0)) in
        let n =
          merge_into ~allowed:(vallowed mask) ~accum ~replace (ci, cv, 0, nc)
            (ti, tv, 0, nt) (ri, rv) 0
        in
        Svector.adopt_sparse out ~idx:ri ~vals:rv ~nvals:n
      end)

(* Allowed-column predicate for row [r], ascending queries. *)
let mallowed mask r =
  match mask with
  | Mask.No_mmask -> fun _ -> true
  | Mask.Mmask { m; complemented } ->
    let rp = Smatrix.unsafe_rowptr m
    and ci = Smatrix.unsafe_colidx m
    and vs = Smatrix.unsafe_values m in
    let p = ref rp.(r) and stop = rp.(r + 1) in
    fun c ->
      while !p < stop && ci.(!p) < c do
        incr p
      done;
      (!p < stop && ci.(!p) = c && vs.(!p)) <> complemented

let write_matrix ~mask ~accum ~replace ~out ~t =
  let nrows = Smatrix.nrows out and ncols = Smatrix.ncols out in
  Mask.m_check_shape mask nrows ncols;
  assert (Array.length t = nrows);
  let dt = Smatrix.dtype out in
  match mask, accum with
  | Mask.No_mmask, None ->
    Smatrix.replace_contents out (Smatrix.of_rows_unsafe dt ~nrows ~ncols t)
  | _, _ ->
    let accum = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let crp = Smatrix.unsafe_rowptr out
    and cci = Smatrix.unsafe_colidx out
    and cvs = Smatrix.unsafe_values out in
    let rows = Array.map Entries.to_arrays_unsafe t in
    let cap =
      Array.fold_left (fun acc (_, _, n) -> acc + n) (Smatrix.nvals out) rows
    in
    let rowptr = Array.make (nrows + 1) 0 in
    let colidx = Array.make (max cap 1) 0 in
    let values =
      if Smatrix.nvals out > 0 then Array.make cap cvs.(0)
      else
        match Array.find_opt (fun (_, _, n) -> n > 0) rows with
        | Some (_, tv, _) -> Array.make cap tv.(0)
        | None -> [||]
    in
    let n = ref 0 in
    Array.iteri
      (fun r (ti, tv, nt) ->
        rowptr.(r) <- !n;
        n :=
          merge_into ~allowed:(mallowed mask r) ~accum ~replace
            (cci, cvs, crp.(r), crp.(r + 1))
            (ti, tv, 0, nt) (colidx, values) !n)
      rows;
    rowptr.(nrows) <- !n;
    Smatrix.replace_contents out
      (Smatrix.of_csr_unsafe dt ~nrows ~ncols ~rowptr ~colidx ~values)
