open Gbtl

exception Eval_error of string

let eerr fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type t =
  | Leaf of Container.t
  | Transpose of t
  | MatMul of { a : t; b : t; sr : Jit.Op_spec.semiring }
  | EwiseAdd of { a : t; b : t; op : string }
  | EwiseMult of { a : t; b : t; op : string }
  | Apply of { f : Jit.Op_spec.unary; x : t }
  | ReduceRows of { op : string; identity : string; x : t }
  | ExtractVec of { x : t; idx : Index_set.t }
  | ExtractMat of { x : t; rows : Index_set.t; cols : Index_set.t }
  | Select of { pred : Select.predicate; x : t }

type mask_spec = { container : Container.t; complemented : bool }

let of_container c = Leaf c

let matmul a b = MatMul { a; b; sr = Context.current_semiring () }
let add a b = EwiseAdd { a; b; op = Context.current_add_binop () }
let mult a b = EwiseMult { a; b; op = Context.current_mult_binop () }
let transpose x = Transpose x

let apply ?f x =
  let f = match f with Some f -> f | None -> Context.current_unary () in
  Apply { f; x }

let reduce_rows x =
  let op, identity = Context.current_monoid () in
  ReduceRows { op; identity; x }

let extract_vec x idx = ExtractVec { x; idx }
let extract_mat x rows cols = ExtractMat { x; rows; cols }
let select pred x = Select { pred; x }

let rec result_dtype = function
  | Leaf c -> Container.dtype c
  | Transpose x | Apply { x; _ } | ReduceRows { x; _ }
  | ExtractVec { x; _ } | ExtractMat { x; _ } | Select { x; _ } ->
    result_dtype x
  | MatMul { a; b; _ } | EwiseAdd { a; b; _ } | EwiseMult { a; b; _ } ->
    Dtype.promote (result_dtype a) (result_dtype b)

(* Cast to the expression dtype when needed.  A matrix is read through
   its cached promoted copy (Smatrix.promoted), so a graph promoted
   every round is converted once; the copy is shared, and every caller
   (kernel operands, result writes) only reads it.  Vectors change
   every round and are cast afresh. *)
let unify (Dtype.P into as packed) c =
  if Dtype.equal_packed (Container.dtype c) packed then c
  else
    match c with
    | Container.Mat (_, m) -> Container.Mat (into, Smatrix.promoted ~into m)
    | Container.Vec _ -> Container.cast packed c

let mmask_of_spec spec =
  match spec.container with
  | Container.Mat (dt, m) ->
    ignore dt;
    Gbtl.Mask.mmask ~complemented:spec.complemented m
  | Container.Vec _ -> eerr "matrix operation masked by a vector"

(* Operation fusion toggle (exposed for the ablation benchmark). *)
let fusion_enabled = ref true
let set_fusion b = fusion_enabled := b
let fusion () = !fusion_enabled

(* Does evaluating the expression hand back a container owned by the
   user (which must not be mutated)? *)
let rec borrows_container = function
  | Leaf _ -> true
  | Transpose x -> borrows_container x
  | MatMul _ | EwiseAdd _ | EwiseMult _ | Apply _ | ReduceRows _
  | ExtractVec _ | ExtractMat _ | Select _ ->
    false

(* The container kind an expression will evaluate to, decidable without
   evaluation (used to gate the fused-module path). *)
let rec static_kind = function
  | Leaf (Container.Vec _) -> `Vec
  | Leaf (Container.Mat _) -> `Mat
  | Transpose x | Apply { x; _ } -> static_kind x
  | MatMul { a; b; _ } -> (
    match static_kind a, static_kind b with
    | `Mat, `Mat -> `Mat
    | `Mat, `Vec | `Vec, `Mat | `Vec, `Vec -> `Vec)
  | EwiseAdd { a; _ } | EwiseMult { a; _ } -> static_kind a
  | ReduceRows _ | ExtractVec _ -> `Vec
  | ExtractMat _ -> `Mat
  | Select { x; _ } -> static_kind x

(* Fused-module detection: an apply-chain whose base is an element-wise
   operation over vectors compiles into one kernel (paper §V's "single
   binary module containing all the previously deferred operations"). *)
let fused_candidate f x =
  if not !fusion_enabled then None
  else begin
    let rec collect acc = function
      | Apply { f; x } -> collect (f :: acc) x
      | base -> (acc, base)
    in
    match collect [ f ] x with
    | chain, EwiseAdd { a; b; op }
      when static_kind a = `Vec && static_kind b = `Vec ->
      Some (chain, `Add, op, a, b)
    | chain, EwiseMult { a; b; op }
      when static_kind a = `Vec && static_kind b = `Vec ->
      Some (chain, `Mult, op, a, b)
    | _, _ -> None
  end

(* Evaluate an operand, absorbing transpose wrappers into a flag. *)
let rec eval_operand e =
  match e with
  | Transpose x ->
    let c, t = eval_operand x in
    (c, not t)
  | e -> (eval e, false)

and eval ?mask (e : t) : Container.t =
  match e with
  | Leaf c -> c
  | Transpose x -> (
    let c, transposed = eval_operand (Transpose x) in
    match c, transposed with
    | c, false -> c
    | Container.Mat (dt, m), true ->
      Container.Mat (dt, Jit.Kernels.transpose_m dt m)
    | Container.Vec _, true -> c (* vector transpose is the identity *))
  | MatMul { a; b; sr } -> (
    let ca, ta = eval_operand a in
    let cb, tb = eval_operand b in
    let (Dtype.P dt) =
      Dtype.promote (Container.dtype ca) (Container.dtype cb)
    in
    let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
    match ca, cb with
    | Container.Mat (_, _), Container.Mat (_, _) ->
      let ma = Container.as_matrix dt ca and mb = Container.as_matrix dt cb in
      let mask =
        match mask with
        | Some spec -> mmask_of_spec spec
        | None -> Gbtl.Mask.No_mmask
      in
      Container.Mat
        (dt, Jit.Kernels.mxm dt sr ~transpose_a:ta ~transpose_b:tb ~mask ma mb)
    | Container.Mat (_, _), Container.Vec (_, _) ->
      let m = Container.as_matrix dt ca and v = Container.as_vector dt cb in
      let out_size = if ta then Smatrix.ncols m else Smatrix.nrows m in
      let entries = Jit.Kernels.mxv dt sr ~transpose:ta m v in
      let out = Svector.create dt out_size in
      Svector.replace_contents out entries;
      Container.Vec (dt, out)
    | Container.Vec (_, _), Container.Mat (_, _) ->
      let v = Container.as_vector dt ca and m = Container.as_matrix dt cb in
      let out_size = if tb then Smatrix.nrows m else Smatrix.ncols m in
      let entries = Jit.Kernels.vxm dt sr ~transpose:tb v m in
      let out = Svector.create dt out_size in
      Svector.replace_contents out entries;
      Container.Vec (dt, out)
    | Container.Vec (_, _), Container.Vec (_, _) ->
      eerr "@ between two vectors (use eWiseMult + reduce for a dot product)")
  | EwiseAdd { a; b; op } -> eval_ewise `Add op a b
  | EwiseMult { a; b; op } -> eval_ewise `Mult op a b
  | Apply { f; x } when fused_candidate f x <> None -> (
    (* one compiled module for the whole apply-over-eWise pipeline *)
    match fused_candidate f x with
    | None -> assert false
    | Some (chain, kind, op, a, b) ->
      let ca, _ = eval_operand a in
      let cb, _ = eval_operand b in
      let (Dtype.P dt) =
        Dtype.promote (Container.dtype ca) (Container.dtype cb)
      in
      let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
      let u = Container.as_vector dt ca and v = Container.as_vector dt cb in
      if Svector.size u <> Svector.size v then
        eerr "element-wise operation on vectors of sizes %d and %d"
          (Svector.size u) (Svector.size v);
      let entries = Jit.Kernels.ewise_fused_v kind dt ~op ~chain u v in
      let out = Svector.create dt (Svector.size u) in
      Svector.replace_contents out entries;
      Container.Vec (dt, out))
  | Apply { f; x } -> (
    let c, transposed = eval_operand x in
    (* Operation fusion (the paper's §V planned lazy-evaluation feature):
       when the operand is itself a computed temporary (not a leaf
       borrowed from the user), map the unary over it in place instead of
       dispatching a second kernel into a fresh container. *)
    let fresh = !fusion_enabled && not (borrows_container x) in
    match c with
    | Container.Vec (dt, v) ->
      if fresh then begin
        Svector.map_inplace v
          ~f:(Jit.Op_spec.instantiate_unary dt f).Unaryop.f;
        c
      end
      else begin
        let entries = Jit.Kernels.apply_v dt f v in
        let out = Svector.create dt (Svector.size v) in
        Svector.replace_contents out entries;
        Container.Vec (dt, out)
      end
    | Container.Mat (dt, m) ->
      if fresh && not transposed then begin
        Smatrix.map_inplace m
          ~f:(Jit.Op_spec.instantiate_unary dt f).Unaryop.f;
        c
      end
      else Container.Mat (dt, Jit.Kernels.apply_m dt f ~transpose:transposed m))
  | ReduceRows { op; identity; x } -> (
    let c, transposed = eval_operand x in
    match c with
    | Container.Mat (dt, m) ->
      let entries =
        Jit.Kernels.reduce_rows dt ~op ~identity ~transpose:transposed m
      in
      let size = if transposed then Smatrix.ncols m else Smatrix.nrows m in
      let out = Svector.create dt size in
      Svector.replace_contents out entries;
      Container.Vec (dt, out)
    | Container.Vec _ -> eerr "reduce_rows on a vector")
  | ExtractVec { x; idx } -> (
    match eval x with
    | Container.Vec (dt, v) ->
      let out =
        Svector.create dt (Index_set.length idx (Svector.size v))
      in
      Extract.vector ~out v idx;
      Container.Vec (dt, out)
    | Container.Mat _ -> eerr "vector extract on a matrix")
  | ExtractMat { x; rows; cols } -> (
    let c, transposed = eval_operand x in
    match c with
    | Container.Mat (dt, m) ->
      let nrows = if transposed then Smatrix.ncols m else Smatrix.nrows m in
      let ncols = if transposed then Smatrix.nrows m else Smatrix.ncols m in
      let out =
        Smatrix.create dt
          (Index_set.length rows nrows)
          (Index_set.length cols ncols)
      in
      Extract.matrix ~out ~transpose:transposed m rows cols;
      Container.Mat (dt, out)
    | Container.Vec _ -> eerr "matrix extract on a vector")
  | Select { pred; x } -> (
    match eval x with
    | Container.Vec (dt, v) ->
      let out = Svector.create dt (Svector.size v) in
      Gbtl.Select.vector pred ~out v;
      Container.Vec (dt, out)
    | Container.Mat (dt, m) ->
      let out = Smatrix.create dt (Smatrix.nrows m) (Smatrix.ncols m) in
      Gbtl.Select.matrix pred ~out m;
      Container.Mat (dt, out))

and eval_ewise kind op a b =
  let ca, ta = eval_operand a in
  let cb, tb = eval_operand b in
  let (Dtype.P dt) = Dtype.promote (Container.dtype ca) (Container.dtype cb) in
  let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
  match ca, cb with
  | Container.Vec (_, _), Container.Vec (_, _) ->
    let u = Container.as_vector dt ca and v = Container.as_vector dt cb in
    if Svector.size u <> Svector.size v then
      eerr "element-wise operation on vectors of sizes %d and %d"
        (Svector.size u) (Svector.size v);
    let entries = Jit.Kernels.ewise_v kind dt ~op u v in
    let out = Svector.create dt (Svector.size u) in
    Svector.replace_contents out entries;
    Container.Vec (dt, out)
  | Container.Mat (_, _), Container.Mat (_, _) ->
    let ma = Container.as_matrix dt ca and mb = Container.as_matrix dt cb in
    Container.Mat
      (dt, Jit.Kernels.ewise_m kind dt ~op ~transpose_a:ta ~transpose_b:tb ma mb)
  | Container.Vec _, Container.Mat _ | Container.Mat _, Container.Vec _ ->
    eerr "element-wise operation between a vector and a matrix"

let force_blocking ?mask e = eval ?mask e

(* Terminating operations divert to the nonblocking engine when one is
   installed and the mode asks for it; [lib/exec] registers the hooks at
   initialization (see Exec_hook). *)
let force ?mask e =
  match Exec_hook.mode (), !Exec_hook.evaluator with
  | Exec_hook.Nonblocking, Some f ->
    (Obj.obj f : ?mask:mask_spec -> t -> Container.t) ?mask e
  | (Exec_hook.Blocking | Exec_hook.Nonblocking), _ -> eval ?mask e

let reduce_scalar_blocking ~op ~identity e =
  match eval e with
  | Container.Vec (dt, v) ->
    Dtype.to_float dt (Jit.Kernels.reduce_v_scalar dt ~op ~identity v)
  | Container.Mat (dt, m) ->
    Dtype.to_float dt (Jit.Kernels.reduce_m_scalar dt ~op ~identity m)

let reduce_scalar e =
  let op, identity = Context.current_monoid () in
  match Exec_hook.mode (), !Exec_hook.reducer with
  | Exec_hook.Nonblocking, Some f ->
    (Obj.obj f : op:string -> identity:string -> t -> float) ~op ~identity e
  | (Exec_hook.Blocking | Exec_hook.Nonblocking), _ ->
    reduce_scalar_blocking ~op ~identity e
