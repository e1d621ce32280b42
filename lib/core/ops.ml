open Gbtl

type mask = Mask of Container.t | Mask_complement of Container.t

exception Dsl_error of string

let derr fmt = Printf.ksprintf (fun s -> raise (Dsl_error s)) fmt

let mask_spec = function
  | None -> None
  | Some (Mask c) -> Some { Expr.container = c; complemented = false }
  | Some (Mask_complement c) -> Some { Expr.container = c; complemented = true }

let vmask_of = function
  | None -> Gbtl.Mask.No_vmask
  | Some spec -> (
    match spec.Expr.container with
    | Container.Vec (_, v) ->
      Gbtl.Mask.vmask ~complemented:spec.Expr.complemented v
    | Container.Mat _ -> derr "vector output masked by a matrix")

let mmask_of = function
  | None -> Gbtl.Mask.No_mmask
  | Some spec -> (
    match spec.Expr.container with
    | Container.Mat (_, m) ->
      Gbtl.Mask.mmask ~complemented:spec.Expr.complemented m
    | Container.Vec _ -> derr "matrix output masked by a vector")

let accum_binop (type a) (dt : a Dtype.t) = function
  | None -> None
  | Some name -> Some (Binop.of_name name dt)

(* The shared write step: temp (the evaluated expression) into target.
   Whole-container unmasked, unaccumulated assignment moves the evaluated
   result in wholesale (the paper's no-extra-temporary goal); everything
   else goes through the full GraphBLAS write semantics.  Either way a
   vector temporary is read through [Svector.entries], a view of the
   kernel's arrays, and written in the target's representation. *)
let write ?mask ?accum ~replace target temp =
  let spec = mask_spec mask in
  match target with
  | Container.Vec (dt, out)
    when spec = None && accum = None
         && Gbtl.Dtype.equal_packed (Container.dtype temp)
              (Gbtl.Dtype.P dt) -> (
    match temp with
    | Container.Vec (_, _) ->
      let v = Container.as_vector dt temp in
      if Svector.size v <> Svector.size out then
        derr "assigning a vector of size %d to one of size %d"
          (Svector.size v) (Svector.size out);
      Svector.replace_contents out (Svector.entries v)
    | Container.Mat _ -> derr "assigning a matrix result to a vector")
  | Container.Mat (dt, out)
    when spec = None && accum = None
         && Gbtl.Dtype.equal_packed (Container.dtype temp)
              (Gbtl.Dtype.P dt) -> (
    match temp with
    | Container.Mat (_, _) ->
      let m = Container.as_matrix dt temp in
      if Smatrix.shape m <> Smatrix.shape out then
        derr "assigning a %dx%d result to a %dx%d matrix" (Smatrix.nrows m)
          (Smatrix.ncols m) (Smatrix.nrows out) (Smatrix.ncols out);
      Smatrix.replace_contents out m
    | Container.Vec _ -> derr "assigning a vector result to a matrix")
  | Container.Vec (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let v =
      match temp with
      | Container.Vec (_, _) -> Container.as_vector dt temp
      | Container.Mat _ -> derr "assigning a matrix result to a vector"
    in
    if Svector.size v <> Svector.size out then
      derr "assigning a vector of size %d to one of size %d" (Svector.size v)
        (Svector.size out);
    Output.write_vector ~mask:(vmask_of spec) ~accum:(accum_binop dt accum)
      ~replace ~out ~t:(Svector.entries v)
  | Container.Mat (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let m =
      match temp with
      | Container.Mat (_, _) -> Container.as_matrix dt temp
      | Container.Vec _ -> derr "assigning a vector result to a matrix"
    in
    if Smatrix.shape m <> Smatrix.shape out then
      derr "assigning a %dx%d result to a %dx%d matrix" (Smatrix.nrows m)
        (Smatrix.ncols m) (Smatrix.nrows out) (Smatrix.ncols out);
    let t = Array.init (Smatrix.nrows m) (Smatrix.row_entries m) in
    Output.write_matrix ~mask:(mmask_of spec) ~accum:(accum_binop dt accum)
      ~replace ~out ~t

let prune_mask target mask =
  (* structural pruning only applies to matrix targets *)
  match target with
  | Container.Mat _ -> mask_spec mask
  | Container.Vec _ -> None

let set ?mask ?replace target expr =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let temp = Expr.force ?mask:(prune_mask target mask) expr in
  write ?mask ~replace target temp

let update ?mask ?accum target expr =
  let accum =
    match accum with
    | Some a -> Some a
    | None -> (
      match Context.current_accum () with
      | Some a -> Some a
      | None -> Some "Plus")
  in
  let temp = Expr.force ?mask:(prune_mask target mask) expr in
  write ?mask ?accum ~replace:false target temp

let assign_scalar ?mask ?replace ?(rows = Index_set.All)
    ?(cols = Index_set.All) target s =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let spec = mask_spec mask in
  match target with
  | Container.Vec (dt, out) ->
    Assign.vector_scalar ~mask:(vmask_of spec) ~replace ~out
      (Dtype.of_float dt s) rows
  | Container.Mat (dt, out) ->
    Assign.matrix_scalar ~mask:(mmask_of spec) ~replace ~out
      (Dtype.of_float dt s) rows cols

let set_region ?mask ?replace ?accum ~rows ?(cols = Index_set.All) target expr
    =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let spec = mask_spec mask in
  let temp = Expr.force expr in
  match target with
  | Container.Vec (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let v =
      match temp with
      | Container.Vec (_, _) -> Container.as_vector dt temp
      | Container.Mat _ -> derr "assigning a matrix result into a vector region"
    in
    Assign.vector ~mask:(vmask_of spec) ?accum:(accum_binop dt accum) ~replace
      ~out v rows
  | Container.Mat (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let m =
      match temp with
      | Container.Mat (_, _) -> Container.as_matrix dt temp
      | Container.Vec _ -> derr "assigning a vector result into a matrix region"
    in
    Assign.matrix ~mask:(mmask_of spec) ?accum:(accum_binop dt accum) ~replace
      ~out m rows cols

let reduce = Expr.reduce_scalar
let apply = Expr.apply
let reduce_rows = Expr.reduce_rows
let transpose = Expr.transpose
let select = Expr.select

module Infix = struct
  let ( !! ) c = Expr.of_container c
  let ( @. ) a b = Expr.matmul a b
  let ( +: ) a b = Expr.add a b
  let ( *: ) a b = Expr.mult a b
  let tr x = Expr.transpose x
  let ( ~~ ) c = Mask_complement c
  let mask c = Mask c
end
