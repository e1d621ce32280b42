open Gbtl

let native graph =
  let n = Smatrix.nrows graph in
  let adj = Smatrix.cast ~into:Dtype.Int64 graph in
  let labels = Svector.create Dtype.Int64 n in
  for v = 0 to n - 1 do
    Svector.set labels v v
  done;
  let min_select2nd = Semiring.min_select2nd Dtype.Int64 in
  let min_accum = Binop.min Dtype.Int64 in
  let next = Svector.create Dtype.Int64 n in
  let changed = ref true in
  while !changed do
    (* next = labels; next[None] min= adjᵀ min.2nd labels *)
    Svector.replace_contents next (Svector.entries labels);
    Matmul.mxv ~accum:min_accum ~transpose_a:true min_select2nd ~out:next adj
      labels;
    changed := not (Svector.equal next labels);
    Svector.replace_contents labels (Svector.entries next)
  done;
  labels

let dsl graph =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = fst (Container.shape graph) in
  let labels =
    Container.vector_coo ~dtype:(Dtype.P Dtype.Int64) ~size:n
      (List.init n (fun v -> (v, float_of_int v)))
  in
  let changed = ref true in
  Context.with_ops
    [ Context.semiring "MinSelect2nd"; Context.accum "Min" ]
    (fun () ->
      while !changed do
        let before = Container.dup labels in
        Ops.update labels (tr !!graph @. !!labels);
        changed := not (Container.equal before labels)
      done);
  labels

(* Tier 1: the propagation loop as a MiniVM script.  It leaves the
   loop at the fixpoint, like the loops above; [|V|] rounds only bound
   it (no component needs more pulls than it has vertices). *)
let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  [ Def
      ( "cc",
        [ "graph"; "labels" ],
        [ With
            ( [ Call
                  (Var "Semiring", [ Const (Minivm.Value.Str "MinSelect2nd") ]);
                Call (Var "Accumulator", [ Const (Minivm.Value.Str "Min") ]) ],
              [ For
                  ( "i",
                    Index
                      (Attr (Var "graph", "shape"), Const (Minivm.Value.Int 0)),
                    [ Assign ("before", Method (Var "labels", "dup", []));
                      ExprStmt
                        (Method
                           ( Var "labels",
                             "update",
                             [ Const Minivm.Value.Nil;
                               Binary
                                 ("@", Attr (Var "graph", "T"), Var "labels")
                             ] ));
                      If
                        ( Method (Var "labels", "isequal", [ Var "before" ]),
                          [ Break ],
                          [] ) ] ) ] );
          Return (Var "labels") ] ) ]

let seed_labels n =
  Ogb.Container.vector_coo ~dtype:(Dtype.P Dtype.Int64) ~size:n
    (List.init n (fun v -> (v, float_of_int v)))

let vm_loops graph =
  let n = fst (Ogb.Container.shape graph) in
  let labels = seed_labels n in
  match
    Vm_runtime.call_program vm_program "cc"
      [ Ogb.Vm_bridge.wrap_container graph; Ogb.Vm_bridge.wrap_container labels ]
  with
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
  | _ -> labels

let component_count labels =
  let seen = Hashtbl.create 16 in
  Svector.iter (fun _ l -> Hashtbl.replace seen l ()) labels;
  Hashtbl.length seen
