(* The masked/accumulated write step (Output) against the dense reference
   model — this is where replace-vs-merge, complemented masks and
   accumulator interactions live. *)

open Gbtl

let f64 = Dtype.FP64

let check = Alcotest.check

(* Unit cases pinned from the C API spec prose. *)

let vec_of l = Svector.of_coo f64 5 l

let write ?(mask = Mask.No_vmask) ?accum ?(replace = false) c t =
  let out = vec_of c in
  Output.write_vector ~mask ~accum ~replace ~out ~t:(Entries.of_alist t);
  Svector.to_alist out

let mask_of ?(complemented = false) bits =
  Mask.Vmask { dense = Array.of_list bits; complemented }

let alist = Alcotest.(list (pair int (float 0.0)))

let test_no_mask_no_accum () =
  (* C = T exactly: old entries vanish *)
  check alist "result replaces contents"
    [ (1, 10.0); (3, 30.0) ]
    (write [ (0, 1.0); (1, 2.0) ] [ (1, 10.0); (3, 30.0) ])

let test_no_mask_accum () =
  check alist "accum merges old and new"
    [ (0, 1.0); (1, 12.0); (3, 30.0) ]
    (write ~accum:(Binop.plus f64) [ (0, 1.0); (1, 2.0) ]
       [ (1, 10.0); (3, 30.0) ])

let test_mask_merge () =
  (* positions outside the mask keep old values; inside becomes T exactly *)
  let mask = mask_of [ true; true; false; false; true ] in
  check alist "merge semantics"
    [ (1, 10.0); (2, 3.0) ]
    (write ~mask
       [ (0, 1.0); (2, 3.0) ]
       (* t: *)
       [ (1, 10.0); (2, 99.0) ]);
  (* index 0: allowed, old 1.0, absent in T -> deleted.
     index 1: allowed, T -> 10.
     index 2: masked out, old 3.0 kept (T's 99 ignored). *)
  ()

let test_mask_replace () =
  let mask = mask_of [ true; true; false; false; true ] in
  check alist "replace clears masked-out old entries"
    [ (1, 10.0) ]
    (write ~mask ~replace:true [ (0, 1.0); (2, 3.0) ] [ (1, 10.0); (2, 99.0) ])

let test_complemented_mask () =
  let mask = mask_of ~complemented:true [ true; true; false; false; true ] in
  check alist "complement inverts the allowed set"
    [ (0, 1.0); (2, 99.0) ]
    (write ~mask [ (0, 1.0); (2, 3.0) ] [ (1, 10.0); (2, 99.0) ])

let test_mask_value_coercion () =
  (* a mask entry stored as 0 is mask-false *)
  let m = Svector.of_coo f64 5 [ (0, 1.0); (1, 0.0) ] in
  let mask = Mask.vmask m in
  check alist "stored zero in mask is false"
    [ (0, 10.0) ]
    (write ~mask [] [ (0, 10.0); (1, 11.0); (2, 12.0) ])

let test_accum_with_mask_and_replace () =
  let mask = mask_of [ true; false; true; false; false ] in
  check alist "accum + mask + replace"
    [ (0, 3.0) ]
    (write ~mask ~replace:true
       ~accum:(Binop.plus f64)
       [ (0, 1.0); (1, 5.0) ]
       [ (0, 2.0) ])

(* Random equivalence with the dense model. *)

let qcheck_write_vector =
  let gen =
    QCheck.Gen.(
      Helpers.vec_gen 6 >>= fun c ->
      Helpers.vec_gen 6 >>= fun t ->
      Helpers.vmask_gen 6 >>= fun mask ->
      Helpers.accum_gen >>= fun accum ->
      bool >|= fun replace -> (c, t, mask, accum, replace))
  in
  Helpers.qtest ~count:500 "write_vector matches dense model"
    (Helpers.arb gen) (fun (c, t, mask, accum, replace) ->
      let out = Dense_ref.svector_of_vec f64 c in
      Output.write_vector ~mask ~accum ~replace ~out
        ~t:(Dense_ref.entries_of_vec t);
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (Dense_ref.svector_of_vec f64 expected))

let qcheck_write_matrix =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 4 5 >>= fun c ->
      Helpers.mat_gen 4 5 >>= fun t ->
      Helpers.mmask_gen 4 5 >>= fun mask ->
      Helpers.accum_gen >>= fun accum ->
      bool >|= fun replace -> (c, t, mask, accum, replace))
  in
  Helpers.qtest ~count:500 "write_matrix matches dense model"
    (Helpers.arb gen) (fun (c, t, mask, accum, replace) ->
      let out = Dense_ref.smatrix_of_mat f64 4 5 c in
      Output.write_matrix ~mask ~accum ~replace ~out
        ~t:(Dense_ref.rows_of_mat t);
      let expected =
        Dense_ref.write_mat ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Smatrix.equal out (Dense_ref.smatrix_of_mat f64 4 5 expected))

(* -- the fused write against the pure specification --

   [Output.masked_entries] applied to the target's old contents is the
   oracle for both write functions, over every mask layout (with and
   without complement), accumulator, replace flag, target representation
   and format-layer setting.  FP64 values include -0.0 and NaN and are
   compared bit for bit, so the accumulator's operand order (c ⊕ t)
   cannot drift: First keeps the old value, and Min/Plus differ on
   NaN/-0.0 operands depending on which side they arrive. *)

let odd_float_gen =
  QCheck.Gen.oneofl
    [ 0.0; -0.0; Float.nan; 1.0; -1.5; 2.0; Float.infinity;
      Float.neg_infinity; 3.25 ]

let odd_vec_gen size =
  QCheck.Gen.(
    list_repeat size (option ~ratio:0.5 odd_float_gen) >|= Array.of_list)

let oracle_accum_gen =
  QCheck.Gen.oneofl
    [ None; Some (Binop.min f64); Some (Binop.plus f64);
      Some (Binop.first f64) ]

let oracle_vmask_gen size =
  QCheck.Gen.(
    pair (list_repeat size bool) bool >>= fun (bits, complemented) ->
    let dense = Array.of_list bits in
    let idx =
      Array.of_list
        (List.filter_map Fun.id
           (List.mapi (fun i b -> if b then Some i else None) bits))
    in
    oneofl
      [ Mask.No_vmask;
        Mask.Vmask { dense; complemented };
        Mask.Vmask_sparse { size; idx; complemented } ])

let bits_alist l = List.map (fun (i, x) -> (i, Int64.bits_of_float x)) l

let entries_copy e = Entries.of_alist (Entries.to_alist e)

let print_case (c, t, _, _, replace, dense, formats) =
  Printf.sprintf "c=%s t=%s replace=%b dense=%b formats=%b"
    (Helpers.print_vec c) (Helpers.print_vec t) replace dense formats

let qcheck_vector_oracle =
  let gen =
    QCheck.Gen.(
      int_range 1 80 >>= fun n ->
      odd_vec_gen n >>= fun c ->
      odd_vec_gen n >>= fun t ->
      oracle_vmask_gen n >>= fun mask ->
      oracle_accum_gen >>= fun accum ->
      bool >>= fun replace ->
      bool >>= fun dense ->
      bool >|= fun formats -> (c, t, mask, accum, replace, dense, formats))
  in
  Helpers.qtest ~count:1000 "write_vector = masked_entries (bitwise)"
    (Helpers.arb ~print:print_case gen)
    (fun (c, t, mask, accum, replace, dense, formats) ->
      Format_stats.with_enabled formats (fun () ->
          let out = Dense_ref.svector_of_vec f64 c in
          if dense then Svector.densify out;
          let old = entries_copy (Svector.entries out) in
          let t = Dense_ref.entries_of_vec t in
          let expected =
            Output.masked_entries ~allowed:(Mask.v_allowed mask)
              ~accum:(Option.map (fun op -> op.Binop.f) accum)
              ~replace ~c:old ~t
          in
          Output.write_vector ~mask ~accum ~replace ~out ~t;
          bits_alist (Svector.to_alist out)
          = bits_alist (Entries.to_alist expected)
          && Svector.nvals out = Entries.length expected))

let qcheck_matrix_oracle =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6) (int_range 1 7) >>= fun (nrows, ncols) ->
      list_repeat nrows (odd_vec_gen ncols) >>= fun c ->
      list_repeat nrows (odd_vec_gen ncols) >>= fun t ->
      Helpers.mmask_gen nrows ncols >>= fun mask ->
      oracle_accum_gen >>= fun accum ->
      bool >|= fun replace ->
      (nrows, ncols, Array.of_list c, Array.of_list t, mask, accum, replace))
  in
  Helpers.qtest ~count:500 "write_matrix = masked_entries per row (bitwise)"
    (Helpers.arb gen)
    (fun (nrows, ncols, c, t, mask, accum, replace) ->
      let out = Dense_ref.smatrix_of_mat f64 nrows ncols c in
      let rows = Array.init nrows (fun r -> Smatrix.row_entries out r) in
      let t = Dense_ref.rows_of_mat t in
      let expected =
        Array.mapi
          (fun r old ->
            Output.masked_entries ~allowed:(Mask.m_row_allowed mask r)
              ~accum:(Option.map (fun op -> op.Binop.f) accum)
              ~replace ~c:old ~t:t.(r))
          rows
      in
      Output.write_matrix ~mask ~accum ~replace ~out ~t;
      Smatrix.nvals out
      = Array.fold_left (fun n e -> n + Entries.length e) 0 expected
      && Array.for_all Fun.id
           (Array.mapi
              (fun r e ->
                bits_alist (Entries.to_alist (Smatrix.row_entries out r))
                = bits_alist (Entries.to_alist e))
              expected))

let suite =
  [ Alcotest.test_case "no mask, no accum" `Quick test_no_mask_no_accum;
    Alcotest.test_case "no mask, accum" `Quick test_no_mask_accum;
    Alcotest.test_case "mask merge" `Quick test_mask_merge;
    Alcotest.test_case "mask replace" `Quick test_mask_replace;
    Alcotest.test_case "complemented mask" `Quick test_complemented_mask;
    Alcotest.test_case "mask value coercion" `Quick test_mask_value_coercion;
    Alcotest.test_case "accum+mask+replace" `Quick
      test_accum_with_mask_and_replace;
    Helpers.to_alcotest qcheck_write_vector;
    Helpers.to_alcotest qcheck_write_matrix;
    Helpers.to_alcotest qcheck_vector_oracle;
    Helpers.to_alcotest qcheck_matrix_oracle;
  ]
