(** The masked, accumulated output-write step shared by every GraphBLAS
    operation (C API §2.4; paper §II):

    {v C<M, z> = C ⊙ T v}

    where [T] is the operation's raw result, [⊙] an optional accumulator,
    [M] the mask and [z] the replace flag.  Semantics:

    - [Z = T] without an accumulator, or the structural union of [C] and
      [T] (combining shared positions with the accumulator) with one;
    - at mask-allowed positions, [C] becomes exactly [Z] (including the
      {e removal} of [C] entries absent from [Z]);
    - at masked-out positions, [C] keeps its entries ("merge") unless
      [replace] is set, in which case they are cleared. *)

val merge_with :
  ('a -> 'a -> 'a) -> 'a Entries.t -> 'a Entries.t -> 'a Entries.t
(** [merge_with f c t] — structural union; shared indices combined as
    [f c_value t_value]. *)

val masked_entries :
  allowed:(int -> bool) ->
  accum:('a -> 'a -> 'a) option ->
  replace:bool ->
  c:'a Entries.t ->
  t:'a Entries.t ->
  'a Entries.t
(** Pure form of the write step on one index space (a vector, or one
    matrix row) — the specification {!write_vector} and {!write_matrix}
    are tested against. *)

val write_vector :
  mask:Mask.vmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Svector.t ->
  t:'a Entries.t ->
  unit
(** Computes {!masked_entries} of [out]'s current contents in one fused
    pass and stores the result in [out]'s own representation: fresh
    arrays for a sparse target; the dense payload, edited in place, for
    a dense one — only T's positions when there is an accumulator and no
    mask.  [t] may be a view of [out] or of the mask's vector.
    @raise Svector.Dimension_mismatch on mask size mismatch
    @raise Svector.Index_out_of_bounds if [t] reaches past [out]'s size *)

val write_matrix :
  mask:Mask.mmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Smatrix.t ->
  t:'a Entries.t array ->
  unit
(** Row-wise write step, fused like {!write_vector} into one pass over
    the CSR rows; [t] has one entry sequence per output row. *)
