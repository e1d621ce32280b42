type 'a t = {
  mutable idx : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { idx = [||]; vals = [||]; len = 0 }

let length e = e.len

let grow e v =
  let cap = Array.length e.idx in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let idx' = Array.make cap' 0 and vals' = Array.make cap' v in
  Array.blit e.idx 0 idx' 0 e.len;
  Array.blit e.vals 0 vals' 0 e.len;
  e.idx <- idx';
  e.vals <- vals'

let push e i v =
  assert (e.len = 0 || e.idx.(e.len - 1) < i);
  if e.len = Array.length e.idx then grow e v;
  e.idx.(e.len) <- i;
  e.vals.(e.len) <- v;
  e.len <- e.len + 1

let get_idx e k =
  assert (k < e.len);
  e.idx.(k)

let get_val e k =
  assert (k < e.len);
  e.vals.(k)

let iter f e =
  for k = 0 to e.len - 1 do
    f e.idx.(k) e.vals.(k)
  done

let to_alist e =
  let rec loop k acc =
    if k < 0 then acc else loop (k - 1) ((e.idx.(k), e.vals.(k)) :: acc)
  in
  loop (e.len - 1) []

let of_arrays_unsafe idx vals ~len =
  assert (Array.length idx >= len && Array.length vals >= len);
  { idx; vals; len }

let of_alist l =
  let sorted = List.sort (fun (i, _) (j, _) -> Int.compare i j) l in
  let e = create () in
  List.iter (fun (i, v) -> push e i v) sorted;
  e

let to_arrays_unsafe e = (e.idx, e.vals, e.len)
