(* Summary statistics for the benchmark's reports: medians, the tail
   rule and the geometric-mean penalty. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks over a sorted array, the
   definition Python's [statistics.quantiles(method="inclusive")] and
   numpy's default use. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

type tail = {
  value : float;
  pct : float;  (** the percentile the value sits at *)
  samples : int;  (** sample count *)
  beyond : int;  (** samples strictly above the value by rank *)
}

(* The highest percentile of the ladder p90, p99 with at least ten
   samples beyond it, by nearest rank.  A fixed ladder keeps the
   reported percentile the same from run to run while the sample count
   varies; p99.9 is left off because a run's request count would
   straddle the 10000 samples it needs.  [None] when even p90 lacks
   samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let at p =
    (* nearest rank, ceil (p n / 100), in integers *)
    let rank = ((p * n) + 99) / 100 in
    if rank < 1 || n - rank < 10 then None
    else Some { value = a.(rank - 1); pct = float_of_int p; samples = n; beyond = n - rank }
  in
  match at 99 with Some t -> Some t | None -> at 90

type penalty = {
  geomean : float;
  base : (string * float * float) list;
      (** per program: (name, numerator median, denominator median) *)
}

(* Geometric mean over programs of [num / den], with the two medians of
   every ratio kept as its base. *)
let penalty pairs =
  match pairs with
  | [] -> invalid_arg "Stats.penalty: no programs"
  | _ ->
    let logs =
      List.map
        (fun (name, num, den) ->
          if not (num > 0.0 && den > 0.0) then
            invalid_arg
              (Printf.sprintf "Stats.penalty: non-positive median for %s" name);
          log (num /. den))
        pairs
    in
    { geomean =
        exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs));
      base = pairs }
