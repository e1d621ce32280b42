(* In-memory span recorder for the traced run.  Spans are opened and
   closed by the benchmark's own code around calls into a layer's
   public entry points; each closed span adds its duration to its name's
   total and to its parent's child time, so a name's self time is its
   spans' duration minus the part their child spans cover.  Only these
   per-name aggregates are kept: the traced run records hundreds of
   thousands of bridge spans per second, and storing each would be most
   of the tracing overhead. *)

type agg = { mutable count : int; mutable total : float; mutable self : float }

type frame = { name : string; start : float; mutable child : float }

type t = {
  clock : unit -> float;
  mutable stack : frame list;
  table : (string, agg) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; stack = []; table = Hashtbl.create 16 }

let enter t name = t.stack <- { name; start = t.clock (); child = 0.0 } :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    let d = t.clock () -. f.start in
    let a =
      match Hashtbl.find_opt t.table f.name with
      | Some a -> a
      | None ->
        let a = { count = 0; total = 0.0; self = 0.0 } in
        Hashtbl.add t.table f.name a;
        a
    in
    a.count <- a.count + 1;
    a.total <- a.total +. d;
    a.self <- a.self +. (d -. f.child);
    (match rest with p :: _ -> p.child <- p.child +. d | [] -> ());
    t.stack <- rest

let with_span t name f =
  enter t name;
  match f () with
  | r ->
    leave t;
    r
  | exception e ->
    leave t;
    raise e

let find t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None -> { count = 0; total = 0.0; self = 0.0 }

let count t name = (find t name).count
let total t name = (find t name).total
let self t name = (find t name).self
