(* Output: a human-readable report on stderr and, as the last line of
   stdout, one JSON object with the metrics BENCHMARK.json declares.
   BENCHMARK.json is the single list of metric names and units; a
   workload that measures a metric it does not declare, or misses an
   end-to-end one, is a bug in the benchmark and fails the run. *)

module J = Server.Json

type metric = string * float * string

type t = {
  end_to_end : metric list;
  per_layer : metric list;
  notes : string list;
  attempted : int;
  failed : int;
  failures : string list;
  shares : (string * float) list;
      (** traced run: share of the workload's user-facing time per layer *)
}

(* Peak resident set of a process, from the [VmHWM] line of its
   /proc/<pid>/status. *)
let peak_mem_mb status_path =
  match In_channel.with_open_text status_path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' text)

let read_json path = J.parse (In_channel.with_open_text path In_channel.input_all)

let declared section spec =
  match J.member section spec with
  | Some (J.Arr ms) ->
    List.filter_map (fun m -> Option.map (fun n -> (n, Option.value ~default:"" (J.str_field "unit" m))) (J.str_field "name" m)) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

(* Which layers each workload is predicted to spend its time in, and the
   measured shares that test the prediction (traced run). *)
let predicted_dominant = function
  | "dispatch-bound" -> [ "minivm"; "core+jit" ]
  | _ -> [ "server" ]

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Prints the report and the result line; returns the exit code. *)
let emit ~workload ~trace (r : t) =
  let spec = read_json "BENCHMARK.json" in
  let preds = read_json "perfbench/predictions.json" in
  let section = if trace then "per_layer" else "end_to_end" in
  let names = declared section spec in
  let measured = if trace then r.per_layer else r.end_to_end in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n names) then failwith (Printf.sprintf "metric %s is not declared in BENCHMARK.json" n))
    measured;
  let missing = ref [] in
  let values =
    List.map
      (fun (n, unit_) ->
        match List.find_opt (fun (m, _, _) -> m = n) measured with
        | Some (_, v, u) ->
          if u <> unit_ then failwith (Printf.sprintf "metric %s: unit %s, declared %s" n u unit_);
          if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n);
          (n, v, unit_)
        | None when trace ->
          (* a layer this workload does not exercise *)
          missing := n :: !missing;
          (n, 0.0, unit_)
        | None -> failwith (Printf.sprintf "end-to-end metric %s was not measured" n))
      names
  in
  let err fmt = Printf.eprintf fmt in
  err "== %s (%s run) ==\n" workload (if trace then "traced" else "untraced");
  List.iter
    (fun (n, v, u) ->
      let pred = match Option.bind (J.member n preds) J.str with Some p -> "  -> " ^ p | None -> "" in
      if not (List.mem n !missing) then err "  %-30s %14.4f %-6s%s\n" n v u pred)
    values;
  if !missing <> [] then
    err "  not exercised on %s (reported as 0): %s\n" workload (String.concat ", " (List.rev !missing));
  List.iter (err "  %s\n") r.notes;
  if r.shares <> [] then begin
    let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) r.shares in
    err "  time by layer: %s\n"
      (String.concat ", " (List.map (fun (l, s) -> Printf.sprintf "%s %.1f%%" l (100.0 *. s)) sorted));
    let top = fst (List.hd sorted) in
    let predicted = predicted_dominant workload in
    err "  predicted to dominate: %s; measured largest: %s -> prediction %s\n"
      (String.concat " / " predicted) top
      (if List.mem top predicted then "holds" else "FAILS")
  end;
  let rate = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  err "  error_rate %.6f (%d failed of %d attempted)\n" rate r.failed r.attempted;
  List.iter (err "  FAILURE: %s\n") r.failures;
  let metrics =
    String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u) values)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) (max 1 r.attempted) r.failed metrics;
  if r.failed = 0 then 0 else 1
