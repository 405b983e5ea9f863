(** Named monotonic counters used across the simulator.

    Every subsystem (cache model, DBT engine, emulated services, ...)
    accounts its work through a [t] so that benchmarks can report per-phase
    deltas. Counters hold plain [int]s; snapshot/diff is how per-device or
    per-phase figures (e.g. Figure 6) are extracted from a shared set. *)

type t = (string, int ref) Hashtbl.t

(** [create ()] is an empty counter set. *)
let create () : t = Hashtbl.create 64

(* one lookup, and no [Some] box on the hit path: counters are bumped
   per emulated-service call *)
let find (t : t) name =
  match Hashtbl.find t name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

(** [add t name n] bumps counter [name] by [n], creating it at 0 first. *)
let add (t : t) name n =
  let r = find t name in
  r := !r + n

(** [incr t name] is [add t name 1]. *)
let incr (t : t) name = add t name 1

(** [get t name] is the current value of [name] (0 if never touched). *)
let get (t : t) name =
  match Hashtbl.find t name with r -> !r | exception Not_found -> 0

(** [set t name v] overwrites [name] with [v]. *)
let set (t : t) name v = find t name := v

(** [reset t] zeroes every counter but keeps the names. *)
let reset (t : t) = Hashtbl.iter (fun _ r -> r := 0) t

(** [snapshot t] captures the current values as an assoc list sorted by
    name; used with {!diff} to compute per-phase deltas. *)
let snapshot (t : t) =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [to_assoc t] — the canonical counter schema: name-sorted
    [(name, value)] pairs. This is the one shape counters travel in
    everywhere downstream — trace phase-marks, time-series gauges, run
    manifests and {!Report.counters} all consume it — so a counter
    renamed here renames consistently across every surface. (Alias of
    {!snapshot}; the two names document intent: [snapshot] for a
    later {!diff}, [to_assoc] for export.) *)
let to_assoc = snapshot

(** [to_json t] renders {!to_assoc} as one flat JSON object (sorted
    keys, stable across runs — manifest digests rely on this). *)
let to_json (t : t) =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf {|%s:%d|} (Json.quote k) v)
         (to_assoc t))
  ^ "}"

(** [load t saved] makes [t] hold exactly [saved]: names absent from
    [saved] are {e removed}, not zeroed. The world-snapshot layer needs
    that exactness — a zero-valued leftover name would still render in
    {!to_assoc}/{!to_json}, so an instance restored after a sibling ran
    would expose which names the sibling touched and break
    schedule-order invariance of downstream digests. *)
let load (t : t) saved =
  Hashtbl.reset t;
  List.iter (fun (k, v) -> Hashtbl.replace t k (ref v)) saved

(** [diff before after] is the per-name difference [after - before];
    names absent on one side count as 0 there. *)
let diff before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (-v)) before;
  List.iter (fun (k, v) ->
      let cur = match Hashtbl.find_opt tbl k with Some x -> x | None -> 0 in
      Hashtbl.replace tbl k (cur + v))
    after;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [sum outs] adds the lists name by name, name-sorted. *)
let sum outs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         let cur = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
         Hashtbl.replace tbl k (cur + v)))
    outs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [pp ppf t] prints all non-zero counters, one per line. *)
let pp ppf (t : t) =
  snapshot t
  |> List.iter (fun (k, v) -> if v <> 0 then Fmt.pf ppf "%-40s %d@." k v)
