(** The traced run's span recorder, kept entirely on the benchmark side:
    spans open and close around calls into each layer's public functions,
    and {e cells} aggregate the high-frequency callbacks the engine and
    ARK already expose ({!Tk_dbt.Engine.callbacks}), so a cycle with
    150k block-boundary callbacks costs one record per callback kind, not
    150k. Records stay in memory until {!write_jsonl} at the end.

    A record's self time is its duration minus its children's durations;
    grouping self time by name gives the per-layer table, whose rows sum
    to the root span's wall time (the root's own self time is the
    [other] row). *)

type record = {
  id : int;
  parent : int;  (** [-1] for the root *)
  name : string;
  op : int;  (** cycle or instance id the record belongs to, [-1] if none *)
  t0 : int;  (** host ns; aggregates carry [t0 = 0] and [t1 = total ns] *)
  t1 : int;
  calls : int;
  words : int;  (** minor words allocated inside *)
  promoted : int;  (** words promoted to the major heap inside *)
  majors : int;  (** major collections completed inside *)
  agg : bool;
}

type t = { mutable recs : record list; mutable next : int }

let create () = { recs = []; next = 0 }

let add t ~parent ~name ?(op = -1) ?(calls = 1) ?(words = 0) ?(promoted = 0)
    ?(majors = 0) ?(agg = false) ~t0 ~t1 () =
  let id = t.next in
  t.next <- id + 1;
  t.recs <-
    { id; parent; name; op; t0; t1; calls; words; promoted; majors; agg }
    :: t.recs;
  id

(** An open span: its id is allocated at {!enter} so children can name
    it as their parent before it closes. *)
type open_span = {
  o_id : int;
  o_parent : int;
  o_name : string;
  o_op : int;
  o_t0 : int;
  o_stat : Gc.stat;
}

let enter t ~parent ?(op = -1) name =
  let id = t.next in
  t.next <- id + 1;
  { o_id = id; o_parent = parent; o_name = name; o_op = op;
    o_stat = Gc.quick_stat (); o_t0 = Util.now_ns () }

let leave t o =
  let t1 = Util.now_ns () in
  let s = Gc.quick_stat () in
  t.recs <-
    { id = o.o_id; parent = o.o_parent; name = o.o_name; op = o.o_op;
      t0 = o.o_t0; t1; calls = 1;
      words = int_of_float (s.Gc.minor_words -. o.o_stat.Gc.minor_words);
      promoted =
        int_of_float (s.Gc.promoted_words -. o.o_stat.Gc.promoted_words);
      majors = s.Gc.major_collections - o.o_stat.Gc.major_collections;
      agg = false }
    :: t.recs

(** [span t ~parent name f] — run [f id] inside a span whose id is [id]. *)
let span t ~parent ?op name f =
  let o = enter t ~parent ?op name in
  match f o.o_id with
  | v ->
    leave t o;
    v
  | exception e ->
    leave t o;
    raise e

(* ------------------------------ cells ------------------------------- *)

(** A callback aggregate: calls counted on every call, host time and
    allocation either on every call or, for block-boundary callbacks, on
    one call in [sample] and scaled up. *)
type cell = {
  c_name : string;
  sample : int;
  mutable c_calls : int;
  mutable c_ns : int;
  mutable c_words : int;
}

let cell ?(sample = 1) c_name =
  { c_name; sample; c_calls = 0; c_ns = 0; c_words = 0 }

(** [flush t ~parent ~op cells] — attach every non-empty cell to
    [parent] as an aggregate record and zero it. *)
let flush t ~parent ~op cells =
  List.iter
    (fun c ->
      if c.c_calls > 0 then begin
        ignore
          (add t ~parent ~name:c.c_name ~op ~calls:c.c_calls ~words:c.c_words
             ~agg:true ~t0:0 ~t1:c.c_ns ());
        c.c_calls <- 0;
        c.c_ns <- 0;
        c.c_words <- 0
      end)
    cells

(* ---------------------------- the table ----------------------------- *)

type row = {
  r_name : string;
  r_calls : int;
  r_self_ns : int;
  r_self_words : int;
  r_promoted : int;
  r_majors : int;
}

let dur r = r.t1 - r.t0

(** Per-name self time and self allocation over the subtree of [root];
    the root's own self time comes back as the ["other"] row. Rows are
    sorted by self time, [other] last. *)
let table t ~root =
  let kids = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.add kids r.parent r) t.recs;
  let acc = Hashtbl.create 32 in
  let bump name ~calls ~ns ~words ~promoted ~majors =
    let c, n, w, p, m =
      Option.value (Hashtbl.find_opt acc name) ~default:(0, 0, 0, 0, 0)
    in
    Hashtbl.replace acc name
      (c + calls, n + ns, w + words, p + promoted, m + majors)
  in
  let rec walk r ~is_root =
    let ch = Hashtbl.find_all kids r.id in
    let child_ns = List.fold_left (fun a c -> a + dur c) 0 ch in
    let child_w = List.fold_left (fun a c -> a + c.words) 0 ch in
    let child_p = List.fold_left (fun a c -> a + c.promoted) 0 ch in
    let child_m = List.fold_left (fun a c -> a + c.majors) 0 ch in
    bump
      (if is_root then "other" else r.name)
      ~calls:(if is_root then 1 else r.calls)
      ~ns:(dur r - child_ns) ~words:(r.words - child_w)
      ~promoted:(r.promoted - child_p) ~majors:(r.majors - child_m);
    List.iter (fun c -> walk c ~is_root:false) ch
  in
  (match List.find_opt (fun r -> r.id = root) t.recs with
  | Some r -> walk r ~is_root:true
  | None -> ());
  let rows =
    Hashtbl.fold
      (fun r_name (r_calls, r_self_ns, r_self_words, r_promoted, r_majors) l ->
        { r_name; r_calls; r_self_ns; r_self_words; r_promoted; r_majors }
        :: l)
      acc []
  in
  let other, rest = List.partition (fun r -> r.r_name = "other") rows in
  List.sort (fun a b -> compare b.r_self_ns a.r_self_ns) rest @ other

(** [row_ns rows name] — summed self ns of rows named [name]. *)
let row_ns rows name =
  List.fold_left
    (fun a r -> if r.r_name = name then a + r.r_self_ns else a)
    0 rows

let row_calls rows name =
  List.fold_left
    (fun a r -> if r.r_name = name then a + r.r_calls else a)
    0 rows

(** [write_jsonl t path] — one JSON object per record, oldest first. *)
let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"op\":%d,\"kind\":%s,\
         \"start_ns\":%d,\"end_ns\":%d,\"dur_ns\":%d,\"calls\":%d,\
         \"minor_words\":%d,\"promoted_words\":%d,\"major_collections\":%d}\n"
        r.id r.parent (Util.json_str r.name) r.op
        (if r.agg then "\"aggregate\"" else "\"span\"")
        (if r.agg then 0 else r.t0)
        (if r.agg then 0 else r.t1)
        (dur r) r.calls r.words r.promoted r.majors)
    (List.sort (fun a b -> compare a.id b.id) t.recs);
  close_out oc
