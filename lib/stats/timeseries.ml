(** Cycle-domain telemetry sampler: periodic columnar snapshots.

    The flight recorder ({!Trace}) captures discrete {e events}; this
    module captures the simulated SoC {e over time}: on a configurable
    virtual-time period it snapshots a set of named integer gauges
    (per-core busy/idle/stall figures, cache and DRAM traffic,
    translation-cache occupancy, per-device power-rail state, ...) into
    fixed-capacity columnar ring buffers. Consumers — the energy
    attribution ledger, the [--timeseries] CSV/JSONL export, the run
    manifest — read whole columns back and work on row deltas.

    Cost discipline mirrors the recorder's: sampling is
    {e simulation-neutral} (gauges are read-only closures over model
    counters; no simulated cycles are ever charged) and near-free on the
    host when disabled — the interpreter loops hoist the [enabled] flag
    once per run and {!tick} is never called on the disabled path, while
    {!sample_now} itself allocates nothing (columns are pre-sized at
    {!enable} time). test/test_timeseries.ml pins the mechanics and the
    zero-allocation property; the neutrality goldens hold with sampling
    on or off. *)

type t = {
  mutable enabled : bool;
      (** the one flag the hot loops hoist and branch on *)
  mutable period_ns : int;  (** virtual-time sampling period *)
  mutable next_due : int;  (** absolute virtual time of the next sample *)
  now : unit -> int;  (** simulated time source (ns) *)
  mutable gauges : (string * (unit -> int)) list;
      (** named platform gauges in wiring order; {!add_gauge} replaces
          by name so re-created components (a second DBT engine on the
          same SoC) re-bind their columns instead of duplicating them *)
  mutable cur_phase : int;
      (** phase code in effect; recorded with every row *)
  (* columnar ring: one pre-sized int array per column, no per-sample
     allocation. Column 0 is the sample time (ns), column 1 the phase
     code; gauge columns follow in wiring order. *)
  mutable cap : int;
  mutable names : string array;
  mutable gfns : (unit -> int) array;  (** baked at {!enable} *)
  mutable cols : int array array;
  mutable head : int;  (** next write slot *)
  mutable total : int;  (** rows sampled since enable (>= retained) *)
}

let ncols_builtin = 2

let default_cap = 1 lsl 14
let default_period_ns = 100_000 (* 100 us of virtual time *)

let create ~now () =
  { enabled = false; period_ns = default_period_ns; next_due = max_int;
    now; gauges = []; cur_phase = 0; cap = 0;
    names = [||]; gfns = [||]; cols = [||]; head = 0; total = 0 }

(** [add_gauge t name f] wires gauge [name]. If a gauge of that name is
    already wired its closure is replaced in place (keeping column
    order); otherwise it is appended. Must happen before {!enable} —
    columns are baked there. *)
let add_gauge t name f =
  if List.mem_assoc name t.gauges then
    t.gauges <-
      List.map (fun (n, g) -> if n = name then (n, f) else (n, g)) t.gauges
  else t.gauges <- t.gauges @ [ (name, f) ]

(** [sample_now t] records one row unconditionally (used for the
    baseline row at {!enable}, forced phase-boundary rows and the final
    flush). Allocation-free. No-op when disabled. *)
let sample_now t =
  if t.enabled then begin
    let i = t.head in
    let cols = t.cols in
    let now = t.now () in
    (Array.unsafe_get cols 0).(i) <- now;
    (Array.unsafe_get cols 1).(i) <- t.cur_phase;
    let gfns = t.gfns in
    for c = 0 to Array.length gfns - 1 do
      (Array.unsafe_get cols (c + ncols_builtin)).(i) <-
        (Array.unsafe_get gfns c) ()
    done;
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    t.total <- t.total + 1;
    t.next_due <- now + t.period_ns
  end

(** [tick t] — the hot-loop probe: samples one row when the period has
    elapsed. Callers hoist [t.enabled] and only call this while
    sampling is on, so the disabled path carries no closure call. *)
let tick t = if t.enabled && t.now () >= t.next_due then sample_now t

(** [phase t code] marks a phase boundary: forces a row closing the
    current phase's epoch, then switches the recorded phase to [code].
    Epochs therefore never straddle a phase mark. *)
let phase t code =
  sample_now t;
  t.cur_phase <- code

(** [enable ?cap ?period_ns t] starts sampling from a clean slate: bakes
    the wired gauges into columns, allocates the ring ([cap] rows,
    default 2^14) and records the baseline row. [period_ns] is the
    virtual-time sampling period (default 100 us). *)
let enable ?(cap = default_cap) ?(period_ns = default_period_ns) t =
  let cap = max 2 cap in
  t.cap <- cap;
  t.period_ns <- max 1 period_ns;
  t.names <-
    Array.of_list ("t_ns" :: "phase" :: List.map fst t.gauges);
  t.gfns <- Array.of_list (List.map snd t.gauges);
  t.cols <- Array.init (Array.length t.names) (fun _ -> Array.make cap 0);
  t.head <- 0;
  t.total <- 0;
  t.cur_phase <- 0;
  t.enabled <- true;
  sample_now t

let disable t =
  t.enabled <- false;
  t.next_due <- max_int

(* --------------------------- consumption ----------------------------- *)

let retained t = min t.total t.cap
let dropped t = t.total - retained t

(** Column labels, row order: [t_ns; phase; <gauges in wiring order>]. *)
let labels t = Array.copy t.names

(** [col_index t name] — column position of [name], if wired. *)
let col_index t name =
  let rec go i =
    if i >= Array.length t.names then None
    else if t.names.(i) = name then Some i
    else go (i + 1)
  in
  go 0

(** [rows t] — the retained rows oldest-first, each a fresh array in
    {!labels} order. (Consumption path; not allocation-sensitive.) *)
let rows t =
  let n = retained t in
  let start = if t.total <= t.cap then 0 else t.head in
  Array.init n (fun i ->
      let j = (start + i) mod t.cap in
      Array.map (fun col -> col.(j)) t.cols)

(** [iter_rows t f] visits the retained rows oldest-first. *)
let iter_rows t f = Array.iter f (rows t)

(* ----------------------------- export -------------------------------- *)

(** [to_csv oc t] writes a header line plus one comma-separated line per
    retained row. *)
let to_csv oc t =
  output_string oc (String.concat "," (Array.to_list t.names));
  output_char oc '\n';
  iter_rows t (fun row ->
      output_string oc
        (String.concat ","
           (Array.to_list (Array.map string_of_int row)));
      output_char oc '\n')

(** [to_jsonl oc t] writes one JSON object per retained row, keyed by
    column label (directly queryable with jq; see README). *)
let to_jsonl oc t =
  (* labels can carry model-supplied names (device power rails); quote
     them once through the shared escaper, not per row *)
  let qnames = Array.map Json.quote t.names in
  iter_rows t (fun row ->
      output_char oc '{';
      Array.iteri
        (fun i v ->
          if i > 0 then output_char oc ',';
          output_string oc (Printf.sprintf {|%s:%d|} qnames.(i) v))
        row;
      output_string oc "}\n")
