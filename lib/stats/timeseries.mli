(** Cycle-domain telemetry sampler: periodic columnar snapshots.

    On a configurable virtual-time period, snapshots a set of named
    integer gauges (per-core busy/idle figures, cache and DRAM traffic,
    translation-cache occupancy, per-device power-rail state, ...) into
    fixed-capacity columnar ring buffers. Consumers — the energy
    attribution ledger, the [--timeseries] export, the run manifest —
    read whole columns back and work on row deltas.

    Sampling is simulation-neutral (gauges are read-only closures over
    model counters) and near-free when disabled: the interpreter loops
    hoist [enabled] once per run, and {!sample_now} allocates nothing.
    test/test_timeseries.ml pins the mechanics. *)

type t = {
  mutable enabled : bool;
      (** the one flag the hot loops hoist and branch on *)
  mutable period_ns : int;  (** virtual-time sampling period *)
  mutable next_due : int;  (** absolute virtual time of the next sample *)
  now : unit -> int;  (** simulated time source (ns) *)
  mutable gauges : (string * (unit -> int)) list;
      (** named platform gauges in wiring order *)
  mutable cur_phase : int;
      (** phase code in effect; recorded with every row *)
  mutable cap : int;
  mutable names : string array;
  mutable gfns : (unit -> int) array;
  mutable cols : int array array;
  mutable head : int;
  mutable total : int;  (** rows sampled since enable (>= retained) *)
}

val default_cap : int
val default_period_ns : int

(** [create ~now ()] — a disabled sampler on simulated-time source
    [now] (ns). *)
val create : now:(unit -> int) -> unit -> t

(** [add_gauge t name f] wires gauge [name]. Replaces in place if the
    name is already wired (keeping column order), else appends. Must
    happen before {!enable}. *)
val add_gauge : t -> string -> (unit -> int) -> unit

(** [enable ?cap ?period_ns t] starts sampling from a clean slate: bakes
    the wired gauges into columns, allocates the ring ([cap] rows,
    default 2^14) and records the baseline row. [period_ns] is the
    virtual-time sampling period (default 100 us). *)
val enable : ?cap:int -> ?period_ns:int -> t -> unit

val disable : t -> unit

(** [tick t] — the hot-loop probe: samples one row when the period has
    elapsed. Callers hoist [t.enabled] and only call this while
    sampling is on. *)
val tick : t -> unit

(** [sample_now t] records one row unconditionally (baseline, forced
    phase boundaries, final flush). Allocation-free; no-op when
    disabled. *)
val sample_now : t -> unit

(** [phase t code] forces a row closing the current phase's epoch, then
    switches the recorded phase to [code]. *)
val phase : t -> int -> unit

val retained : t -> int
val dropped : t -> int

(** Column labels, row order: [t_ns; phase; <gauges in wiring order>]. *)
val labels : t -> string array

(** [col_index t name] — column position of [name], if wired. *)
val col_index : t -> string -> int option

(** [rows t] — the retained rows oldest-first, each a fresh array in
    {!labels} order. *)
val rows : t -> int array array

val iter_rows : t -> (int array -> unit) -> unit

(** [to_csv oc t] writes a header line plus one comma-separated line per
    retained row. *)
val to_csv : out_channel -> t -> unit

(** [to_jsonl oc t] writes one JSON object per retained row, keyed by
    column label. *)
val to_jsonl : out_channel -> t -> unit
