(** Fleet-scale simulation: sharded device populations over snapshotable
    SoC worlds.

    A fleet run simulates many device {e instances} — phones on a rack,
    each an independent suspend/resume history — without paying a full
    boot per instance. Instances are grouped by hardware/kernel
    configuration into {e shards}; each shard boots one world, warms the
    DBT to a translation fixpoint, takes a {!Tk_machine.World} snapshot,
    and interleaves its instances by restoring that snapshot and running
    each instance's private arrival trace over it.

    {b The invariant:} the digested sections ([meta]/[shards]/
    [aggregate]) are a pure function of [(devices, arrival, seed,
    knobs)] — independent of [--jobs] {e and} of the order instances
    execute within a shard. Anything host- or order-dependent (git
    revision, wall time, jobs, world snapshot stats) lives in the
    undigested [host] section. *)

module J = Tk_harness.Run_manifest

val instance_rng : seed:int -> int -> Random.State.t
(** instance [i]'s private PRNG: [Random.State.make [| seed; i; tag |]] *)

(** One hardware/kernel configuration a slice of the population runs.
    Instances are assigned round-robin ([id mod length]), so every
    population size exercises every configuration. *)
type dconfig = {
  dc_name : string;
  dc_devices : string list;  (** registered subset, a "kernel config" *)
  dc_superblock : bool;  (** stack the trace tier on Ark mode *)
  dc_glitch_every : int;
      (** expected cycles between WiFi firmware glitches (0 = never);
          only meaningful when the mix includes "wifi" *)
}

val dconfigs : dconfig array
val config_of_instance : int -> int
(** index into {!dconfigs} for an instance id *)

(** Execution order of instances inside a shard. Digests must not
    depend on it; the knob exists so tests can prove instance isolation
    by running both ways. *)
type schedule = Chrono | Reversed

val schedule_name : schedule -> string

type config = {
  devices : int;  (** population size (instances) *)
  arrival : Arrival.kind;
  jobs : int;
  seed : int;
  duration_ms : int;  (** simulated span per instance *)
  mean_gap_ms : int;  (** mean arrival gap *)
  max_wakeups : int;  (** per-instance safety cap *)
  shard_cap : int;  (** max instances per shard (one world each) *)
  schedule : schedule;
  quantum : int;
      (** bounded-quantum lockstep slicing inside every shard world
          (0 = sequential); digest-invisible like [jobs] — it lives in
          the undigested [host] section *)
  chaos_fail : int option;
      (** fault injection: the given shard index raises instead of
          running (tests pin the error-propagation path with it) *)
}

val default_config : config

type shard = {
  sh_index : int;
  sh_config : int;  (** index into {!dconfigs} *)
  sh_ids : int list;  (** member instances, ascending *)
}

val plan : config -> shard list
(** group instances by configuration, then split each group at
    [shard_cap]; pure function of (devices, shard_cap) *)

val install_hooks : Tk_machine.World.t -> Tk_harness.Ark_run.t -> unit
(** register restore hooks for all the simulator state {!Tk_machine.World}
    doesn't own: device models, ARK contexts and scalars, counters, the
    native runner's mutables, the interpreter's register file *)

val warmup : Tk_harness.Ark_run.t -> dc:dconfig -> int
(** run suspend/resume cycles until the engine's translation state
    holds still for two consecutive cycles; returns cycles spent. For
    the superblock tier the formation threshold is dropped to 1 during
    warmup and parked at [max_int] after, freezing the shared cache. *)

val span_fields : (string * int) list
(** the fixed per-span-kind duration telemetry schema: fleet JSON field
    name -> {!Tk_stats.Span} kind. Each shard serializes one duration
    sketch per entry and the aggregate reports merged quantiles. *)

(** Everything a shard returns. [o_host] is the only section allowed to
    vary with execution order; it never enters the digest. *)
type shard_out = {
  o_metrics : J.json;
  o_counters : (string * int) list;
  o_host : (string * int) list;
}

type instance_row = {
  i_id : int;
  i_wakeups : int;
  i_fallbacks : int;
  i_energy_nj : int;
}

val run_instance :
  config -> dconfig -> Tk_harness.Ark_run.t -> lat:Tk_stats.Sketch.t ->
  pressure:Tk_stats.Sketch.t -> energy_sk:Tk_stats.Sketch.t -> id:int ->
  instance_row
(** run one instance's whole arrival trace over the restored snapshot;
    all figures are deltas against the post-restore state *)

val shard_task : built:Tk_kernel.Image.built -> config -> shard -> shard_out
(** boot one world for the shard's configuration, warm it, snapshot it,
    and interleave the member instances over the snapshot *)

type t = {
  config : config;
  doc : J.json;
  digest : string;
  wall_s : float;
  errors : (int * string) list;  (** (shard index, message) *)
}

val failed : t -> bool
val first_error : t -> (int * string) option

val run : config -> t
(** plan the shards, execute them on [config.jobs] domains, and
    assemble the fleet document; the kernel image is compiled once and
    shared (immutably) by every shard world *)

val write_file : string -> t -> unit

val counter : t -> string -> int
(** an aggregate counter out of the fleet document
    (e.g. ["fleet.wakeups"]); 0 when absent *)

val print_summary : t -> unit
(** collector-side human rendering (shard workers never print) *)
