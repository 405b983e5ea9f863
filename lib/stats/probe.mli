(** The SoC's single instrumentation handle: one call per layer
    boundary, fanned out to whichever of {!Trace}, {!Span} and
    {!Timeseries} is enabled.

    Built once per platform with the one simulated-time source the
    three recorders share. It also owns the start times of the latency
    spans (IRQ raise, power-ramp begin) and the slot of an execution
    burst cut by a scheduler quantum, so emitting modules keep no
    telemetry state. Per-access and per-instruction events (retire,
    read, write, invalidate, chain, the sampler tick) feed one sink
    each and stay direct recorder calls behind a hoisted enable bit.

    Simulation-neutral; with every sink off a call is loads and
    branches and allocates nothing (test/test_span.ml pins the fan-out
    and the zero allocation). *)

type t = {
  now : unit -> int;  (** simulated time (ns), shared with every sink *)
  trace : Trace.t;
  spans : Span.t;
  sampler : Timeseries.t;
  ramp_t0 : int array;
      (** device slot -> power-ramp start, -1 none; never live across a
          world snapshot (World.fork refuses mid-transition) *)
  cut : int array;  (** core -> slot of a quantum-cut burst, -1 none *)
}

(** [create ~now ~devices] builds the three recorders, disabled and
    wired to [now]; device slots range over [0, devices). *)
val create : now:(unit -> int) -> devices:int -> t

(** [phase p code] — phase mark: a recorder event and counter
    snapshot, a forced sampler row, and the span tracer's frames. *)
val phase : t -> int -> unit

(** One interrupt controller's attachment: the core it serves and the
    raise time of each pending line. *)
type irq

val irq : t -> core:int -> nlines:int -> irq

(** Attached to no platform: every sink permanently off. *)
val irq_detached : irq

(** [irq_raise c line]: an [irq-raise] event; starts the line's
    delivery-latency span. *)
val irq_raise : irq -> int -> unit

(** [irq_ack c line]: an [irq-deliver] event and the async
    [irq-deliver] span since the raise. *)
val irq_ack : irq -> int -> unit

(** [ramp_begin p ~dev]: device slot [dev] starts a power-rail
    transition. *)
val ramp_begin : t -> dev:int -> unit

(** [ramp_end p ~dev ~on]: a [power] event and the async [power-ramp]
    span since {!ramp_begin}. *)
val ramp_end : t -> dev:int -> on:bool -> unit

(** {2 Bursts}

    Each [_begin] returns the token for its [_end], [-1] when the span
    tracer is off. The DBT bursts run on the peripheral core:
    translation of a [guest]-instruction block is a coalesced
    [dbt-translate] span closed by a [translate] event for [gpc];
    superblock formation a [dbt-form] span and a [form] event. *)

val translate_begin : t -> guest:int -> int
val translate_end : t -> int -> gpc:int -> guest:int -> unit
val form_begin : t -> guest:int -> int
val form_end : t -> int -> head:int -> guest:int -> unit

(** [run_begin p ~core] opens an interpreter / DBT execution burst
    ([run] span), reopening the burst {!run_cut} left on [core] so a
    quantum-sliced run records the same spans as an uncut one. *)
val run_begin : t -> core:int -> int

val run_end : t -> int -> unit

(** [run_cut p ~core tok] closes the burst at a quantum cut, keeping
    its slot for the next {!run_begin} on [core]. *)
val run_cut : t -> core:int -> int -> unit

(** [run_uncut p ~core] forgets a pending cut: the next burst is new. *)
val run_uncut : t -> core:int -> unit
