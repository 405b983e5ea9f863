(** Guest-native interpreter: the CPU executing V7A kernel code directly.

    This is the paper's "native execution" arm: the monolithic kernel
    running device suspend/resume on the Cortex-A9. The loop fetches
    encoded words from DRAM (through the A9's cache model), decodes them
    (memoized in a dense pre-decoded array) and executes them via
    {!Tk_isa.Exec}; retire accounting is booked per stretch of
    instructions, exactly as per-instruction charging would leave it.
    Pending GIC interrupts vector to the kernel's IRQ entry stub between
    instructions. Self-modifying stores invalidate the pre-decoded
    entries they touch.

    Guest [SVC] is used as a simulation hypercall (halt / platform-off /
    console), dispatched to the embedding runner through [on_svc]. *)

open Tk_isa

exception Halt of string  (** raised by hypercalls to end a run *)

exception Fault of string  (** simulation bug: deadlock, bad fetch, ... *)

type t = {
  soc : Soc.t;
  core : Core.t;
  tr : Tk_stats.Trace.t;  (** the platform flight recorder, cached *)
  cpu : Exec.cpu;
  decode : Types.inst option array;  (** dense, indexed by image word *)
  decode_cache : (int, Types.inst) Hashtbl.t;  (** out-of-span fallback *)
  mutable env : Exec.env;
      (** guest memory environment; accesses emit to the flight
          recorder only while it is enabled *)
  mutable irq_vector : int;  (** guest address of the IRQ entry stub *)
  mutable irq_saved : (int * int) list;  (** (return pc, flags) *)
  mutable on_svc : t -> Exec.cpu -> int -> unit;
  (* the unbooked stretch, internal to the run loop; empty between
     slices *)
  mutable owed : int;  (** instructions retired since the last booking *)
  mutable limit : int;
      (** how many instructions may retire unbooked (0 in exact mode) *)
  mutable fetch_line : int;  (** last I-fetch line found resident, or -1 *)
  mutable deadline : int;  (** the running slice's deadline *)
  mutable fuel_left : int;  (** the running slice's fuel, minus bookings *)
}

val create : soc:Soc.t -> unit -> t

(** [set_pc t addr] positions the next fetch. *)
val set_pc : t -> int -> unit

(** [step t] executes one instruction (delivering a pending enabled IRQ
    first), booked at its retire. *)
val step : t -> unit

(** [run t ~fuel] steps until a hypercall raises {!Halt} (or [fuel]
    instructions elapse, which raises {!Fault} — a runaway guest): the
    {!run_until} loop with no deadline. *)
val run : t -> fuel:int -> unit

(** [run_until t ~deadline ~fuel] — bounded-quantum slice of {!run}:
    step until the core's clock reaches absolute time [deadline], then
    return normally; the next call resumes at the saved pc. {!Halt}
    still propagates when the guest finishes inside the slice. It stops
    at the same instruction, with the same counters and clock, as a
    loop that charged each instruction and tested [now < deadline]
    before the next: the deadline is one more bound on the stretch
    (with the next clock event and the fuel), so no instruction reads
    the clock until that bound is reached. *)
val run_until : t -> deadline:int -> fuel:int -> unit
