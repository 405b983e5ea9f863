(** The DBT execution engine on the peripheral core.

    Owns the code cache (a region of shared DRAM), the guest->host block
    map, the site table, direct-branch patching ("chaining"), and the
    host execution loop — a V7M interpreter charged against the M3 core
    model, fetching emitted words through the M3's cache. Every tier
    runs the same loop; the superblock tier only adds block-boundary
    work and fused macro-op issue.

    The engine is policy-free: ARK supplies {!callbacks} for emulated
    services, hooks, guest hypercalls, interrupt windows and fallback.
    Callbacks may raise to take control; the engine always leaves the
    context's host pc at the correct resume point first. *)

open Tk_isa
open Tk_machine

type callbacks = {
  mutable on_emu : string -> Exec.cpu -> unit;
  mutable on_hook : string -> Exec.cpu -> unit;
  mutable on_guest_svc : int -> Exec.cpu -> unit;
  mutable on_fallback :
    string -> guest_pc:int -> skippable:bool -> Exec.cpu -> unit;
      (** returning normally skips the cold call (drain mode) *)
  mutable on_irq_window : Exec.cpu -> unit;
      (** invoked at translation-block boundaries (§4.2) *)
  mutable on_gic_access : write:bool -> int -> int -> int;
      (** MPU-fault emulation of the CPU's interrupt controller:
          [on_gic_access ~write addr value] returns the read value *)
}

exception Context_exit
(** the context returned to {!Layout.exit_magic}: its entry call is done *)

exception Host_error of string
(** engine invariant violation (bad host fetch, cache overflow, ...) *)

exception Quantum
(** the M3 clock reached [deadline_ns] (bounded-quantum lockstep): the
    run loop unwound at its next loop-head probe (after a control
    transfer or a callback pc override) with the context's pc saved,
    so a later {!run} with the same cpu resumes exactly where it
    stopped. Never raised while [deadline_ns = max_int] (the default). *)

val undecoded : Types.inst
(** distinguished not-yet-decoded marker filling empty [host_decode]
    slots; compared by physical equality, never executed *)

type t = {
  soc : Soc.t;
  mode : Translator.mode;
  tr : Tk_stats.Trace.t;  (** the platform flight recorder, cached *)
  mutable classify_target : int -> Translator.target_class;
  cb : callbacks;
  mutable cursor : int;  (** code-cache allocation point *)
  block_map : (int, int) Hashtbl.t;  (** guest block start -> host addr *)
  block_starts : (int, int) Hashtbl.t;  (** host block start -> guest *)
  sites : (int, Translator.site_info) Hashtbl.t;  (** host addr -> site *)
  host_points : (int, int) Hashtbl.t;
      (** host addr -> guest addr for every point that can appear in a
          saved context or on the stack — fallback's rewrite map (§5.3) *)
  host_decode : Types.inst array;
      (** dense pre-decoded code cache, indexed by
          [(addr - Soc.code_cache_base) / 4]; populated at emission and
          patch time, read by the hot loop as one array load; empty
          slots hold the physically distinguished {!undecoded} sentinel *)
  block_start : bool array;
      (** dense membership set mirroring [block_starts] (same indexing),
          probed after every control transfer for the IRQ window *)
  mutable cur_pc : int;  (** host address of the executing instruction *)
  mutable pc_overridden : bool;
  mutable run_pc : int;
      (** first instruction of the stretch [run_pc .. cur_pc] whose
          retire accounting the run loop still owes ([cur_pc + 4] when
          nothing is owed); see the run loop's header *)
  mutable pc_limit : int;
      (** last address the stretch may reach unbooked without an event
          falling due ([min_int] while recording: every retire booked) *)
  mutable fetch_line : int;
      (** cache line the I-fetch tag check last found resident, [-1]
          after anything that may have evicted it *)
  mutable chain : bool;  (** patch direct branches (ablation knob) *)
  mutable block_limit : int;  (** guest instructions per block *)
  mutable irq_dispatch : bool;  (** ARK's spinlock emulation pauses this *)
  mutable env : Exec.env;
      (** host memory environment; accesses emit to the flight recorder
          only while it is enabled *)
  mutable guest_translated : int;
  mutable host_emitted : int;
  mutable blocks : int;
  mutable engine_exits : int;
  mutable patches : int;
  mutable host_executed : int;
  mutable translate_cycles : int;
      (** simulated M3 cycles charged for translation / trace formation;
          a monotone attribution gauge for the span tracer *)
  mutable profile : bool;
      (** count dispatch slow-path entries per block (host-side
          observability; simulated charges are unaffected) *)
  block_exec : int array;
      (** per-block execution count (same indexing as [block_start]),
          bumped on every block entry *)
  block_dispatch : (int, int) Hashtbl.t;
  block_size : (int, int * int) Hashtbl.t;
  (* superblock tier (above Ark; cycle-accounted, not cycle-neutral) *)
  mutable superblock : bool;
      (** enable the superblock tier's boundary work in the run loop:
          trace formation over hot block chains, macro-op fusion marks,
          and the store-invalidation probe. Only meaningful with
          [mode = Ark]. *)
  mutable sb_threshold : int;
      (** block executions before its chain is considered for formation *)
  mutable sb_max_blocks : int;  (** max constituent blocks per trace *)
  block_succ : (int, int) Hashtbl.t;
      (** guest block start -> always-taken successor *)
  formed : (int, unit) Hashtbl.t;
      (** guest heads already considered for formation (one-shot) *)
  fuse_next : bool array;
      (** same dense indexing as [host_decode]: word [i] issues fused
          with word [i+1] (Table 4 macro-op idioms) *)
  guest_cover : Bytes.t;
      (** per kernel-image word: non-zero if some translation consumed
          it — the multi-block store-invalidation map *)
  mutable pending_flush : bool;
      (** a guest store hit covered code; the cache is evicted at the
          next block/trace boundary *)
  mutable traces_formed : int;
  mutable fusions_applied : int;
  mutable invalidations : int;  (** covered words hit by guest stores *)
  mutable flushes : int;  (** whole-cache evictions performed *)
  (* static-analysis product consumed by the tier *)
  mutable sb_certify : (Superblock.plan -> bool) option;
      (** online trace certifier: a formed plan is admitted only if
          the hook proves it equivalent to its constituent blocks;
          [None] (default) admits everything *)
  mutable certify_rejects : int;  (** plans refused by [sb_certify] *)
  mutable deadline_ns : int;
      (** bounded-quantum lockstep: the run loop raises {!Quantum} at
          the first resumable point once the M3 clock reaches this
          absolute time. [max_int] (default) = run to completion. The
          scheduler clears it around nested context runs (IRQ delivery,
          fallback draining), which must finish indivisibly. *)
}

val cost_taken_branch : int
(** extra cycles per taken branch on the prediction-less M3 *)

val create : soc:Soc.t -> mode:Translator.mode -> unit -> t

val in_cache : t -> int -> bool
(** is the address inside the emitted code cache? *)

val translate_block : t -> int -> int
(** [translate_block t gpc] — host address of the block at guest [gpc],
    translating and emitting on demand *)

val entry_host : t -> int -> int
(** alias of {!translate_block} for starting contexts *)

val guest_reg : t -> Exec.cpu -> int -> int
(** read guest register [i] under the engine's mode (pass-through,
    scratch-emulated or env-emulated) *)

val set_guest_reg : t -> Exec.cpu -> int -> int -> unit

val guest_point_of_host : t -> int -> int option
(** guest address for a saved host resume point (fallback migration) *)

val run : t -> Exec.cpu -> fuel:int -> unit
(** [run t cpu ~fuel] executes translated code until the context returns
    to {!Layout.exit_magic} (raising {!Context_exit}) or a callback
    raises; [cpu] is mutated in place and is always at a valid resume
    point when callbacks fire.
    @raise Host_error on engine errors or fuel exhaustion
    @raise Quantum at a control transfer once the M3 clock reaches
    [deadline_ns] *)

(** One row of the hot-block profiler (see {!profile_blocks}). *)
type block_profile = {
  bp_guest : int;  (** guest block start address *)
  bp_host : int;  (** host (code-cache) block start address *)
  bp_execs : int;  (** times the hot loop entered this block *)
  bp_dispatches : int;  (** entries through the dispatch slow path *)
  bp_guest_insts : int;  (** guest instructions translated *)
  bp_host_words : int;  (** host words emitted (incl. engine sites) *)
}

val chain_rate : block_profile -> float
(** fraction of block entries that arrived via a chained direct branch
    rather than the dispatch slow path *)

val profile_blocks : t -> block_profile list
(** per-block profile rows, hottest first; [bp_dispatches] (and so
    {!chain_rate}) is only meaningful after a run with [profile] set *)
