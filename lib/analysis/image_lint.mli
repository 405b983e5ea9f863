(** Dataflow passes over a recovered guest-image CFG ({!Cfg}):
    reachability/dead code, untranslatable-instruction census,
    worst-case stack-depth bound against the M3 stack budget, and the
    indirect-call audit.

    Severity policy: a finding is an {!Finding.Error} only when it would
    make offloaded execution wrong or crash the peripheral core (stack
    overrun, undecodable word on a reachable path); expected properties
    of ARK's design — fallback sites, dead fragments, indirect calls —
    are reported as census ([Warning]/[Info]) so the CI gate tracks them
    without failing the build. *)

open Tk_isa.Types
module Asm = Tk_isa.Asm

val entry_symbols : Asm.image -> string list
(** entry points invoked from outside the image: boot/PM harness calls,
    the IRQ vector, ARK's upcall entry points and [*_init] fragments *)

val hot_entry_symbols : Asm.image -> string list
(** ARK's translated-execution entry points: reachability from here,
    with emulated/cold callees cut, is the hot path under DBT *)

val reachable_funcs :
  Cfg.t -> entries:string list -> cut:(string -> bool) ->
  (string, unit) Hashtbl.t
(** function-level call-graph reachability; [cut name] prunes the
    traversal at callees the DBT engine never translates into *)

val address_taken : Cfg.t -> string list
(** functions whose entry address escapes into data words or
    movw/movt pairs — conservatively callable through [blx reg] *)

val dead_code_findings : Cfg.t -> Finding.t list

val engine_mediated : inst -> bool
(** control flow the engine intercepts rather than sending through the
    translation rules *)

val fallback_census : Cfg.t -> (string, int) Hashtbl.t * Finding.t list
(** translation-category histogram over the code section plus findings
    for instructions that hit fallback (warning when on the hot path) *)

type frame = {
  fr_local : int;  (** max depth reached inside the function *)
  fr_calls : (int * int) list;  (** (depth at call site, callee addr) *)
  fr_unknown : bool;  (** SP modified unboundably *)
}

val frame_of : Cfg.t -> Cfg.func -> frame

type stack_bound = {
  sb_worst : int;  (** bytes, over all thread entry points *)
  sb_worst_entry : string;
  sb_irq : int;  (** extra bytes an IRQ adds on top *)
  sb_budget : int;  (** {!Tk_machine.Soc.stack_size} *)
  sb_findings : Finding.t list;
}

val stack_bound : Cfg.t -> stack_bound

val indirect_audit : Cfg.t -> Finding.t list

type report = {
  cfg : Cfg.t;
  census : (string * int) list;  (** translation-category histogram *)
  stack : stack_bound;
  findings : Finding.t list;
}

val lint : Asm.image -> report
(** run all image passes *)

val print_report : report -> unit
