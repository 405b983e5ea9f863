(** Whole-image abstract interpretation proving SMC-clean regions: a
    light interval/stack-relative domain over the recovered {!Cfg}
    classifies every store's target; guest words whose instruction
    cannot write into the image's code section are {e SMC-clean}, and
    self-modifying code is by construction unclean. [arksim analyze
    --absint] reports the store-target census, per-function verdicts
    and the merged clean ranges; the engine does not consume them (its
    store-invalidation probe runs on every image-window store). *)

open Tk_isa
open Tk_isa.Types

(** Abstract register value. *)
type aval =
  | Top
  | Const of int  (** the register holds the literal *)
  | SpRel of int  (** [sp_at_block_entry + k] *)

(** Store-target classes (census + cleanliness verdicts). *)
type store_class =
  | C_stack  (** SP-relative, SP-discipline intact *)
  | C_code  (** inside the image's code section: SMC evidence *)
  | C_image_data  (** image window, past the code section *)
  | C_ram  (** RAM outside the probe window (pool, env, stacks) *)
  | C_mmio  (** device/GIC register space *)
  | C_unknown  (** target not provable *)

val class_name : store_class -> string

val transfer : aval array -> inst -> unit
(** register effects of one instruction on the abstract state
    (index 13 = SP); conditional writes go to [Top] *)

val store_spans :
  aval array -> inst -> [ `Stack | `Span of int * int | `Unknown ] option
(** the [\[lo, hi)] byte span the instruction may store to, [`Stack]
    for SP-relative targets, [`Unknown] for unbounded ones, [None] when
    it does not store; evaluated on the {e pre}-state *)

val classify_span : Asm.image -> int * int -> store_class

type fverdict = {
  v_name : string;
  v_entry : int;
  v_size : int;  (** code bytes, [\[v_entry, v_entry + v_size)] *)
  v_stores : int;
  v_clean : bool;  (** no store can reach the image's code section *)
  v_frame : int;  (** deepest static SP displacement seen (bytes) *)
  v_first_unclean : string option;  (** site + disassembly, for findings *)
}

type report = {
  a_funcs : fverdict list;  (** address order *)
  a_clean : int;
  a_hist : (string * int) list;  (** store-target histogram, whole image *)
  a_clean_ranges : (int * int) list;
      (** merged [\[lo, hi)] guest ranges of clean {e words}.
          Word-granular: one pointer-chased store only disqualifies its
          own word, not its whole function. *)
  a_max_frame : int;
  findings : Finding.t list;
}

val sp_trusted : Cfg.t -> Cfg.func -> bool
(** is every SP write in the function a push/pop or [sp +- #imm]
    ({!Image_lint.stack_delta}-bounded)? *)

val analyze : Cfg.t -> report
(** classify every store in every function, produce per-function
    SMC-clean verdicts and the merged clean-range list *)

val clean_words : report -> int
(** guest words covered by the clean ranges *)

val print_report : report -> unit
