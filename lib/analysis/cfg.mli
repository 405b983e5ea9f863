(** Control-flow graph recovery over a linked guest image: decode the
    code section back into the shared AST, split it into basic blocks at
    fragment entries, branch targets and control-flow terminators, and
    expose the site classes the dataflow passes ({!Image_lint},
    {!Certify}) consume. *)

open Tk_isa
open Tk_isa.Types

(** One decoded code-section slot. *)
type slot =
  | Inst of inst
  | Data of int  (** word that does not decode as V7A *)

(** How a basic block ends (mirrors the DBT engine's interception set:
    the translator ends translation units at exactly these shapes). *)
type terminator =
  | Fallthrough  (** next block is a leader (branch target / fragment) *)
  | Jump of int  (** unconditional [b]: one successor *)
  | Cond_jump of int * int  (** conditional branch: (taken, fallthrough) *)
  | Call of int * int  (** [bl]: (callee, return successor) *)
  | Indirect_call of int  (** [blx reg]: unknown callee, return successor *)
  | Ret  (** [bx], pc-writing [ldm]/[pop] or data-processing, [irqret] *)
  | Stop  (** [udf] or undecodable word: execution cannot continue *)

type block = {
  b_start : int;  (** address of the first instruction *)
  b_insts : (int * inst) list;  (** (address, instruction), ascending *)
  b_term : terminator;
  b_succs : int list;
      (** intra-procedural successor block addresses (calls fall through
          to their return site; callees are {e not} successors) *)
}

type func = {
  f_name : string;
  f_entry : int;
  f_size : int;  (** code bytes *)
}

type t = {
  image : Asm.image;
  slots : slot array;  (** code section, word-indexed from [image.base] *)
  blocks : block list;  (** ascending by [b_start] *)
  block_at : (int, block) Hashtbl.t;
  funcs : func list;  (** link order = address order *)
}

val code_words : Asm.image -> int
val in_code : Asm.image -> int -> bool
(** word-aligned address inside the image's code section? *)

val slot_at : t -> int -> slot option
val writes_pc : inst -> bool

val classify_inst : int -> inst -> (terminator * int list) option
(** terminator + raw successor addresses for an instruction at [addr],
    or [None] when control falls through *)

val build : Asm.image -> t
(** decode and block-structure the code section *)

val func_of_addr : t -> int -> func option
val func_blocks : t -> func -> block list
(** the blocks whose start lies inside the fragment, address order *)

val call_sites : t -> func -> (int * int) list
(** [(site, callee)] for every direct [bl] in the function *)

val indirect_sites : t -> func -> int list
(** addresses of [blx reg] sites in the function *)

val inst_count : t -> int
(** decoded-instruction count (excludes data words) *)

val data_count : t -> int
val edge_count : t -> int
val print_summary : t -> unit
