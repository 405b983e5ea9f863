(** Shared currency of the static verification layer: one {e finding}
    per rule divergence, CFG lint hit, ABI violation or trace-certifier
    divergence.

    Every analysis pass reduces to a list of findings; the
    [arksim analyze] driver renders them as a human table and/or JSONL,
    and the CI gate fails when any {!Error}-severity finding survives.
    The record is flat and stringly so the JSON schema stays stable
    across passes. *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type t = {
  pass : string;
      (** producing pass: ["rules"], ["cfg"], ["abi"] or ["certify"] *)
  severity : severity;
  code : string;  (** stable machine tag, e.g. ["rule-divergence"] *)
  where : string;  (** instruction form or [symbol+0xoff] site *)
  detail : string;  (** human explanation, one line *)
}

val v :
  pass:string -> severity:severity -> code:string -> where:string ->
  string -> t

val errors : t list -> t list
val warnings : t list -> t list

val to_json : ?extra:(string * string) list -> t -> string
(** one JSONL record
    [{"pass":..,"severity":..,"code":..,"where":..,"detail":..}], with
    [extra] [(key, value)] string fields prepended (the analyze driver
    tags findings with the kernel variant this way) *)

val print_table : ?title:string -> t list -> unit
(** render through {!Tk_stats.Report}, errors first; no-op on [] *)
