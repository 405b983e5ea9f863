(** Guest-native interpreter: the CPU executing V7A kernel code directly.

    This is the paper's "native execution" arm: the monolithic kernel
    running device suspend/resume on the Cortex-A9. The loop fetches
    encoded words from DRAM (through the A9's cache model), decodes them
    (memoized), executes via {!Tk_isa.Exec} and charges cycles; pending
    GIC interrupts vector to the kernel's IRQ entry stub between
    instructions.

    Decode memoization is a {e dense pre-decoded array} over the guest
    kernel image span ([Soc.kernel_base ..) — fetch-decode is one array
    load, and the self-modifying-store invalidation is an O(1) array
    write (covering {e both} words touched by a store that straddles a
    word boundary). Fetches outside the image span (none in practice)
    fall back to a hashtable. All of this is host-side speed only: the
    simulated cycle/traffic counters are bit-identical to the lazy
    hashtable scheme (pinned by test/test_neutrality.ml).

    Guest [SVC] is used as a simulation hypercall (halt / platform-off /
    console), dispatched to the embedding runner through [on_svc]. *)

open Tk_isa
module Trace = Tk_stats.Trace

exception Halt of string  (** raised by hypercalls to end a run *)

exception Fault of string  (** simulation bug: deadlock, bad fetch, ... *)

(* The dense decode array covers where kernel code lives: the image
   region below the page pool. *)
let dense_base = Soc.kernel_base
let dense_top = Soc.page_pool_base
let dense_words = (dense_top - dense_base) / 4

type t = {
  soc : Soc.t;
  core : Core.t;
  tr : Trace.t;  (** the platform flight recorder, cached *)
  cpu : Exec.cpu;
  decode : Types.inst option array;  (** dense, indexed by image word *)
  decode_cache : (int, Types.inst) Hashtbl.t;  (** out-of-span fallback *)
  mutable env : Exec.env;
      (** guest memory environment; accesses emit to the flight
          recorder only while it is enabled *)
  mutable irq_vector : int;  (** guest address of the IRQ entry stub *)
  mutable irq_saved : (int * int) list;  (** (return pc, flags) *)
  mutable on_svc : t -> Exec.cpu -> int -> unit;
}

let dummy_env : Exec.env =
  { load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
    svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
    undef = (fun _ _ -> ()) }

let in_dense = Soc.in_kernel_image

let create ~(soc : Soc.t) () =
  let core = soc.cpu in
  let tr = soc.trace in
  let t =
    { soc; core; tr; cpu = Exec.make_cpu ();
      decode = Array.make dense_words None;
      decode_cache = Hashtbl.create 64;
      env = dummy_env; irq_vector = 0; irq_saved = [];
      on_svc = (fun _ _ _ -> ()) }
  in
  let mem = soc.mem in
  (* flight-recorder emission is one branch on the recorder's enable
     bit per access; emission never charges simulated cycles *)
  let load addr nbytes =
    if Mem.in_ram mem addr then begin
      let stall = Cache.access core.cache ~write:false addr in
      Core.charge_stall core stall;
      if tr.Trace.enabled then
        Trace.emit tr ~core:Trace.core_cpu Trace.ev_read addr stall;
      if nbytes = 4 then Mem.ram_read32 mem addr
      else Mem.ram_read mem addr nbytes
    end
    else begin
      Core.charge core core.p.mmio_penalty;
      if tr.Trace.enabled then
        Trace.emit tr ~core:Trace.core_cpu
          Trace.ev_read addr core.p.mmio_penalty;
      Mem.read mem addr nbytes
    end
  in
  (* self-modifying code safety: drop any stale decode for a word the
     store touches. A store may straddle a word boundary (e.g. a 4-byte
     store at an unaligned address), so both affected words are
     invalidated. Dropping a cached entry is reported to the flight
     recorder (a self-modifying-code signal). *)
  let invalidate_word w =
    if in_dense w then begin
      let idx = (w - dense_base) asr 2 in
      if tr.Trace.enabled && Array.unsafe_get t.decode idx <> None then
        Trace.emit tr ~core:Trace.core_cpu Trace.ev_invalidate w 0;
      Array.unsafe_set t.decode idx None
    end
    else begin
      if tr.Trace.enabled && Hashtbl.mem t.decode_cache w then
        Trace.emit tr ~core:Trace.core_cpu Trace.ev_invalidate w 0;
      Hashtbl.remove t.decode_cache w
    end
  in
  let store addr nbytes v =
    if Mem.in_ram mem addr then begin
      let stall = Cache.access core.cache ~write:true addr in
      Core.charge_stall core stall;
      if tr.Trace.enabled then
        Trace.emit tr ~core:Trace.core_cpu Trace.ev_write addr stall;
      let w0 = addr land lnot 3 in
      invalidate_word w0;
      let w1 = (addr + nbytes - 1) land lnot 3 in
      if w1 <> w0 then invalidate_word w1;
      if nbytes = 4 then Mem.ram_write32 mem addr v
      else Mem.ram_write mem addr nbytes v
    end
    else begin
      Core.charge core core.p.mmio_penalty;
      if tr.Trace.enabled then
        Trace.emit tr ~core:Trace.core_cpu
          Trace.ev_write addr core.p.mmio_penalty;
      Mem.write mem addr nbytes v
    end
  in
  let wfi _cpu =
    if not (Core.idle_until_event core) then
      raise (Fault "WFI with no pending event: platform deadlock")
  in
  let irq_ret cpu =
    match t.irq_saved with
    | [] -> raise (Fault "IRQ return with empty saved-context stack")
    | (ret_pc, flags) :: rest ->
      t.irq_saved <- rest;
      cpu.Exec.r.(Types.pc) <- ret_pc;
      Exec.set_flags_word cpu flags;
      cpu.Exec.irq_on <- true
  in
  let undef _cpu inst =
    raise (Fault (Printf.sprintf "undefined instruction: %s" (Types.to_string inst)))
  in
  let svc cpu n = t.on_svc t cpu n in
  t.env <- { load; store; svc; wfi; irq_ret; undef };
  t

(** [set_pc t addr] positions the next fetch. *)
let set_pc t addr = t.cpu.Exec.r.(Types.pc) <- addr

let decode_word t addr =
  let w = Mem.ram_read32 t.soc.mem addr in
  try V7a.decode w
  with V7a.Decode_error _ | Invalid_argument _ ->
    raise (Fault (Printf.sprintf "bad fetch at 0x%x (word 0x%x)" addr w))

let fetch_decode t addr =
  if in_dense addr && addr land 3 = 0 then begin
    let idx = (addr - dense_base) asr 2 in
    match Array.unsafe_get t.decode idx with
    | Some i -> i
    | None ->
      let i = decode_word t addr in
      Array.unsafe_set t.decode idx (Some i);
      i
  end
  else
    match Hashtbl.find_opt t.decode_cache addr with
    | Some i -> i
    | None ->
      let i = decode_word t addr in
      Hashtbl.add t.decode_cache addr i;
      i

let deliver_irq t =
  let cpu = t.cpu in
  t.irq_saved <- (cpu.Exec.r.(Types.pc), Exec.flags_word cpu) :: t.irq_saved;
  cpu.Exec.irq_on <- false;
  cpu.Exec.r.(Types.pc) <- t.irq_vector

(* one step with the tracing decision hoisted by the caller (tracing
   never toggles while guest code is executing), so the disabled path
   tests only an immutable register-resident bool *)
let step_one t traced =
  let cpu = t.cpu in
  if cpu.Exec.irq_on && Intc.deliverable t.soc.fabric.gic then
    deliver_irq t;
  let addr = Array.unsafe_get cpu.Exec.r Types.pc in
  if not (Mem.in_ram t.soc.mem addr) then
    raise (Fault (Printf.sprintf "PC outside RAM: 0x%x" addr));
  let i = fetch_decode t addr in
  Core.retire t.core addr;
  if traced then
    Trace.emit t.tr ~core:Trace.core_cpu Trace.ev_retire addr 0;
  match Exec.step cpu t.env ~addr i with
  | Exec.Next -> Array.unsafe_set cpu.Exec.r Types.pc (addr + 4)
  | Exec.Branched -> ()

(** [step t] executes one instruction (delivering a pending enabled IRQ
    first). *)
let step t =
  step_one t t.tr.Trace.enabled;
  let ts = t.soc.Soc.sampler in
  if ts.Tk_stats.Timeseries.enabled then Tk_stats.Timeseries.tick ts

(** [run_until t ~deadline ~fuel] — bounded-quantum slice of {!run}:
    step until the core's clock reaches absolute time [deadline], then
    return normally (the next call resumes at the saved pc — between
    instructions every interpreter state is a resume point). {!Halt}
    still propagates when the guest finishes inside the slice. *)
let run_until t ~deadline ~fuel =
  let n = ref 0 in
  let traced = t.tr.Trace.enabled in
  (* telemetry sampler: same hoisting discipline as tracing — when
     sampling is off the loop only tests an immutable bool *)
  let ts = t.soc.Soc.sampler in
  let sampling = ts.Tk_stats.Timeseries.enabled in
  let clock = t.core.Core.clock in
  while clock.Clock.now < deadline do
    if !n >= fuel then
      raise (Fault (Printf.sprintf "fuel exhausted after %d instructions" fuel));
    incr n;
    step_one t traced;
    if sampling then Tk_stats.Timeseries.tick ts
  done

(** [run t ~fuel] steps until a hypercall raises {!Halt} (or [fuel]
    instructions elapse, which raises {!Fault} — a runaway guest). *)
let run t ~fuel =
  (* one execution-burst span per call; the unbounded slice only ever
     exits by exception (Halt / Fault) *)
  let p = t.soc.Soc.probe in
  let tok = Tk_stats.Probe.run_begin p ~core:Trace.core_cpu in
  match run_until t ~deadline:max_int ~fuel with
  | () -> Tk_stats.Probe.run_end p tok
  | exception e ->
    Tk_stats.Probe.run_end p tok;
    raise e
