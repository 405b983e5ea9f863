(** Guest-native interpreter: the CPU executing V7A kernel code directly.

    This is the paper's "native execution" arm: the monolithic kernel
    running device suspend/resume on the Cortex-A9. The loop fetches
    encoded words from DRAM (through the A9's cache model), decodes them
    (memoized) and executes them via {!Tk_isa.Exec}; retire accounting
    (instructions, cycles, time) is booked per stretch of instructions,
    exactly as per-instruction charging would leave it (see
    {!run_until}). Pending GIC interrupts vector to the kernel's IRQ
    entry stub between instructions.

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
  (* the unbooked stretch: see {!run_until}. Between slices it is
     empty: [owed = 0] and [fetch_line = -1], as after every booking *)
  mutable owed : int;  (** instructions retired since the last booking *)
  mutable limit : int;
      (** how many instructions may retire unbooked before the clock
          could reach its next event or the slice's deadline (0 in
          exact mode) *)
  mutable fetch_line : int;
      (** cache line the I-fetch tag check last found resident, [-1]
          after anything that may have evicted it *)
  mutable deadline : int;  (** the running slice's deadline *)
  mutable fuel_left : int;  (** the running slice's fuel, minus bookings *)
}

let dummy_env : Exec.env =
  { load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
    svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
    undef = (fun _ _ -> ()) }

let[@inline] in_dense addr = addr >= dense_base && addr < dense_top

(* ------------------------ stretch booking --------------------------- *)

(* [set_limit t] — how many more instructions may retire unbooked:
   {!Core.horizon} against the slice's deadline, capped by its fuel, or
   0 (book every instruction) while the trace or the sampler is
   recording, since both read time and counters per instruction *)
let set_limit t =
  t.limit <-
    (if t.tr.Trace.enabled || t.soc.Soc.sampler.Tk_stats.Timeseries.enabled
     then 0
     else
       let h = Core.horizon t.core ~deadline:t.deadline in
       if h < t.fuel_left then h else t.fuel_left)

(* [book t ~imiss ~stall ~extra] — at a point where the per-instruction
   path charged the clock: book the [owed] instructions (their last
   [imiss] I-fetches missed, [stall] cycles) plus [extra] cycles in one
   {!Core.book}, which fires whatever falls due. The stretch is emptied
   before the clock runs, so an event handler that raises cannot get it
   booked twice. The caller recomputes the limit before the next
   instruction. *)
let book t ~imiss ~stall ~extra =
  let k = t.owed in
  t.owed <- 0;
  t.fetch_line <- -1;
  t.fuel_left <- t.fuel_left - k;
  Core.book t.core ~k ~imiss ~stall ~extra

(* [sync t] — book what the stretch owes where the per-instruction path
   charged nothing beyond the retires themselves *)
let sync t =
  if t.owed > 0 then book t ~imiss:0 ~stall:0 ~extra:0;
  set_limit t

(* I-fetch tag check on a line change, for the instruction just counted
   into the stretch: a hit makes the line current (every fetch from it
   hits until something books); a miss books the stretch through this
   instruction with the miss's stall, where the per-instruction path
   charged it. The exact retire lives here too: an instruction the
   limit does not cover is booked at its retire. Such an instruction
   follows a loop-head booking or opens a {!step}; either way the fetch
   line is forgotten, so the check runs. *)
let check_fetch_line t addr =
  let cache = t.core.Core.cache in
  let line = addr lsr cache.Cache.line_bits in
  let set = Cache.set_of cache line in
  if Array.unsafe_get cache.Cache.tags set = line then begin
    t.fetch_line <- line;
    if t.owed > t.limit then sync t
  end
  else begin
    let stall = Cache.access cache ~write:false addr in
    book t ~imiss:1 ~stall ~extra:0;
    set_limit t
  end

(* a data access that missed the tag check: the full access books the
   miss, then the stretch is booked with its stall *)
let data_miss t ~write addr =
  let stall = Cache.access t.core.Core.cache ~write addr in
  book t ~imiss:0 ~stall ~extra:0;
  set_limit t;
  if t.tr.Trace.enabled then
    Trace.emit t.tr ~core:Trace.core_cpu
      (if write then Trace.ev_write else Trace.ev_read)
      addr stall

(* an uncached device access: the device may read the clock and
   schedule events, so the stretch is booked with the penalty before it
   and the caller recomputes the limit after it *)
let mmio_book t ~write addr =
  let penalty = t.core.Core.p.Core.mmio_penalty in
  book t ~imiss:0 ~stall:0 ~extra:penalty;
  if t.tr.Trace.enabled then
    Trace.emit t.tr ~core:Trace.core_cpu
      (if write then Trace.ev_write else Trace.ev_read)
      addr penalty

let create ~(soc : Soc.t) () =
  let core = soc.cpu in
  let tr = soc.trace in
  let mem = soc.mem in
  (* the dense fast path of [fetch_decode] skips the in-RAM pc test *)
  if not (Mem.in_ram mem dense_base && Mem.in_ram mem (dense_top - 1)) then
    invalid_arg "Interp.create: kernel image span outside RAM";
  let t =
    { soc; core; tr; cpu = Exec.make_cpu ();
      decode = Array.make dense_words None;
      decode_cache = Hashtbl.create 64;
      env = dummy_env; irq_vector = 0; irq_saved = [];
      on_svc = (fun _ _ _ -> ());
      owed = 0; limit = 0; fetch_line = -1; deadline = max_int;
      fuel_left = max_int }
  in
  let cache = core.Core.cache in
  let tags = cache.Cache.tags in
  let line_bits = cache.Cache.line_bits in
  (* The RAM hit path — [Cache.access] and [Core.charge_stall core 0],
     inlined — books nothing: a hit costs no cycles, and the limit keeps
     the unbooked stretch short of [next_at], so the clock test sees
     what the booked clock would. Flight-recorder emission is one branch
     on the recorder's enable bit per access; emission never charges
     simulated cycles. *)
  let load addr nbytes =
    if Mem.in_ram mem addr then begin
      let line = addr lsr line_bits in
      if Array.unsafe_get tags (Cache.set_of cache line) = line then begin
        cache.Cache.hits <- cache.Cache.hits + 1;
        let clock = core.Core.clock in
        if clock.Clock.next_at <= clock.Clock.now then Clock.run_due clock;
        if tr.Trace.enabled then
          Trace.emit tr ~core:Trace.core_cpu Trace.ev_read addr 0
      end
      else data_miss t ~write:false addr;
      if nbytes = 4 then Mem.ram_read32 mem addr
      else Mem.ram_read mem addr nbytes
    end
    else begin
      mmio_book t ~write:false addr;
      let v = Mem.read mem addr nbytes in
      set_limit t;
      v
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
      let line = addr lsr line_bits in
      let set = Cache.set_of cache line in
      if Array.unsafe_get tags set = line then begin
        cache.Cache.hits <- cache.Cache.hits + 1;
        Array.unsafe_set cache.Cache.dirty set true;
        let clock = core.Core.clock in
        if clock.Clock.next_at <= clock.Clock.now then Clock.run_due clock;
        if tr.Trace.enabled then
          Trace.emit tr ~core:Trace.core_cpu Trace.ev_write addr 0
      end
      else data_miss t ~write:true addr;
      let w0 = addr land lnot 3 in
      invalidate_word w0;
      let w1 = (addr + nbytes - 1) land lnot 3 in
      if w1 <> w0 then invalidate_word w1;
      if nbytes = 4 then Mem.ram_write32 mem addr v
      else Mem.ram_write mem addr nbytes v
    end
    else begin
      mmio_book t ~write:true addr;
      Mem.write mem addr nbytes v;
      set_limit t
    end
  in
  (* WFI and hypercalls read and move time: the stretch is booked before
     them, and the limit recomputed after (both may fire or schedule
     events) *)
  let wfi _cpu =
    if t.owed > 0 then book t ~imiss:0 ~stall:0 ~extra:0;
    if not (Core.idle_until_event core) then
      raise (Fault "WFI with no pending event: platform deadlock");
    set_limit t
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
  let svc cpu n =
    if t.owed > 0 then book t ~imiss:0 ~stall:0 ~extra:0;
    t.on_svc t cpu n;
    set_limit t
  in
  t.env <- { load; store; svc; wfi; irq_ret; undef };
  t

(** [set_pc t addr] positions the next fetch. *)
let set_pc t addr = t.cpu.Exec.r.(Types.pc) <- addr

let decode_word t addr =
  let w = Mem.ram_read32 t.soc.mem addr in
  try V7a.decode w
  with V7a.Decode_error _ | Invalid_argument _ ->
    raise (Fault (Printf.sprintf "bad fetch at 0x%x (word 0x%x)" addr w))

(* a pc outside the dense image span: the only fetch that tests the pc
   against RAM (the span lies inside RAM, checked by {!create}) *)
let fetch_outside t addr =
  if not (Mem.in_ram t.soc.mem addr) then
    raise (Fault (Printf.sprintf "PC outside RAM: 0x%x" addr));
  match Hashtbl.find_opt t.decode_cache addr with
  | Some i -> i
  | None ->
    let i = decode_word t addr in
    Hashtbl.add t.decode_cache addr i;
    i

let[@inline] fetch_decode t addr =
  if in_dense addr && addr land 3 = 0 then begin
    let idx = (addr - dense_base) asr 2 in
    match Array.unsafe_get t.decode idx with
    | Some i -> i
    | None ->
      let i = decode_word t addr in
      Array.unsafe_set t.decode idx (Some i);
      i
  end
  else fetch_outside t addr

let deliver_irq t =
  let cpu = t.cpu in
  t.irq_saved <- (cpu.Exec.r.(Types.pc), Exec.flags_word cpu) :: t.irq_saved;
  cpu.Exec.irq_on <- false;
  cpu.Exec.r.(Types.pc) <- t.irq_vector

(* one instruction, counted into the stretch; the tracing decision and
   the line size are hoisted by the caller (tracing never toggles while
   guest code is executing), so the disabled path tests only an
   immutable register-resident bool *)
let[@inline] step_one t traced line_bits =
  let cpu = t.cpu in
  if cpu.Exec.irq_on && Intc.deliverable t.soc.fabric.gic then
    deliver_irq t;
  let r = cpu.Exec.r in
  let addr = Array.unsafe_get r Types.pc in
  let i = fetch_decode t addr in
  t.owed <- t.owed + 1;
  if addr lsr line_bits <> t.fetch_line then check_fetch_line t addr;
  if traced then
    Trace.emit t.tr ~core:Trace.core_cpu Trace.ev_retire addr 0;
  match Exec.step cpu t.env ~addr i with
  | Exec.Next -> Array.unsafe_set r Types.pc (addr + 4)
  | Exec.Branched -> ()

(** [step t] executes one instruction (delivering a pending enabled IRQ
    first), booked at its retire. *)
let step t =
  t.limit <- 0;
  step_one t t.tr.Trace.enabled t.core.Core.cache.Cache.line_bits;
  let ts = t.soc.Soc.sampler in
  if ts.Tk_stats.Timeseries.enabled then Tk_stats.Timeseries.tick ts

(* [resync t ~fuel] — the slow half of the loop-head test: book what
   the stretch owes, then decide as the per-instruction loop did before
   each instruction: stop once the clock reaches the deadline, fault
   once [fuel] instructions have run *)
let resync t ~fuel =
  sync t;
  if t.core.Core.clock.Clock.now >= t.deadline then false
  else if t.fuel_left <= 0 then
    raise (Fault (Printf.sprintf "fuel exhausted after %d instructions" fuel))
  else true

(* the run loop: a top-level function, so a slice allocates nothing *)
let rec run_loop t ~fuel traced sampling line_bits =
  if t.owed < t.limit || resync t ~fuel then begin
    step_one t traced line_bits;
    if sampling then Tk_stats.Timeseries.tick t.soc.Soc.sampler;
    run_loop t ~fuel traced sampling line_bits
  end

(** [run_until t ~deadline ~fuel] — bounded-quantum slice of {!run}:
    step until the core's clock reaches absolute time [deadline], then
    return normally (the next call resumes at the saved pc — between
    instructions every interpreter state is a resume point). {!Halt}
    still propagates when the guest finishes inside the slice.

    Retire accounting is booked per stretch, not per instruction:
    - the stretch. [owed] counts the instructions retired since the
      last booking. The A9 has CPI 1 and no taken-branch charge, so a
      stretch runs across branches: it owes [owed] base cycles and
      [owed] I-fetch hits. One {!Core.book} books them: instruction,
      I-fetch hit and busy counts, the ps->ns carry, then the clock's
      due events.
    - book before anything observes time: on an I-fetch or data miss
      (with its stall), on an MMIO access (with the penalty), in [svc]
      and [wfi], at the limit and in the exception exit.
    - the limit. [limit] is {!Core.horizon} against the earlier of the
      next event and [deadline] (and capped by the fuel): while [owed]
      stays within it no event can fall due and the clock stays short
      of the deadline, so the per-instruction loop's [now < deadline]
      and fuel tests would pass without reading the clock. Past it the
      loop head books and tests exactly. It is recomputed after every
      booking and after every device access or hypercall.
    - I-fetch. The cache is direct-mapped, so once a line's tag check
      hits every fetch from it hits until another access could evict
      it; the tag check runs on a line change and after every booking.
    - exact mode. While the trace or the sampler records, [limit] is
      0: every instruction is booked at its retire, in this same loop.
    The deadline and fuel live in [t], where the memory environment
    recomputes the limit. *)
let run_until t ~deadline ~fuel =
  t.deadline <- deadline;
  t.fuel_left <- fuel;
  set_limit t;
  (* telemetry sampler: same hoisting discipline as tracing — when
     sampling is off the loop only tests an immutable bool *)
  try
    run_loop t ~fuel t.tr.Trace.enabled
      t.soc.Soc.sampler.Tk_stats.Timeseries.enabled
      t.core.Core.cache.Cache.line_bits
  with e ->
    if t.owed > 0 then book t ~imiss:0 ~stall:0 ~extra:0;
    raise e

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
