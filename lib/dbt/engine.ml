(** The DBT execution engine running on the peripheral core.

    Owns the code cache (a region of shared DRAM), the guest->host block
    map, the site table (engine trap points emitted by {!Translator}),
    direct-branch patching ("chaining"), and the host execution loop —
    a V7M interpreter charged against the M3 core model, fetching emitted
    words through the M3's 32 KB cache (whose thrashing is the DRAM story
    of §7.3). Every tier runs the same loop; the superblock tier only
    adds work at block boundaries (trace formation, flushes after guest
    self-modification) and fused macro-op issue.

    The engine is policy-free: ARK (the [transkernel] library) supplies
    callbacks for emulated services, hooks, guest hypercalls, interrupt
    windows and fallback. Callbacks may raise to take control; the
    engine always leaves the context's host pc at the correct resume
    point before invoking them. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
module Trace = Tk_stats.Trace

type callbacks = {
  mutable on_emu : string -> Exec.cpu -> unit;
  mutable on_hook : string -> Exec.cpu -> unit;
  mutable on_guest_svc : int -> Exec.cpu -> unit;
  mutable on_fallback :
    string -> guest_pc:int -> skippable:bool -> Exec.cpu -> unit;
      (** returning normally skips the cold call (drain mode) *)
  mutable on_irq_window : Exec.cpu -> unit;  (** at block starts *)
  mutable on_gic_access : write:bool -> int -> int -> int;
      (** MPU-fault emulation of the CPU interrupt controller (§4.2):
          [on_gic_access ~write addr value] returns the read value *)
}

exception Context_exit
exception Host_error of string

exception Quantum
(** The M3 clock reached [deadline_ns] (bounded-quantum lockstep): the
    run loop unwound at its next loop-head probe (after a control
    transfer or a callback pc override) with the context's pc saved,
    so a later [run] with the same cpu resumes exactly where it
    stopped. Never raised while [deadline_ns = max_int] (the default). *)

(** Distinguished not-yet-decoded marker for [host_decode] slots,
    compared by physical equality ([==]) and never executed. *)
let undecoded : inst = { cond = AL; op = Udf (-1) }

type t = {
  soc : Soc.t;
  mode : Translator.mode;
  tr : Trace.t;  (** the platform flight recorder, cached *)
  mutable classify_target : int -> Translator.target_class;
  cb : callbacks;
  (* code cache *)
  mutable cursor : int;
  block_map : (int, int) Hashtbl.t;  (** guest block start -> host addr *)
  block_starts : (int, int) Hashtbl.t;  (** host block start -> guest start *)
  sites : (int, Translator.site_info) Hashtbl.t;  (** host addr -> site *)
  host_points : (int, int) Hashtbl.t;
      (** host addr -> guest addr, for every host point that can appear
          in a saved context or on the stack (call return sites, svc
          resume points, block starts) — the map fallback migration uses
          to rewrite code-cache addresses (§5.3) *)
  host_decode : inst array;
      (** dense pre-decoded code cache, indexed by
          [(addr - Soc.code_cache_base) / 4]: populated at [write_host]
          time (so patching a site re-decodes it in place), read by the
          hot loop as one array load. Empty slots hold the physically
          distinguished {!undecoded} sentinel rather than an option, so
          the per-instruction fetch is a pointer compare with no [Some]
          indirection. Host-side speed only — the simulated charges are
          unchanged. *)
  block_start : bool array;
      (** dense membership set mirroring [block_starts], same indexing
          as [host_decode] — the hot loop's IRQ-window probe *)
  mutable cur_pc : int;  (** host address of the executing instruction *)
  mutable pc_overridden : bool;
  (* the unbooked stretch: see {!run_loop} *)
  mutable run_pc : int;
      (** first instruction of the stretch [run_pc .. cur_pc] whose retire
          accounting is still owed; [cur_pc + 4] when nothing is owed *)
  mutable pc_limit : int;
      (** last address the stretch may reach unbooked without an event
          falling due ([min_int] in exact mode) *)
  mutable fetch_line : int;
      (** cache line the I-fetch tag check last found resident, [-1]
          after anything that may have evicted it *)
  mutable chain : bool;
      (** patch direct branch/call sites into host branches (on by
          default; the no-chaining ablation turns it off) *)
  mutable block_limit : int;  (** guest instructions per block *)
  mutable irq_dispatch : bool;  (** ARK spinlock emulation pauses this *)
  mutable env : Exec.env;
      (** host memory environment; accesses emit to the flight recorder
          only while it is enabled *)
  (* statistics *)
  mutable guest_translated : int;
  mutable host_emitted : int;
  mutable blocks : int;
  mutable engine_exits : int;
  mutable patches : int;
  mutable host_executed : int;
  mutable translate_cycles : int;
      (** simulated M3 cycles charged for translation / trace formation
          (the [cost_translate_per_guest] charges); a monotone
          attribution gauge for the span tracer *)
  (* hot-block profiler (host-side observability; simulated charges are
     unaffected whether it is on or off) *)
  mutable profile : bool;  (** count dispatch slow-path entries *)
  block_exec : int array;
      (** per-block execution count, same dense indexing as
          [block_start]; bumped whenever the run loop enters a block
          start (the profiler's row counts and the superblock tier's
          formation trigger) *)
  block_dispatch : (int, int) Hashtbl.t;
      (** host block start -> entries through the dispatch slow path
          (i.e. not via a chained direct branch); only with [profile] *)
  block_size : (int, int * int) Hashtbl.t;
      (** host block start -> (guest instruction count, host words) *)
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
      (** guest block start -> always-taken successor (AL tail/jump
          terminal) — the chain statistics trace formation walks *)
  formed : (int, unit) Hashtbl.t;
      (** guest heads already considered for formation (one-shot) *)
  fuse_next : bool array;
      (** same dense indexing as [host_decode]: host word at [i] issues
          fused with the word at [i+1] (Table 4 macro-op idioms) *)
  guest_cover : Bytes.t;
      (** per guest kernel-image word ([Soc.in_kernel_image] span):
          non-zero if some translation consumed it — the multi-block
          store-invalidation map *)
  mutable pending_flush : bool;
      (** a guest store hit covered code; the whole cache is evicted at
          the next block/trace boundary *)
  mutable traces_formed : int;
  mutable fusions_applied : int;
  mutable invalidations : int;  (** covered words hit by guest stores *)
  mutable flushes : int;  (** whole-cache evictions performed *)
  (* static-analysis product consumed by the tier *)
  mutable sb_certify : (Superblock.plan -> bool) option;
      (** online trace certifier hook: a formed plan is admitted only
          if the hook proves it equivalent to its constituent blocks;
          [None] (default) admits everything *)
  mutable certify_rejects : int;
      (** plans refused by [sb_certify] *)
  mutable deadline_ns : int;
      (** bounded-quantum lockstep: the run loop raises {!Quantum} at
          the first resumable point once the M3 clock reaches this
          absolute time. [max_int] (default) = run to completion. The
          scheduler clears it around nested context runs (IRQ delivery,
          fallback draining), which must finish indivisibly. *)
}

(* cost knobs, in M3 cycles *)
(* the prediction-less M3 refills its pipeline on every taken branch,
   unlike the branch-predicting A9 — this is what makes control-dense
   drivers (USB) the worst DBT cases in Figure 6 *)
let cost_taken_branch = 3
let cost_translate_per_guest = 60
let cost_dispatch = 28  (* svc trap + table lookup *)
let cost_patch = 30
let cost_exit_pc = 150  (* map lookup on an engine exit *)
let cost_gic_fault = 150  (* MPU fault + controller emulation *)

let charge t cycles = Core.charge t.soc.Soc.m3 cycles

let dummy_cb () =
  { on_emu = (fun _ _ -> ());
    on_hook = (fun _ _ -> ());
    on_guest_svc = (fun _ _ -> ());
    on_fallback =
      (fun r ~guest_pc:_ ~skippable:_ _ -> raise (Host_error ("fallback: " ^ r)));
    on_irq_window = (fun _ -> ());
    on_gic_access = (fun ~write:_ _ _ -> 0) }

let in_cache t addr =
  addr >= Soc.code_cache_base && addr < t.cursor

let dummy_env : Exec.env =
  { Exec.load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
    svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
    undef = (fun _ _ -> ()) }

(* ------------------------ stretch booking --------------------------- *)

(* [set_horizon t] — the last address the stretch starting at [run_pc]
   may reach before it must be booked: {!Core.horizon} instructions
   ahead, or [min_int] (book every instruction) while the trace or the
   sampler is recording, since both read time and counters per
   instruction. *)
let set_horizon t =
  t.pc_limit <-
    (if t.tr.Trace.enabled || t.soc.Soc.sampler.Tk_stats.Timeseries.enabled
     then min_int
     else
       let m = Core.horizon t.soc.Soc.m3 ~deadline:max_int in
       (* no stretch is longer than the code cache *)
       if m > Soc.code_cache_size then max_int else t.run_pc + (m lsl 2) - 4)

(* [book t ~imiss ~stall ~extra] — at a point where the
   per-instruction path charged the clock: book the stretch
   [run_pc .. cur_pc] (its last [imiss] I-fetches missed, [stall]
   cycles) plus [extra] cycles in one {!Core.book}, which fires
   whatever falls due. The stretch is left empty at [cur_pc + 4] before
   the clock runs, so an event handler that raises cannot get it
   booked twice, and restored after, in case a handler entered the
   engine. The caller recomputes the horizon ({!set_horizon} or
   {!restart}) before the next instruction. *)
let book t ~imiss ~stall ~extra =
  let pc0 = t.cur_pc in
  let k = ((pc0 - t.run_pc) asr 2) + 1 in
  t.run_pc <- pc0 + 4;
  t.fetch_line <- -1;
  t.host_executed <- t.host_executed + k;
  Core.book t.soc.Soc.m3 ~k ~imiss ~stall ~extra;
  t.cur_pc <- pc0;
  t.run_pc <- pc0 + 4

(* [sync t] — book what the stretch owes where the per-instruction
   path charged nothing beyond the retires themselves: an empty
   stretch touches no counter and not the clock *)
let sync t =
  if t.cur_pc >= t.run_pc then book t ~imiss:0 ~stall:0 ~extra:0;
  set_horizon t

(* [restart t pc] — open an empty stretch at [pc] after work that may
   have moved time, scheduled events, touched the cache or run a nested
   context (which reuses these fields). The caller has booked. *)
let restart t pc =
  t.cur_pc <- pc - 4;
  t.run_pc <- pc;
  t.fetch_line <- -1;
  set_horizon t

(* I-fetch tag check on a line change: a hit makes the line current
   (every fetch from it hits until something books); a miss books the
   stretch through this instruction, the miss's stall included, exactly
   where the per-instruction path would have charged it *)
let check_fetch_line t pcv =
  let cache = t.soc.Soc.m3.Core.cache in
  let line = pcv lsr cache.Cache.line_bits in
  if Array.unsafe_get cache.Cache.tags (Cache.set_of cache line) = line then
    t.fetch_line <- line
  else begin
    let stall = Cache.access cache ~write:false pcv in
    book t ~imiss:1 ~stall ~extra:0;
    set_horizon t
  end

(* a data access that missed the tag check: the full access books the
   miss, then the stretch is booked with its stall *)
let data_miss t ~write addr =
  let stall = Cache.access t.soc.Soc.m3.Core.cache ~write addr in
  book t ~imiss:0 ~stall ~extra:0;
  set_horizon t;
  if t.tr.Trace.enabled then
    Trace.emit t.tr ~core:Trace.core_m3
      (if write then Trace.ev_write else Trace.ev_read)
      addr stall

let rec create ~(soc : Soc.t) ~mode () =
  let tr = soc.Soc.trace in
  let t =
    { soc; mode; tr; classify_target = (fun _ -> Translator.T_normal);
      cb = dummy_cb (); cursor = Soc.code_cache_base;
      block_map = Hashtbl.create 1024; block_starts = Hashtbl.create 1024;
      sites = Hashtbl.create 1024; host_points = Hashtbl.create 4096;
      host_decode = Array.make (Soc.code_cache_size / 4) undecoded;
      block_start = Array.make (Soc.code_cache_size / 4) false;
      (* the stretch starts empty: [run_pc] one word past [cur_pc] *)
      cur_pc = 0; pc_overridden = false; run_pc = 4; pc_limit = min_int;
      fetch_line = -1;
      chain = true; block_limit = Translator.default_block_limit;
      irq_dispatch = true; env = dummy_env;
      guest_translated = 0;
      host_emitted = 0; blocks = 0; engine_exits = 0; patches = 0;
      host_executed = 0; translate_cycles = 0; profile = false;
      block_exec = Array.make (Soc.code_cache_size / 4) 0;
      block_dispatch = Hashtbl.create 1024;
      block_size = Hashtbl.create 1024;
      superblock = false; sb_threshold = 16; sb_max_blocks = 8;
      block_succ = Hashtbl.create 1024; formed = Hashtbl.create 64;
      fuse_next = Array.make (Soc.code_cache_size / 4) false;
      guest_cover =
        Bytes.make ((Soc.page_pool_base - Soc.kernel_base) / 4) '\000';
      pending_flush = false;
      traces_formed = 0; fusions_applied = 0;
      invalidations = 0; flushes = 0;
      sb_certify = None; certify_rejects = 0; deadline_ns = max_int }
  in
  let m3 = soc.Soc.m3 in
  let mem = soc.Soc.mem in
  let cache = m3.Core.cache in
  let tags = cache.Cache.tags in
  let line_bits = cache.Cache.line_bits in
  (* gic-private accesses surface as controller events, not reads *)
  let gic ~write addr v =
    let pc0 = t.cur_pc in
    book t ~imiss:0 ~stall:0 ~extra:cost_gic_fault;
    let r = t.cb.on_gic_access ~write addr v in
    restart t (pc0 + 4);
    r
  in
  (* an uncached device access: the device may read the clock and
     schedule events, so the stretch is booked before it and the
     horizon recomputed after it *)
  let mmio_book ~write addr =
    let penalty = m3.Core.p.Core.mmio_penalty in
    book t ~imiss:0 ~stall:0 ~extra:penalty;
    if tr.Trace.enabled then
      Trace.emit tr ~core:Trace.core_m3
        (if write then Trace.ev_write else Trace.ev_read)
        addr penalty
  in
  (* The RAM hit path — [Cache.access] and [Core.charge_stall m3 0],
     inlined — books nothing: a hit costs no cycles, and the horizon
     keeps the unbooked stretch short of [next_at], so the clock test
     sees what the booked clock would. Flight-recorder emission is one
     branch on the recorder's enable bit per access; emission never
     charges simulated cycles. *)
  let load addr nbytes =
    if Mem.in_ram mem addr then begin
      let line = addr lsr line_bits in
      let set = Cache.set_of cache line in
      if Array.unsafe_get tags set = line then begin
        cache.Cache.hits <- cache.Cache.hits + 1;
        let clock = m3.Core.clock in
        if clock.Clock.next_at <= clock.Clock.now then Clock.run_due clock;
        if tr.Trace.enabled then
          Trace.emit tr ~core:Trace.core_m3 Trace.ev_read addr 0
      end
      else data_miss t ~write:false addr;
      if nbytes = 4 then Mem.ram_read32 mem addr
      else Mem.ram_read mem addr nbytes
    end
    else if Soc.is_cpu_private addr then gic ~write:false addr 0
    else begin
      mmio_book ~write:false addr;
      let v = Mem.read mem addr nbytes in
      set_horizon t;
      v
    end
  in
  let store addr nbytes v =
    if Mem.in_ram mem addr then begin
      let line = addr lsr line_bits in
      let set = Cache.set_of cache line in
      if Array.unsafe_get tags set = line then begin
        cache.Cache.hits <- cache.Cache.hits + 1;
        Array.unsafe_set cache.Cache.dirty set true;
        let clock = m3.Core.clock in
        if clock.Clock.next_at <= clock.Clock.now then Clock.run_due clock;
        if tr.Trace.enabled then
          Trace.emit tr ~core:Trace.core_m3 Trace.ev_write addr 0
      end
      else data_miss t ~write:true addr;
      if nbytes = 4 then Mem.ram_write32 mem addr v
      else Mem.ram_write mem addr nbytes v;
      (* superblock store-invalidation probe: host-only (no simulated
         charges), so the seed tiers' timelines are untouched. The
         image-span gate is inline so the overwhelmingly common
         data-region store pays two compares, not a call; the widened
         lower bound covers a store whose tail word straddles into the
         image. *)
      if
        t.superblock
        && addr + nbytes > Soc.kernel_base
        && addr < Soc.page_pool_base
      then sb_store_check t addr nbytes
    end
    else if Soc.is_cpu_private addr then ignore (gic ~write:true addr v)
    else begin
      mmio_book ~write:true addr;
      Mem.write mem addr nbytes v;
      set_horizon t
    end
  in
  let svc cpu n = dispatch t cpu n in
  let wfi _ = raise (Host_error "host wfi in translated code") in
  let irq_ret _ = raise (Host_error "host exception return in translated code") in
  let undef _ i =
    raise (Host_error ("host undef: " ^ Types.to_string i))
  in
  t.env <- { Exec.load; store; svc; wfi; irq_ret; undef };
  (* telemetry gauges: translation-cache occupancy and engine work.
     add_gauge replaces by name, so a second engine on the same SoC
     re-binds these columns instead of duplicating them. *)
  let gauge = Tk_stats.Timeseries.add_gauge soc.Soc.sampler in
  gauge "dbt_blocks" (fun () -> t.blocks);
  gauge "dbt_host_words" (fun () -> (t.cursor - Soc.code_cache_base) asr 2);
  gauge "dbt_patches" (fun () -> t.patches);
  gauge "dbt_exits" (fun () -> t.engine_exits);
  gauge "dbt_host_retired" (fun () -> t.host_executed);
  (* superblock counters *)
  gauge "dbt_traces" (fun () -> t.traces_formed);
  gauge "dbt_fusions" (fun () -> t.fusions_applied);
  (* span-tracer attribution gauges ride on Span, not the sampler: the
     golden manifest digests pin the sampler's column set *)
  Tk_stats.Span.add_gauge soc.Soc.spans "translate_cycles" (fun () ->
      t.translate_cycles);
  t

(* --------------------- superblock store probe ------------------------ *)

(* A guest store into code some translation consumed: a single store can
   straddle two words, and the consumed span can belong to the middle of
   a formed trace, so the probe checks both words against the dense
   cover map and schedules a whole-cache eviction (consumed at the next
   block/trace boundary — the translated-code analogue of the
   interpreter's invalidate-on-store / take-effect-on-next-fetch). *)
and sb_check_word t w =
  if Soc.in_kernel_image w
     && Bytes.unsafe_get t.guest_cover ((w - Soc.kernel_base) asr 2) <> '\000'
  then begin
    t.pending_flush <- true;
    t.invalidations <- t.invalidations + 1;
    if t.tr.Trace.enabled then
      Trace.emit t.tr ~core:Trace.core_m3 Trace.ev_invalidate w 0
  end

and sb_store_check t addr nbytes =
  let w0 = addr land lnot 3 in
  sb_check_word t w0;
  let w1 = (addr + nbytes - 1) land lnot 3 in
  if w1 <> w0 then sb_check_word t w1

(* ------------------------- code emission ---------------------------- *)

and write_host t addr (i : inst) =
  let w = V7m.encode_exn i in
  (* emitting through the M3 cache: translation produces real traffic *)
  Core.charge t.soc.Soc.m3
    (Cache.access t.soc.Soc.m3.Core.cache ~write:true addr);
  Mem.ram_write32 t.soc.Soc.mem addr w;
  (* pre-decode the freshly written word; a word that does not decode
     (impossible for encode_exn output, but kept equivalent to the lazy
     seed path) is left for decode_host to report at execution time *)
  t.host_decode.((addr - Soc.code_cache_base) asr 2) <-
    (match V7m.decode w with i -> i | exception _ -> undecoded)

and emit_block t (b : Translator.block) =
  let host_start = t.cursor in
  List.iter
    (fun e ->
      let a = t.cursor in
      (match e with
      | Translator.E_inst i -> write_host t a i
      | Translator.E_site (cond, info, code) ->
        write_host t a (at ~cond (Svc code));
        Hashtbl.replace t.sites a info;
        (match info with
        | Translator.S_call { ret_guest; _ }
        | Translator.S_indirect { ret_guest; _ } ->
          Hashtbl.replace t.host_points (a + 4) ret_guest
        | Translator.S_emu { resume_guest; _ }
        | Translator.S_hook { resume_guest; _ }
        | Translator.S_guest_svc { resume_guest; _ } ->
          Hashtbl.replace t.host_points (a + 4) resume_guest
        | Translator.S_jump _ | Translator.S_tail _ | Translator.S_exit_pc
        | Translator.S_fallback _ -> ()));
      t.cursor <- t.cursor + 4;
      t.host_emitted <- t.host_emitted + 1)
    b.Translator.b_emits;
  if t.cursor >= Soc.code_cache_base + Soc.code_cache_size then
    raise (Host_error "code cache full");
  host_start

and read_guest t a =
  if not (Mem.in_ram t.soc.Soc.mem a) then
    raise (Host_error (Printf.sprintf "guest fetch outside RAM: 0x%x" a));
  V7a.decode (Mem.ram_read t.soc.Soc.mem a 4)

and translate_block t gpc =
  match Hashtbl.find_opt t.block_map gpc with
  | Some h -> h
  | None ->
    let ctx =
      { Translator.mode = t.mode; classify_target = t.classify_target;
        block_limit = t.block_limit; read_guest = read_guest t;
        legalize = Translator.default_legalize }
    in
    let b = Translator.translate ctx ~gpc in
    (* the translation burst covers the simulated translation charge;
       back-to-back misses coalesce into one burst span *)
    let guest = b.Translator.b_guest_count in
    let tok = Tk_stats.Probe.translate_begin t.soc.Soc.probe ~guest in
    t.translate_cycles <-
      t.translate_cycles + (cost_translate_per_guest * guest);
    charge t (cost_translate_per_guest * guest);
    let h = emit_block t b in
    Hashtbl.replace t.block_map gpc h;
    Hashtbl.replace t.block_starts h gpc;
    t.block_start.((h - Soc.code_cache_base) asr 2) <- true;
    Hashtbl.replace t.host_points h gpc;
    t.blocks <- t.blocks + 1;
    t.guest_translated <- t.guest_translated + guest;
    Hashtbl.replace t.block_size h (guest, (t.cursor - h) asr 2);
    if t.superblock then begin
      sb_mark_cover t gpc guest;
      sb_record_succ t b;
      sb_mark_fusions t h t.cursor
    end;
    Tk_stats.Probe.translate_end t.soc.Soc.probe tok ~gpc ~guest;
    h

(* --------------------- superblock bookkeeping ----------------------- *)

and sb_mark_cover t gpc count =
  for k = 0 to count - 1 do
    let a = gpc + (4 * k) in
    if Soc.in_kernel_image a then
      Bytes.unsafe_set t.guest_cover ((a - Soc.kernel_base) asr 2) '\001'
  done

(* chain statistics: a block whose terminal is an always-taken direct
   transfer has a statically-known successor *)
and sb_record_succ t (b : Translator.block) =
  match List.rev b.Translator.b_emits with
  | Translator.E_site
      (AL, (Translator.S_tail { target } | Translator.S_jump { target }), _)
    :: _ ->
    Hashtbl.replace t.block_succ b.Translator.b_guest_start target
  | _ -> ()

(* Table 4 macro-op idioms over the emitted host stream: compare +
   conditional control, load + dependent ALU, movw + movt. The second
   element of a marked pair executes in the same issue slot as the
   first: it keeps its instruction count and cache traffic but the base
   CPI is waived (see {!run_loop}). Pair shapes survive
   patching — the first element is never a site, and a patched site only
   turns an SVC into a branch, which stays in the control class. *)
and sb_pair_fusable (a : inst) (b : inst) =
  match a.op, b.op with
  | Dp ((CMP | CMN | TST | TEQ), _, _, _, _), (B _ | Bl _ | Svc _) -> true
  | Mem { ld = true; rt; _ }, Dp (_, _, rd, rn, op2) when rt <> pc && rd <> pc
    ->
    rn = rt
    || (match op2 with
       | Reg r | Sreg (r, _, _) -> r = rt
       | Sregreg (r, _, rs) -> r = rt || rs = rt
       | Imm _ -> false)
  | Movw (rd, _), Movt (rd', _) -> rd = rd' && rd <> pc
  | _ -> false

and sb_mark_fusions t lo hi =
  let i0 = (lo - Soc.code_cache_base) asr 2 in
  let i1 = (hi - Soc.code_cache_base) asr 2 in
  let k = ref i0 in
  (* greedy non-overlapping pairing, left to right *)
  while !k < i1 - 1 do
    let fusable =
      let a = Array.unsafe_get t.host_decode !k in
      let b = Array.unsafe_get t.host_decode (!k + 1) in
      a != undecoded && b != undecoded && sb_pair_fusable a b
    in
    if fusable then begin
      Array.unsafe_set t.fuse_next !k true;
      t.fusions_applied <- t.fusions_applied + 1;
      k := !k + 2
    end
    else incr k
  done

(* whole-cache eviction: the translated-code invalidation granularity.
   Blocks, traces, chain links, fusion marks and the cover map all go;
   counters survive. *)
and flush_cache t =
  t.cursor <- Soc.code_cache_base;
  Hashtbl.reset t.block_map;
  Hashtbl.reset t.block_starts;
  Hashtbl.reset t.sites;
  Hashtbl.reset t.host_points;
  Hashtbl.reset t.block_dispatch;
  Hashtbl.reset t.block_size;
  Hashtbl.reset t.block_succ;
  Hashtbl.reset t.formed;
  Array.fill t.host_decode 0 (Array.length t.host_decode) undecoded;
  Array.fill t.block_start 0 (Array.length t.block_start) false;
  Array.fill t.block_exec 0 (Array.length t.block_exec) 0;
  Array.fill t.fuse_next 0 (Array.length t.fuse_next) false;
  Bytes.fill t.guest_cover 0 (Bytes.length t.guest_cover) '\000';
  t.pending_flush <- false;
  t.flushes <- t.flushes + 1

(* ----------------------- superblock formation ----------------------- *)

(* walk the always-taken chain from [head] through already-translated,
   distinct blocks *)
and sb_chain_of t head =
  let chain = ref [ head ] and len = ref 1 in
  let cur = ref head in
  (try
     while !len < t.sb_max_blocks do
       match Hashtbl.find_opt t.block_succ !cur with
       | Some next
         when Hashtbl.mem t.block_map next && not (List.mem next !chain) ->
         chain := next :: !chain;
         incr len;
         cur := next
       | _ -> raise Exit
     done
   with Exit -> ());
  List.rev !chain

and sb_try_form t head =
  let chain = sb_chain_of t head in
  if List.length chain >= 2 then begin
    match
      let p =
        Superblock.plan ~read_guest:(read_guest t)
          ~classify_target:t.classify_target ~block_limit:t.block_limit
          ~chain
      in
      (* a plan failing certification aborts formation outright: no
         charge, no emission, and [formed] one-shots the head so the
         rejected chain is never retried *)
      (match t.sb_certify with
      | Some ok when not (ok p) ->
        t.certify_rejects <- t.certify_rejects + 1;
        raise (Superblock.Abort "certify")
      | _ -> ());
      p
    with
    | exception Superblock.Abort _ -> ()
    | p ->
      (* forming re-derives every constituent's translation *)
      let guest = p.Superblock.p_guest_count in
      let tok = Tk_stats.Probe.form_begin t.soc.Soc.probe ~guest in
      t.translate_cycles <-
        t.translate_cycles + (cost_translate_per_guest * guest);
      charge t (cost_translate_per_guest * guest);
      let b =
        { Translator.b_guest_start = head;
          b_guest_count = guest;
          b_emits = p.Superblock.p_emits }
      in
      let old_h = Hashtbl.find t.block_map head in
      let h = emit_block t b in
      Hashtbl.replace t.block_map head h;
      Hashtbl.replace t.block_starts h head;
      t.block_start.((h - Soc.code_cache_base) asr 2) <- true;
      Hashtbl.replace t.host_points h head;
      Hashtbl.replace t.block_size h (guest, (t.cursor - h) asr 2);
      t.traces_formed <- t.traces_formed + 1;
      sb_mark_fusions t h t.cursor;
      (* redirect the old head into the trace: its first word becomes a
         branch, so chained predecessors and saved resume points all
         land in the trace from now on *)
      patch t old_h (at (B (h - old_h)));
      Tk_stats.Probe.form_end t.soc.Soc.probe tok ~head ~guest
  end

(* Block-boundary work, out of line so the run loop body stays
   register-tight: consume a pending whole-cache flush (landing on the
   retranslated head — itself a block start, hence the self-recursion),
   bump the block's execution count, fire the superblock tier's
   one-shot trace formation at the threshold, and open the IRQ window.
   Returns the host pc to execute at (different from [pcv] only after a
   flush redirect, which only the tier's store probe can schedule). *)
and block_boundary t (cpu : Exec.cpu) pcv idx =
  if t.pending_flush then begin
    (* read the guest mapping before the flush wipes it *)
    let gpc = Hashtbl.find t.block_starts pcv in
    flush_cache t;
    let h = translate_block t gpc in
    cpu.Exec.r.(pc) <- h;
    block_boundary t cpu h ((h - Soc.code_cache_base) asr 2)
  end
  else begin
    let c = Array.unsafe_get t.block_exec idx + 1 in
    Array.unsafe_set t.block_exec idx c;
    if t.superblock && c = t.sb_threshold then begin
      let gpc = Hashtbl.find t.block_starts pcv in
      if not (Hashtbl.mem t.formed gpc) then begin
        Hashtbl.replace t.formed gpc ();
        sb_try_form t gpc
        (* no manual redirect: the old head's first word is now a
           branch into the trace, picked up by this very fetch *)
      end
    end;
    if t.irq_dispatch then t.cb.on_irq_window cpu;
    pcv
  end

(* patch a resolved direct branch/call site *)
and patch t site_addr (i : inst) =
  write_host t site_addr i;
  Hashtbl.remove t.sites site_addr;
  t.patches <- t.patches + 1;
  charge t cost_patch;
  if t.tr.Trace.enabled then
    Trace.emit t.tr ~core:Trace.core_m3 Trace.ev_chain site_addr 0

and set_pc t (cpu : Exec.cpu) v =
  cpu.Exec.r.(pc) <- v;
  t.pc_overridden <- true

(* jump to a translated block through the dispatch slow path; the
   profiler counts these to compute each block's chain hit rate *)
and goto_block t (cpu : Exec.cpu) h =
  if t.profile then
    Hashtbl.replace t.block_dispatch h
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.block_dispatch h));
  set_pc t cpu h

(* --------------------------- dispatch ------------------------------- *)

(* the trap books the stretch through the svc itself, then works with
   booked time; a callback may move time, schedule events or run a
   nested context, so the stretch reopens empty after the site *)
and dispatch t cpu _code =
  let site_addr = t.cur_pc in
  book t ~imiss:0 ~stall:0 ~extra:cost_dispatch;
  t.engine_exits <- t.engine_exits + 1;
  dispatch_site t cpu site_addr;
  restart t (site_addr + 4)

and dispatch_site t cpu site_addr =
  match Hashtbl.find_opt t.sites site_addr with
  | None -> raise (Host_error (Printf.sprintf "stray svc at 0x%x" site_addr))
  | Some info -> (
    match info with
    | Translator.S_call { target; ret_guest = _ } ->
      let h = translate_block t target in
      let off = h - site_addr in
      let cond = (decode_host t site_addr).cond in
      if t.chain && Result.is_ok (V7m.encode (at ~cond (Bl off))) then
        patch t site_addr (at ~cond (Bl off));
      cpu.Exec.r.(lr) <- site_addr + 4;
      goto_block t cpu h
    | Translator.S_jump { target } ->
      let h = translate_block t target in
      let cond = (decode_host t site_addr).cond in
      let off = h - site_addr in
      if t.chain && Result.is_ok (V7m.encode (at ~cond (B off))) then
        patch t site_addr (at ~cond (B off));
      goto_block t cpu h
    | Translator.S_tail { target } ->
      let h = translate_block t target in
      let off = h - site_addr in
      if t.chain && Result.is_ok (V7m.encode (at (B off))) then
        patch t site_addr (at (B off));
      goto_block t cpu h
    | Translator.S_emu { name; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_emu name cpu
    | Translator.S_hook { name; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_hook name cpu
    | Translator.S_indirect { reg; ret_guest = _ } ->
      charge t cost_exit_pc;
      let target = guest_reg t cpu reg in
      let h = translate_block t target in
      cpu.Exec.r.(lr) <- site_addr + 4;
      goto_block t cpu h
    | Translator.S_exit_pc ->
      charge t cost_exit_pc;
      let gtarget = Mem.ram_read t.soc.Soc.mem Layout.env_next_pc 4 in
      if gtarget = Layout.exit_magic then begin
        set_pc t cpu Layout.exit_magic
      end
      else begin
        let h = translate_block t gtarget in
        goto_block t cpu h
      end
    | Translator.S_guest_svc { n; _ } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_guest_svc n cpu
    | Translator.S_fallback { reason; gpc; skippable } ->
      set_pc t cpu (site_addr + 4);
      t.cb.on_fallback reason ~guest_pc:gpc ~skippable cpu)

and decode_host t addr =
  let cached = t.host_decode.((addr - Soc.code_cache_base) asr 2) in
  if cached != undecoded then cached
  else begin
    let w = Mem.ram_read32 t.soc.Soc.mem addr in
    let i =
      try V7m.decode w
      with V7m.Decode_error _ | Invalid_argument _ ->
        raise (Host_error (Printf.sprintf "bad host fetch at 0x%x (0x%x)" addr w))
    in
    t.host_decode.((addr - Soc.code_cache_base) asr 2) <- i;
    i
  end

(* -------------------- guest-state accessors ------------------------- *)

(** [guest_reg t cpu i] reads guest register [i] for the current mode
    (pass-through, scratch-emulated or env-emulated). *)
and guest_reg t (cpu : Exec.cpu) i =
  match t.mode with
  | Translator.Ark ->
    if i = Rules.scratch then Mem.ram_read32 t.soc.Soc.mem Layout.env_r10
    else cpu.Exec.r.(i)
  | Translator.Mid ->
    if i = 10 || i = 11 || i = sp || i = lr then
      Mem.ram_read32 t.soc.Soc.mem (Layout.env_reg i)
    else cpu.Exec.r.(i)
  | Translator.Baseline -> Mem.ram_read32 t.soc.Soc.mem (Layout.env_reg i)

let set_guest_reg t (cpu : Exec.cpu) i v =
  match t.mode with
  | Translator.Ark ->
    if i = Rules.scratch then Mem.ram_write32 t.soc.Soc.mem Layout.env_r10 v
    else cpu.Exec.r.(i) <- Bits.mask32 v
  | Translator.Mid ->
    if i = 10 || i = 11 || i = sp || i = lr then
      Mem.ram_write32 t.soc.Soc.mem (Layout.env_reg i) v
    else cpu.Exec.r.(i) <- Bits.mask32 v
  | Translator.Baseline ->
    Mem.ram_write32 t.soc.Soc.mem (Layout.env_reg i) v

(* ----------------------------- run ---------------------------------- *)

(* The run loop, shared by every tier.

   Control flow:
   - the loop-head probes (quantum deadline, exit sentinel, cache
     bounds, block start) only run after a control transfer or a
     callback pc override: translated blocks always end in an
     unconditional terminal, so straight-line fall-through can never
     reach the exit sentinel, leave the cache, or cross into another
     block's head;
   - block-start work lives out of line in {!block_boundary}: the
     execution count, the IRQ window, one-shot trace formation when a
     block's count reaches [sb_threshold] (only with [t.superblock]),
     and consumption of a pending whole-cache flush (only the tier's
     store probe schedules one) before this block's fetch — the
     next-boundary semantics matching the interpreter's next-fetch
     granularity;
   - a host word marked in [fuse_next] (superblock tier only) executes
     its successor in the same iteration as a fused macro-op: the
     partner keeps its instruction count and its cache traffic, but its
     base CPI charge is waived.

   Retire accounting is booked per straight-line stretch, not per
   instruction:
   - the stretch. The instructions whose accounting is still owed are
     [run_pc .. cur_pc]. They ran straight-line, so there are
     [(cur_pc - run_pc) / 4 + 1] of them, every I-fetch among them hit,
     and they owe only base CPI. One {!Core.book} books them: the
     instruction, I-fetch hit and [host_executed] counts, the CPI carry
     and the ps->ns carry, both of which telescope exactly, then the
     clock's due events. Outside {!book} (and the fused slot) the loop
     and the env write none of those counters, nor [Clock.now].
   - book before anything observes time. The stretch is booked where
     the per-instruction path charged something other than base CPI, or
     where anything may read time or counters: after a taken branch,
     in {!dispatch} (with the trap's cost), in the env's data-miss,
     MMIO and GIC paths (with their stall or penalty), on an I-fetch
     miss (with its stall), and in {!run}'s exception exit. After
     dispatch, a GIC access or a block boundary the stretch reopens
     empty ({!restart}).
   - the horizon. An unbooked clock lags the booked one, so a stretch
     may only run while no event could have fallen due inside it:
     [pc_limit] is {!Core.horizon} instructions past [run_pc], counting
     each at a power-of-two bound on its ns, so it is conservative,
     never exact, and one shift. An instruction past [pc_limit] is
     booked at its own retire, as the per-instruction path would. RAM
     hits therefore stay unbooked: their clock test sees no due event
     either way.
   - I-fetch. The cache is direct-mapped, so once a line's tag check
     hits every fetch from it hits until another access could evict
     it; the tag check runs on a line change, after a data miss and
     after a probe (every booking forgets the line).
   - exact mode. While the trace or the sampler records (each reads
     time per instruction), [pc_limit] is [min_int]: every instruction
     is booked at its retire, in this same loop.

   Two hazards pin the neutrality goldens: the stretch must start empty
   ([run_pc = cur_pc + 4]) or the first booking counts a phantom
   instruction; and [pc_overridden] is cleared before every step, not
   where it is read, because a nested run inside a callback clobbers
   it, as in the per-instruction loop.

   The body allocates nothing, and neither does the memory env it calls
   on every data access. test_neutrality bounds a warm cycle at 0.1
   minor words per instruction.

   Inside a formed trace there are no block starts, so interior
   boundaries pay no probe, no dispatch and no IRQ window — interrupt
   latency is bounded by the trace length (sb_max_blocks * block_limit
   guest instructions). *)
let run_loop t (cpu : Exec.cpu) ~fuel =
  let m3 = t.soc.Soc.m3 in
  let line_bits = m3.Core.cache.Cache.line_bits in
  let clock = m3.Core.clock in
  let tr = t.tr in
  (* tracing and sampling never toggle while translated code is
     executing, so both decisions are hoisted into immutable bools *)
  let traced = tr.Trace.enabled in
  let env = t.env in
  let ts = t.soc.Soc.sampler in
  let sampling = ts.Tk_stats.Timeseries.enabled in
  let fusing = t.superblock in
  let r = cpu.Exec.r in
  let n = ref 0 in
  let cur = ref 0 in
  let probe = ref true in
  while true do
    if !n >= fuel then raise (Host_error "DBT fuel exhausted");
    incr n;
    (* quantum check before the sampler tick so an unwound iteration
       leaves no trace: the resumed iteration re-runs from here *)
    if !probe && clock.Clock.now >= t.deadline_ns then raise Quantum;
    if sampling then Tk_stats.Timeseries.tick ts;
    if !probe then begin
      let v = Array.unsafe_get r pc in
      if v = Layout.exit_magic then raise Context_exit;
      if not (in_cache t v) then
        raise
          (Host_error (Printf.sprintf "host pc outside code cache: 0x%x" v));
      let i0 = (v - Soc.code_cache_base) asr 2 in
      let v' =
        if Array.unsafe_get t.block_start i0 then block_boundary t cpu v i0
        else v
      in
      cur := v';
      restart t v';
      probe := false
    end;
    let pcv = !cur in
    let idx = (pcv - Soc.code_cache_base) asr 2 in
    let i =
      let c = Array.unsafe_get t.host_decode idx in
      if c != undecoded then c else decode_host t pcv
    in
    t.cur_pc <- pcv;
    t.pc_overridden <- false;
    if pcv lsr line_bits <> t.fetch_line then check_fetch_line t pcv;
    if pcv > t.pc_limit then sync t;
    if traced then
      Trace.emit tr ~core:Trace.core_m3 Trace.ev_retire pcv 0;
    match Exec.step cpu env ~addr:pcv i with
    | Exec.Next ->
      if t.pc_overridden then probe := true
      else if fusing && Array.unsafe_get t.fuse_next idx then begin
        (* fused macro-op slot, booked exactly: book the stretch through
           [pcv], then count the partner and its cache traffic and waive
           its base CPI ([Core.charge_stall] of a [Core.fetch_cost]) *)
        sync t;
        let pcv2 = pcv + 4 in
        Array.unsafe_set r pc pcv2;
        let i2 =
          let c = Array.unsafe_get t.host_decode (idx + 1) in
          if c != undecoded then c else decode_host t pcv2
        in
        t.host_executed <- t.host_executed + 1;
        m3.Core.instructions <- m3.Core.instructions + 1;
        Core.charge_stall m3 (Core.fetch_cost m3 pcv2);
        restart t (pcv2 + 4);
        if traced then
          Trace.emit tr ~core:Trace.core_m3 Trace.ev_retire pcv2 0;
        match Exec.step cpu env ~addr:pcv2 i2 with
        | Exec.Next ->
          if t.pc_overridden then probe := true
          else begin
            Array.unsafe_set r pc (pcv2 + 4);
            cur := pcv2 + 4
          end
        | Exec.Branched ->
          book t ~imiss:0 ~stall:0 ~extra:cost_taken_branch;
          probe := true
      end
      else begin
        Array.unsafe_set r pc (pcv + 4);
        cur := pcv + 4
      end
    | Exec.Branched ->
      book t ~imiss:0 ~stall:0 ~extra:cost_taken_branch;
      probe := true
  done

(** [run t cpu ~fuel] executes translated code until the context returns
    to {!Layout.exit_magic} (raising {!Context_exit}) or a callback
    raises. The [cpu] is mutated in place; callbacks observe a host pc
    that is always a valid resume point. *)
let run t cpu ~fuel =
  (* one execution-burst span per engine entry; the loop only exits by
     exception (Context_exit, fallback, host error). A burst cut by
     {!Quantum} reopens on resume (zero simulated time passes across
     the cut, and nothing else records in between), so the span stream
     is the sequential one at every quantum. Whatever the stretch still
     owes is booked before the span closes. *)
  let p = t.soc.Soc.probe and core = Trace.core_m3 in
  let tok = Tk_stats.Probe.run_begin p ~core in
  match run_loop t cpu ~fuel with
  | () -> Tk_stats.Probe.run_end p tok
  | exception Quantum ->
    Tk_stats.Probe.run_cut p ~core tok;
    raise Quantum
  | exception e ->
    sync t;
    Tk_stats.Probe.run_end p tok;
    raise e

(** [entry_host t gpc] — host address for guest entry [gpc], translating
    on demand (used by ARK to start contexts). *)
let entry_host t gpc = translate_block t gpc

(** [guest_point_of_host t haddr] — guest address for a saved host resume
    point, for fallback migration. *)
let guest_point_of_host t haddr = Hashtbl.find_opt t.host_points haddr

(* ------------------------ hot-block profiler ------------------------- *)

type block_profile = {
  bp_guest : int;  (** guest block start address *)
  bp_host : int;  (** host (code-cache) block start address *)
  bp_execs : int;  (** times the hot loop entered this block *)
  bp_dispatches : int;  (** entries through the dispatch slow path *)
  bp_guest_insts : int;  (** guest instructions translated *)
  bp_host_words : int;  (** host words emitted (incl. engine sites) *)
}

(** [chain_rate bp] — fraction of entries into the block that arrived
    via a chained (patched) direct branch rather than the dispatch slow
    path. *)
let chain_rate bp =
  if bp.bp_execs = 0 then 0.0
  else float_of_int (bp.bp_execs - bp.bp_dispatches)
       /. float_of_int bp.bp_execs

(** [profile_blocks t] — per-block profile rows, hottest first. The
    dispatch counts are only meaningful after a run with [t.profile]
    set. *)
let profile_blocks t =
  let rows =
    Hashtbl.fold
      (fun h gpc acc ->
        let idx = (h - Soc.code_cache_base) asr 2 in
        let execs = t.block_exec.(idx) in
        let dispatches =
          Option.value ~default:0 (Hashtbl.find_opt t.block_dispatch h)
        in
        let gi, hw =
          Option.value ~default:(0, 0) (Hashtbl.find_opt t.block_size h)
        in
        { bp_guest = gpc; bp_host = h; bp_execs = execs;
          bp_dispatches = dispatches; bp_guest_insts = gi;
          bp_host_words = hw }
        :: acc)
      t.block_starts []
  in
  List.sort (fun a b -> compare (b.bp_execs, b.bp_guest) (a.bp_execs, a.bp_guest)) rows
