(** Per-core timing and activity accounting.

    A core charges cycles for every retired instruction (plus cache-miss
    stalls and uncached-IO penalties) and the platform clock advances
    accordingly — only one core runs at a time, matching the paper's
    execution model (all other CPU cores are shut down around the
    offloaded phase). WFI fast-forwards to the next platform event and
    books the gap as idle.

    Busy/idle picosecond totals per core are what Figure 5a plots and the
    energy model integrates. *)

type params = {
  cname : string;
  freq_mhz : int;
  busy_mw : float;  (** typical busy power (Table 6) *)
  idle_mw : float;  (** idle power with the core clock-gated (Table 6) *)
  mmio_penalty : int;  (** extra cycles for an uncached device access *)
  cpi_num : int;
  cpi_den : int;
      (** average CPI = 1 + cpi_num/cpi_den: pipeline bubbles on the
          3-stage, prediction-less M3 vs the out-of-order A9 *)
}

type t = {
  p : params;
  mutable clock : Clock.t;
      (** the clock this core advances — the platform clock, or a
          private lane under the bounded-quantum lockstep scheduler *)
  cache : Cache.t;
  ps_per_cycle : int;
  mutable cpi_acc : int;  (** accumulator for the fractional CPI *)
  mutable frac_ps : int;  (** sub-ns remainder not yet pushed to the clock *)
  mutable busy_cycles : int;
  mutable busy_ps : int;
  mutable idle_ps : int;
  mutable instructions : int;
  mutable stall_cycles : int;
      (** cycles lost to cache-miss / uncached-IO stalls, a subset of
          [busy_cycles]; the span tracer's attribution ledger reads it *)
}

let create ~clock ~cache p =
  { p; clock; cache; ps_per_cycle = 1_000_000 / p.freq_mhz; cpi_acc = 0;
    frac_ps = 0;
    busy_cycles = 0; busy_ps = 0; idle_ps = 0; instructions = 0;
    stall_cycles = 0 }

(** [charge t cycles] books [cycles] of busy execution and advances the
    platform clock (firing any due events). *)
let charge t cycles =
  t.busy_cycles <- t.busy_cycles + cycles;
  let dps = cycles * t.ps_per_cycle in
  let ps = dps + t.frac_ps in
  t.busy_ps <- t.busy_ps + dps;
  (* ps/1000 by reciprocal multiplication — exact for 0 <= ps < 2^32
     (the 56-ulp error of 274877907 ~= 2^38/1000 stays below 1/1000
     there); this runs once per retired instruction, where the idiv
     pair it replaces was a measurable share of the accounting cost *)
  let q =
    if ps < 0x1_0000_0000 then (ps * 274877907) asr 38 else ps / 1000
  in
  t.frac_ps <- ps - (q * 1000);
  Clock.advance t.clock q

(** [charge_stall t stall] — fast path for charging a cache-access
    result, cycle-identical to [charge t stall]. On a hit ([stall = 0])
    the busy counters would gain 0 and the sub-cycle remainder would not
    move, so [charge t 0] reduces to [Clock.advance t.clock 0]: fire
    platform events only when [next_at <= now]. The test is inline
    because it fails on almost every data access, and [next_at] only
    ever under-reports, so skipping the call can never skip an event. *)
let charge_stall t stall =
  if stall <> 0 then begin
    t.stall_cycles <- t.stall_cycles + stall;
    charge t stall
  end
  else if t.clock.Clock.next_at <= t.clock.Clock.now then
    Clock.run_due t.clock

(** [fetch_cost t addr] is the stall cost of fetching from [addr] through
    this core's cache. *)
let fetch_cost t addr = Cache.access t.cache ~write:false addr

(** [set_clock t clock] — retarget the core's time charges (lockstep
    lane attach/detach; the sequential scheduler never calls it). *)
let set_clock t clock = t.clock <- clock

(** [idle_until_event t] models WFI: sleep to the next platform event.
    Returns [false] when no event is pending (deadlock — callers raise). *)
let idle_until_event t =
  match Clock.skip_to_next_event t.clock with
  | None -> false
  | Some skipped_ns ->
    t.idle_ps <- t.idle_ps + (skipped_ns * 1000);
    true

(** [idle_until_limit t ~limit] — WFI bounded by a quantum boundary:
    sleep to the next event, or only as far as absolute time [limit]
    when the event lies at or beyond it (or none is pending). The idle
    gap books identically to {!idle_until_event} taken in pieces, so a
    solo-core lockstep run charges byte-identical busy/idle totals.
    Returns [false] iff the queue was empty (the caller decides whether
    a cross-lane commit can still arrive before calling it deadlock). *)
let idle_until_limit t ~limit =
  let had_event = Clock.next_event_time t.clock <> None in
  (match Clock.skip_to_next_event_before t.clock ~limit with
  | `Skipped ns | `Capped ns -> t.idle_ps <- t.idle_ps + (ns * 1000));
  had_event

(** [count_instruction t] bumps the retired-instruction counter. *)
let count_instruction t = t.instructions <- t.instructions + 1

(** [instr_cycles t] — base cycles for one instruction under the core's
    fractional CPI model (1 + cpi_num/cpi_den on average). *)
let instr_cycles t =
  if t.p.cpi_num = 0 then 1
  else begin
    (* the accumulator stays below cpi_den, so after adding cpi_num it
       is below cpi_den + cpi_num — for the small num/den ratios cores
       use, the carry resolves with compares instead of an idiv *)
    let acc = t.cpi_acc + t.p.cpi_num in
    let den = t.p.cpi_den in
    if acc < den then begin t.cpi_acc <- acc; 1 end
    else if acc < 2 * den then begin t.cpi_acc <- acc - den; 2 end
    else if acc < 3 * den then begin t.cpi_acc <- acc - (2 * den); 3 end
    else begin
      t.cpi_acc <- acc mod den;
      1 + (acc / den)
    end
  end

(** [retire t addr] — fused per-instruction accounting for the hot
    interpreter loops: count the instruction and charge base CPI plus
    the fetch stall in one call. Cycle-identical to
    [count_instruction t; charge t (instr_cycles t + fetch_cost t addr)]
    including side-effect order (the fetch's cache access happens before
    the CPI accumulator update, as in the seed's right-to-left argument
    evaluation). *)
let retire t addr =
  t.instructions <- t.instructions + 1;
  let stall = Cache.access t.cache ~write:false addr in
  if stall <> 0 then t.stall_cycles <- t.stall_cycles + stall;
  charge t (instr_cycles t + stall)

let busy_ns t = t.busy_ps / 1000
let idle_ns t = t.idle_ps / 1000

(** [reset_activity t] zeroes busy/idle/instruction counters (used at
    phase boundaries so each measured phase starts clean). *)
let reset_activity t =
  t.busy_cycles <- 0; t.busy_ps <- 0; t.idle_ps <- 0; t.instructions <- 0;
  t.stall_cycles <- 0;
  Cache.reset_counters t.cache

(** Snapshot of a core's activity, used for per-phase deltas. *)
type activity = {
  a_busy_cycles : int;
  a_busy_ps : int;
  a_idle_ps : int;
  a_instructions : int;
  a_cache_misses : int;
  a_rd_bytes : int;
  a_wr_bytes : int;
}

let activity t =
  { a_busy_cycles = t.busy_cycles; a_busy_ps = t.busy_ps;
    a_idle_ps = t.idle_ps; a_instructions = t.instructions;
    a_cache_misses = t.cache.Cache.misses;
    a_rd_bytes = t.cache.Cache.rd_bytes; a_wr_bytes = t.cache.Cache.wr_bytes }

let activity_delta a b =
  { a_busy_cycles = b.a_busy_cycles - a.a_busy_cycles;
    a_busy_ps = b.a_busy_ps - a.a_busy_ps;
    a_idle_ps = b.a_idle_ps - a.a_idle_ps;
    a_instructions = b.a_instructions - a.a_instructions;
    a_cache_misses = b.a_cache_misses - a.a_cache_misses;
    a_rd_bytes = b.a_rd_bytes - a.a_rd_bytes;
    a_wr_bytes = b.a_wr_bytes - a.a_wr_bytes }
