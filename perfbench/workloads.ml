(** The benchmark's workloads, driven only through the simulator's public
    entry points ({!Tk_harness.Ark_run}, {!Tk_harness.Native_run},
    {!Tk_fleet.Fleet}, {!Tk_machine.World}) and observed only through
    public counters and callback fields. *)

open Tk_machine
open Tk_harness
module Platform = Tk_drivers.Platform
module Engine = Tk_dbt.Engine
module Ark = Transkernel.Ark
module Fleet = Tk_fleet.Fleet
module Power = Tk_energy.Power_model
module J = Run_manifest

(** The concurrent workload's A9 side: 3 MB of IRQ-masked [memset], sized
    to span the ~13 ms offloaded phase. *)
let workload_bytes = 3 * 1024 * 1024

let lockstep_quantum_ns = 20_000

type kind = Offload | Native | Lockstep

(** A booted platform driven one suspend/resume cycle at a time. *)
type handle = {
  kind : kind;
  plat : Platform.t;
  nat : Native_run.t;
  ark : Ark_run.t option;
  mutable warmup_cycles : int;
}

let soc h = h.plat.Platform.soc
let engine h = Option.map (fun a -> a.Ark_run.ark.Ark.engine) h.ark

let boot ?built kind =
  match kind with
  | Native ->
    let plat = Platform.create ?built () in
    let nat = Native_run.create ~plat () in
    { kind; plat; nat; ark = None; warmup_cycles = 0 }
  | Offload | Lockstep ->
    let quantum = if kind = Lockstep then lockstep_quantum_ns else 0 in
    let a = Ark_run.create ?built ~quantum () in
    { kind; plat = Ark_run.plat a; nat = a.Ark_run.nat; ark = Some a;
      warmup_cycles = 0 }

(** One suspend/resume cycle and the checks made on every cycle: an
    offloaded or lockstep cycle returns [`Ok] (no fallback is injected in
    these workloads), and every registered device reports on afterwards.
    An exception is a failed cycle, not a crash of the benchmark. *)
let cycle h : (unit, string) result =
  let ark_ok = function
    | `Ok -> Ok ()
    | `Fell_back reason -> Error ("fell back: " ^ reason)
  in
  match
    match (h.kind, h.ark) with
    | Native, _ ->
      ignore (Native_run.suspend_resume_cycle h.nat);
      Ok ()
    | Offload, Some a -> ark_ok (Ark_run.suspend_resume_cycle a)
    | Lockstep, Some a ->
      ark_ok (Ark_run.concurrent_cycle ~domains:true ~workload_bytes a)
    | (Offload | Lockstep), None -> Error "no ARK instance"
  with
  | Error _ as e -> e
  | Ok () -> (
    match
      List.filter (fun (_, s) -> s <> 1) (Native_run.device_states h.nat)
    with
    | [] -> Ok ()
    | off ->
      Error ("devices not on after cycle: " ^ String.concat "," (List.map fst off))
    )
  | exception e -> Error (Printexc.to_string e)

(* what warm-up waits on: the engine's translation state for the DBT
   workloads, the interpreter's pre-decoded words for the native one *)
let fingerprint h =
  match engine h with
  | Some e ->
    [ e.Engine.blocks; e.Engine.host_emitted; e.Engine.patches;
      e.Engine.traces_formed ]
  | None ->
    let it = h.nat.Native_run.interp in
    [ Array.fold_left
        (fun n d -> if d = None then n else n + 1)
        0 it.Interp.decode;
      Hashtbl.length it.Interp.decode_cache ]

(** Run cycles until the fingerprint holds still for two consecutive
    cycles (at most 30). *)
let warm h =
  let stable = ref 0 in
  while !stable < 2 && h.warmup_cycles < 30 do
    let fp0 = fingerprint h in
    (match cycle h with Ok () -> () | Error m -> failwith ("warm-up: " ^ m));
    h.warmup_cycles <- h.warmup_cycles + 1;
    if fingerprint h = fp0 then incr stable else stable := 0
  done

let setup ?built kind =
  let h = boot ?built kind in
  warm h;
  h

(* ------------------------- simulated statistics ---------------------- *)

(** A point-in-time reading of every simulated statistic the digest and
    the count proxies cover. *)
type snap = { m3 : Core.activity; cpu : Core.activity; v : int array }

let snap_names =
  [| "m3.cache_hits"; "cpu.cache_hits"; "dma.rd_bytes"; "dma.wr_bytes";
     "clock.now_ns"; "clock.events"; "sleep_ns"; "dbt.blocks";
     "dbt.host_emitted"; "dbt.engine_exits"; "dbt.patches";
     "dbt.host_executed"; "dbt.traces_formed"; "dbt.fusions_applied";
     "dbt.invalidations"; "dbt.flushes"; "lockstep.rounds";
     "lockstep.commits"; "lockstep.max_skew_ns"; "ark.fallbacks" |]

let idx name =
  let rec go i = if snap_names.(i) = name then i else go (i + 1) in
  go 0

let snap h =
  let s = soc h in
  let e f = match engine h with Some e -> f e | None -> 0 in
  let a f = match h.ark with Some a -> f a | None -> 0 in
  { m3 = Core.activity s.Soc.m3;
    cpu = Core.activity s.Soc.cpu;
    v =
      [| s.Soc.m3.Core.cache.Cache.hits; s.Soc.cpu.Core.cache.Cache.hits;
         s.Soc.mem.Mem.dma_read_bytes; s.Soc.mem.Mem.dma_write_bytes;
         s.Soc.clock.Clock.now; Clock.seq_value s.Soc.clock;
         h.nat.Native_run.sleep_ns_total; e (fun e -> e.Engine.blocks);
         e (fun e -> e.Engine.host_emitted);
         e (fun e -> e.Engine.engine_exits); e (fun e -> e.Engine.patches);
         e (fun e -> e.Engine.host_executed);
         e (fun e -> e.Engine.traces_formed);
         e (fun e -> e.Engine.fusions_applied);
         e (fun e -> e.Engine.invalidations); e (fun e -> e.Engine.flushes);
         a (fun a -> a.Ark_run.ls_rounds); a (fun a -> a.Ark_run.ls_commits);
         a (fun a -> a.Ark_run.ls_max_skew_ns);
         a (fun a -> List.length a.Ark_run.fallbacks) |] }

let get s name = s.v.(idx name)
let delta a b name = get b name - get a name

let instructions s = s.m3.Core.a_instructions + s.cpu.Core.a_instructions

let activity_ints (a : Core.activity) =
  [ a.Core.a_busy_cycles; a.Core.a_busy_ps; a.Core.a_idle_ps;
    a.Core.a_instructions; a.Core.a_cache_misses; a.Core.a_rd_bytes;
    a.Core.a_wr_bytes ]

(** Everything simulated about the platform right now, as integers: both
    cores' activity, caches, DRAM and DMA bytes, clock, engine, lockstep
    and ARK counters, and the devices' power states. *)
let state_ints h =
  let s = snap h in
  let ark_counters =
    match h.ark with
    | Some a -> List.map snd (Tk_stats.Counters.snapshot a.Ark_run.ark.Ark.counters)
    | None -> []
  in
  activity_ints s.m3 @ activity_ints s.cpu @ Array.to_list s.v @ ark_counters
  @ List.map snd (Native_run.device_states h.nat)

(** Modelled system energy between two snaps, as {!Tk_fleet.Fleet} books
    an instance: both cores with the M3 side carrying device DMA, plus
    deep sleep. *)
let energy_uj a b =
  let m3 = Core.activity_delta a.m3 b.m3
  and cpu = Core.activity_delta a.cpu b.cpu in
  let dma = (delta a b "dma.rd_bytes", delta a b "dma.wr_bytes") in
  Power.total (Power.of_activity ~params:Soc.m3_params ~act:m3 ~dma_bytes:dma ())
  +. Power.total (Power.of_activity ~params:Soc.a9_params ~act:cpu ())
  +. Power.deep_sleep_uj (float_of_int (delta a b "sleep_ns") /. 1e6)

(** Busy cycles of the core that runs the device phases. *)
let busy_cycles h a b =
  match h.kind with
  | Native -> b.cpu.Core.a_busy_cycles - a.cpu.Core.a_busy_cycles
  | Offload | Lockstep -> b.m3.Core.a_busy_cycles - a.m3.Core.a_busy_cycles

(** The deterministic count proxies over a window. *)
let counts a b =
  [ ("sim_instructions", instructions b - instructions a);
    ("translations", delta a b "dbt.blocks");
    ("engine_exits", delta a b "dbt.engine_exits");
    ("patches", delta a b "dbt.patches");
    ("clock_events", delta a b "clock.events");
    ("lockstep_rounds", delta a b "lockstep.rounds") ]

(* ------------------------------ probes ------------------------------ *)

(** Callback probes for the traced run: the [Engine.callbacks] fields and
    ARK's hypercall hook are wrapped, never replaced. [first]/[last] are
    the host times of the first and the latest timed M3 callback since
    {!reset_window}: together they bound the offloaded phases of a cycle
    from outside. *)
type probes = {
  emu : Recorder.cell;
  hook : Recorder.cell;
  irq_window : Recorder.cell;
  gic : Recorder.cell;
  mutable first : int;
  mutable last : int;
  mutable first_w : int;  (** minor words of the probing domain at [first] *)
  mutable last_w : int;
}

let cells p = [ p.emu; p.hook; p.irq_window; p.gic ]

let reset_window p =
  p.first <- -1;
  p.last <- -1

(* one in [irq_sample] block-boundary callbacks is timed; a clock read
   costs ~40 ns on a shared 2-core Xeon VM against ~600 ns of simulation per
   block, so timing every call would distort what it measures *)
let irq_sample = 32

let mark_first p t0 w0 =
  if p.first < 0 then begin
    p.first <- t0;
    p.first_w <- w0
  end

let timed p (c : Recorder.cell) f =
  let cost = Lazy.force Util.clock_cost_ns in
  let t0 = Util.now_ns () and w0 = Util.minor_words () in
  mark_first p t0 w0;
  match f () with
  | v ->
    let t1 = Util.now_ns () and w1 = Util.minor_words () in
    c.c_calls <- c.c_calls + 1;
    c.c_ns <- c.c_ns + max 0 (t1 - t0 - cost);
    c.c_words <- c.c_words + (w1 - w0);
    p.last <- t1;
    p.last_w <- w1;
    v
  | exception e ->
    let t1 = Util.now_ns () in
    c.c_calls <- c.c_calls + 1;
    c.c_ns <- c.c_ns + max 0 (t1 - t0 - cost);
    p.last <- t1;
    raise e

(** [install_probes ?prefix e] — wrap [e]'s callbacks; the cells are
    named [prefix ^ "ark.emu"] and so on. *)
let install_probes ?(prefix = "") (e : Engine.t) =
  let p =
    { emu = Recorder.cell (prefix ^ "ark.emu");
      hook = Recorder.cell (prefix ^ "ark.hook");
      irq_window = Recorder.cell ~sample:irq_sample (prefix ^ "ark.irq_window");
      gic = Recorder.cell (prefix ^ "ark.gic"); first = -1; last = -1;
      first_w = 0; last_w = 0 }
  in
  let cb = e.Engine.cb in
  let on_emu = cb.Engine.on_emu
  and on_hook = cb.Engine.on_hook
  and on_irq_window = cb.Engine.on_irq_window
  and on_gic = cb.Engine.on_gic_access in
  cb.Engine.on_emu <- (fun name cpu -> timed p p.emu (fun () -> on_emu name cpu));
  cb.Engine.on_hook <-
    (fun name cpu -> timed p p.hook (fun () -> on_hook name cpu));
  cb.Engine.on_gic_access <-
    (fun ~write addr v -> timed p p.gic (fun () -> on_gic ~write addr v));
  let c = p.irq_window in
  let cost = Lazy.force Util.clock_cost_ns in
  cb.Engine.on_irq_window <-
    (fun cpu ->
      let n = c.Recorder.c_calls + 1 in
      c.Recorder.c_calls <- n;
      if n mod irq_sample = 0 || p.first < 0 then begin
        let t0 = Util.now_ns () and w0 = Util.minor_words () in
        mark_first p t0 w0;
        on_irq_window cpu;
        let t1 = Util.now_ns () and w1 = Util.minor_words () in
        c.Recorder.c_ns <-
          c.Recorder.c_ns + (irq_sample * max 0 (t1 - t0 - cost));
        c.Recorder.c_words <- c.Recorder.c_words + (irq_sample * (w1 - w0));
        p.last <- t1;
        p.last_w <- w1
      end
      else on_irq_window cpu);
  p

(* ------------------------------- fleet ------------------------------- *)

(** One population a [fleet-mixed] operation simulates: 24 instances
    round-robin over all six {!Fleet.dconfigs} (4 each, one shard per
    configuration), Poisson arrivals, 200 ms of simulated time per
    instance. *)
let fleet_config ~seed ~jobs =
  { Fleet.default_config with
    Fleet.devices = 24; arrival = Tk_fleet.Arrival.Poisson; jobs; seed;
    duration_ms = 200; mean_gap_ms = 40 }

let rec jfield path (j : J.json) =
  match (path, j) with
  | [], _ -> Some j
  | k :: rest, J.Obj kvs -> (
    match List.assoc_opt k kvs with Some v -> jfield rest v | None -> None)
  | _ -> None

let jint path j = match jfield path j with Some (J.Int i) -> i | _ -> 0

(** A shard's per-instance rows [(id, wakeups, fallbacks, energy_nj)]. *)
let instance_rows (o : Fleet.shard_out) =
  match jfield [ "per_instance" ] o.Fleet.o_metrics with
  | Some (J.Arr rows) ->
    List.map
      (fun r ->
        ( jint [ "id" ] r, jint [ "wakeups" ] r, jint [ "fallbacks" ] r,
          jint [ "energy_nj" ] r ))
      rows
  | _ -> []

let rows_ints rows =
  List.concat_map (fun (a, b, c, d) -> [ a; b; c; d ]) rows

let counter (o : Fleet.shard_out) k =
  Option.value ~default:0 (List.assoc_opt k o.Fleet.o_counters)

let host_counter (o : Fleet.shard_out) k =
  Option.value ~default:0 (List.assoc_opt k o.Fleet.o_host)

(** One shard task and the checks made on it: it returns, and it ran
    every instance the plan gave it. *)
let shard ~built cfg (sh : Fleet.shard) =
  match Fleet.shard_task ~built cfg sh with
  | o when List.length (instance_rows o) = List.length sh.Fleet.sh_ids -> Ok o
  | o ->
    Error
      (Printf.sprintf "shard %d ran %d of %d instances" sh.Fleet.sh_index
         (List.length (instance_rows o))
         (List.length sh.Fleet.sh_ids))
  | exception e ->
    Error (Printf.sprintf "shard %d: %s" sh.Fleet.sh_index (Printexc.to_string e))

(** Invalidate what a world restore made stale, as the fleet's own shard
    loop does: the interpreter's pre-decoded words on every rewritten
    kernel-image page, and the DBT code cache (at its next boundary) if a
    word some translation consumed really changed. *)
let on_page_restored (ark : Ark_run.t) page ~(old : Bytes.t) =
  let interp = ark.Ark_run.nat.Native_run.interp in
  let e = ark.Ark_run.ark.Ark.engine in
  let mem = interp.Interp.soc.Soc.mem in
  let lo = mem.Mem.ram_base + (page lsl Mem.page_bits) in
  let hi = lo + Mem.page_size in
  let dlo = max lo Soc.kernel_base and dhi = min hi Soc.page_pool_base in
  if dlo < dhi then begin
    let d = interp.Interp.decode in
    let i0 = (dlo - Soc.kernel_base) asr 2 in
    let i1 = min (((dhi - Soc.kernel_base) asr 2) - 1) (Array.length d - 1) in
    for k = i0 to i1 do
      d.(k) <- None
    done;
    let cover = e.Engine.guest_cover in
    for k = i0 to min i1 (Bytes.length cover - 1) do
      if Bytes.get cover k <> '\000' then begin
        let addr = Soc.kernel_base + (k lsl 2) in
        let off = addr - lo in
        if Mem.ram_read mem addr 4 <> Int32.to_int (Bytes.get_int32_le old off) land 0xFFFF_FFFF
        then e.Engine.pending_flush <- true
      end
    done
  end
