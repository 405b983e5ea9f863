(* Platform simulator: clock, caches, interrupt fabric, memory, timers. *)

open Tk_machine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_clock_ordering () =
  let c = Clock.create () in
  let log = ref [] in
  let _c1 : unit -> unit = Clock.at c 100 (fun () -> log := 1 :: !log) in
  let _c2 : unit -> unit = Clock.at c 50 (fun () -> log := 2 :: !log) in
  let _c3 : unit -> unit = Clock.at c 100 (fun () -> log := 3 :: !log) in
  Clock.advance c 100;
  Alcotest.(check (list int)) "fires in time order, FIFO on ties" [ 2; 1; 3 ]
    (List.rev !log)

let test_clock_cancel () =
  let c = Clock.create () in
  let fired = ref false in
  let cancel = Clock.at c 10 (fun () -> fired := true) in
  cancel ();
  Clock.advance c 100;
  checkb "cancelled event does not fire" false !fired

let test_clock_skip () =
  let c = Clock.create () in
  let fired = ref false in
  let _c : unit -> unit = Clock.at c 500 (fun () -> fired := true) in
  (match Clock.skip_to_next_event c with
  | Some skipped -> checki "skips 500ns" 500 skipped
  | None -> Alcotest.fail "expected an event");
  checkb "event fired" true !fired;
  checkb "no more events" true (Clock.skip_to_next_event c = None)

let test_cache_basic () =
  let cache = Cache.create ~name:"t" ~size_kb:1 ~miss_penalty:10 in
  checki "first access misses" 10 (Cache.access cache ~write:false 0x1000);
  checki "second access hits" 0 (Cache.access cache ~write:false 0x1000);
  checki "same line hits" 0 (Cache.access cache ~write:false 0x101C);
  (* 1 KB direct-mapped = 32 sets; +32*32 bytes conflicts *)
  checki "conflicting line misses" 10 (Cache.access cache ~write:false 0x1400);
  checki "original evicted" 10 (Cache.access cache ~write:false 0x1000)

let test_cache_writeback () =
  let cache = Cache.create ~name:"t" ~size_kb:1 ~miss_penalty:10 in
  ignore (Cache.access cache ~write:true 0x1000);
  let wr0 = cache.Cache.wr_bytes in
  ignore (Cache.access cache ~write:false 0x1400);
  checki "dirty eviction writes back a line" 32 (cache.Cache.wr_bytes - wr0);
  let flushed = Cache.flush cache in
  checkb "flush reports dirty lines" true (flushed >= 0);
  checki "flush invalidates" 10 (Cache.access cache ~write:false 0x1400)

let test_fabric_routing () =
  let soc = Soc.create () in
  let fab = soc.Soc.fabric in
  (* a device line routes to both controllers with different numbers *)
  let line = Soc.dev_irq 0 in
  Intc.enable fab.Intc.gic line true;
  Intc.raise_line fab line;
  checkb "gic sees it" true (Intc.highest fab.Intc.gic = Some line);
  let nline = match fab.Intc.route line with Some n -> n | None -> -1 in
  checkb "routed to nvic" true (nline >= 0);
  checkb "different line number" true (nline <> line);
  checki "reverse route" line (fab.Intc.reverse_route nline);
  (* a CPU-only line does not reach the NVIC *)
  checkb "timer line unrouted" true (fab.Intc.route Soc.irq_cpu_timer = None)

let test_intc_ack_eoi () =
  let ic = Intc.create ~name:"t" ~nlines:8 in
  Intc.enable ic 3 true;
  Intc.enable ic 5 true;
  Intc.set_pending ic 5;
  Intc.set_pending ic 3;
  checki "lowest line first" 3 (Intc.ack ic);
  checkb "in service masks others" true (Intc.highest ic = None);
  Intc.eoi ic 3;
  checki "next pending" 5 (Intc.ack ic);
  Intc.eoi ic 5;
  checki "spurious" 1023 (Intc.ack ic)

let test_gic_mmio () =
  let soc = Soc.create () in
  let base = Soc.gic_base in
  Mem.write soc.Soc.mem (base + Intc.enable_set_off) 4 7;
  checkb "enabled via mmio" true soc.Soc.fabric.Intc.gic.Intc.enabled.(7);
  Intc.set_pending soc.Soc.fabric.Intc.gic 7;
  checki "IAR acks" 7 (Mem.read soc.Soc.mem (base + Intc.iar_off) 4);
  Mem.write soc.Soc.mem (base + Intc.eoi_off) 4 7;
  checkb "after eoi nothing in service" true
    (soc.Soc.fabric.Intc.gic.Intc.in_service = None)

let test_mem_bounds () =
  let soc = Soc.create () in
  Mem.write soc.Soc.mem Soc.ram_base 4 0xDEADBEEF;
  checki "ram roundtrip" 0xDEADBEEF (Mem.read soc.Soc.mem Soc.ram_base 4);
  Mem.write soc.Soc.mem (Soc.ram_base + 5) 1 0xFF;
  checki "byte write" 0xFF (Mem.read soc.Soc.mem (Soc.ram_base + 5) 1);
  (match Mem.read soc.Soc.mem 0x60000000 4 with
  | _ -> Alcotest.fail "expected bus fault"
  | exception Mem.Bus_fault _ -> ())

let test_dma_counters () =
  let soc = Soc.create () in
  let before = soc.Soc.mem.Mem.dma_read_bytes in
  Mem.dma_read soc.Soc.mem Soc.ram_base 128;
  checki "dma read counted" 128 (soc.Soc.mem.Mem.dma_read_bytes - before);
  Mem.dma_write soc.Soc.mem Soc.ram_base 3 (fun i -> i + 1);
  checki "dma write landed" 1 (Mem.read soc.Soc.mem Soc.ram_base 1);
  (* a transfer straddling a page boundary marks both pages, bytes
     masked to 8 bits *)
  let mem = soc.Soc.mem in
  for i = 0 to 2 do Mem.set_page_touched mem i false done;
  Mem.dma_write mem (Soc.ram_base + Mem.page_size - 2) 4 (fun i -> 0x100 + i);
  checkb "page 0 marked" true (Mem.page_touched mem 0);
  checkb "page 1 marked" true (Mem.page_touched mem 1);
  checkb "page 2 untouched" false (Mem.page_touched mem 2);
  checki "byte masked" 3 (Mem.read mem (Soc.ram_base + Mem.page_size + 1) 1);
  (* running off the top of DRAM fails once the in-range prefix landed *)
  let top = Soc.ram_base + Bytes.length mem.Mem.ram - 2 in
  (match Mem.dma_write mem top 4 (fun _ -> 0xAA) with
  | () -> Alcotest.fail "expected an out-of-range dma write to fail"
  | exception Invalid_argument _ ->
    checki "in-range prefix written" 0xAA (Mem.read mem (top + 1) 1));
  match Mem.dma_read mem top 4 with
  | () -> Alcotest.fail "expected an out-of-range dma read to fail"
  | exception Invalid_argument _ -> ()

let test_timer_tick () =
  let soc = Soc.create () in
  Timer.start_tick soc.Soc.cpu_timer 1000;
  Clock.advance soc.Soc.clock 3500;
  checkb "tick raised the line" true
    soc.Soc.fabric.Intc.gic.Intc.pending.(Soc.irq_cpu_timer);
  Timer.stop_tick soc.Soc.cpu_timer;
  Intc.clear_pending soc.Soc.fabric.Intc.gic Soc.irq_cpu_timer;
  Clock.advance soc.Soc.clock 5000;
  checkb "stopped tick stays quiet" false
    soc.Soc.fabric.Intc.gic.Intc.pending.(Soc.irq_cpu_timer)

let test_core_accounting () =
  let soc = Soc.create () in
  let cpu = soc.Soc.cpu in
  Core.charge cpu 1200;  (* 1200 cycles at 1.2 GHz = 1 us *)
  checkb "busy ~1us" true
    (let ns = Core.busy_ns cpu in ns >= 995 && ns <= 1000);
  let _c : unit -> unit =
    Clock.at soc.Soc.clock (soc.Soc.clock.Clock.now + 5000) (fun () -> ())
  in
  checkb "idles to event" true (Core.idle_until_event cpu);
  checki "idle ns" 5000 (Core.idle_ns cpu)

let test_cpi_model () =
  let soc = Soc.create () in
  let m3 = soc.Soc.m3 in
  let total = ref 0 in
  for _ = 1 to 3000 do
    total := !total + Core.instr_cycles m3
  done;
  (* m3 CPI = 1 + 4/3 = 2.33 *)
  let cpi = float_of_int !total /. 3000.0 in
  checkb "m3 CPI ~2.33" true (cpi > 2.3 && cpi < 2.4);
  checki "a9 CPI exactly 1" 1 (Core.instr_cycles soc.Soc.cpu)

let test_device_model () =
  let soc = Soc.create () in
  let d =
    Tk_drivers.Device.create soc ~name:"t" ~index:0 ~suspend_us:10
      ~resume_us:20 ()
  in
  let base = Soc.dev_base 0 in
  Mem.write soc.Soc.mem (base + Tk_drivers.Device.r_cmd) 4 1;
  checki "busy during transition" 3 (Mem.read soc.Soc.mem base 4);
  Clock.advance soc.Soc.clock 11_000;
  (* power_on cleared, cmd_done set *)
  checki "suspended" 4 (Mem.read soc.Soc.mem base 4);
  ignore d

let test_device_glitch () =
  let soc = Soc.create () in
  let d =
    Tk_drivers.Device.create soc ~name:"t" ~index:0 ~suspend_us:10
      ~resume_us:20 ()
  in
  d.Tk_drivers.Device.power_on <- false;
  d.Tk_drivers.Device.glitch_next_resume <- true;
  let base = Soc.dev_base 0 in
  Mem.write soc.Soc.mem (base + Tk_drivers.Device.r_cmd) 4 2;
  Clock.advance soc.Soc.clock 100_000;
  checki "wedged: busy forever, no done" 2 (Mem.read soc.Soc.mem base 4);
  checki "glitch consumed" 1 d.Tk_drivers.Device.glitches_hit

(* property: events always fire in nondecreasing time order *)
let prop_clock_order =
  QCheck.Test.make ~count:200 ~name:"clock fires in time order"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_bound 10_000))
    (fun times ->
      let c = Clock.create () in
      let fired = ref [] in
      List.iter
        (fun at ->
          let _cancel : unit -> unit =
            Clock.at c at (fun () -> fired := at :: !fired)
          in
          ())
        times;
      Clock.advance c 20_000;
      let got = List.rev !fired in
      got = List.sort compare times && List.length got = List.length times)

(* property: a second access to the same line always hits if nothing
   conflicting intervened *)
let prop_cache_rehit =
  QCheck.Test.make ~count:200 ~name:"cache re-hit"
    QCheck.(int_bound 0xFFFFF)
    (fun addr ->
      let cache = Cache.create ~name:"p" ~size_kb:4 ~miss_penalty:7 in
      ignore (Cache.access cache ~write:false addr);
      Cache.access cache ~write:false (addr lxor 3) = 0)

(* property: booking a straight-line stretch of [k] instructions in one
   step ([Core.book], the DBT engine's retire accounting) ends exactly
   where [k] per-instruction charges followed by the stall and extra
   cycles do — busy counters, both carries, the clock and the events
   fired — from any starting carries, for any CPI and clock ratio; and
   a stretch as long as [Core.horizon] allows leaves no event due *)
type stretch = {
  num : int;
  den : int;
  freq_mhz : int;  (** 1200 -> 833 ps per cycle, 200 -> 5000 *)
  k : int;
  imiss : int;  (** 1: the last instruction's I-fetch missed *)
  stall : int;  (** that miss's stall, else a data miss after it *)
  extra : int;
  acc0 : int;
  frac0 : int;
  now0 : int;
  events : int list;  (** offsets from [now0] *)
}

let stretch_gen =
  QCheck.Gen.(
    oneof [ return (0, 1); return (4, 3); pair (int_bound 6) (int_range 1 7) ]
    >>= fun (num, den) ->
    oneof [ return 1200; return 200; int_range 50 2000 ] >>= fun freq_mhz ->
    int_range 0 400 >>= fun k ->
    (if k = 0 then return 0 else int_bound 1) >>= fun imiss ->
    int_bound 40 >>= fun stall ->
    int_bound 60 >>= fun extra ->
    int_bound (den - 1) >>= fun acc0 ->
    int_bound 999 >>= fun frac0 ->
    int_bound 100_000 >>= fun now0 ->
    list_size (int_range 1 8) (int_bound 6_000) >>= fun events ->
    return
      { num; den; freq_mhz; k; imiss; stall; extra; acc0; frac0; now0;
        events })

let print_stretch c =
  Printf.sprintf
    "cpi 1+%d/%d, %d MHz, k=%d imiss=%d stall=%d extra=%d, acc0=%d \
     frac0=%d now0=%d, events +[%s]"
    c.num c.den c.freq_mhz c.k c.imiss c.stall c.extra c.acc0 c.frac0
    c.now0 (String.concat ";" (List.map string_of_int c.events))

let stretch_core c =
  let clock = Clock.create () in
  clock.Clock.now <- c.now0;
  let cache = Cache.create ~name:"p" ~size_kb:4 ~miss_penalty:20 in
  let core =
    Core.create ~clock ~cache
      { Soc.m3_params with
        Core.freq_mhz = c.freq_mhz; cpi_num = c.num; cpi_den = c.den }
  in
  core.Core.cpi_acc <- c.acc0;
  core.Core.frac_ps <- c.frac0;
  let fired = ref [] in
  List.iteri
    (fun i off -> Clock.after_ clock off (fun () -> fired := i :: !fired))
    c.events;
  (core, fired)

let stretch_state (core : Core.t) fired =
  ( [ core.Core.busy_cycles; core.Core.busy_ps; core.Core.frac_ps;
      core.Core.cpi_acc; core.Core.clock.Clock.now; core.Core.instructions;
      core.Core.stall_cycles; core.Core.cache.Cache.hits ],
    List.rev !fired )

let prop_stretch_booking =
  QCheck.Test.make ~count:500 ~name:"stretch booking = per-instruction charges"
    (QCheck.make ~print:print_stretch stretch_gen)
    (fun c ->
      let per, per_fired = stretch_core c in
      for j = 1 to c.k do
        Core.count_instruction per;
        let missed = c.imiss = 1 && j = c.k in
        let cache = per.Core.cache in
        if not missed then cache.Cache.hits <- cache.Cache.hits + 1;
        let s = if missed then c.stall else 0 in
        per.Core.stall_cycles <- per.Core.stall_cycles + s;
        Core.charge per (Core.instr_cycles per + s)
      done;
      if c.imiss = 0 then Core.charge_stall per c.stall;
      if c.extra > 0 then Core.charge per c.extra;
      let one, one_fired = stretch_core c in
      Core.book one ~k:c.k ~imiss:c.imiss ~stall:c.stall ~extra:c.extra;
      let hz, hz_fired = stretch_core c in
      let m = Core.horizon hz ~deadline:max_int in
      if m > 0 then Core.book hz ~k:m ~imiss:0 ~stall:0 ~extra:0;
      stretch_state per per_fired = stretch_state one one_fired
      && (m <= 0
         || (!hz_fired = []
            && hz.Core.clock.Clock.now < hz.Core.clock.Clock.next_at)))

let () =
  Alcotest.run "machine"
    [ ( "clock",
        [ Alcotest.test_case "event ordering" `Quick test_clock_ordering;
          Alcotest.test_case "cancellation" `Quick test_clock_cancel;
          Alcotest.test_case "skip to next event" `Quick test_clock_skip ] );
      ( "cache",
        [ Alcotest.test_case "hits and conflicts" `Quick test_cache_basic;
          Alcotest.test_case "writeback traffic" `Quick test_cache_writeback ] );
      ( "interrupts",
        [ Alcotest.test_case "fabric routing" `Quick test_fabric_routing;
          Alcotest.test_case "ack/eoi protocol" `Quick test_intc_ack_eoi;
          Alcotest.test_case "gic mmio interface" `Quick test_gic_mmio ] );
      ( "memory",
        [ Alcotest.test_case "ram and faults" `Quick test_mem_bounds;
          Alcotest.test_case "dma traffic" `Quick test_dma_counters ] );
      ( "timers", [ Alcotest.test_case "periodic tick" `Quick test_timer_tick ] );
      ( "cores",
        [ Alcotest.test_case "busy/idle accounting" `Quick
            test_core_accounting;
          Alcotest.test_case "fractional CPI" `Quick test_cpi_model ] );
      ( "devices",
        [ Alcotest.test_case "power transitions" `Quick test_device_model;
          Alcotest.test_case "glitch injection" `Quick test_device_glitch ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_clock_order;
          QCheck_alcotest.to_alcotest prop_cache_rehit;
          QCheck_alcotest.to_alcotest prop_stretch_booking ] ) ]
