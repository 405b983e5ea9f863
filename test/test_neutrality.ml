(* Cycle-neutrality regression — the perf-PR guard.

   Host-side performance work on the two interpreters (pre-decoded
   instruction arrays, fast-path memory access, fused cycle charges)
   must never change the simulated timing model: it may change host
   wall-clock only. These goldens were captured from the seed
   implementation — one cold boot plus one suspend/resume cycle in each
   of the four execution arms — and pin busy cycles, instruction
   counts, cache hit/miss counts and DRAM traffic bit-exactly. The
   superblock tier is cycle-accounted rather than cycle-neutral (trace
   formation and fusion change its simulated cost), so its golden was
   captured from the tier as it stands; it pins that tier's simulated
   numbers against unintended drift the same way.

   Run the binary with TK_CAPTURE=1 to print fresh values. Re-capturing
   is only legitimate when the *model* intentionally changes (new cost
   knobs, different cache geometry), never for host-side optimization.

   The second half checks the chaining ablation: patching direct
   branches into the code cache must not change what the guest computes,
   only how many engine exits it costs — this guards the patch-time
   decode-array invalidation. *)

open Tk_machine
module Translator = Tk_dbt.Translator
module Native_run = Tk_harness.Native_run
module Ark_run = Tk_harness.Ark_run

type nums = {
  cpu_cycles : int;  (** A9 busy cycles since boot *)
  m3_cycles : int;  (** M3 busy cycles since boot *)
  instrs : int;  (** instructions retired on the arm's active core *)
  hits : int;  (** active core's cache hits *)
  misses : int;
  rd_bytes : int;  (** DRAM fill traffic of the active core's cache *)
  wr_bytes : int;  (** DRAM writeback traffic *)
}

let pp n =
  Printf.sprintf
    "{ cpu_cycles = %d; m3_cycles = %d; instrs = %d;\n\
    \    hits = %d; misses = %d; rd_bytes = %d; wr_bytes = %d }"
    n.cpu_cycles n.m3_cycles n.instrs n.hits n.misses n.rd_bytes n.wr_bytes

let of_soc (soc : Soc.t) ~(active : Core.t) =
  { cpu_cycles = soc.Soc.cpu.Core.busy_cycles;
    m3_cycles = soc.Soc.m3.Core.busy_cycles;
    instrs = active.Core.instructions;
    hits = active.Core.cache.Cache.hits;
    misses = active.Core.cache.Cache.misses;
    rd_bytes = active.Core.cache.Cache.rd_bytes;
    wr_bytes = active.Core.cache.Cache.wr_bytes }

let run_native () =
  let nat = Native_run.create () in
  ignore (Native_run.suspend_resume_cycle nat);
  let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.cpu

let run_mode ?superblock mode =
  let ark = Ark_run.create ?superblock ~mode () in
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.m3

(* ------------------- goldens (captured from seed) -------------------- *)

let golden_native =
  { cpu_cycles = 2219090; m3_cycles = 0; instrs = 1624350;
    hits = 2533188; misses = 4234; rd_bytes = 135488; wr_bytes = 192 }

let golden_ark =
  { cpu_cycles = 49415; m3_cycles = 4518853; instrs = 1546878;
    hits = 2415768; misses = 7733; rd_bytes = 247456; wr_bytes = 199264 }

let golden_mid =
  { cpu_cycles = 49415; m3_cycles = 6480514; instrs = 2333709;
    hits = 3983155; misses = 9132; rd_bytes = 292224; wr_bytes = 220960 }

let golden_baseline =
  { cpu_cycles = 49415; m3_cycles = 23175135; instrs = 9399843;
    hits = 14717963; misses = 19799; rd_bytes = 633568; wr_bytes = 316800 }

let golden_superblock =
  { cpu_cycles = 49415; m3_cycles = 3263591; instrs = 1492352;
    hits = 2361507; misses = 7900; rd_bytes = 252800; wr_bytes = 202528 }

let check_nums label golden got =
  if got <> golden then
    Alcotest.failf "%s: simulated counters drifted from the seed model\n  golden: %s\n  got:    %s"
      label (pp golden) (pp got)

let test_native () = check_nums "native" golden_native (run_native ())
let test_ark () = check_nums "ARK" golden_ark (run_mode Translator.Ark)
let test_mid () = check_nums "Mid" golden_mid (run_mode Translator.Mid)

let test_baseline () =
  check_nums "Baseline" golden_baseline (run_mode Translator.Baseline)

let test_superblock () =
  check_nums "superblock" golden_superblock
    (run_mode ~superblock:true Translator.Ark)

(* ------------------- tracing neutrality ------------------------------ *)

(* The flight recorder must be simulation-neutral: a cycle run with
   tracing enabled has to reproduce the exact same goldens as one run
   with it disabled. Guards against any emission site accidentally
   charging simulated cycles or perturbing model state. *)

let run_native_traced () =
  let nat = Native_run.create () in
  let soc = nat.Native_run.plat.Tk_drivers.Platform.soc in
  Tk_stats.Trace.enable soc.Soc.trace;
  ignore (Native_run.suspend_resume_cycle nat);
  of_soc soc ~active:soc.Soc.cpu

let run_mode_traced ?superblock mode =
  let ark = Ark_run.create ?superblock ~mode () in
  Tk_stats.Trace.enable (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.trace;
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  of_soc soc ~active:soc.Soc.m3

let test_native_traced () =
  check_nums "native (tracing on)" golden_native (run_native_traced ())

let test_ark_traced () =
  check_nums "ARK (tracing on)" golden_ark (run_mode_traced Translator.Ark)

let test_mid_traced () =
  check_nums "Mid (tracing on)" golden_mid (run_mode_traced Translator.Mid)

let test_baseline_traced () =
  check_nums "Baseline (tracing on)" golden_baseline
    (run_mode_traced Translator.Baseline)

let test_superblock_traced () =
  check_nums "superblock (tracing on)" golden_superblock
    (run_mode_traced ~superblock:true Translator.Ark)

(* ------------------- chaining on/off equivalence --------------------- *)

(* Architectural end state of a run: what the guest computed, independent
   of how many cycles it took. Timing-dependent words (jiffies, busy
   accounting) are deliberately excluded — chaining changes cycle counts,
   so wall-time-derived guest state legitimately differs. *)
let arch_state (ark : Ark_run.t) =
  let nat = ark.Ark_run.nat in
  ( Native_run.device_states nat,
    List.rev nat.Native_run.console,
    nat.Native_run.warns,
    nat.Native_run.last_exit_r0 )

let test_chaining_equivalence () =
  let run chain =
    let ark = Ark_run.create () in
    ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.chain <- chain;
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "fallback with chain=%b: %s" chain r);
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Alcotest.failf "fallback with chain=%b: %s" chain r);
    ark
  in
  let on = run true and off = run false in
  (* the chained run actually patched sites (else this test guards
     nothing), the unchained one did not *)
  Alcotest.(check bool) "chaining patched sites" true
    (on.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.patches > 0);
  Alcotest.(check int) "no patches with chaining off" 0
    off.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.patches;
  let s_on, c_on, w_on, r_on = arch_state on in
  let s_off, c_off, w_off, r_off = arch_state off in
  Alcotest.(check (list (pair string int))) "device states" s_off s_on;
  Alcotest.(check (list char)) "console output" c_off c_on;
  Alcotest.(check (list int)) "warn codes" w_off w_on;
  Alcotest.(check int) "final exit r0" r_off r_on

(* ------------------- allocation-free steady state -------------------- *)

(* The host-side companion of the goldens above: the per-access and
   per-instruction paths of both cores allocate nothing, so a warm
   cycle allocates only per block, per phase and per event. Minor words
   are read around [f] and compared against an empty [f] (reading the
   counter itself boxes a float), as in test_timeseries. *)
module Exec = Tk_isa.Exec
module Types = Tk_isa.Types

let minor_delta f =
  let a = Gc.minor_words () in
  f ();
  Gc.minor_words () -. a

let check_no_alloc what f =
  let baseline = minor_delta (fun () -> ()) in
  Alcotest.(check (float 0.0)) (what ^ " allocates nothing") baseline
    (minor_delta f)

let test_run_due_alloc () =
  let empty = Clock.create () in
  check_no_alloc "run_due, empty queue" (fun () ->
      for _ = 1 to 1000 do Clock.run_due empty done);
  let pending = Clock.create () in
  Clock.after_ pending 1_000 ignore;
  check_no_alloc "run_due, nothing due" (fun () ->
      for _ = 1 to 1000 do Clock.run_due pending done);
  (* a root cleared without its cancel handle's purge: the state
     [run_due] cleans up on its way to the next live event *)
  let dead_root () =
    let c = Clock.create () in
    Clock.after_ c 10 ignore;
    Clock.after_ c 1_000 ignore;
    c.Clock.heap.(0).Clock.live <- false;
    c
  in
  let qs = Array.init 100 (fun _ -> dead_root ()) in
  check_no_alloc "run_due, dead root" (fun () -> Array.iter Clock.run_due qs);
  Alcotest.(check int) "dead root purged" 1 qs.(0).Clock.size;
  Alcotest.(check int) "next_at refreshed" 1_000 qs.(0).Clock.next_at

let test_charge_stall_alloc () =
  let clock = Clock.create () in
  Clock.after_ clock 1_000 ignore;
  let cache = Cache.create ~name:"m3" ~size_kb:16 ~miss_penalty:20 in
  let core = Core.create ~clock ~cache Soc.m3_params in
  check_no_alloc "charge_stall on a hit" (fun () ->
      for _ = 1 to 1000 do Core.charge_stall core 0 done)

let test_ldm_stm_alloc () =
  let cpu = Exec.make_cpu () in
  let env =
    { Exec.load = (fun _ _ -> 0); store = (fun _ _ _ -> ());
      svc = (fun _ _ -> ()); wfi = ignore; irq_ret = ignore;
      undef = (fun _ _ -> ()) }
  in
  cpu.Exec.r.(Types.sp) <- 0x2000_0000;
  let regs = [ 4; 5; 6; 7; Types.lr ] in
  let stm = Types.at (Types.Stm (Types.sp, true, regs)) in
  let ldm = Types.at (Types.Ldm (Types.sp, true, regs)) in
  check_no_alloc "Exec.step of STM/LDM" (fun () ->
      for _ = 1 to 1000 do
        ignore (Exec.step cpu env ~addr:0x1000 stm);
        ignore (Exec.step cpu env ~addr:0x1000 ldm)
      done);
  Alcotest.(check int) "sp balanced" 0x2000_0000 cpu.Exec.r.(Types.sp)

(* one warm cycle, after three warm-up cycles, allocates under 0.1 minor
   words per instruction retired on either core: ~0.02 is per-block and
   per-event work, while one allocation per data access costs ~2 *)
let check_warm_cycle what (soc : Soc.t) cycle =
  for _ = 1 to 3 do cycle () done;
  let instrs () = soc.Soc.m3.Core.instructions + soc.Soc.cpu.Core.instructions in
  let i0 = instrs () in
  let words = minor_delta cycle in
  let per_instr = words /. float_of_int (instrs () - i0) in
  if per_instr >= 0.1 then
    Alcotest.failf "%s: %.4f minor words per instruction (bar 0.1)" what
      per_instr

let test_ark_warm_alloc () =
  let ark = Ark_run.create () in
  check_warm_cycle "ARK cycle" (Ark_run.plat ark).Tk_drivers.Platform.soc
    (fun () ->
      match Ark_run.suspend_resume_cycle ark with
      | `Ok -> ()
      | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r)

let test_native_warm_alloc () =
  let nat = Native_run.create () in
  check_warm_cycle "native cycle" nat.Native_run.plat.Tk_drivers.Platform.soc
    (fun () -> ignore (Native_run.suspend_resume_cycle nat))

let () =
  if Sys.getenv_opt "TK_CAPTURE" <> None then begin
    Printf.printf "let golden_native =\n  %s\n" (pp (run_native ()));
    Printf.printf "let golden_ark =\n  %s\n" (pp (run_mode Translator.Ark));
    Printf.printf "let golden_mid =\n  %s\n" (pp (run_mode Translator.Mid));
    Printf.printf "let golden_baseline =\n  %s\n"
      (pp (run_mode Translator.Baseline));
    Printf.printf "let golden_superblock =\n  %s\n"
      (pp (run_mode ~superblock:true Translator.Ark));
    exit 0
  end;
  Alcotest.run "neutrality"
    [ ( "cycle-neutrality vs seed goldens",
        [ Alcotest.test_case "native arm" `Quick test_native;
          Alcotest.test_case "ARK arm" `Quick test_ark;
          Alcotest.test_case "Mid arm" `Quick test_mid;
          Alcotest.test_case "Baseline arm" `Quick test_baseline ] );
      ( "cycle-accounted golden",
        [ Alcotest.test_case "superblock tier" `Quick test_superblock ] );
      ( "tracing neutrality",
        [ Alcotest.test_case "native arm (tracing on)" `Quick
            test_native_traced;
          Alcotest.test_case "ARK arm (tracing on)" `Quick test_ark_traced;
          Alcotest.test_case "Mid arm (tracing on)" `Quick test_mid_traced;
          Alcotest.test_case "Baseline arm (tracing on)" `Quick
            test_baseline_traced;
          Alcotest.test_case "superblock tier (tracing on)" `Quick
            test_superblock_traced ] );
      ( "chaining ablation",
        [ Alcotest.test_case "on/off architectural equivalence" `Quick
            test_chaining_equivalence ] );
      ( "allocation-free steady state",
        [ Alcotest.test_case "Clock.run_due" `Quick test_run_due_alloc;
          Alcotest.test_case "Core.charge_stall hit" `Quick
            test_charge_stall_alloc;
          Alcotest.test_case "Exec.step LDM/STM" `Quick test_ldm_stm_alloc;
          Alcotest.test_case "warm ARK cycle" `Quick test_ark_warm_alloc;
          Alcotest.test_case "warm native cycle" `Quick
            test_native_warm_alloc ] ) ]
