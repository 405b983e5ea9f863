(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) from the simulation. Run with no arguments for the
   full suite, or with a subset of:

     table3 table4 table5 table6 fig3 fig5 fig6 fig7
     abi services fallback dram biglittle battery aarch64 bechamel

   Options: --runs N (fallback stress iterations, default 200; the paper
   uses 1000). Absolute numbers are simulator cycles/energies — the
   SHAPES (who wins, by what factor, where break-evens sit) are the
   reproduction targets; see EXPERIMENTS.md. *)

open Tk_harness
open Tk_stats
module Translator = Tk_dbt.Translator
module Power = Tk_energy.Power_model
module Soc = Tk_machine.Soc

let fx = Report.fx
let f2 = Report.f2

(* ------------- shared measured runs (computed lazily once) ----------- *)

let nat = lazy (Experiments.measure_native ())
let ark = lazy (Experiments.measure_mode Translator.Ark)
let mid = lazy (Experiments.measure_mode Translator.Mid)
let base = lazy (Experiments.measure_mode Translator.Baseline)

let overhead_of (r : Experiments.run) =
  Experiments.overhead ~native:(Lazy.force nat).Experiments.r_whole
    ~offloaded:r.Experiments.r_whole

(* ----------------------------- Table 3 ------------------------------- *)

let table3 () =
  let open Tk_isa.Spec in
  let implemented cat =
    List.length (List.filter (fun f -> f.category = cat) implemented_forms)
  in
  Report.table ~title:"Table 3: translation rules for v7a instruction forms"
    ~header:[ "Category"; "# forms"; "paper"; "v7m/guest"; "simulated" ]
    (List.map
       (fun (cat, paper) ->
         let lo, hi = host_range cat in
         [ category_name cat;
           string_of_int (count cat);
           string_of_int paper;
           (if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi);
           string_of_int (implemented cat) ])
       paper_counts
    @ [ [ "Total"; string_of_int total; "558"; "";
          string_of_int (List.length implemented_forms) ] ]);
  let ok =
    List.for_all
      (fun f ->
        match f.repr with
        | None -> true
        | Some i -> (
          match Tk_dbt.Rules.classify i with
          | cat, _ -> cat = f.category
          | exception Tk_dbt.Rules.Untranslatable _ ->
            f.category = No_counterpart))
      implemented_forms
  in
  Printf.printf "classifier/spec agreement: %s\n" (if ok then "yes" else "NO")

(* ----------------------------- Table 4 ------------------------------- *)

let table4 () =
  let open Tk_isa.Types in
  let guests =
    [ at (Mem { ld = true; size = Word; rt = 0; rn = 1;
                off = Oreg (2, LSR, 4); idx = Post });
      at (Dp (ADD, true, 0, 1, Imm 0x80000001));
      at (Dp (SUB, false, 0, 1, Reg 2)) ]
  in
  Printf.printf "\n== Table 4: sample translation (G1-G3) ==\n";
  let ark_total = ref 0 in
  List.iter
    (fun g ->
      let _, hosts = Tk_dbt.Rules.legalize ~gpc:0x10010000 g in
      ark_total := !ark_total + List.length hosts;
      Printf.printf "G: %-28s ->\n" (to_string g);
      List.iter
        (fun h -> Printf.printf "     H: %s\n" (to_string ~wide:true h))
        hosts)
    guests;
  (* the same three instructions through the QEMU-style baseline *)
  let soc = Soc.create () in
  let image =
    Tk_isa.Asm.link ~base:Soc.kernel_base
      [ { Tk_isa.Asm.name = "g";
          items =
            List.map (fun i -> Tk_isa.Asm.Ins i) guests
            @ [ Tk_isa.Asm.Ins (at (Bx lr)) ] } ]
      []
  in
  Tk_machine.Mem.load_image soc.Soc.mem image;
  let ctx =
    { Translator.mode = Translator.Baseline;
      classify_target = (fun _ -> Translator.T_normal);
      block_limit = Translator.default_block_limit;
      read_guest =
        (fun a -> Tk_isa.V7a.decode (Tk_machine.Mem.ram_read soc.Soc.mem a 4));
      legalize = Translator.default_legalize }
  in
  let b = Translator.translate ctx ~gpc:Soc.kernel_base in
  let baseline_count = List.length b.Translator.b_emits - 4 in
  Printf.printf
    "ARK: 3 guest -> %d host instructions (paper: 7)\n\
     baseline: 3 guest -> ~%d host instructions (paper: 27)\n"
    !ark_total baseline_count

(* ----------------------------- Table 5 ------------------------------- *)

let count_lines dir =
  try
    let files = Sys.readdir dir in
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".ml" then begin
          let ic = open_in (Filename.concat dir f) in
          let n = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr n
             done
           with End_of_file -> close_in ic);
          acc + !n
        end
        else acc)
      0 files
  with Sys_error _ -> 0

let table5 () =
  let b = Tk_drivers.Platform.build_image () in
  let sizes = Tk_kernel.Image.layer_sizes b in
  let layer l = List.assoc_opt l sizes |> Option.value ~default:0 in
  let emu_syms = Tk_kernel.Kabi.emulated in
  let emu_guest_bytes =
    List.fold_left
      (fun acc (name, sz) -> if List.mem name emu_syms then acc + sz else acc)
      0 b.Tk_kernel.Image.image.Tk_isa.Asm.frag_sizes
  in
  let dbt_sloc = count_lines "lib/dbt" and emu_sloc = count_lines "lib/core" in
  Report.table ~title:"Table 5: source inventory (simulation equivalent)"
    ~header:[ "Component"; "amount"; "paper" ]
    [ [ "Existing kernel code, translated (guest instrs)";
        string_of_int
          (((Tk_kernel.Image.instructions b * 4) - emu_guest_bytes) / 4);
        "15K SLoC" ];
      [ "  of which device-specific (bytes)";
        string_of_int (layer Tk_kernel.Image.Device_specific); "-" ];
      [ "  of which driver libs (bytes)";
        string_of_int (layer Tk_kernel.Image.Driver_lib); "-" ];
      [ "  of which kernel libs (bytes)";
        string_of_int (layer Tk_kernel.Image.Kernel_lib); "-" ];
      [ "  of which kernel services (bytes)";
        string_of_int (layer Tk_kernel.Image.Kernel_service); "-" ];
      [ "Substituted with emulation (guest instrs)";
        string_of_int (emu_guest_bytes / 4); "25K SLoC" ];
      [ "New: DBT engine (OCaml lines)";
        (if dbt_sloc = 0 then "(run from repo root)"
         else string_of_int dbt_sloc);
        "9K SLoC" ];
      [ "New: emulated services / ARK (OCaml lines)";
        (if emu_sloc = 0 then "(run from repo root)"
         else string_of_int emu_sloc);
        "1K SLoC" ] ]

(* ----------------------------- Table 6 ------------------------------- *)

let table6 () =
  let c (p : Tk_machine.Core.params) cache_kb =
    [ p.Tk_machine.Core.cname;
      Printf.sprintf "%d MHz" p.Tk_machine.Core.freq_mhz;
      Printf.sprintf "%d KB" cache_kb;
      Printf.sprintf "%.0f mW" p.Tk_machine.Core.busy_mw;
      Printf.sprintf "%.0f mW" p.Tk_machine.Core.idle_mw ]
  in
  Report.table ~title:"Table 6: platform parameters (OMAP4460 model)"
    ~header:[ "Core"; "clock"; "LLC"; "busy power"; "idle power" ]
    [ c Soc.a9_params Soc.a9_cache_kb; c Soc.m3_params Soc.m3_cache_kb ]

(* ----------------------------- Figure 3 ------------------------------ *)

let fig3 () =
  let module V = Tk_kernel.Variants in
  let module L = Tk_kernel.Layout in
  let b = Tk_drivers.Platform.build_image () in
  let per_layer l =
    List.length (List.filter (fun (_, l') -> l' = l) b.Tk_kernel.Image.layers)
  in
  Report.table
    ~title:"Figure 3a: kernel functions referenced by suspend/resume"
    ~header:[ "Layer"; "# functions (minikern)"; "paper (v4.4)" ]
    [ [ "device-specific";
        string_of_int (per_layer Tk_kernel.Image.Device_specific); "1060" ];
      [ "driver libs"; string_of_int (per_layer Tk_kernel.Image.Driver_lib);
        "384" ];
      [ "kernel libs"; string_of_int (per_layer Tk_kernel.Image.Kernel_lib);
        "155" ];
      [ "kernel services";
        string_of_int (per_layer Tk_kernel.Image.Kernel_service); "845" ] ];
  let rows =
    List.map
      (fun ((a : L.t), (b' : L.t)) ->
        let fa = V.struct_fields a and fb = V.struct_fields b' in
        let types_changed =
          List.length (List.filter (fun (n, f) -> List.assoc n fb <> f) fa)
        in
        let ba = Tk_drivers.Platform.build_image ~layout:a () in
        let bb = Tk_drivers.Platform.build_image ~layout:b' () in
        (* compare the actual compiled code of each function *)
        let words (img : Tk_isa.Asm.image) name size =
          let addr = Tk_isa.Asm.symbol img name in
          List.init (size / 4) (fun i ->
              img.Tk_isa.Asm.words.((addr - img.Tk_isa.Asm.base) / 4 + i))
        in
        let ia = ba.Tk_kernel.Image.image
        and ib = bb.Tk_kernel.Image.image in
        let funcs_changed =
          List.length
            (List.filter
               (fun (name, size) ->
                 match
                   List.assoc_opt name ib.Tk_isa.Asm.frag_sizes
                 with
                 | Some size' ->
                   size <> size' || words ia name size <> words ib name size'
                 | None -> true)
               ia.Tk_isa.Asm.frag_sizes)
        in
        [ a.L.version ^ " -> " ^ b'.L.version;
          string_of_int funcs_changed; string_of_int types_changed; "0" ])
      [ (V.v3_16, L.v4_4); (L.v4_4, V.v4_9); (V.v4_9, V.v4_20) ]
  in
  Report.table ~title:"Figure 3b: ABI churn across kernel releases"
    ~header:
      [ "Releases"; "functions w/ changed code"; "types w/ changed layout";
        "Table 2 ABI changes" ]
    rows

(* ----------------------------- Figure 5 ------------------------------ *)

let fig5 () =
  let row (r : Experiments.run) =
    let w = r.Experiments.r_whole in
    let e = r.Experiments.r_energy in
    [ r.Experiments.r_label;
      Printf.sprintf "%.2f" w.Experiments.p_busy_ms;
      Printf.sprintf "%.2f" w.Experiments.p_idle_ms;
      Printf.sprintf "%.1f" (e.Power.e_core_busy /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_core_idle /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_dram /. 1000.);
      Printf.sprintf "%.1f" (e.Power.e_io /. 1000.);
      Printf.sprintf "%.1f" (Power.total e /. 1000.) ]
  in
  let n = Lazy.force nat and a = Lazy.force ark and b = Lazy.force base in
  Report.table
    ~title:
      "Figure 5: device suspend/resume — accumulated time (ms) and energy \
       (mJ)"
    ~header:
      [ "Config"; "busy"; "idle"; "E core busy"; "E core idle"; "E DRAM";
        "E IO"; "E total" ]
    [ row n; row a; row b ];
  let rel r =
    Power.total r.Experiments.r_energy /. Power.total n.Experiments.r_energy
  in
  Report.kv "Figure 5 headlines"
    [ ( "ARK energy vs native",
        Printf.sprintf "%s  (paper: 66%%)" (Report.pct (rel a)) );
      ( "baseline energy vs native",
        Printf.sprintf "%.1fx  (paper: 5.1x)" (rel b) );
      ( "ARK busy time vs native",
        Printf.sprintf "%s  (paper: ~16x)"
          (fx
             (a.Experiments.r_whole.Experiments.p_busy_ms
             /. n.Experiments.r_whole.Experiments.p_busy_ms)) );
      ( "ARK idle time vs native",
        Printf.sprintf "%s  (paper: equal)"
          (fx
             (a.Experiments.r_whole.Experiments.p_idle_ms
             /. n.Experiments.r_whole.Experiments.p_idle_ms)) ) ]

(* ----------------------------- Figure 6 ------------------------------ *)

let fig6 () =
  let n = Lazy.force nat in
  let per_dev (r : Experiments.run) =
    List.map2
      (fun (name, ns, nr) (name', os, orr) ->
        assert (name = name');
        ( name,
          Experiments.overhead ~native:ns ~offloaded:os,
          Experiments.overhead ~native:nr ~offloaded:orr ))
      n.Experiments.r_devices r.Experiments.r_devices
  in
  let a = per_dev (Lazy.force ark) in
  let m = per_dev (Lazy.force mid) in
  let b = per_dev (Lazy.force base) in
  let rows =
    List.map
      (fun ((name, sa, ra), ((_, sm, rm), (_, sb, rb))) ->
        [ name; fx sb; fx sm; fx sa; fx rb; fx rm; fx ra ])
      (List.combine a (List.combine m b))
  in
  Report.table
    ~title:
      "Figure 6: busy overhead per device (suspend | resume; M3 cycles / A9 \
       cycles)"
    ~header:
      [ "Device"; "base S"; "+reg S"; "ARK S"; "base R"; "+reg R"; "ARK R" ]
    rows;
  let avg f l =
    List.fold_left (fun x y -> x +. f y) 0.0 l /. float_of_int (List.length l)
  in
  Report.kv "Figure 6 aggregates"
    [ ( "ARK mean overhead",
        Printf.sprintf
          "suspend %s, resume %s, whole-phase %s (paper: 2.9 / 2.6 / 2.7)"
          (fx (avg (fun (_, s, _) -> s) a))
          (fx (avg (fun (_, _, r) -> r) a))
          (fx (overhead_of (Lazy.force ark))) );
      ( "baseline mean overhead",
        Printf.sprintf "%s whole-phase (paper: 13.9x, 5.2x worse than ARK)"
          (fx (overhead_of (Lazy.force base))) );
      ( "reg passthrough gain over baseline",
        Printf.sprintf "%s (paper: 2.5-5.5x)"
          (fx (overhead_of (Lazy.force base) /. overhead_of (Lazy.force mid)))
      );
      ( "control-transfer + remaining gain",
        Printf.sprintf "%s (paper: ~2x)"
          (fx (overhead_of (Lazy.force mid) /. overhead_of (Lazy.force ark)))
      ) ]

(* ----------------------------- Figure 7 ------------------------------ *)

let fig7 () =
  let module W = Tk_energy.Whatif in
  let overheads = [ 1.; 3.; 5.; 7.; 9.; 11.; 13.; 15. ] in
  let busy_fracs = [ 0.2; 0.41; 0.6; 0.8; 1.0 ] in
  let grid = W.grid ~overheads ~busy_fracs () in
  Report.table
    ~title:
      "Figure 7: ARK system energy relative to native (rows: native busy \
       fraction; cols: DBT overhead)"
    ~header:("busy\\ovh" :: List.map fx overheads)
    (List.map
       (fun (bf, series) ->
         Report.pct bf :: List.map (fun (_, v) -> Report.pct v) series)
       grid);
  let be100 = W.break_even ~busy_frac:1.0 () in
  let be20 = W.break_even ~busy_frac:0.2 () in
  let a = Lazy.force ark and n = Lazy.force nat in
  let measured_busy =
    n.Experiments.r_whole.Experiments.p_busy_ms
    /. (n.Experiments.r_whole.Experiments.p_busy_ms
       +. n.Experiments.r_whole.Experiments.p_idle_ms)
  in
  Report.kv "Figure 7 break-evens"
    [ ( "saves energy even at 100% busy below",
        Printf.sprintf "%s overhead (paper: 3.5x)" (fx be100) );
      ( "wastes energy even at 20% busy above",
        Printf.sprintf "%s overhead (paper: 5.2x)" (fx be20) );
      ( "measured ARK operating point",
        Printf.sprintf "(%.1fx overhead, %s native busy)" (overhead_of a)
          (Report.pct measured_busy) ) ]

(* ------------------------------- abi --------------------------------- *)

let abi () =
  let module V = Tk_kernel.Variants in
  Printf.printf "\n== Build once, work with many (§7.2) ==\n";
  Printf.printf "Table 2 ABI: %s + jiffies (12 funcs + 1 var)\n"
    (String.concat ", "
       (List.filter (fun s -> s <> "jiffies") Tk_kernel.Kabi.table2));
  List.iter
    (fun (lay : Tk_kernel.Layout.t) ->
      let ark = Ark_run.create ~layout:lay () in
      let r1 = Ark_run.suspend_resume_cycle ark in
      let r2 = Ark_run.suspend_resume_cycle ark in
      let ok =
        r1 = `Ok && r2 = `Ok
        && List.for_all
             (fun (_, s) -> s = 1)
             (Native_run.device_states ark.Ark_run.nat)
      in
      Printf.printf "kernel %-6s: %s\n" lay.Tk_kernel.Layout.version
        (if ok then "ARK binary works (2 cycles, clean)" else "FAILED"))
    V.all;
  (* and across kernel *configurations* (device subsets) x versions *)
  let configs =
    [ ("full (9 devices)", Tk_drivers.Platform.registration_order);
      ("defconfig-ish (4)", [ "reg"; "mmc"; "sd"; "wifi" ]);
      ("headless (3)", [ "reg"; "usb"; "flash" ]) ]
  in
  List.iter
    (fun (lay : Tk_kernel.Layout.t) ->
      List.iter
        (fun (cname, devices) ->
          let ark = Ark_run.create ~layout:lay ~devices () in
          let ok =
            Ark_run.suspend_resume_cycle ark = `Ok
            && List.for_all
                 (fun (_, s) -> s = 1)
                 (Native_run.device_states ark.Ark_run.nat)
          in
          Printf.printf "kernel %-6s x %-18s: %s\n"
            lay.Tk_kernel.Layout.version cname
            (if ok then "OK" else "FAILED"))
        configs)
    [ V.v3_16; Tk_kernel.Layout.v4_4; V.v4_20 ]

(* ----------------------------- services ------------------------------ *)

let services () =
  let a = Lazy.force ark in
  let ark_run = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark_run);
  let c = ark_run.Ark_run.ark.Transkernel.Ark.counters in
  Printf.printf "\n== Emulated services (§7.3) ==\n";
  Printf.printf "share of busy execution: %s (paper: ~1%%)\n"
    (Report.pct
       (float_of_int a.Experiments.r_emu_cycles
       /. float_of_int a.Experiments.r_whole.Experiments.p_busy_cycles));
  Printf.printf "early interrupt stage: %d M3 cycles/interrupt (paper: 3.9K)\n"
    Transkernel.Ark.cost_early_irq;
  let service_counter (k, _) =
    let pre p =
      let n = String.length p in
      String.length k > n && String.sub k 0 n = p
    in
    pre "emu." || pre "hook."
  in
  Report.counters "downcall/hook counts for one offloaded cycle"
    (List.filter service_counter (Counters.to_assoc c));
  (* second warm cycle, rendered as a delta: translations are cached by
     now, so only the steady-state service traffic remains *)
  let before = Counters.snapshot c in
  ignore (Ark_run.suspend_resume_cycle ark_run);
  Report.counter_deltas "second (warm) cycle delta"
    (List.filter service_counter (Counters.diff before (Counters.snapshot c)))

(* ----------------------------- fallback ------------------------------ *)

let fallback ~runs () =
  Printf.printf
    "\n== Fallback stress (§7.3; paper: 1000 runs, 4 fallbacks, all WiFi \
     firmware) ==\n%!";
  let glitch_every = max 1 (runs / 4) in
  let total, fell, reasons, ark = Experiments.stress ~runs ~glitch_every () in
  Printf.printf "%d suspend/resume runs, %d fallbacks (%s)\n" total fell
    (String.concat "," reasons);
  Printf.printf
    "per-fallback cost: stack rewrite ~%d us, cache flush ~%d us, IPI ~%d us\n"
    (Transkernel.Ark.ns_stack_rewrite / 1000)
    (Transkernel.Ark.ns_cache_flush / 1000)
    (Transkernel.Ark.ns_ipi / 1000);
  let c = ark.Ark_run.ark.Transkernel.Ark.counters in
  Printf.printf "migrations: %d; cold calls skipped while draining: %d\n"
    (Counters.get c "fallback.migrations")
    (Counters.get c "fallback.drained_cold"
    + Counters.get c "fallback.cold_skipped")

(* ------------------------------- dram -------------------------------- *)

let dram () =
  let rate (r : Experiments.run) bytes =
    let active =
      r.Experiments.r_whole.Experiments.p_busy_ms
      +. r.Experiments.r_whole.Experiments.p_idle_ms
    in
    float_of_int bytes /. 1e6 /. (active /. 1e3)
  in
  let row (r : Experiments.run) =
    [ r.Experiments.r_label;
      f2 (rate r r.Experiments.r_rd_bytes) ^ " MB/s";
      f2 (rate r r.Experiments.r_wr_bytes) ^ " MB/s" ]
  in
  Report.table
    ~title:"DRAM activity (§7.3; paper: ARK 32/2 MB/s vs native 8/4 MB/s)"
    ~header:[ "Config"; "read"; "write" ]
    [ row (Lazy.force nat); row (Lazy.force ark); row (Lazy.force base) ];
  Printf.printf
    "shape target: ARK read rate well above native's (M3's %d KB LLC vs A9's \
     %d KB)\n"
    Soc.m3_cache_kb Soc.a9_cache_kb

(* ----------------------------- biglittle ----------------------------- *)

let biglittle () =
  let n = Lazy.force nat and a = Lazy.force ark in
  let e_native = Power.total n.Experiments.r_energy in
  let little =
    Tk_energy.Battery.little_relative ~a9:Soc.a9_params
      ~busy_ms:n.Experiments.r_whole.Experiments.p_busy_ms
      ~idle_ms:n.Experiments.r_whole.Experiments.p_idle_ms
      ~e_native_uj:e_native ()
  in
  Report.kv "big.LITTLE comparison (§7.4)"
    [ ("LITTLE core relative energy", Report.pct little ^ "  (paper: 77%)");
      ( "ARK relative energy",
        Report.pct (Power.total a.Experiments.r_energy /. e_native)
        ^ "  (paper: 51-66%)" );
      ( "why",
        Printf.sprintf "LITTLE idle power is %.0fx the peripheral core's"
          (Tk_energy.Battery.little_defaults.Tk_energy.Battery.l_idle_mw
          /. Soc.m3_params.Tk_machine.Core.idle_mw) ) ]

(* ------------------------------ battery ------------------------------ *)

let battery () =
  let n = Lazy.force nat and a = Lazy.force ark in
  let ark_rel =
    Power.total a.Experiments.r_energy /. Power.total n.Experiments.r_energy
  in
  let module B = Tk_energy.Battery in
  let rows =
    List.map
      (fun (interval, frac) ->
        let ext = B.extension ~susp_frac:frac ~ark_rel () in
        [ Printf.sprintf "%ds interval, %s of cycle energy" interval
            (Report.pct frac);
          Report.pct ext;
          Printf.sprintf "%.1f h/day" (B.hours_per_day ext) ])
      [ (5, 0.9); (30, 0.5) ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Battery-life extension (§7.4; measured ARK relative energy %s; \
          paper: 18%% / 7%%)"
         (Report.pct ark_rel))
    ~header:[ "Workload point"; "extension"; "hours per day" ]
    rows

(* ------------------------------ aarch64 ------------------------------ *)

let aarch64 () =
  Printf.printf
    "\n== §7.5 what-if: 64-bit guest on a 32-bit peripheral core (Table 7) \
     ==\n";
  Printf.printf
    "With an AArch64 guest the host can no longer pass registers through\n\
     (31 x 64-bit GPRs vs 13 x 32-bit) and must emulate them in memory —\n\
     the engine degenerates towards the register-emulating designs we\n\
     measured:\n\n";
  Printf.printf "  passthrough (ARK, 32-bit pair):   %s overhead\n"
    (fx (overhead_of (Lazy.force ark)));
  Printf.printf "  registers emulated (mid config):  %s overhead\n"
    (fx (overhead_of (Lazy.force mid)));
  Printf.printf "  full emulation (baseline):        %s overhead\n\n"
    (fx (overhead_of (Lazy.force base)));
  Printf.printf
    "so the 64/32 pairing forfeits a %.1fx-%.1fx slice of ARK's gain, as the \
     paper's Table 7 G1->H1 example illustrates.\n"
    (overhead_of (Lazy.force mid) /. overhead_of (Lazy.force ark))
    (overhead_of (Lazy.force base) /. overhead_of (Lazy.force ark))

(* ------------------------------ ablation ----------------------------- *)

(* Design-choice ablations DESIGN.md calls out: branch chaining, the
   translation-block size, the peripheral core's LLC (§7.5), and
   asynchronous device suspend (Linux's parallelized transitions [50]). *)
let ablation () =
  Printf.printf "\n== Ablations ==\n%!";
  let measure_cycle ?(tune = fun (_ : Ark_run.t) -> ()) () =
    let ark = Ark_run.create () in
    tune ark;
    ignore (Ark_run.suspend_resume_cycle ark);
    let m3 = (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3 in
    Tk_machine.Core.reset_activity m3;
    (match Ark_run.suspend_resume_cycle ark with
    | `Ok -> ()
    | `Fell_back r -> Printf.printf "  (fell back: %s)\n" r);
    (Tk_machine.Core.activity m3, ark)
  in
  (* 1. branch chaining *)
  let on, _ = measure_cycle () in
  let off, ark_off =
    measure_cycle ~tune:(fun a ->
        a.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.chain <- false)
      ()
  in
  Report.table ~title:"Ablation: direct-branch chaining (patching)"
    ~header:[ "Config"; "busy cycles"; "engine exits" ]
    [ [ "chaining on (ARK)"; string_of_int on.Tk_machine.Core.a_busy_cycles;
        "(patched)" ];
      [ "chaining off"; string_of_int off.Tk_machine.Core.a_busy_cycles;
        string_of_int
          ark_off.Ark_run.ark.Transkernel.Ark.engine
            .Tk_dbt.Engine.engine_exits ] ];
  Printf.printf "chaining saves %s of busy cycles\n"
    (Report.pct
       (1.
       -. float_of_int on.Tk_machine.Core.a_busy_cycles
          /. float_of_int off.Tk_machine.Core.a_busy_cycles));
  (* 2. translation-block size *)
  let rows =
    List.map
      (fun limit ->
        let act, ark =
          measure_cycle ~tune:(fun a ->
              a.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.block_limit
              <- limit)
            ()
        in
        [ string_of_int limit;
          string_of_int act.Tk_machine.Core.a_busy_cycles;
          string_of_int
            ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.blocks;
          string_of_int
            ark.Ark_run.ark.Transkernel.Ark.engine.Tk_dbt.Engine.host_emitted
        ])
      [ 4; 8; 16; 32 ]
  in
  Report.table ~title:"Ablation: translation-block size (guest instrs)"
    ~header:[ "limit"; "busy cycles"; "blocks"; "host emitted" ]
    rows;
  (* 3. peripheral-core LLC (§7.5 recommendation) *)
  let rows =
    List.map
      (fun kb ->
        let ark = Ark_run.create ~m3_cache_kb:kb () in
        ignore (Ark_run.suspend_resume_cycle ark);
        let m3 = (Ark_run.plat ark).Tk_drivers.Platform.soc.Soc.m3 in
        Tk_machine.Core.reset_activity m3;
        ignore (Ark_run.suspend_resume_cycle ark);
        let act = Tk_machine.Core.activity m3 in
        let mbps =
          float_of_int act.Tk_machine.Core.a_rd_bytes /. 1e6
          /. (float_of_int
                (act.Tk_machine.Core.a_busy_ps + act.Tk_machine.Core.a_idle_ps)
             /. 1e12)
        in
        [ string_of_int kb ^ " KB";
          string_of_int act.Tk_machine.Core.a_busy_cycles;
          f2 mbps ^ " MB/s";
          string_of_int act.Tk_machine.Core.a_cache_misses ])
      [ 16; 32; 64; 128 ]
  in
  Report.table ~title:"Ablation: peripheral-core LLC size (§7.5)"
    ~header:[ "LLC"; "busy cycles"; "DRAM read"; "misses" ]
    rows;
  (* 4. async device suspend *)
  let phase_ms runner =
    let t0, t1 = runner () in
    float_of_int (t1 - t0) /. 1e6
  in
  let native_phase async =
    phase_ms (fun () ->
        let natr = Native_run.create () in
        List.iter (fun d -> Native_run.set_async natr d async)
          [ "kb"; "cam"; "bt" ];
        let soc = natr.Native_run.plat.Tk_drivers.Platform.soc in
        let t0 = soc.Soc.clock.Tk_machine.Clock.now in
        ignore (Native_run.call natr "dpm_suspend" []);
        let t1 = soc.Soc.clock.Tk_machine.Clock.now in
        ignore (Native_run.call natr "dpm_resume" []);
        (t0, t1))
  in
  let ark_phase async =
    phase_ms (fun () ->
        let ark = Ark_run.create () in
        List.iter (fun d -> Native_run.set_async ark.Ark_run.nat d async)
          [ "kb"; "cam"; "bt" ];
        ignore (Ark_run.suspend_resume_cycle ark);
        let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
        let t0 = soc.Soc.clock.Tk_machine.Clock.now in
        (match Transkernel.Ark.run_phase ark.Ark_run.ark `Suspend with
        | Transkernel.Ark.Completed -> ()
        | Transkernel.Ark.Fell_back _ -> ());
        let t1 = soc.Soc.clock.Tk_machine.Clock.now in
        (match Transkernel.Ark.run_phase ark.Ark_run.ark `Resume with
        | Transkernel.Ark.Completed -> ()
        | Transkernel.Ark.Fell_back _ -> ());
        (t0, t1))
  in
  Report.table
    ~title:
      "Ablation: asynchronous device suspend (kb/cam/bt async, Linux [50])"
    ~header:[ "Config"; "sync suspend (ms)"; "async suspend (ms)" ]
    [ [ "native"; f2 (native_phase false); f2 (native_phase true) ];
      [ "ARK"; f2 (ark_phase false); f2 (ark_phase true) ] ]

(* ----------------------------- bechamel ------------------------------ *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let plat = lazy (Tk_drivers.Platform.create ()) in
  let t_translate =
    Test.make ~name:"table3/4: translate one kernel function"
      (Staged.stage (fun () ->
           let plat = Lazy.force plat in
           let soc = plat.Tk_drivers.Platform.soc in
           let e = Tk_dbt.Engine.create ~soc ~mode:Translator.Ark () in
           ignore
             (Tk_dbt.Engine.entry_host e
                (Tk_isa.Asm.symbol
                   plat.Tk_drivers.Platform.built.Tk_kernel.Image.image
                   "kmalloc"))))
  in
  let nat_run = lazy (Native_run.create ()) in
  let t_native =
    Test.make ~name:"fig5: one native suspend/resume cycle"
      (Staged.stage (fun () ->
           ignore (Native_run.suspend_resume_cycle (Lazy.force nat_run))))
  in
  let ark_run = lazy (Ark_run.create ()) in
  let t_ark =
    Test.make ~name:"fig5/6: one offloaded suspend/resume cycle"
      (Staged.stage (fun () ->
           ignore (Ark_run.suspend_resume_cycle (Lazy.force ark_run))))
  in
  let t_whatif =
    Test.make ~name:"fig7: what-if grid"
      (Staged.stage (fun () ->
           ignore
             (Tk_energy.Whatif.grid
                ~overheads:[ 1.; 5.; 10.; 15. ]
                ~busy_fracs:[ 0.2; 0.6; 1.0 ]
                ())))
  in
  let tests = [ t_translate; t_native; t_ark; t_whatif ] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) () in
  Printf.printf "\n== bechamel micro-benchmarks (simulator wall-clock) ==\n%!";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let res = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
            Printf.printf "  %-45s %10.3f ms/run\n" name (est /. 1e6)
          | _ -> Printf.printf "  %-45s (no estimate)\n" name)
        res)
    tests

(* ---------------------------- throughput ----------------------------- *)

(* Simulator host throughput: simulated instructions retired per wall
   second, measured per tier — the native-A9 arm (Interp), the DBT-M3
   arm (Engine, block-at-a-time Ark mode), the superblock trace tier,
   and the superblock tier warm-started from a persistent translation
   cache. This is the metric host-side perf PRs move; the simulated
   cycle counters the cycle-NEUTRAL tiers must not move are pinned by
   test/test_neutrality.ml (the superblock tier is cycle-accounted and
   gated by `arksim report` instead). Records a BENCH_N.json (schema
   documented in README "Telemetry") so the perf trajectory is tracked
   across PRs and gated by `arksim report`. *)
let throughput ~smoke ~record () =
  let cycles = if smoke then 1 else 8 in
  Printf.printf
    "\n== simulator throughput (%d warm suspend/resume cycles per arm%s) ==\n%!"
    cycles
    (if smoke then ", smoke" else "");
  let t0 = Unix.gettimeofday () in
  (* native arm *)
  let nat = Native_run.create () in
  ignore (Native_run.suspend_resume_cycle nat);
  let a9 = nat.Native_run.plat.Tk_drivers.Platform.soc.Soc.cpu in
  let i0 = a9.Tk_machine.Core.instructions in
  let w0 = Unix.gettimeofday () in
  for _ = 1 to cycles do
    ignore (Native_run.suspend_resume_cycle nat)
  done;
  let native_wall = Unix.gettimeofday () -. w0 in
  let native_instrs = a9.Tk_machine.Core.instructions - i0 in
  let mips_native = float_of_int native_instrs /. native_wall /. 1e6 in
  Printf.printf "  native arm:      %9d sim instrs in %6.2f s -> %7.2f sim-MIPS\n%!"
    native_instrs native_wall mips_native;
  (* DBT arms: the cycle interleaves native freeze/thaw with the
     offloaded phases, so count both cores' retired instructions.
     [measure_first] includes the translation-heavy first cycle in the
     window — that is where a warm-started cache earns its keep. *)
  let dbt_arm ?(superblock = false) ?cache_dir ?(measure_first = false) label
      =
    let ark = Ark_run.create ~superblock ?cache_dir () in
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    let count () =
      soc.Soc.m3.Tk_machine.Core.instructions
      + soc.Soc.cpu.Tk_machine.Core.instructions
    in
    if not measure_first then ignore (Ark_run.suspend_resume_cycle ark);
    let j0 = count () in
    let w = Unix.gettimeofday () in
    for _ = 1 to cycles do
      ignore (Ark_run.suspend_resume_cycle ark)
    done;
    let wall = Unix.gettimeofday () -. w in
    let instrs = count () - j0 in
    let mips = float_of_int instrs /. wall /. 1e6 in
    Printf.printf
      "  %-15s %9d sim instrs in %6.2f s -> %7.2f sim-MIPS\n%!" label instrs
      wall mips;
    Ark_run.save_cache ark;
    (instrs, mips)
  in
  let dbt_instrs, mips_dbt = dbt_arm "DBT arm:" in
  let sb_instrs, mips_sb = dbt_arm ~superblock:true "superblock:" in
  (* warm-start arm: one cold run populates a scratch cache dir, then a
     fresh engine replays it with its startup cycle inside the window *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tkbench-cache-%d" (Unix.getpid ()))
  in
  let _ = dbt_arm ~superblock:true ~cache_dir "sb cold+save:" in
  let sbw_instrs, mips_sbw =
    dbt_arm ~superblock:true ~cache_dir ~measure_first:true
      "sb warm-start:"
  in
  (if Sys.file_exists cache_dir then
     Array.iter
       (fun f -> Sys.remove (Filename.concat cache_dir f))
       (Sys.readdir cache_dir);
   try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());
  let wall = Unix.gettimeofday () -. t0 in
  let file =
    match record with
    | Some f -> Some f
    | None when not smoke -> Some "BENCH_2.json"
    | None -> None
  in
  match file with
  | None -> ()
  | Some f ->
    (* BENCH schema: the gate metrics stay at top level (report's
       --only matches them bare), the deterministic instruction counts
       ride along for context *)
    let open Run_manifest in
    write_file f
      (Obj
         [ ("schema", Str "arksim-bench-v1");
           ( "meta",
             Obj [ ("git_rev", Str (git_rev ())); ("cycles", Int cycles) ] );
           ("sim_mips_native", Num mips_native);
           ("sim_mips_dbt", Num mips_dbt);
           ("sim_mips_superblock", Num mips_sb);
           ("sim_mips_superblock_warm", Num mips_sbw);
           ("superblock_speedup", Num (mips_sb /. mips_dbt));
           ("suite_wall_s", Num wall);
           ("native_instrs", Int native_instrs);
           ("dbt_instrs", Int dbt_instrs);
           ("superblock_instrs", Int sb_instrs);
           ("superblock_warm_instrs", Int sbw_instrs) ]);
    Printf.printf "  wrote %s\n%!" f

(* ----------------------------- certifier ----------------------------- *)

(* The static-analysis passes' cost — the whole-image certifier sweep
   over every formable superblock plan and the abstract-interpretation
   store classification — beside the superblock tier's throughput.
   The headline gate is [sim_mips_superblock]. Records BENCH_4.json. *)
let certifier_bench ~smoke ~record () =
  let cycles = if smoke then 1 else 8 in
  Printf.printf
    "\n== translation certifier + abstract interpretation (%d warm \
     cycles%s) ==\n%!"
    cycles
    (if smoke then ", smoke" else "");
  (* offline sweep: every plan the planner can form on the seed image *)
  let built = Tk_drivers.Platform.build_image () in
  let image = built.Tk_kernel.Image.image in
  let abi = built.Tk_kernel.Image.abi in
  let classify a =
    match abi.Tk_kernel.Kabi.name_of_addr a with
    | Some n when List.mem n Transkernel.Ark.emulated_services ->
      Translator.T_emu n
    | Some n when List.mem n Transkernel.Ark.hooked_services ->
      Translator.T_hook n
    | Some n when List.mem n Tk_kernel.Kabi.cold -> Translator.T_cold n
    | Some _ | None -> Translator.T_normal
  in
  let w0 = Unix.gettimeofday () in
  let cert = Tk_analysis.Certify.certify_image ~classify_target:classify image in
  let certify_wall = Unix.gettimeofday () -. w0 in
  Printf.printf
    "  certifier:       %d plans over %d states in %5.2f s (%d divergent)\n%!"
    cert.Tk_analysis.Certify.r_plans cert.Tk_analysis.Certify.r_states
    certify_wall cert.Tk_analysis.Certify.r_divergent;
  let w1 = Unix.gettimeofday () in
  let absr = Tk_analysis.Absint.analyze (Tk_analysis.Cfg.build image) in
  let absint_wall = Unix.gettimeofday () -. w1 in
  Printf.printf "  absint:          %d clean ranges in %5.2f s\n%!"
    (List.length absr.Tk_analysis.Absint.a_clean_ranges)
    absint_wall;
  (* runtime arm: the superblock tier *)
  let mips =
    let ark = Ark_run.create ~superblock:true () in
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    let count () =
      soc.Soc.m3.Tk_machine.Core.instructions
      + soc.Soc.cpu.Tk_machine.Core.instructions
    in
    ignore (Ark_run.suspend_resume_cycle ark);
    let j0 = count () in
    let w = Unix.gettimeofday () in
    for _ = 1 to cycles do
      ignore (Ark_run.suspend_resume_cycle ark)
    done;
    let wall = Unix.gettimeofday () -. w in
    let instrs = count () - j0 in
    let mips = float_of_int instrs /. wall /. 1e6 in
    Printf.printf
      "  superblock:      %9d sim instrs in %6.2f s -> %7.2f sim-MIPS\n%!"
      instrs wall mips;
    mips
  in
  let file =
    match record with
    | Some f -> Some f
    | None when not smoke -> Some "BENCH_4.json"
    | None -> None
  in
  match file with
  | None -> ()
  | Some f ->
    let open Run_manifest in
    write_file f
      (Obj
         [ ("schema", Str "arksim-certify-bench-v1");
           ( "meta",
             Obj [ ("git_rev", Str (git_rev ())); ("cycles", Int cycles) ] );
           ("sim_mips_superblock", Num mips);
           ("certified_plans", Int cert.Tk_analysis.Certify.r_plans);
           ("certified_states", Int cert.Tk_analysis.Certify.r_states);
           ("divergent_plans", Int cert.Tk_analysis.Certify.r_divergent);
           ("clean_ranges", Int (List.length absr.Tk_analysis.Absint.a_clean_ranges));
           ("clean_words", Int (Tk_analysis.Absint.clean_words absr));
           ("certify_wall_s", Num certify_wall);
           ("absint_wall_s", Num absint_wall) ]);
    Printf.printf "  wrote %s\n%!" f

(* -------------------------------- sweep ------------------------------ *)

(* Campaign-runner scaling: the same stress campaign at increasing
   worker counts, with the digest pinned equal across all of them (the
   determinism invariant `arksim sweep` advertises). Speedup is
   host-dependent — on a single-core host the extra domains just
   time-slice — so the digest check is the hard gate and the timing
   table is telemetry. *)
let sweep_bench ~smoke ~record () =
  let module Campaign = Tk_campaign.Campaign in
  let tasks = if smoke then 2 else 8 in
  let cores = Domain.recommended_domain_count () in
  let job_points =
    List.sort_uniq compare (1 :: 2 :: 4 :: [ max 1 (cores - 2) ])
  in
  Printf.printf
    "\n== campaign scaling (stress, %d tasks; host has %d core(s)) ==\n%!"
    tasks cores;
  let runs =
    List.map
      (fun jobs ->
        let cfg =
          { (Campaign.default_config Campaign.Stress) with
            Campaign.tasks; jobs; seed = 1 }
        in
        let t = Campaign.run cfg in
        (jobs, t))
      job_points
  in
  let _, t1 = List.hd runs in
  let digests_agree =
    List.for_all (fun (_, t) -> t.Campaign.digest = t1.Campaign.digest) runs
  in
  Report.table ~title:"campaign wall time by worker count"
    ~header:[ "jobs"; "wall (s)"; "speedup vs -j1"; "digest" ]
    (List.map
       (fun (jobs, t) ->
         [ string_of_int jobs;
           f2 t.Campaign.wall_s;
           fx (t1.Campaign.wall_s /. max 1e-9 t.Campaign.wall_s);
           t.Campaign.digest ])
       runs);
  Printf.printf "digest invariant across -j: %s\n%!"
    (if digests_agree then "holds" else "VIOLATED");
  (match record with
  | None -> ()
  | Some f ->
    let open Run_manifest in
    write_file f
      (Obj
         ([ ("schema", Str "arksim-sweep-bench-v1");
            ( "meta",
              Obj
                [ ("git_rev", Str (git_rev ())); ("tasks", Int tasks);
                  ("host_cores", Int cores) ] );
            ("digest", Str t1.Campaign.digest);
            ("digests_agree", Int (if digests_agree then 1 else 0)) ]
         @ List.map
             (fun (jobs, t) ->
               (Printf.sprintf "wall_s_j%d" jobs, Num t.Campaign.wall_s))
             runs));
    Printf.printf "  wrote %s\n%!" f);
  if not digests_agree then exit 1

(* -------------------------------- fleet ------------------------------ *)

(* Fleet-scale population throughput (devices·wakeups/sec): the sharded
   snapshot runner versus the naive idiom it replaces — one fresh SoC
   world per device-instance. Both arms run the same arrival traces
   (same per-instance PRNG streams), so the simulated work is identical;
   what differs is the host cost of putting an instance into its
   defined starting state: the warmed DBT fixpoint (Fleet's contract —
   cache-pressure histograms and latency percentiles are simulated
   figures, and a cold world reports different ones: compulsory cache
   misses, unformed traces). The fleet pays boot + warmup once per
   shard and a sub-millisecond snapshot restore per instance; the naive
   implementation of the same specification pays boot + warmup per
   instance. The naive arm samples one instance per device
   configuration rather than the whole population — its per-instance
   cost is constant, and sampling keeps the bench wall time sane. *)
let fleet_bench ~smoke ~record () =
  let module Fleet = Tk_fleet.Fleet in
  let devices = if smoke then 12 else 480 in
  let jobs = 8 in
  let cores = Domain.recommended_domain_count () in
  let cfg =
    { Fleet.default_config with
      Fleet.devices; jobs;
      (* fleet-shaped workload: a large population of mostly-idle
         devices, each waking about once in the window — the regime the
         snapshot machinery exists for *)
      duration_ms = 10; mean_gap_ms = 40; shard_cap = 128 }
  in
  Printf.printf
    "\n== fleet population throughput (%d devices, -j%d; host has %d \
     core(s)) ==\n%!"
    devices jobs cores;
  (* naive arm: fresh world per instance, one instance per dconfig *)
  let sample_ids =
    List.init (min devices (4 * Array.length Fleet.dconfigs)) Fun.id
  in
  let lat = Sketch.create ()
  and pressure = Sketch.create ()
  and energy_sk = Sketch.create () in
  let w0 = Unix.gettimeofday () in
  let naive_wakeups =
    List.fold_left
      (fun acc id ->
        let dc = Fleet.dconfigs.(Fleet.config_of_instance id) in
        let ark =
          Ark_run.create ~devices:dc.Fleet.dc_devices
            ~superblock:dc.Fleet.dc_superblock ()
        in
        ignore (Fleet.warmup ark ~dc);
        let row =
          Fleet.run_instance cfg dc ark ~lat ~pressure ~energy_sk ~id
        in
        acc + row.Fleet.i_wakeups)
      0 sample_ids
  in
  let naive_wall = Unix.gettimeofday () -. w0 in
  let naive_wps = float_of_int naive_wakeups /. max 1e-9 naive_wall in
  (* fleet arm: same population shape, sharded snapshot runner *)
  let t = Fleet.run cfg in
  if Fleet.failed t then (
    (match Fleet.first_error t with
    | Some (i, msg) -> Printf.eprintf "fleet bench: shard %d failed: %s\n" i msg
    | None -> ());
    exit 1);
  let fleet_wakeups = Fleet.counter t "fleet.wakeups" in
  let fleet_wps = float_of_int fleet_wakeups /. max 1e-9 t.Fleet.wall_s in
  let speedup = fleet_wps /. max 1e-9 naive_wps in
  Report.table ~title:"population throughput (devices·wakeups/sec)"
    ~header:[ "arm"; "instances"; "wakeups"; "wall (s)"; "wakeups/s" ]
    [ [ "naive (fresh world/instance)"; string_of_int (List.length sample_ids);
        string_of_int naive_wakeups; f2 naive_wall; f2 naive_wps ];
      [ "fleet (shared snapshots)"; string_of_int devices;
        string_of_int fleet_wakeups; f2 t.Fleet.wall_s; f2 fleet_wps ] ];
  Printf.printf "fleet speedup over naive: %s  (digest %s)\n%!" (fx speedup)
    t.Fleet.digest;
  let file =
    match record with
    | Some f -> Some f
    | None when not smoke -> Some "BENCH_3.json"
    | None -> None
  in
  match file with
  | None -> ()
  | Some f ->
    let open Run_manifest in
    write_file f
      (Obj
         [ ("schema", Str "arksim-fleet-bench-v1");
           ( "meta",
             Obj
               [ ("git_rev", Str (git_rev ())); ("devices", Int devices);
                 ("jobs", Int jobs); ("host_cores", Int cores);
                 ("duration_ms", Int cfg.Fleet.duration_ms);
                 ("naive_sample", Int (List.length sample_ids)) ] );
           ("wakeups_per_s_fleet", Num fleet_wps);
           ("wakeups_per_s_naive", Num naive_wps);
           ("fleet_speedup", Num speedup);
           ("fleet_wakeups", Int fleet_wakeups);
           ("naive_wakeups", Int naive_wakeups);
           ("digest", Str t.Fleet.digest) ]);
    Printf.printf "  wrote %s\n%!" f

(* -------------------------------- trace ------------------------------ *)

(* Flight-recorder showcase: one traced + profiled offloaded cycle with
   its per-phase table and hot blocks, plus the host-side cost of
   tracing (the simulated counters are identical either way — pinned by
   test/test_neutrality.ml). *)
let trace_bench () =
  Printf.printf "\n== flight recorder (traced offloaded cycle) ==\n%!";
  let ark = Ark_run.create () in
  ignore (Ark_run.suspend_resume_cycle ark);  (* warm: translations done *)
  let tr = Ark_run.trace ark in
  let engine = ark.Ark_run.ark.Transkernel.Ark.engine in
  engine.Tk_dbt.Engine.profile <- true;
  (* untraced warm cycle wall-clock *)
  let w0 = Unix.gettimeofday () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let untraced = Unix.gettimeofday () -. w0 in
  (* traced warm cycle *)
  Trace.enable tr;
  let w1 = Unix.gettimeofday () in
  ignore (Ark_run.suspend_resume_cycle ark);
  let traced = Unix.gettimeofday () -. w1 in
  Trace.disable tr;
  let devices = ark.Ark_run.nat.Native_run.devices in
  let phase_name code =
    let open Tk_kernel.Hyper in
    if code = ph_suspend_begin then "suspend_begin"
    else if code = ph_suspend_end then "suspend_end"
    else if code = ph_resume_begin then "resume_begin"
    else if code = ph_resume_end then "resume_end"
    else if code = 900 then "sleep_begin"
    else if code = 901 then "sleep_end"
    else if code >= ph_dev_mark then
      let i = (code - ph_dev_mark) / 10 in
      let k = (code - ph_dev_mark) mod 10 in
      Printf.sprintf "%s:%s"
        (Option.value ~default:(string_of_int i) (List.nth_opt devices i))
        (match k with
        | 0 -> "suspend.b" | 1 -> "suspend.e"
        | 2 -> "resume.b" | 3 -> "resume.e"
        | _ -> string_of_int k)
    else string_of_int code
  in
  Trace.summary ~phase_name tr;
  let rows = Tk_dbt.Engine.profile_blocks engine in
  Report.table ~title:"DBT hot blocks (top 10 by executions)"
    ~header:[ "guest_pc"; "execs"; "chain_hit"; "g_insts"; "h_words" ]
    (List.filteri (fun i _ -> i < 10) rows
    |> List.map (fun (bp : Tk_dbt.Engine.block_profile) ->
           [ Printf.sprintf "0x%x" bp.Tk_dbt.Engine.bp_guest;
             string_of_int bp.Tk_dbt.Engine.bp_execs;
             Report.pct (Tk_dbt.Engine.chain_rate bp);
             string_of_int bp.Tk_dbt.Engine.bp_guest_insts;
             string_of_int bp.Tk_dbt.Engine.bp_host_words ]));
  Printf.printf
    "\nhost cost of tracing: %.2f ms/cycle untraced, %.2f ms/cycle traced \
     (%.1fx; zero when disabled by construction)\n"
    (untraced *. 1e3) (traced *. 1e3) (traced /. untraced)

(* ---------------------------- span tracer ---------------------------- *)

(* The causal span tracer's two costs, on the warm superblock tier:
   the disabled probe (hoisted-bool pattern: must be measurement noise,
   gated at 5%) and the enabled recorder (gated at 25%). Also records
   spans/sec and the wakeup-tree reconciliation residual. Records
   BENCH_5.json; the absolute bars fail the bench itself, the recorded
   figures are gated across PRs by `arksim report`. *)
let spans_bench ~smoke ~record () =
  let cycles = if smoke then 2 else 8 in
  let reps = if smoke then 1 else 3 in
  Printf.printf
    "\n== span tracer overhead (%d warm superblock cycles per arm, best of \
     %d%s) ==\n%!"
    cycles reps
    (if smoke then ", smoke" else "");
  let t0 = Unix.gettimeofday () in
  let ark = Ark_run.create ~superblock:true () in
  let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
  let sp = soc.Soc.spans in
  let count () =
    soc.Soc.m3.Tk_machine.Core.instructions
    + soc.Soc.cpu.Tk_machine.Core.instructions
  in
  ignore (Ark_run.suspend_resume_cycle ark);  (* warm: translations done *)
  let arm label =
    (* best-of-reps: consecutive identical runs jitter by several
       percent on a shared host, and the off-vs-baseline delta we gate
       on is smaller than that jitter; the fastest rep of each arm is
       the least-perturbed sample *)
    let best = ref neg_infinity and tot_wall = ref 0.0 in
    for _ = 1 to reps do
      let i0 = count () in
      let w0 = Unix.gettimeofday () in
      for _ = 1 to cycles do
        ignore (Ark_run.suspend_resume_cycle ark)
      done;
      let wall = Unix.gettimeofday () -. w0 in
      tot_wall := !tot_wall +. wall;
      let mips = float_of_int (count () - i0) /. wall /. 1e6 in
      if mips > !best then best := mips
    done;
    Printf.printf "  %-12s %6.2f s -> %7.2f sim-MIPS\n%!" label !tot_wall
      !best;
    (!tot_wall, !best)
  in
  let _, mips_base = arm "baseline:" in
  let _, mips_off = arm "spans off:" in
  Tk_stats.Span.enable sp;
  let wall_on, mips_on = arm "spans on:" in
  let recorded = Tk_stats.Span.spans sp in
  let recon = Tk_stats.Span.reconcile sp in
  Tk_stats.Span.disable sp;
  let overhead base mips = max 0.0 ((base -. mips) /. base *. 100.0) in
  let off_pct = overhead mips_base mips_off in
  let on_pct = overhead mips_base mips_on in
  let spans_per_sec = float_of_int recorded /. wall_on in
  let residual_pct =
    100.0
    *. Float.max recon.Tk_stats.Span.r_max_dur_residual
         recon.Tk_stats.Span.r_max_attr_residual
  in
  Printf.printf
    "  overhead: %.2f%% off (bar 5%%), %.2f%% on (bar 25%%); %d spans \
     (%.0f/s); %d wakeup root(s), reconciliation residual %.4f%%\n%!"
    off_pct on_pct recorded spans_per_sec recon.Tk_stats.Span.r_roots
    residual_pct;
  let wall = Unix.gettimeofday () -. t0 in
  let file =
    match record with
    | Some f -> Some f
    | None when not smoke -> Some "BENCH_5.json"
    | None -> None
  in
  (match file with
  | None -> ()
  | Some f ->
    let open Run_manifest in
    write_file f
      (Obj
         [ ("schema", Str "arksim-bench-v1");
           ( "meta",
             Obj [ ("git_rev", Str (git_rev ())); ("cycles", Int cycles) ] );
           ("span_overhead_off_pct", Num off_pct);
           ("span_overhead_on_pct", Num on_pct);
           ("spans_per_sec", Num spans_per_sec);
           ("recon_residual_pct", Num residual_pct);
           ("sim_mips_spans_off", Num mips_off);
           ("sim_mips_spans_on", Num mips_on);
           ("suite_wall_s", Num wall);
           ("spans_recorded", Int recorded);
           ("wakeup_roots", Int recon.Tk_stats.Span.r_roots) ]);
    Printf.printf "  wrote %s\n%!" f);
  (* absolute bars: the disabled probe must be noise and the recorder
     cheap; the reconciliation ledger must hold its 0.1% bar *)
  if off_pct > 5.0 || on_pct > 25.0 || residual_pct > 0.1 then begin
    Printf.eprintf
      "spans bench: BAR EXCEEDED (off %.2f%% > 5, on %.2f%% > 25, or \
       residual %.4f%% > 0.1)\n"
      off_pct on_pct residual_pct;
    exit 1
  end

(* --------------------------- lockstep -------------------------------- *)

(* The bounded-quantum lockstep scheduler's throughput claim: a
   concurrent A9+M3 phase (guest CPU workload riding alongside the
   offloaded device phase) pushes per-SoC sim-MIPS — instructions
   simulated across BOTH cores per wall second — past the sequential
   scheduler's, because the phase wall-clock that used to buy only M3
   progress now buys A9 progress too. Three arms: the sequential
   scheduler, the deterministic interleave, and one-domain-per-core
   ([--concurrent-cores domains]; on a multicore host the barrier is a
   real synchronization point and domains beats interleave as well).
   Records BENCH_6.json; the concurrent-vs-sequential ratio is gated at
   1.5x here, the recorded figures across PRs by `arksim report`. *)
let lockstep_bench ~smoke ~record () =
  let cycles = if smoke then 2 else 6 in
  let reps = if smoke then 1 else 3 in
  (* size the A9 workload to span the ~13 ms M3 phase: the 6 MB scratch
     region above the code cache holds it comfortably *)
  let workload_bytes = 3 * 1024 * 1024 in
  Printf.printf
    "\n== lockstep scheduler (%d cycles per arm, best of %d%s) ==\n%!" cycles
    reps
    (if smoke then ", smoke" else "");
  let t0 = Unix.gettimeofday () in
  let arm label ~quantum run =
    (* fresh platform per arm (cold + one warmup cycle), then best-of-
       reps on the warm engine; per-SoC sim-MIPS counts both cores *)
    let ark = Ark_run.create ~quantum () in
    let soc = (Ark_run.plat ark).Tk_drivers.Platform.soc in
    let count () =
      soc.Soc.m3.Tk_machine.Core.instructions
      + soc.Soc.cpu.Tk_machine.Core.instructions
    in
    ignore (run ark);
    let best = ref neg_infinity in
    for _ = 1 to reps do
      let i0 = count () in
      let w0 = Unix.gettimeofday () in
      for _ = 1 to cycles do
        ignore (run ark)
      done;
      let wall = Unix.gettimeofday () -. w0 in
      let mips = float_of_int (count () - i0) /. wall /. 1e6 in
      if mips > !best then best := mips
    done;
    Printf.printf "  %-12s %7.2f per-SoC sim-MIPS\n%!" label !best;
    (!best, ark)
  in
  let mips_seq, _ = arm "sequential:" ~quantum:0 Ark_run.suspend_resume_cycle in
  let mips_inter, _ =
    arm "interleave:" ~quantum:20_000
      (Ark_run.concurrent_cycle ~domains:false ~workload_bytes)
  in
  let mips_dom, ark_dom =
    arm "domains:" ~quantum:20_000
      (Ark_run.concurrent_cycle ~domains:true ~workload_bytes)
  in
  let speedup = mips_dom /. mips_seq in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "  concurrent/sequential: %.2fx (bar 1.5x on >=2 host cores; this host \
     has %d); %d lockstep round(s), max skew %d ns\n%!"
    speedup host_cores ark_dom.Ark_run.ls_rounds
    ark_dom.Ark_run.ls_max_skew_ns;
  let wall = Unix.gettimeofday () -. t0 in
  let file =
    match record with
    | Some f -> Some f
    | None when not smoke -> Some "BENCH_6.json"
    | None -> None
  in
  (match file with
  | None -> ()
  | Some f ->
    let open Run_manifest in
    write_file f
      (Obj
         [ ("schema", Str "arksim-bench-v1");
           ( "meta",
             Obj
               [ ("git_rev", Str (git_rev ())); ("cycles", Int cycles);
                 ("workload_bytes", Int workload_bytes) ] );
           ("sim_mips_sequential", Num mips_seq);
           ("sim_mips_interleave", Num mips_inter);
           ("sim_mips_domains", Num mips_dom);
           ("lockstep_speedup_x", Num speedup);
           ("ls_rounds", Int ark_dom.Ark_run.ls_rounds);
           ("ls_max_skew_ns", Int ark_dom.Ark_run.ls_max_skew_ns);
           ("host_cores", Int host_cores);
           ("suite_wall_s", Num wall) ]);
    Printf.printf "  wrote %s\n%!" f);
  (* the 1.5x bar needs real core-level parallelism: on a single-core
     host the two lanes time-share and the ratio merely reflects the
     A9 workload riding along, so the bar is advisory there *)
  if (not smoke) && host_cores >= 2 && speedup < 1.5 then begin
    Printf.eprintf
      "lockstep bench: BAR MISSED (concurrent %.2fx < 1.5x sequential)\n"
      speedup;
    exit 1
  end

(* ------------------------------- main -------------------------------- *)

let all_names =
  [ "table3"; "table4"; "table5"; "table6"; "fig3"; "fig5"; "fig6"; "fig7";
    "abi"; "services"; "fallback"; "dram"; "biglittle"; "battery"; "aarch64";
    "ablation"; "trace"; "throughput"; "certifier"; "sweep"; "fleet";
    "spans"; "lockstep" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let runs = ref 200 in
  let smoke = ref false in
  let record = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--runs" :: n :: rest ->
      runs := int_of_string n;
      parse acc rest
    | "--smoke" :: rest ->
      smoke := true;
      parse acc rest
    | "--record" :: f :: rest ->
      record := Some f;
      parse acc rest
    | x :: rest -> parse (x :: acc) rest
  in
  let selected = parse [] args in
  let selected = if selected = [] then all_names else selected in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match name with
      | "table3" -> table3 ()
      | "table4" -> table4 ()
      | "table5" -> table5 ()
      | "table6" -> table6 ()
      | "fig3" -> fig3 ()
      | "fig5" -> fig5 ()
      | "fig6" -> fig6 ()
      | "fig7" -> fig7 ()
      | "abi" -> abi ()
      | "services" -> services ()
      | "fallback" -> fallback ~runs:!runs ()
      | "dram" -> dram ()
      | "biglittle" -> biglittle ()
      | "battery" -> battery ()
      | "aarch64" -> aarch64 ()
      | "ablation" -> ablation ()
      | "trace" -> trace_bench ()
      | "throughput" -> throughput ~smoke:!smoke ~record:!record ()
      | "certifier" -> certifier_bench ~smoke:!smoke ~record:!record ()
      | "sweep" -> sweep_bench ~smoke:!smoke ~record:!record ()
      | "fleet" -> fleet_bench ~smoke:!smoke ~record:!record ()
      | "spans" -> spans_bench ~smoke:!smoke ~record:!record ()
      | "lockstep" -> lockstep_bench ~smoke:!smoke ~record:!record ()
      | "bechamel" -> bechamel ()
      | other -> Printf.eprintf "unknown bench %s\n" other)
    selected;
  Printf.printf "\n(benchmarks done in %.1f s)\n" (Unix.gettimeofday () -. t0)
