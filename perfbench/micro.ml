(** Micro-timings of single layers' public functions, measured from
    outside with the benchmark's own loop: each timing runs a fixed
    batch of calls several times and keeps the median batch, so one
    descheduling does not move it. Inputs are fixed (no seed), so the
    simulated side of every micro-run is the same on every run. *)

open Tk_isa
open Tk_machine
module Platform = Tk_drivers.Platform
module Engine = Tk_dbt.Engine

(** [per_call ~batches ~calls f] — median over [batches] of the host ns
    per call of [f ()] run [calls] times. *)
let per_call ?(batches = 7) ~calls f =
  let one () =
    let t0 = Util.now_ns () in
    for _ = 1 to calls do
      f ()
    done;
    float_of_int (Util.now_ns () - t0) /. float_of_int calls
  in
  Util.median (List.init batches (fun _ -> one ()))

(** [pass_ns ~batches ~items f] — median over [batches] of the host ns
    per item of one full pass [f ()] over [items] items. *)
let pass_ns ?(batches = 5) ~items f =
  per_call ~batches ~calls:1 f /. float_of_int (max 1 items)

(* --------------------------------- ISA ------------------------------- *)

let decode_ns (words : int array) decode =
  pass_ns ~items:(Array.length words) (fun () ->
      Array.iter (fun w -> ignore (Sys.opaque_identity (decode w))) words)

(** A fixed instruction mix: the kernel image's data-processing,
    multiply, extend and single-load/store instructions, in image order,
    none writing the PC. *)
let exec_mix (words : int array) =
  Array.to_list words
  |> List.filter_map (fun w ->
         let i = V7a.decode_total w in
         match i.Types.op with
         | Types.Dp (_, _, rd, _, _) when rd <> Types.pc -> Some i
         | Types.Movw (rd, _) | Types.Movt (rd, _) | Types.Clz (rd, _)
         | Types.Sxt (_, rd, _) | Types.Uxt (_, rd, _) | Types.Rev (rd, _)
           when rd <> Types.pc ->
           Some i
         | Types.Mul (_, rd, _, _) | Types.Mla (rd, _, _, _)
           when rd <> Types.pc ->
           Some i
         | Types.Mem { rt; rn; _ } when rt <> Types.pc && rn <> Types.pc ->
           Some i
         | _ -> None)
  |> Array.of_list

let exec_step_ns mix =
  let cpu = Exec.make_cpu () in
  let env =
    { Exec.load = (fun _ _ -> 0x1234); store = (fun _ _ _ -> ());
      svc = (fun _ _ -> ()); wfi = (fun _ -> ()); irq_ret = (fun _ -> ());
      undef = (fun _ _ -> ()) }
  in
  pass_ns ~items:(Array.length mix) (fun () ->
      Array.iteri
        (fun k i ->
          (* keep base registers in a small, fixed range *)
          cpu.Exec.r.(k land 15) <- 0x1000 + (k land 0xff);
          ignore (Sys.opaque_identity (Exec.step cpu env ~addr:0x10000 i)))
        mix)

(* ------------------------------ machine ------------------------------ *)

(** [Cache.access] over a fixed pseudo-random stream within 256 KB: an
    M3-sized cache sees a mix of hits and misses. *)
let cache_access_ns () =
  let c =
    Cache.create ~name:"micro" ~size_kb:Soc.m3_cache_kb ~miss_penalty:20
  in
  let n = 65536 in
  let addrs = Array.make n 0 in
  let x = ref 12345 in
  for k = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x7FFF_FFFF;
    (* mostly sequential runs with random jumps, like instruction fetch *)
    addrs.(k) <-
      (if k land 7 = 0 then !x land 0x3FFFC else (addrs.(max 0 (k - 1)) + 4) land 0x3FFFF)
  done;
  pass_ns ~items:n (fun () ->
      Array.iteri
        (fun k a ->
          ignore (Sys.opaque_identity (Cache.access c ~write:(k land 3 = 0) a)))
        addrs)

(** One [Clock.at] push and its pop through [Clock.advance], with 64
    events pending. *)
let clock_push_pop_ns () =
  let c = Clock.create () in
  let n = 64 in
  let x = ref 7 in
  per_call ~calls:2000 (fun () ->
      for _ = 1 to n do
        x := ((!x * 1103515245) + 12345) land 0xFFFF;
        Clock.after_ c (1 + !x) ignore
      done;
      Clock.advance c 0x10000)
  /. float_of_int n

let intc_deliverable_ns () =
  let i = Intc.create ~name:"micro" ~nlines:Soc.nlines in
  Intc.enable i 3 true;
  let hits = ref 0 in
  let r =
    per_call ~calls:1_000_000 (fun () ->
        if Intc.deliverable i then incr hits;
        if !hits land 1023 = 0 then Intc.set_pending i 3
        else Intc.clear_pending i 3)
  in
  ignore (Sys.opaque_identity !hits);
  r

(* --------------------------------- DBT -------------------------------- *)

(** Translate every guest block the warmed engine [warm] holds, on a
    fresh engine over a fresh platform booted from the same image:
    returns (blocks translated, host us per block). *)
let translate ~built (warm : Engine.t) =
  let starts =
    Hashtbl.fold (fun g _ l -> g :: l) warm.Engine.block_map [] |> List.sort compare
  in
  let plat = Platform.create ~built () in
  let e = Engine.create ~soc:plat.Platform.soc ~mode:Tk_dbt.Translator.Ark () in
  let t0 = Util.now_ns () in
  List.iter (fun g -> try ignore (Engine.entry_host e g) with _ -> ()) starts;
  let dt = Util.now_ns () - t0 in
  (e.Engine.blocks, float_of_int dt /. 1e3 /. float_of_int (max 1 e.Engine.blocks))

(** The host words the warmed engine emitted, for V7M decode. *)
let host_words (warm : Engine.t) =
  let mem = warm.Engine.soc.Soc.mem in
  let n = (warm.Engine.cursor - Soc.code_cache_base) / 4 in
  Array.init n (fun k -> Mem.ram_read mem (Soc.code_cache_base + (4 * k)) 4)

(* ------------------------------ lockstep ------------------------------ *)

(** One barrier round of two synthetic lanes that only advance their
    clocks: the scheduler's own cost per round, without simulation. *)
let lockstep_round_ns ~domains ~rounds =
  let main = Clock.create () in
  let lane = Clock.lane main in
  let quantum = 1000 in
  let stop = rounds * quantum in
  let run clock ~deadline =
    clock.Clock.now <- min deadline stop;
    if clock.Clock.now >= stop then `Done else `Runnable
  in
  let ls =
    Lockstep.create ~quantum
      [ { Lockstep.l_name = "a"; l_clock = main; l_run = run main };
        { Lockstep.l_name = "b"; l_clock = lane; l_run = run lane } ]
  in
  let t0 = Util.now_ns () in
  let st = Lockstep.run ~domains ls in
  float_of_int (Util.now_ns () - t0) /. float_of_int (max 1 st.Lockstep.rounds)

(* ------------------------------- World ------------------------------- *)

(** [World.fork] and [World.restore] on a warmed ARK world, as the fleet
    uses them: snapshot, diverge by one cycle, time a fork and a restore.
    Returns (fork ms, restore ms, pages rewritten per restore), medians
    over [reps]. *)
let world_fork_restore (ark : Tk_harness.Ark_run.t) ~reps =
  let soc = (Tk_harness.Ark_run.plat ark).Platform.soc in
  let w =
    World.create
      ~shared_ranges:
        [ (Soc.code_cache_base, Soc.code_cache_base + Soc.code_cache_size) ]
      soc
  in
  Tk_fleet.Fleet.install_hooks w ark;
  let snap0 = World.fork w in
  let on_page = Workloads.on_page_restored ark in
  let forks = ref [] and restores = ref [] and pages = ref [] in
  for _ = 1 to reps do
    ignore (Tk_harness.Ark_run.suspend_resume_cycle ark);
    let t0 = Util.now_ns () in
    ignore (Sys.opaque_identity (World.fork w));
    let t1 = Util.now_ns () in
    let p0 = (World.stats w).World.pages_loaded in
    World.restore w ~on_page snap0;
    let t2 = Util.now_ns () in
    forks := (float_of_int (t1 - t0) /. 1e6) :: !forks;
    restores := (float_of_int (t2 - t1) /. 1e6) :: !restores;
    pages := float_of_int ((World.stats w).World.pages_loaded - p0) :: !pages
  done;
  (Util.median !forks, Util.median !restores, Util.median !pages)
