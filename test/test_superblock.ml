(* The superblock tier: trace formation over hot block chains, macro-op
   fusion, and store-driven invalidation of a formed multi-block trace.

   The engine-level tests run small hand-built guest programs through
   both the native interpreter and a superblock-tier engine and diff the
   architectural outcome (the §7.3 side-by-side methodology); the trace
   programs are shaped so the hot loop body straddles the 16-instruction
   block limit — formation must stitch a chain of at least two
   translation blocks. The SMC regression stores a fresh encoding into
   the SECOND constituent block of a formed trace: the whole trace must
   be evicted and the rewritten word picked up at the next block
   boundary, exactly when the interpreter's decode cache would pick it
   up. The harness-level test runs a full offloaded suspend/resume
   cycle with the tier on. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt
module Ark_run = Tk_harness.Ark_run

let rep n i = List.init n (fun _ -> Asm.Ins i)

type arch = { regs : int array; flags : int }

let run_native image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let interp = Interp.create ~soc () in
  let stop = ref false in
  interp.Interp.on_svc <- (fun _ _ _ -> stop := true);
  let cpu = interp.Interp.cpu in
  let stub = Soc.kernel_base + (4 * Array.length image.Asm.words) + 64 in
  Mem.ram_write soc.Soc.mem stub 4 (V7a.encode_exn (at (Svc 0)));
  cpu.Exec.r.(Types.lr) <- stub;
  Interp.set_pc interp (Asm.symbol image entry);
  let steps = ref 0 in
  (try
     while not !stop do
       incr steps;
       if !steps > 1_000_000 then failwith "native runaway";
       Interp.step interp
     done
   with e -> Alcotest.failf "native arm: %s" (Printexc.to_string e));
  { regs = Array.copy cpu.Exec.r; flags = Exec.flags_word cpu }

let run_sb ?(threshold = 4) image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  engine.Engine.superblock <- true;
  engine.Engine.sb_threshold <- threshold;
  let cpu = Exec.make_cpu () in
  cpu.Exec.r.(Types.lr) <- Layout.exit_magic;
  cpu.Exec.r.(Types.pc) <- Engine.entry_host engine (Asm.symbol image entry);
  (try Engine.run engine cpu ~fuel:5_000_000 with
  | Engine.Context_exit -> ()
  | e -> Alcotest.failf "superblock arm: %s" (Printexc.to_string e));
  ( { regs = Array.init 16 (fun i -> Engine.guest_reg engine cpu i);
      flags = Exec.flags_word cpu },
    engine )

let check_arch label n s =
  for i = 0 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "%s: r%d matches native" label i)
      n.regs.(i) s.regs.(i)
  done;
  Alcotest.(check int) (label ^ ": flags match native") n.flags s.flags

(* ------------------------- trace formation --------------------------- *)

(* hot loop whose body spans two chained translation blocks: 18 pad adds
   overflow the 16-instruction block limit, so the backedge block chain
   is [.top][.top+0x40] — formation must stitch both *)
let hot_image () =
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (10, 0)));
      Asm.Ins (at (Movw (1, 200))); Asm.Label ".top" ]
    @ rep 18 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at (Dp (ADD, false, 10, 10, Imm 3)));
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins (at (Bx Types.lr)) ]
  in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "hotfn"; items } ] []

(* the same two-block loop shape with a store per iteration into the
   image's data window: every store takes the store-invalidation probe,
   none hits translated code *)
let store_image () =
  let data = Soc.kernel_base + 0x8000 in
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 200)));
      Asm.Label ".top";
      Asm.Ins (at (Movw (3, data land 0xFFFF)));
      Asm.Ins (at (Movt (3, data lsr 16))) ]
    @ rep 13 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins
          (at
             (Mem
                { ld = false; size = Word; rt = 0; rn = 3; off = Oimm 0;
                  idx = Offset }));
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins (at (Bx Types.lr)) ]
  in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "storefn"; items } ] []

let test_formation () =
  List.iter
    (fun (label, image, entry) ->
      let n = run_native image entry in
      let s, engine = run_sb image entry in
      check_arch label n s;
      Alcotest.(check bool) (label ^ ": a multi-block trace formed") true
        (engine.Engine.traces_formed >= 1);
      Alcotest.(check bool) (label ^ ": cmp+branch idiom fused") true
        (engine.Engine.fusions_applied >= 1);
      Alcotest.(check int) (label ^ ": nothing invalidated") 0
        engine.Engine.invalidations)
    [ ("hot loop", hot_image (), "hotfn");
      ("store loop", store_image (), "storefn") ]

(* a threshold the loop never reaches leaves the tier inert *)
let test_below_threshold () =
  let image = hot_image () in
  let n = run_native image "hotfn" in
  let s, engine = run_sb ~threshold:1_000_000 image "hotfn" in
  check_arch "cold loop" n s;
  Alcotest.(check int) "no trace formed" 0 engine.Engine.traces_formed

(* ---------------------- SMC across a formed trace -------------------- *)

(* The loop's first block holds the patch target; the second constituent
   block stores a new encoding over it on the iteration where r1 = 20
   (well after formation at threshold 4). Program order puts the store
   AFTER the patch site within the iteration, so both arms execute the
   old word on the store iteration and must pick up the new word on the
   next — the DBT side via whole-trace eviction at the backedge. *)
let smc_image () =
  let enc = V7a.encode_exn (at (Dp (ADD, false, 0, 0, Imm 100))) in
  let str_word =
    Mem { ld = false; size = Word; rt = 2; rn = 3; off = Oimm 0; idx = Offset }
  in
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 40)));
      Asm.Label ".top"; Asm.Label ".patch";
      Asm.Ins (at (Dp (ADD, false, 0, 0, Imm 2))) ]
    @ rep 15 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ (* second block of the chain starts here *)
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 20)));
        Asm.Bcc (NE, ".skip");
        Asm.Ins (at (Movw (2, enc land 0xFFFF)));
        Asm.Ins (at (Movt (2, enc lsr 16)));
        Asm.Adr (3, ".patch");
        Asm.Ins (at str_word);
        Asm.Label ".skip";
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins (at (Bx Types.lr)) ]
  in
  Asm.link ~base:Soc.kernel_base [ { Asm.name = "smcfn"; items } ] []

let test_smc_in_trace () =
  let image = smc_image () in
  let n = run_native image "smcfn" in
  let s, engine = run_sb image "smcfn" in
  check_arch "smc loop" n s;
  Alcotest.(check bool) "trace had formed before the store" true
    (engine.Engine.traces_formed >= 1);
  Alcotest.(check bool) "store into the trace was caught" true
    (engine.Engine.invalidations >= 1);
  Alcotest.(check bool) "whole cache evicted" true
    (engine.Engine.flushes >= 1)

(* ----------------------- full offloaded cycle ------------------------ *)

let test_full_cycle () =
  let ark = Ark_run.create ~superblock:true () in
  (match Ark_run.suspend_resume_cycle ark with
  | `Ok -> ()
  | `Fell_back r -> Alcotest.failf "unexpected fallback: %s" r);
  let e = ark.Ark_run.ark.Transkernel.Ark.engine in
  Alcotest.(check bool) "traces formed during the offloaded phases" true
    (e.Engine.traces_formed >= 1);
  Alcotest.(check bool) "macro-ops fused" true (e.Engine.fusions_applied >= 1)

let () =
  Alcotest.run "superblock"
    [ ( "trace formation",
        [ Alcotest.test_case "hot chain forms and matches native" `Quick
            test_formation;
          Alcotest.test_case "unreached threshold stays inert" `Quick
            test_below_threshold ] );
      ( "invalidation",
        [ Alcotest.test_case "store into a formed trace evicts it" `Quick
            test_smc_in_trace ] );
      ( "harness",
        [ Alcotest.test_case "offloaded cycle completes with traces" `Quick
            test_full_cycle ] ) ]
