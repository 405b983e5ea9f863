(* The translation certifier and the SMC-clean abstract interpretation.

   Certifier: a crafted hot chain (same shape as the superblock tests —
   the loop body straddles the block limit) must certify clean, with the
   r10-in-r12 re-homing applied; a deliberately corrupted plan (one
   fused constant off by one) must be convicted with a concrete state;
   an engine whose [sb_certify] hook vetoes every plan must fall back to
   plain blocks and still match the native interpreter.

   Abstract interpretation: stack-disciplined functions prove clean,
   a seeded constant store into the code section convicts exactly its
   own word (word-granular ranges), and spans straddling the end of the
   code section stay conservatively SMC-suspect, while a loop storing
   to a constant image-data target proves fully clean. CFG recovery
   keeps blocks reachable only through superblock side exits and feeds
   the indirect-call census. *)

open Tk_isa
open Tk_isa.Types
open Tk_machine
open Tk_dbt
module Cfg = Tk_analysis.Cfg
module Absint = Tk_analysis.Absint
module Certify = Tk_analysis.Certify
module Image_lint = Tk_analysis.Image_lint
module Finding = Tk_analysis.Finding

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let rep n i = List.init n (fun _ -> Asm.Ins i)
let ret = at (Bx Types.lr)
let base = Soc.kernel_base
let classify_none _ = Translator.T_normal

type arch = { regs : int array; flags : int }

let run_native image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let interp = Interp.create ~soc () in
  let stop = ref false in
  interp.Interp.on_svc <- (fun _ _ _ -> stop := true);
  let cpu = interp.Interp.cpu in
  let stub = base + (4 * Array.length image.Asm.words) + 64 in
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

(* superblock engine run with an optional certifier hook *)
let run_sb ?(threshold = 4) ?admit image entry =
  let soc = Soc.create () in
  Mem.load_image soc.Soc.mem image;
  let engine = Engine.create ~soc ~mode:Translator.Ark () in
  engine.Engine.superblock <- true;
  engine.Engine.sb_threshold <- threshold;
  (match admit with Some f -> engine.Engine.sb_certify <- Some f | None -> ());
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
    checki (Printf.sprintf "%s: r%d matches native" label i) n.regs.(i)
      s.regs.(i)
  done;
  checki (label ^ ": flags match native") n.flags s.flags

(* ------------------------- crafted images ----------------------------- *)

(* hot loop whose body straddles the block limit: the backedge chain is
   two translation blocks, and the guest never touches r12, so the
   planner re-homes r10 — the certifier must model both transforms *)
let hot_image () =
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (10, 0)));
      Asm.Ins (at (Movw (1, 200))); Asm.Label ".top" ]
    @ rep 18 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at (Dp (ADD, false, 10, 10, Imm 3)));
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "hotfn"; items } ] []

(* the chain the engine forms on [hot_image]: [.top] splits at the
   16-instruction limit, so the second constituent starts 64 bytes in *)
let hot_chain image =
  let top = Asm.symbol image "hotfn" + 12 in
  [ top; top + 64 ]

let plan_of image chain =
  Superblock.plan
    ~read_guest:(Certify.read_guest_of_image image)
    ~classify_target:classify_none
    ~block_limit:Translator.default_block_limit ~chain

let certify image plan =
  Certify.certify_plan
    ~read_guest:(Certify.read_guest_of_image image)
    ~classify_target:classify_none
    ~block_limit:Translator.default_block_limit plan

(* hot store loop: every iteration writes the counter into the image
   data window (probe territory), but the target is a proven constant
   past the code section — every code word is SMC-clean *)
let store_image () =
  let data = base + 0x8000 in
  let str_data =
    Mem { ld = false; size = Word; rt = 0; rn = 3; off = Oimm 0; idx = Offset }
  in
  let items =
    (* the target address is materialized inside the loop body: the
       analysis is per-block, so the store's base must be a constant in
       its own block for the word to prove clean *)
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 200)));
      Asm.Label ".top";
      Asm.Ins (at (Movw (3, data land 0xFFFF)));
      Asm.Ins (at (Movt (3, data lsr 16))) ]
    @ rep 13 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at str_data);
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "storefn"; items } ] []

(* side exit inside the hot loop to a cold block nothing else reaches *)
let side_exit_image () =
  let items =
    [ Asm.Ins (at (Movw (0, 0))); Asm.Ins (at (Movw (1, 50)));
      Asm.Label ".top" ]
    @ rep 16 (at (Dp (ADD, false, 0, 0, Imm 1)))
    @ [ Asm.Ins (at (Dp (CMP, true, 0, 0, Imm 0)));
        Asm.Bcc (EQ, ".cold");
        Asm.Ins (at (Dp (SUB, false, 1, 1, Imm 1)));
        Asm.Ins (at (Dp (CMP, true, 0, 1, Imm 0)));
        Asm.Bcc (NE, ".top");
        Asm.Ins ret;
        Asm.Label ".cold";
        Asm.Ins (at (Movw (0, 0xDEAD)));
        Asm.Ins ret ]
  in
  Asm.link ~base [ { Asm.name = "kernel_main"; items } ] []

(* --------------------------- certifier -------------------------------- *)

let test_certify_clean_plan () =
  let image = hot_image () in
  let p = plan_of image (hot_chain image) in
  checkb "r10 re-homed into r12 across the trace" true
    p.Superblock.p_cached_r10;
  let o = certify image p in
  checkb "states executed" true (o.Certify.o_states > 0);
  checki "no divergence" 0 (List.length o.Certify.o_problems)

(* the seeded bug: one fused immediate off by one — every downstream
   state diverges and the certifier must say so *)
let test_certify_seeded_bug () =
  let image = hot_image () in
  let p = plan_of image (hot_chain image) in
  let mutated = ref false in
  let p_emits =
    List.map
      (fun e ->
        match e with
        | Translator.E_inst { op = Dp (ADD, false, 0, 0, Imm 1); _ }
          when not !mutated ->
          mutated := true;
          Translator.E_inst (at (Dp (ADD, false, 0, 0, Imm 2)))
        | e -> e)
      p.Superblock.p_emits
  in
  checkb "mutation applied" true !mutated;
  let o = certify image { p with Superblock.p_emits } in
  checkb "corrupted plan convicted" true (o.Certify.o_problems <> [])

(* dropping the woven r12 reload after re-homing is the reg-cache bug
   class; with no reload the trace reads a stale/havoced r12 *)
let test_certify_dropped_reload () =
  let image = hot_image () in
  let p = plan_of image (hot_chain image) in
  match p.Superblock.p_emits with
  | [] -> Alcotest.fail "empty plan"
  | _ :: rest ->
    let o = certify image { p with Superblock.p_emits = rest } in
    checkb "plan without its head emit convicted" true
      (o.Certify.o_problems <> [])

let test_certify_image_sweep () =
  let image = side_exit_image () in
  let r = Certify.certify_image ~classify_target:classify_none image in
  checkb "plans enumerated" true (r.Certify.r_plans >= 1);
  checki "zero divergent" 0 r.Certify.r_divergent;
  checki "no error findings" 0
    (List.length (Finding.errors r.Certify.findings))

let test_engine_certifier_veto () =
  let image = hot_image () in
  let n = run_native image "hotfn" in
  let s, engine = run_sb ~admit:(fun _ -> false) image "hotfn" in
  check_arch "vetoed formation" n s;
  checki "no trace formed" 0 engine.Engine.traces_formed;
  checkb "rejections counted" true (engine.Engine.certify_rejects >= 1)

let test_engine_certifier_admits () =
  let image = hot_image () in
  let admit =
    Certify.admit
      ~read_guest:(Certify.read_guest_of_image image)
      ~classify_target:classify_none
      ~block_limit:Translator.default_block_limit ()
  in
  let n = run_native image "hotfn" in
  let s, engine = run_sb ~admit image "hotfn" in
  check_arch "certified formation" n s;
  checkb "trace formed" true (engine.Engine.traces_formed >= 1);
  checki "nothing rejected" 0 engine.Engine.certify_rejects

(* ------------------------ CFG edge cases ------------------------------ *)

let test_cfg_side_exit_block () =
  let image = side_exit_image () in
  let t = Cfg.build image in
  let cold =
    List.find_opt
      (fun (b : Cfg.block) ->
        match b.Cfg.b_insts with
        | (_, { op = Movw (0, 0xDEAD); _ }) :: _ -> true
        | _ -> false)
      t.Cfg.blocks
  in
  match cold with
  | None -> Alcotest.fail "cold side-exit block not recovered"
  | Some cold ->
    checkb "reached only through the conditional side exit" true
      (List.exists
         (fun (b : Cfg.block) ->
           (match b.Cfg.b_term with Cfg.Cond_jump _ -> true | _ -> false)
           && List.mem cold.Cfg.b_start b.Cfg.b_succs)
         t.Cfg.blocks)

let test_cfg_indirect_census () =
  let image =
    Asm.link ~base
      [ { Asm.name = "kernel_main";
          items =
            [ Asm.Ins (at (Movw (4, 0x100))); Asm.Ins (at (Blx_r 4));
              Asm.Ins ret ] } ]
      []
  in
  let t = Cfg.build image in
  let f = List.find (fun f -> f.Cfg.f_name = "kernel_main") t.Cfg.funcs in
  checki "one indirect site" 1 (List.length (Cfg.indirect_sites t f));
  checkb "audit names the site" true
    (List.exists
       (fun (fi : Finding.t) -> fi.Finding.code = "indirect-call")
       (Image_lint.indirect_audit t));
  (* the engine mediates the blx itself: it must not count as fallback *)
  let counts, _ = Image_lint.fallback_census t in
  checkb "no fallback counted" true
    (Hashtbl.find_opt counts "fallback" = None)

(* ----------------------- abstract interpretation ---------------------- *)

let verdict_of r name =
  List.find (fun (v : Absint.fverdict) -> v.Absint.v_name = name)
    r.Absint.a_funcs

let in_ranges r addr =
  List.exists (fun (lo, hi) -> addr >= lo && addr < hi)
    r.Absint.a_clean_ranges

(* a disciplined stack store, and a loop storing to a constant target
   past the code section: both functions prove clean word for word *)
let test_absint_stack_clean () =
  let stack_image =
    Asm.link ~base
      [ { Asm.name = "kernel_main";
          items =
            [ Asm.Ins (at (Dp (SUB, false, 13, 13, Imm 8)));
              Asm.Ins
                (at
                   (Mem
                      { ld = false; size = Word; rt = 0; rn = 13;
                        off = Oimm 4; idx = Offset }));
              Asm.Ins (at (Dp (ADD, false, 13, 13, Imm 8)));
              Asm.Ins ret ] } ]
      []
  in
  List.iter
    (fun (image, fn, cls) ->
      let r = Absint.analyze (Cfg.build image) in
      let v = verdict_of r fn in
      checkb (cls ^ " store proves clean") true v.Absint.v_clean;
      checki "one store" 1 v.Absint.v_stores;
      checkb ("counted as " ^ cls) true
        (match List.assoc_opt cls r.Absint.a_hist with
        | Some n -> n >= 1
        | None -> false);
      checkb "whole function's words are clean" true
        (Absint.clean_words r * 4 >= v.Absint.v_size))
    [ (stack_image, "kernel_main", "stack");
      (store_image (), "storefn", "image-data") ]

(* the SMC store convicts only its own word: the ranges remain clean
   around it (word granularity, not function granularity) *)
let test_absint_smc_word_granular () =
  let entry = base in
  let image =
    Asm.link ~base
      [ { Asm.name = "kernel_main";
          items =
            [ Asm.Ins (at (Movw (3, entry land 0xFFFF)));
              Asm.Ins (at (Movt (3, entry lsr 16)));
              Asm.Ins
                (at
                   (Mem
                      { ld = false; size = Word; rt = 0; rn = 3;
                        off = Oimm 0; idx = Offset }));
              Asm.Ins ret ] } ]
      []
  in
  let r = Absint.analyze (Cfg.build image) in
  let v = verdict_of r "kernel_main" in
  checkb "SMC store convicts the function" true (not v.Absint.v_clean);
  checkb "histogram shows the code-section store" true
    (match List.assoc_opt "code" r.Absint.a_hist with
    | Some n -> n >= 1
    | None -> false);
  checkb "the store word itself is not clean" true
    (not (in_ranges r (entry + 8)));
  checkb "the neighbouring movw word stays clean" true
    (in_ranges r entry)

let test_absint_straddle_end () =
  let image =
    Asm.link ~base
      [ { Asm.name = "kernel_main";
          items = [ Asm.Ins (at Nop); Asm.Ins ret ] } ]
      []
  in
  let code_hi = image.Asm.base + image.Asm.code_size in
  checkb "span straddling the code end is SMC-suspect" true
    (Absint.classify_span image (code_hi - 2, code_hi + 2) = Absint.C_code);
  checkb "span at the boundary is image data" true
    (Absint.classify_span image (code_hi, code_hi + 4)
    = Absint.C_image_data);
  checkb "last code word is code" true
    (Absint.classify_span image (code_hi - 4, code_hi) = Absint.C_code);
  (* and through the analysis: a store whose constant target straddles
     the section end must convict *)
  let image2 =
    Asm.link ~base
      [ { Asm.name = "kernel_main";
          items =
            [ Asm.Ins (at (Movw (3, (code_hi - 2) land 0xFFFF)));
              Asm.Ins (at (Movt (3, (code_hi - 2) lsr 16)));
              Asm.Ins
                (at
                   (Mem
                      { ld = false; size = Word; rt = 0; rn = 3;
                        off = Oimm 0; idx = Offset }));
              Asm.Ins ret ] } ]
      []
  in
  let r = Absint.analyze (Cfg.build image2) in
  let v = verdict_of r "kernel_main" in
  checkb "straddling store convicts" true (not v.Absint.v_clean)

let () =
  Alcotest.run "certify"
    [ ( "trace certifier",
        [ Alcotest.test_case "crafted hot chain certifies clean" `Quick
            test_certify_clean_plan;
          Alcotest.test_case "seeded fused-constant bug convicted" `Quick
            test_certify_seeded_bug;
          Alcotest.test_case "decapitated plan convicted" `Quick
            test_certify_dropped_reload;
          Alcotest.test_case "image sweep: all plans certify" `Quick
            test_certify_image_sweep;
          Alcotest.test_case "engine veto falls back to plain blocks"
            `Quick test_engine_certifier_veto;
          Alcotest.test_case "online admission keeps the tier live" `Quick
            test_engine_certifier_admits ] );
      ( "cfg edge cases",
        [ Alcotest.test_case "side-exit-only block recovered" `Quick
            test_cfg_side_exit_block;
          Alcotest.test_case "indirect call census" `Quick
            test_cfg_indirect_census ] );
      ( "abstract interpretation",
        [ Alcotest.test_case "stack discipline proves clean" `Quick
            test_absint_stack_clean;
          Alcotest.test_case "SMC store convicts its own word" `Quick
            test_absint_smc_word_granular;
          Alcotest.test_case "stores straddling the image end" `Quick
            test_absint_straddle_end ] ) ]
