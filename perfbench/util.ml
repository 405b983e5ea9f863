(** Host clocks, order statistics, digests and JSON text for the
    benchmark. Everything here is allocation-free on the paths the traced
    run calls from inside simulator callbacks ({!now_ns},
    {!minor_words}). *)

(** Monotonic host time in nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Words allocated on the minor heap by the calling domain so far. *)
let minor_words () = int_of_float (Gc.minor_words ())

(** Host ns one {!now_ns} reading adds to an interval it brackets: the
    median gap between back-to-back readings. Probes subtract it from
    what they time. *)
let clock_cost_ns =
  lazy
    (let gaps =
       List.init 2001 (fun _ ->
           let a = now_ns () in
           now_ns () - a)
     in
     List.nth (List.sort compare gaps) 1000)

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ------------------------- order statistics ------------------------- *)

let sorted l = List.sort compare l

(** [quantile q l] — linear interpolation between closest ranks; [nan]
    on an empty list. *)
let quantile q l =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

(** The highest percentile of [n] samples that still has at least ten
    samples beyond it — the tail a run of this length can report. *)
let tail_eligible ~n q = float_of_int n *. (1. -. q) >= 10.

(* ------------------------------ digest ------------------------------ *)

(** FNV-1a over a list of integers (each folded in as 8 bytes), rendered
    as 16 hex digits. *)
let digest_ints l =
  let h = ref 0xcbf29ce484222 in
  List.iter
    (fun v ->
      for b = 0 to 7 do
        h := (!h lxor ((v lsr (8 * b)) land 0xff)) * 0x100000001b3
      done)
    l;
  Printf.sprintf "%016x" (!h land max_int)

let digest_string s =
  digest_ints (List.init (String.length s) (fun i -> Char.code s.[i]))

(* ------------------------------- JSON ------------------------------- *)

(** A metric value with all its digits ([%.17g]); JSON has no NaN or
    infinity, so those print as [null], which no reader mistakes for a
    measurement. *)
let json_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_str s = "\"" ^ Tk_stats.Json.escape s ^ "\""

(* ---------------------------- host speed ---------------------------- *)

let walk_table = lazy (Array.init (1 lsl 19) (fun i -> (i * 7919) land 0xFFFF))
let program = lazy (Array.init 4096 (fun i -> ((i * 2654435761) lsr 7) land 7))
let registers = Array.make 16 1
let scratch = lazy (Array.init (1 lsl 15) (fun i -> i * 31))

(** One fixed unit of host work owned by the benchmark, never by the
    simulator, in two parts like the simulator's own host work: a
    pseudo-random walk over a 4 MB table (cache misses), then a small
    bytecode interpreter with data-dependent dispatch over a 4 KB program
    and a 256 KB scratch array. It allocates nothing, so the OCaml heap a
    workload leaves behind does not slow it. Returns its host ns. *)
let reference_ns () =
  let a = Lazy.force walk_table in
  let mask = Array.length a - 1 in
  let p = Lazy.force program and m = Lazy.force scratch in
  let t0 = now_ns () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    let j = !x land mask in
    match !x land 3 with
    | 0 -> acc := !acc + Array.unsafe_get a j
    | 1 -> acc := !acc lxor (Array.unsafe_get a j lsl 1)
    | 2 -> Array.unsafe_set a j ((Array.unsafe_get a j + !acc) land 0xFFFF)
    | _ -> acc := !acc - (Array.unsafe_get a j lsr 1)
  done;
  let pc = ref 0 in
  acc := 7;
  for _ = 1 to 400_000 do
    let r = !acc land 15 in
    (match Array.unsafe_get p !pc with
    | 0 -> acc := !acc + Array.unsafe_get registers r
    | 1 -> Array.unsafe_set registers r (!acc lxor (!acc lsr 3))
    | 2 -> acc := !acc + Array.unsafe_get m (!acc land 0x7FFF)
    | 3 -> if !acc land 1 = 0 then acc := !acc * 3 else acc := !acc lsr 1
    | 4 -> Array.unsafe_set m (!acc land 0x7FFF) !acc
    | 5 -> acc := ((!acc * 1103515245) + 12345) land 0x3FFF_FFFF
    | 6 -> if !acc land 4 = 0 then pc := (!pc + (!acc land 63)) land 4095
    | _ -> acc := !acc - Array.unsafe_get registers (15 - r));
    pc := (!pc + 1) land 4095
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t0

(** [reference_batch n] — the median of [n] reference units, in ns. *)
let reference_batch n = median (List.init n (fun _ -> float_of_int (reference_ns ())))

(** What the reference unit takes at nominal host speed. *)
let nominal_ref_ns = 4e6

(** Host time at nominal speed. The shared machine's speed moves in
    plateaus — measured on a shared 2-core Xeon VM at 49 vs 83 ms for the same
    simulated cycle, switching within seconds — so each timed operation
    is scaled by reference units timed right before and right after it:
    [raw * nominal / mean(before, after)]. A faster simulator still reads
    faster; a faster moment of the host does not. *)
let at_nominal ~before ~after raw = raw *. nominal_ref_ns /. ((before +. after) /. 2.)
