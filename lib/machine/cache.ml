(** Last-level cache model (per core).

    A direct-mapped cache with 32-byte lines. Its purpose is not
    microarchitectural fidelity but the paper's two first-order effects:

    {ul
    {- miss {e cycles} lengthen busy time — the Cortex-M3's 32 KB LLC
       thrashes under the ~230 KB of emitted host code plus kernel data,
       while the A9's 1 MB LLC absorbs the working set (§7.3);}
    {- miss {e traffic} drives the DRAM power model — the paper measures
       32 MB/s read on M3 vs 8 MB/s on A9 and attributes the extra DRAM
       energy to LLC thrashing (Figure 5b).}} *)

type t = {
  name : string;
  line_bits : int;  (** log2 of line size *)
  nsets : int;
  set_mask : int;
      (** [nsets - 1] when [nsets] is a power of two (every realistic
          size is), else [-1]; lets {!access} replace the per-access
          integer division by a bitmask *)
  tags : int array;  (** -1 = invalid *)
  dirty : bool array;
  miss_penalty : int;  (** core cycles per miss *)
  mutable hits : int;
  mutable misses : int;
  mutable rd_bytes : int;  (** DRAM reads caused by fills *)
  mutable wr_bytes : int;  (** DRAM writes caused by evictions *)
}

(** [create ~name ~size_kb ~miss_penalty] builds a direct-mapped cache
    with 32-byte lines. *)
let create ~name ~size_kb ~miss_penalty =
  let line = 32 in
  let nsets = size_kb * 1024 / line in
  let set_mask = if nsets land (nsets - 1) = 0 then nsets - 1 else -1 in
  { name; line_bits = 5; nsets; set_mask; tags = Array.make nsets (-1);
    dirty = Array.make nsets false; miss_penalty; hits = 0; misses = 0;
    rd_bytes = 0; wr_bytes = 0 }

let line_size t = 1 lsl t.line_bits

(** [set_of t line] — the set line number [line] maps to. *)
let[@inline] set_of t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets

(** [access t ~write addr] simulates one access; returns the stall cycles
    (0 on hit, [miss_penalty] on miss) and updates traffic counters. *)
let access t ~write addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  (* [set < nsets] by construction (mask or mod), so the unchecked
     accesses are safe *)
  if Array.unsafe_get t.tags set = line then begin
    t.hits <- t.hits + 1;
    if write then Array.unsafe_set t.dirty set true;
    0
  end
  else begin
    t.misses <- t.misses + 1;
    if Array.unsafe_get t.tags set >= 0 && Array.unsafe_get t.dirty set then
      t.wr_bytes <- t.wr_bytes + line_size t;
    Array.unsafe_set t.tags set line;
    Array.unsafe_set t.dirty set write;
    t.rd_bytes <- t.rd_bytes + line_size t;
    t.miss_penalty
  end

(** [flush t] invalidates everything (writing back dirty lines), as ARK
    does on fallback migration; returns the number of lines written
    back. *)
let flush t =
  let wb = ref 0 in
  for s = 0 to t.nsets - 1 do
    if t.tags.(s) >= 0 && t.dirty.(s) then begin
      incr wb;
      t.wr_bytes <- t.wr_bytes + line_size t
    end;
    t.tags.(s) <- -1;
    t.dirty.(s) <- false
  done;
  !wb

(** [reset_counters t] zeroes hit/miss/traffic counters (cache contents
    are kept — benches measure warm caches, as the paper does). *)
let reset_counters t =
  t.hits <- 0; t.misses <- 0; t.rd_bytes <- 0; t.wr_bytes <- 0

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
