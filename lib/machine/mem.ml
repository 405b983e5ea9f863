(** Shared physical memory and the MMIO bus.

    Both cores address the same DRAM at the same addresses — the "shared
    platform resources" half of the paper's hardware model (§2.2): the
    peripheral core maps all kernel code/data at identical addresses as
    the CPU. Accesses outside DRAM are routed to registered MMIO regions
    (devices, interrupt controllers, timers); an unclaimed access raises
    {!Bus_fault}, which is how the M3's MPU fault on the CPU's interrupt
    controller registers is modelled. *)

exception Bus_fault of { addr : int; write : bool }

type region = {
  rbase : int;
  rsize : int;
  rname : string;
  rread : int -> int -> int;  (** [rread offset nbytes] *)
  rwrite : int -> int -> int -> unit;  (** [rwrite offset nbytes value] *)
}

(* DRAM is tracked in 4 KiB pages for the world-snapshot layer: every
   store marks its page in [page_touched], so a snapshot only has to
   compare the touched pages against the baseline instead of all of
   DRAM. The barrier is one unsafe byte store per write path — the
   bitmap is a Bytes so marking is branch-free. *)
let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  ram_base : int;
  ram : Bytes.t;
  page_touched : Bytes.t;  (** '\001' where the page may differ from
                               the snapshot baseline *)
  mutable regions : region list;
  mutable dma_read_bytes : int;  (** device-initiated DRAM traffic *)
  mutable dma_write_bytes : int;
}

(** [create ~ram_base ~ram_size] makes a platform memory with zeroed
    DRAM. *)
let create ~ram_base ~ram_size =
  { ram_base; ram = Bytes.make ram_size '\000';
    (* one slack byte past the end: the write barrier marks the page of
       [off + nbytes - 1] before the Bytes primitive bounds-checks the
       store, and a straddling write at the very top of RAM would index
       one past the last page *)
    page_touched =
      Bytes.make (((ram_size + page_size - 1) lsr page_bits) + 1) '\000';
    regions = []; dma_read_bytes = 0; dma_write_bytes = 0 }

let npages t = Bytes.length t.page_touched - 1
let page_touched t i = Bytes.unsafe_get t.page_touched i <> '\000'

let set_page_touched t i v =
  Bytes.unsafe_set t.page_touched i (if v then '\001' else '\000')

(** [page_bounds t i] — the in-RAM byte offset and length of page [i]
    (the last page may be partial). *)
let page_bounds t i =
  let off = i lsl page_bits in
  (off, min page_size (Bytes.length t.ram - off))

(** [page_copy t i] — a fresh copy of page [i]'s bytes. *)
let page_copy t i =
  let off, len = page_bounds t i in
  Bytes.sub t.ram off len

let page_equal t i buf =
  let off, len = page_bounds t i in
  len = Bytes.length buf && Bytes.sub t.ram off len = buf

(** [page_load t i buf] — overwrite page [i] with [buf] (no dirty
    marking: the snapshot layer maintains the bitmap itself). *)
let page_load t i buf =
  let off, len = page_bounds t i in
  Bytes.blit buf 0 t.ram off len

(** [add_region t r] registers an MMIO region (latest wins on overlap). *)
let add_region t r = t.regions <- r :: t.regions

let in_ram t addr = addr >= t.ram_base && addr < t.ram_base + Bytes.length t.ram

(* the latest-registered region claiming [addr], or [Not_found]: a
   plain walk, so a device-register access allocates neither a
   [List.find_opt] predicate closure nor an option *)
let rec region_at addr = function
  | [] -> raise Not_found
  | r :: rest ->
    if addr >= r.rbase && addr < r.rbase + r.rsize then r
    else region_at addr rest

(* Raw RAM accessors, little-endian. *)
let ram_read t addr nbytes =
  let off = addr - t.ram_base in
  match nbytes with
  | 1 -> Char.code (Bytes.get t.ram off)
  | 2 -> Bytes.get_uint16_le t.ram off
  | 4 -> Int32.to_int (Bytes.get_int32_le t.ram off) land 0xFFFFFFFF
  | n -> invalid_arg (Printf.sprintf "ram_read size %d" n)

let ram_write t addr nbytes v =
  let off = addr - t.ram_base in
  Bytes.unsafe_set t.page_touched (off lsr page_bits) '\001';
  Bytes.unsafe_set t.page_touched ((off + nbytes - 1) lsr page_bits) '\001';
  match nbytes with
  | 1 -> Bytes.set t.ram off (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le t.ram off (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le t.ram off (Int32.of_int (Tk_isa.Bits.s32 v))
  | n -> invalid_arg (Printf.sprintf "ram_write size %d" n)

(* Fast-path word accessors for the interpreter hot loops: same
   semantics as [ram_read]/[ram_write] with [nbytes = 4], minus the size
   dispatch. The caller has already established [in_ram addr]; the
   Bytes primitives still bounds-check the (rare) case of a word
   straddling the end of RAM. *)
let ram_read32 t addr =
  Int32.to_int (Bytes.get_int32_le t.ram (addr - t.ram_base)) land 0xFFFFFFFF

let ram_write32 t addr v =
  let off = addr - t.ram_base in
  Bytes.unsafe_set t.page_touched (off lsr page_bits) '\001';
  Bytes.unsafe_set t.page_touched ((off + 3) lsr page_bits) '\001';
  Bytes.set_int32_le t.ram off (Int32.of_int (Tk_isa.Bits.s32 v))

(** [read t addr nbytes] — core- or DBT-initiated read; RAM or MMIO.
    @raise Bus_fault on unclaimed addresses. *)
let read t addr nbytes =
  if in_ram t addr then ram_read t addr nbytes
  else
    match region_at addr t.regions with
    | r -> r.rread (addr - r.rbase) nbytes land 0xFFFFFFFF
    | exception Not_found -> raise (Bus_fault { addr; write = false })

(** [write t addr nbytes v] — core- or DBT-initiated write. *)
let write t addr nbytes v =
  if in_ram t addr then ram_write t addr nbytes v
  else
    match region_at addr t.regions with
    | r -> r.rwrite (addr - r.rbase) nbytes v
    | exception Not_found -> raise (Bus_fault { addr; write = true })

(* How many of the [n] bytes of a device transfer at DRAM offset [off]
   lie in DRAM. The transfer touches that prefix in place; when it was
   clipped, it then fails as the byte-wise [Bytes] access it models
   would. *)
let dma_in_ram t off n =
  if off < 0 then 0 else max 0 (min n (Bytes.length t.ram - off))

(** [dma_read t addr n] models a device reading [n] bytes from DRAM
    (counted as DRAM traffic, bypassing core caches). The device model
    consumes no data, so nothing is copied out. *)
let dma_read t addr n =
  t.dma_read_bytes <- t.dma_read_bytes + n;
  if dma_in_ram t (addr - t.ram_base) n < n then
    invalid_arg "index out of bounds"

(** [dma_write t addr n byte] models a device writing [n] bytes to DRAM,
    byte [i] being [byte i land 0xFF]. *)
let dma_write t addr n byte =
  t.dma_write_bytes <- t.dma_write_bytes + n;
  let off = addr - t.ram_base in
  let len = dma_in_ram t off n in
  if len > 0 then begin
    for i = 0 to len - 1 do
      Bytes.unsafe_set t.ram (off + i) (Char.unsafe_chr (byte i land 0xFF))
    done;
    for p = off lsr page_bits to (off + len - 1) lsr page_bits do
      Bytes.unsafe_set t.page_touched p '\001'
    done
  end;
  if len < n then invalid_arg "index out of bounds"

(** [load_image t (img : Tk_isa.Asm.image)] copies a linked guest image
    into DRAM at its base address. *)
let load_image t (img : Tk_isa.Asm.image) =
  Array.iteri (fun i w -> ram_write t (img.base + (4 * i)) 4 w) img.words

(** [digest t ~lo ~hi] is a cheap checksum of a DRAM range, used by the
    differential tests to compare end states of native vs translated
    execution. *)
let digest t ~lo ~hi =
  let h = ref 5381 in
  for a = lo to hi - 1 do
    if in_ram t a then h := ((!h lsl 5) + !h + ram_read t a 1) land 0x3FFFFFFFFFFF
  done;
  !h
