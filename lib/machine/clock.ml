(** Simulated platform time and event queues.

    One nanosecond clock per simulated platform — or, under the
    bounded-quantum lockstep scheduler, one {e lane} per core split from
    the platform clock with {!lane}. The currently executing core
    advances its clock as it retires instructions; device-side activity
    (power-state transitions completing, DMA finishing, timer expiry) is
    scheduled as absolute-time events. When the core idles (WFI), time
    fast-forwards to the next event — that is exactly how the busy/idle
    split of Figure 5a arises.

    The pending queue is a binary min-heap keyed by [(at, seq)] — [seq]
    is a monotone insertion counter, so same-instant events still fire
    in FIFO order, byte-identical to the seed's sorted-list insertion.
    Cancellation is lazy (a [live] flag; dead events are purged when
    they reach the root), so both [at] and cancel are O(log n) where the
    seed's were O(n) — fleet worlds carry dozens of armed timers and
    device completions, where the quadratic list walk was measurable.

    Lanes split from one platform clock {e share} the [seq] allocator:
    the global [(at, seq)] order over both lanes' events is therefore
    total and identical to what a single merged queue would produce,
    which is what makes the lockstep scheduler's barrier commit order
    (time, seq, lane) deterministic and quantum=1 digest-identical. *)

type event = {
  at : int;
  seq : int;
  fn : unit -> unit;
  mutable live : bool;  (** lazily-cancelled events are skipped at pop *)
}

type t = {
  mutable now : int;  (** ns since simulation start *)
  mutable heap : event array;  (** min-heap by (at, seq); [size] slots used *)
  mutable size : int;
  seq : int Atomic.t;
      (** shared by every lane split from one platform clock — atomic so
          concurrent lanes on separate domains still mint unique,
          totally-ordered tie-breakers *)
  mutable next_at : int;
      (** [at] of the earliest live event, [max_int] when none — may
          transiently under-report after a root cancellation, which only
          costs callers a spurious {!run_due} (it fires nothing). The
          DBT engine's inlined fast path and [Core.charge_stall] read
          this field directly. *)
}

let dummy = { at = 0; seq = -1; fn = ignore; live = false }

let create () =
  { now = 0; heap = Array.make 8 dummy; size = 0; seq = Atomic.make 0;
    next_at = max_int }

(** [lane t] — a fresh empty queue at [t]'s current time sharing [t]'s
    [seq] allocator, so events scheduled on either keep a total global
    (at, seq) order. Used by the lockstep scheduler to give the M3 a
    private per-core queue. *)
let lane t =
  { now = t.now; heap = Array.make 8 dummy; size = 0; seq = t.seq;
    next_at = max_int }

(* ------------------------------ heap ------------------------------ *)

let less (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less ev h.(parent) then begin
      h.(!i) <- h.(parent);
      i := parent
    end
    else continue := false
  done;
  h.(!i) <- ev;
  if ev.at < t.next_at then t.next_at <- ev.at

(* remove the root, restoring the heap property *)
let pop_discard t =
  let h = t.heap in
  t.size <- t.size - 1;
  let last = h.(t.size) in
  h.(t.size) <- dummy;
  if t.size > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i in
      (* h.(!i) currently conceptually holds [last] *)
      if l < t.size && less h.(l) last then smallest := l;
      if
        r < t.size
        && less h.(r) (if !smallest = !i then last else h.(!smallest))
      then smallest := r;
      if !smallest = !i then begin
        h.(!i) <- last;
        continue := false
      end
      else begin
        h.(!i) <- h.(!smallest);
        i := !smallest
      end
    done
  end

(* drop dead events off the root and refresh [next_at] *)
let rec purge t =
  if t.size = 0 then t.next_at <- max_int
  else begin
    let e = t.heap.(0) in
    if e.live then t.next_at <- e.at
    else begin
      pop_discard t;
      purge t
    end
  end

(* ------------------------------ API ------------------------------- *)

(** [at t ns fn] schedules [fn] to run at absolute time [ns] (clamped to
    now). Returns a cancel function. *)
let at t ns fn =
  let ev = { at = max ns t.now; seq = Atomic.fetch_and_add t.seq 1; fn;
             live = true } in
  push t ev;
  fun () ->
    if ev.live then begin
      ev.live <- false;
      (* keep [next_at] honest when the root died, so the engine's
         inlined fast-path check stays cheap and rarely spurious *)
      if t.size > 0 && t.heap.(0) == ev then purge t
    end

(** [after t dns fn] schedules [fn] in [dns] ns from now. *)
let after t dns fn = at t (t.now + dns) fn

(** [after_ t dns fn] — like {!after}, discarding the cancel handle. *)
let after_ t dns fn =
  let _cancel : unit -> unit = after t dns fn in
  ()

(** [run_due t] fires every live event with [at <= now], in (at, seq)
    order — including events scheduled by the handlers themselves —
    purges dead roots on the way, and leaves [next_at] at the earliest
    live pending event. A plain top-level recursion: it allocates
    nothing, so callers on the per-access path may invoke it freely
    (though most test [next_at <= now] first, as {!advance} does). *)
let rec run_due t =
  if t.size = 0 then t.next_at <- max_int
  else begin
    let e = t.heap.(0) in
    if not e.live then begin
      pop_discard t;
      run_due t
    end
    else if e.at <= t.now then begin
      pop_discard t;
      e.fn ();
      run_due t
    end
    else t.next_at <- e.at
  end

(** [advance t dns] moves time forward by [dns] ns and fires due events. *)
let advance t dns =
  t.now <- t.now + dns;
  if t.next_at <= t.now then run_due t

(** [next_event_time t] is the time of the earliest live pending event. *)
let next_event_time t =
  purge t;
  if t.size = 0 then None else Some t.heap.(0).at

(** [skip_to_next_event t] fast-forwards to the next event and fires it;
    returns the ns skipped. Returns [None] when no event is pending —
    a deadlocked WFI, which callers treat as a simulation bug. *)
let skip_to_next_event t =
  match next_event_time t with
  | None -> None
  | Some at ->
    let skipped = max 0 (at - t.now) in
    t.now <- max t.now at;
    run_due t;
    Some skipped

(** [skip_to_next_event_before t ~limit] — like {!skip_to_next_event}
    but never past absolute time [limit]: if the next event lies at or
    beyond [limit], idle only up to [limit] (firing whatever becomes due
    there) and return [`Capped ns]. The lockstep scheduler uses this so
    an idling core cannot overrun its quantum boundary. *)
let skip_to_next_event_before t ~limit =
  match next_event_time t with
  | Some at when at < limit ->
    let skipped = max 0 (at - t.now) in
    t.now <- max t.now at;
    run_due t;
    `Skipped skipped
  | (None | Some _) when t.now < limit ->
    let skipped = limit - t.now in
    t.now <- limit;
    run_due t;
    `Capped skipped
  | _ -> `Capped 0

(* --------------------------- snapshots ---------------------------- *)

(** [seq_value t] / [pending t] — the capture half of World fork: the
    allocator position and the live pending events in (at, seq) order.
    The returned records are fresh copies, so cancellations that happen
    after the capture cannot reach into the snapshot. *)
let seq_value t = Atomic.get t.seq

let pending t =
  let live = ref [] in
  for i = t.size - 1 downto 0 do
    let e = t.heap.(i) in
    if e.live then live := e :: !live
  done;
  List.sort
    (fun (a : event) b -> compare (a.at, a.seq) (b.at, b.seq))
    !live

(** [restore_pending t ~now ~seq evs] — the restore half: rewind time
    and the allocator and replace the whole queue with (fresh copies of)
    [evs]. Cancel handles minted before the restore are dead letters
    afterwards — every in-tree cancel user (the tick timers) is
    stopped/re-armed around a World restore, so none survive. *)
let restore_pending t ~now ~seq evs =
  t.now <- now;
  Atomic.set t.seq seq;
  t.size <- 0;
  Array.fill t.heap 0 (Array.length t.heap) dummy;
  t.next_at <- max_int;
  List.iter
    (fun (e : event) -> push t { at = e.at; seq = e.seq; fn = e.fn; live = true })
    evs
