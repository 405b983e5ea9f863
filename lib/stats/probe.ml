(* Every call tests each sink's enable bit itself: with all sinks off it
   builds no closure and boxes no value. *)

type t = {
  now : unit -> int;
  trace : Trace.t;
  spans : Span.t;
  sampler : Timeseries.t;
  ramp_t0 : int array;
  cut : int array;
}

let create ~now ~devices =
  { now; trace = Trace.create ~now (); spans = Span.create ~now ();
    sampler = Timeseries.create ~now (); ramp_t0 = Array.make devices (-1);
    cut = Array.make 3 (-1) }

let phase p code =
  Trace.phase p.trace code;
  Timeseries.phase p.sampler code;
  Span.phase p.spans code

type irq = { p : t; core : int; raised_at : int array }

let irq p ~core ~nlines = { p; core; raised_at = Array.make nlines (-1) }

let irq_detached =
  irq (create ~now:(fun () -> 0) ~devices:0) ~core:Trace.core_none ~nlines:0

let irq_raise c line =
  let p = c.p in
  if p.trace.Trace.enabled then
    Trace.emit p.trace ~core:c.core Trace.ev_irq_raise line 0;
  if Span.enabled p.spans then c.raised_at.(line) <- p.now ()

let irq_ack c line =
  let p = c.p in
  if p.trace.Trace.enabled then
    Trace.emit p.trace ~core:c.core Trace.ev_irq_deliver line 0;
  if Span.enabled p.spans then begin
    let t0 = c.raised_at.(line) in
    c.raised_at.(line) <- -1;
    if t0 >= 0 then
      Span.emit_async p.spans ~core:c.core Span.sk_irq_deliver ~t0 line
  end

let ramp_begin p ~dev =
  if Span.enabled p.spans then p.ramp_t0.(dev) <- p.now ()

let ramp_end p ~dev ~on =
  let on = Bool.to_int on in
  if p.trace.Trace.enabled then
    Trace.emit p.trace ~core:Trace.core_none Trace.ev_power dev on;
  if Span.enabled p.spans then begin
    let t0 = p.ramp_t0.(dev) in
    p.ramp_t0.(dev) <- -1;
    if t0 >= 0 then
      Span.emit_async p.spans ~core:Trace.core_none Span.sk_power_ramp ~t0
        ((2 * dev) + on)
  end

let dbt_begin p kind guest =
  if Span.enabled p.spans then
    Span.enter_coalesced p.spans ~core:Trace.core_m3 kind guest
  else -1

let dbt_end p tok ev gpc guest =
  if p.trace.Trace.enabled then
    Trace.emit p.trace ~core:Trace.core_m3 ev gpc guest;
  if tok >= 0 then Span.leave p.spans tok

let translate_begin p ~guest = dbt_begin p Span.sk_dbt_translate guest
let translate_end p tok ~gpc ~guest = dbt_end p tok Trace.ev_translate gpc guest
let form_begin p ~guest = dbt_begin p Span.sk_dbt_form guest
let form_end p tok ~head ~guest = dbt_end p tok Trace.ev_form head guest

let run_begin p ~core =
  if Span.enabled p.spans then begin
    let slot = p.cut.(core) in
    p.cut.(core) <- -1;
    if slot >= 0 then Span.reopen p.spans ~core Span.sk_run ~slot 0
    else Span.enter p.spans ~core Span.sk_run 0
  end
  else -1

let run_end p tok = if tok >= 0 then Span.leave p.spans tok

let run_cut p ~core tok =
  if tok >= 0 then begin
    p.cut.(core) <- Span.slot_of p.spans tok;
    Span.leave p.spans tok
  end

let run_uncut p ~core = p.cut.(core) <- -1
