(* Probes of a traced run, attached only through public hooks: a wrapping
   [Set_intf.factory] that times every structure call, the [Sim] tracer
   (dispatches, crashes, and the boundaries of structure-call segments),
   the [Pmem] tracer (memory operations by kind) and the write-back fate
   observer.  Nothing here charges virtual time or draws randomness, so a
   wrapped run executes exactly the simulation an unwrapped one does.

   Structure time counts only segments in which the calling fiber is the
   one running: a call opens a segment on entry, every [Sched] event
   closes the running fiber's segment and reopens one for the dispatched
   fiber if it is inside a call, and the call's return closes it. *)

let max_tids = 256

type t = {
  mutable prof : Prof.t option;  (** receives structure time as leaf time *)
  depth : int array;  (** open structure calls per fiber *)
  mutable running : int;  (** fiber whose segment is open, or -1 *)
  mutable seg_t0 : float;
  (* structures *)
  mutable calls : int;
  mutable recover_calls : int;
  mutable busy_s : float;
  mutable check_s : float;
  (* sim *)
  mutable dispatches : int;
  mutable crashes : int;
  (* nvm *)
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable cas : int;
  mutable cas_fail : int;
  mutable pwbs : int;
  mutable pwb_high : int;
  mutable pfences : int;
  mutable psyncs : int;
  mutable allocs : int;
  mutable wb_fates : int;
  mutable wb_dropped : int;
}

let create () =
  {
    prof = None;
    depth = Array.make max_tids 0;
    running = -1;
    seg_t0 = 0.;
    calls = 0;
    recover_calls = 0;
    busy_s = 0.;
    check_s = 0.;
    dispatches = 0;
    crashes = 0;
    reads = 0;
    writes = 0;
    hits = 0;
    cas = 0;
    cas_fail = 0;
    pwbs = 0;
    pwb_high = 0;
    pfences = 0;
    psyncs = 0;
    allocs = 0;
    wb_fates = 0;
    wb_dropped = 0;
  }

let close_segment a t =
  if a.running >= 0 then begin
    let dt = t -. a.seg_t0 in
    a.busy_s <- a.busy_s +. dt;
    (match a.prof with Some p -> Prof.add_leaf p dt | None -> ());
    a.running <- -1
  end

let on_sim a = function
  | Sim.Sched { tid; _ } ->
      a.dispatches <- a.dispatches + 1;
      let inside = tid < max_tids && a.depth.(tid) > 0 in
      if a.running >= 0 || inside then begin
        let t = Prof.now () in
        close_segment a t;
        if inside then begin
          a.running <- tid;
          a.seg_t0 <- t
        end
      end
  | Sim.Crash _ ->
      a.crashes <- a.crashes + 1;
      close_segment a (Prof.now ())

let on_pmem a (ev : Pmem.trace_event) =
  match ev with
  | Read { hit; _ } ->
      a.reads <- a.reads + 1;
      if hit then a.hits <- a.hits + 1
  | Write { hit; _ } ->
      a.writes <- a.writes + 1;
      if hit then a.hits <- a.hits + 1
  | Cas { success; _ } ->
      a.cas <- a.cas + 1;
      if not success then a.cas_fail <- a.cas_fail + 1
  | Pwb { impact; _ } ->
      a.pwbs <- a.pwbs + 1;
      if impact = Pstats.High then a.pwb_high <- a.pwb_high + 1
  | Pfence _ -> a.pfences <- a.pfences + 1
  | Psync _ -> a.psyncs <- a.psyncs + 1
  | Alloc _ -> a.allocs <- a.allocs + 1

let on_wb a (_ : int) (_ : string) (_ : string) (fate : Pmem.wb_fate) =
  a.wb_fates <- a.wb_fates + 1;
  if fate = Pmem.Crash_dropped then a.wb_dropped <- a.wb_dropped + 1

(* Install the hooks for the calling domain.  A workload observer that
   sets the write-back observer later (Forensics, in the campaign) takes
   that slot over from here on. *)
let install a =
  Sim.set_tracer (Some (on_sim a));
  Pmem.set_tracer (Some (on_pmem a));
  Pmem.set_wb_observer (Some (on_wb a))

let uninstall () =
  Sim.set_tracer None;
  Pmem.set_tracer None;
  Pmem.set_wb_observer None

(* Time one structure call on the calling fiber.  Nested calls (a
   structure calling itself through the record) are already covered. *)
let timed a f x =
  let tid = if Sim.in_sim () then Sim.tid () else 0 in
  a.calls <- a.calls + 1;
  if a.depth.(tid) > 0 then f x
  else begin
    a.depth.(tid) <- 1;
    a.running <- tid;
    a.seg_t0 <- Prof.now ();
    match f x with
    | r ->
        a.depth.(tid) <- 0;
        if a.running = tid then close_segment a (Prof.now ());
        r
    | exception e ->
        a.depth.(tid) <- 0;
        if a.running = tid then close_segment a (Prof.now ());
        raise e
  end

let check_timed a f () =
  let t0 = Prof.now () in
  let r = f () in
  a.check_s <- a.check_s +. (Prof.now () -. t0);
  r

let wrap_instance a (s : Set_intf.t) =
  {
    s with
    Set_intf.insert = timed a s.insert;
    delete = timed a s.delete;
    find = timed a s.find;
    recover =
      (fun p ->
        a.recover_calls <- a.recover_calls + 1;
        timed a s.recover p);
    recover_structure =
      (fun () ->
        a.recover_calls <- a.recover_calls + 1;
        timed a s.recover_structure ());
    check = check_timed a s.check;
  }

(* A factory whose instances are timed by [a] when given, and whose most
   recent instance is kept in [last] either way (the throughput workload
   checks it after [Runner.measure] returns).  Names are unchanged, so
   repros and reports are those of the plain factory. *)
let factory ?acct ?last (f : Set_intf.factory) =
  {
    f with
    Set_intf.make =
      (fun heap ~threads ->
        let s = f.make heap ~threads in
        let s = match acct with Some a -> wrap_instance a s | None -> s in
        (match last with Some r -> r := Some s | None -> ());
        s);
  }
