exception Poisoned of string

let max_threads = 62

type trace_event =
  | Read of { tid : int; line : string; hit : bool }
  | Write of { tid : int; line : string; hit : bool; invalidated : int }
  | Cas of { tid : int; line : string; success : bool; invalidated : int }
  | Pwb of { tid : int; site : string; impact : Pstats.category; line : string }
  | Pfence of { tid : int; site : string }
  | Psync of { tid : int; site : string }
  | Alloc of { tid : int; heap : string; line : string; site : string }

(* What finally happened to an issued write-back: completed by a drain
   (psync, a draining CAS, or queue-capacity completion), or resolved at
   a crash — persisted or dropped by the adversarial resolution. *)
type wb_fate = Drained | Crash_persisted | Crash_dropped


let popcount n =
  let n = ref n and c = ref 0 in
  while !n <> 0 do
    n := !n land (!n - 1);
    incr c
  done;
  !c

let check_tid tid =
  if tid < 0 || tid >= max_threads then
    invalid_arg (Printf.sprintf "Pmem: thread id %d out of range" tid)

(* ---- heaps, lines, fields -------------------------------------------- *)

(* What a field's crash-time reset did: nothing (volatile value already
   matched the durable one), reverted a newer volatile value to a stale
   durable one, or poisoned the field (no durable value ever existed).
   Both non-clean cases name the line so the crash report can render the
   durable-vs-volatile diff. *)
type reset_outcome = Rclean | Rreverted of string | Rpoisoned of string

type heap = {
  hname : string;
  track : bool;
  huid : int;  (* identity for footprints: allocation serializes per heap *)
  (* One closure per field: revert to the durable value on crash,
     reporting what that reset lost (if anything). *)
  mutable resets : (unit -> reset_outcome) list;
  mutable metas : (unit -> unit) list;  (* clear cache metadata on crash *)
  mutable n_lines : int;
}

(* ---- per-machine state: the instance ---------------------------------- *)

(* A pending write-back carries its provenance — the cache line it will
   persist and the persist site that issued it — so crash resolution can
   report exactly which line/site was dropped.  The two extra words are
   written once per pwb and never read on the hot path, so carrying them
   unconditionally costs nothing observable when forensics is off (and
   the virtual-time cost model is untouched either way). *)
type wb_entry =
  | Apply of {
      aheap : heap;
      aline : string;
      auid : int;  (* the line's identity, for footprints *)
      asite : string;
      apply : unit -> unit;
    }
      (* complete this write-back; tagged with the owning heap so a
         heap-scoped crash ({!crash} [~scope:`Heap]) can resolve only
         the victim's entries *)
  | Fence

(* Per-crash forensic record, kept on the instance unconditionally
   (crashes are rare; the hot path never touches this). *)
type crash_fate = {
  cf_tid : int;
  cf_line : string;
  cf_site : string;
  cf_persisted : bool;
}

type crash_report = {
  cr_heap : string;
  cr_scope : [ `Machine | `Heap ];
  cr_resolution : string;  (* "rng" | "drop" | "all" | "prefix:k" *)
  cr_persisted : int;  (* write-backs completed by the resolution *)
  cr_dropped : int;  (* write-backs lost at the crash *)
  cr_fates : crash_fate list;  (* per tid ascending, issue order within *)
  cr_poisoned : string list;  (* never-persisted lines, capped *)
  cr_poisoned_total : int;  (* full count behind the cap *)
  cr_reverted : string list;
      (* lines whose volatile value was lost: reverted to an older
         durable value at this crash; capped like cr_poisoned *)
  cr_reverted_total : int;
}

let poisoned_cap = 64

(* Allocation-site convention: line names encode their site as a prefix —
   a per-key payload line is "node:5" (site "node"), a per-thread
   metadata cell is "rom.ann[3]" (site "rom.ann").  Deriving the site by
   stripping the ":key" suffix and the "[index]" subscript turns the
   existing naming discipline into provenance for free — no structure
   needed changing to gain allocation-site attribution. *)
let site_of_name name =
  let upto =
    match String.index_opt name ':' with
    | Some i -> i
    | None -> String.length name
  in
  let upto =
    match String.index_opt name '[' with
    | Some i when i < upto -> i
    | _ -> upto
  in
  if upto = String.length name then name else String.sub name 0 upto

(* Everything the space observer needs about one allocation, captured at
   the [new_line] call: where ([al_heap], [al_site]), which line
   ([al_id] is the per-heap allocation index — names recur, ids don't),
   and when/by whom ([al_time] virtual ns, [al_tid]; both 0 outside a
   simulation, e.g. for structure-creation allocations). *)
type alloc_info = {
  al_heap : string;
  al_id : int;
  al_line : string;
  al_site : string;
  al_tid : int;
  al_time : float;
}

(* One simulated machine's mutable persistency state, explicitly owned:
   the per-thread write-pending queues (the store buffer), the acceptance
   deadlines, and the two observability hooks.  An instance belongs to
   exactly one run at a time; the module-level API below is a thin shim
   over the calling domain's {e current} instance, so existing callers
   keep working while concurrent runs on separate domains (or an explicit
   [with_instance] scope) each own a machine outright. *)
type instance = {
  (* Per-thread queues of outstanding write-backs (the store buffer /
     write-pending queue).  Machine-wide, like real hardware: one per
     CPU, not per allocation region. *)
  pending : wb_entry Queue.t array;
  (* Latest acceptance deadline among a thread's outstanding write-backs:
     with ADR, acceptance by the write-pending queue is the persistence
     point, so fences and draining CASes wait for acceptance only. *)
  wb_deadline : float array;
  (* Observability hooks (see Harness.Trace and Harness.Metrics): events
     are constructed only when an observer is installed.  [tracer]
     serializes (event tracing); [collector] aggregates (metrics); both
     may be active at once. *)
  mutable itracer : (trace_event -> unit) option;
  mutable icollector : (trace_event -> unit) option;
  (* Third observer, for crash forensics (Harness.Forensics): sees the
     same event stream as tracer/collector, plus write-back fates via
     [iwb_obs].  Kept separate so forensic replay composes with tracing
     and metrics instead of stealing their hooks. *)
  mutable iforensics : (trace_event -> unit) option;
  mutable iwb_obs : (int -> string -> string -> wb_fate -> unit) option;
  (* Fourth observer, for persistent-space accounting (Harness.Space):
     fires once per [new_line] with the allocation's provenance.  Kept
     off the [observing] fast path — allocation is not a memory access —
     so the disabled cost is one physical-equality check per alloc. *)
  mutable ialloc : (alloc_info -> unit) option;
  (* Crash log, newest first; cleared by [reset_pending]. *)
  mutable icrashes : crash_report list;
  (* Access footprint for the explorer's partial-order reduction: one
     entry per shared access, [uid lsl 2 lor kind], appended while
     [fp_on].  Not an observer: no event is built, the buffer is reused,
     and it composes with every hook above. *)
  mutable fp_on : bool;
  mutable fp_buf : int array;
  mutable fp_len : int;
}

let create_instance () =
  {
    pending = Array.init max_threads (fun _ -> Queue.create ());
    wb_deadline = Array.make max_threads neg_infinity;
    itracer = None;
    icollector = None;
    iforensics = None;
    iwb_obs = None;
    ialloc = None;
    icrashes = [];
    fp_on = false;
    fp_buf = [||];
    fp_len = 0;
  }

(* The domain's hot context: every simulated instruction consults the
   engine (tid/clock/step), the cost table, the persistence stats, and
   the current instance, and each module-level accessor is a separate
   domain-local fetch.  [Sim.handle], [Cost.current] and [Pstats.dstats]
   all return their domain's {e unique, never-replaced} value (tweaks
   mutate them in place), so one record fetched with a single DLS lookup
   can carry all four for the operation's duration.  The instance is the
   only component that is swapped ([with_instance]), which is why it is a
   mutable field here rather than its own key.

   This also fixes the cross-domain hazard of the old module-level
   state: the record, like each component, is per-domain, so concurrent
   simulations cannot corrupt each other's write-back queues. *)
type hot = {
  hsim : Sim.handle;
  hcost : Cost.t;
  hpst : Pstats.dstats;
  mutable hinst : instance;
  mutable next_uid : int;  (* next line or heap identity; see [footprint_restart] *)
}

let hot_key : hot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        hsim = Sim.handle ();
        hcost = Cost.current ();
        hpst = Pstats.dstats ();
        hinst = create_instance ();
        next_uid = 0;
      })

let hot () = Domain.DLS.get hot_key
let instance () = (hot ()).hinst

let with_instance inst f =
  let ht = hot () in
  let prev = ht.hinst in
  ht.hinst <- inst;
  Fun.protect ~finally:(fun () -> ht.hinst <- prev) f

let set_tracer t = (instance ()).itracer <- t
let set_collector c = (instance ()).icollector <- c

let set_forensics f =
  let inst = instance () in
  inst.iforensics <- f

let set_wb_observer f = (instance ()).iwb_obs <- f
let set_alloc_observer f = (instance ()).ialloc <- f
let crash_reports () = List.rev (instance ()).icrashes

(* ---- footprints -------------------------------------------------------- *)

let fp_read = 0
let fp_write = 1
let fp_persist = 2

let fp_add inst uid kind =
  let n = inst.fp_len in
  if n = Array.length inst.fp_buf then begin
    let bigger = Array.make (max 64 (2 * n)) 0 in
    Array.blit inst.fp_buf 0 bigger 0 n;
    inst.fp_buf <- bigger
  end;
  inst.fp_buf.(n) <- (uid lsl 2) lor kind;
  inst.fp_len <- n + 1

(* How many instances log footprints, across domains: the accessors that
   do not already hold the hot context ([on_line], [system_persist],
   [peek]) skip its domain-local lookup while this is zero. *)
let fp_instances = Atomic.make 0

let set_footprint on =
  let inst = instance () in
  if on && not inst.fp_on then Atomic.incr fp_instances
  else if (not on) && inst.fp_on then Atomic.decr fp_instances;
  inst.fp_on <- on;
  inst.fp_len <- 0

let footprint_clear () = (instance ()).fp_len <- 0

let footprint_restart () =
  let ht = hot () in
  ht.hinst.fp_len <- 0;
  ht.next_uid <- 0

let footprint_take () =
  let inst = instance () in
  let fp = Array.sub inst.fp_buf 0 inst.fp_len in
  inst.fp_len <- 0;
  fp

let fresh_uid ht =
  let u = ht.next_uid in
  ht.next_uid <- u + 1;
  u

let observing inst =
  inst.itracer != None || inst.icollector != None || inst.iforensics != None

let notify inst ev =
  (match inst.itracer with None -> () | Some f -> f ev);
  (match inst.icollector with None -> () | Some f -> f ev);
  match inst.iforensics with None -> () | Some f -> f ev

let reset_pending () =
  let inst = instance () in
  Array.iter Queue.clear inst.pending;
  Array.fill inst.wb_deadline 0 max_threads neg_infinity;
  inst.icrashes <- []

type line = {
  lheap : heap;
  lname : string;
  luid : int;  (* identity for footprints; names recur, and ids are per heap *)
  lid : int;  (* per-heap allocation index (1-based); names recur, ids don't *)
  lsite : string;  (* allocation site derived from the name (site_of_name) *)
  mutable sharers : int;  (* bitmap of tids with a cached copy *)
  mutable owner : int;  (* tid that last took write ownership *)
  mutable wb_owner : int;  (* tid with an in-flight write-back; -1 = none *)
  mutable wb_until : float;  (* completion time of that write-back *)
  mutable persists : (unit -> unit) list;
      (* one per field: write back the field's current value.  Write-backs
         materialize the line's coherent content at completion time (like
         CLWB), never an issue-time snapshot — per-location durable state
         can only move forward. *)
}

type 'a persisted = Never | P of 'a

type 'a t = {
  line : line;
  mutable v : 'a;
  mutable durable : 'a persisted;
  mutable poisoned : bool;
}

let heap ?(track_for_crash = true) ?(name = "heap") () =
  {
    hname = name;
    track = track_for_crash;
    huid = fresh_uid (hot ());
    resets = [];
    metas = [];
    n_lines = 0;
  }

let lines_allocated h = h.n_lines
let heap_name h = h.hname

let new_line ?(name = "line") h =
  let ht = hot () in
  h.n_lines <- h.n_lines + 1;
  let line =
    {
      lheap = h;
      lname = name;
      luid = fresh_uid ht;
      lid = h.n_lines;
      lsite = site_of_name name;
      sharers = 0;
      owner = -1;
      wb_owner = -1;
      wb_until = neg_infinity;
      persists = [];
    }
  in
  if h.track then
    h.metas <-
      (fun () ->
        line.sharers <- 0;
        line.owner <- -1;
        line.wb_owner <- -1;
        line.wb_until <- neg_infinity)
      :: h.metas;
  let inst = ht.hinst in
  if inst.fp_on then fp_add inst h.huid fp_write;
  (match inst.ialloc with
  | None -> ()
  | Some obs ->
      obs
        {
          al_heap = h.hname;
          al_id = line.lid;
          al_line = name;
          al_site = line.lsite;
          al_tid = Sim.h_tid ht.hsim;
          al_time = Sim.h_now ht.hsim;
        });
  if observing inst then
    notify inst
      (Alloc { tid = Sim.h_tid ht.hsim; heap = h.hname; line = name; site = line.lsite });
  Sim.h_step ht.hsim ht.hcost.alloc;
  line

let line_name l = l.lname
let line_id l = l.lid

let on_line line v =
  let fld = { line; v; durable = Never; poisoned = false } in
  line.persists <- (fun () -> fld.durable <- P fld.v) :: line.persists;
  let h = line.lheap in
  if Atomic.get fp_instances > 0 then begin
    let inst = instance () in
    if inst.fp_on then fp_add inst h.huid fp_write
  end;
  if h.track then
    h.resets <-
      (fun () ->
        match fld.durable with
        | P p ->
            (* [P fld.v] aliases the stored value, so physical inequality
               is an exact staleness test for both immediates and boxes. *)
            let stale = fld.v != p in
            fld.v <- p;
            fld.poisoned <- false;
            if stale then Rreverted fld.line.lname else Rclean
        | Never ->
            fld.poisoned <- true;
            Rpoisoned fld.line.lname)
      :: h.resets;
  fld

let alloc ?name h v = on_line (new_line ?name h) v
let line_of fld = fld.line

let bit tid = 1 lsl tid

let check fld =
  if fld.poisoned then raise (Poisoned fld.line.lname)

(* ---- volatile accesses with the coherence cost model ----------------- *)

let read fld =
  check fld;
  let ht = hot () in
  let tid = Sim.h_tid ht.hsim in
  check_tid tid;
  let line = fld.line in
  let c = ht.hcost in
  let hit = line.sharers land bit tid <> 0 in
  line.sharers <- line.sharers lor bit tid;
  let inst = ht.hinst in
  if observing inst then notify inst (Read { tid; line = line.lname; hit });
  Sim.h_step ht.hsim (if hit then c.cache_hit else c.cache_miss);
  (* the value is taken after the scheduling point, so the access belongs
     to the dispatch that resumes this thread *)
  if inst.fp_on then fp_add inst line.luid fp_read;
  fld.v

let take_ownership line tid =
  line.owner <- tid;
  line.sharers <- bit tid

let write fld v =
  check fld;
  let ht = hot () in
  let tid = Sim.h_tid ht.hsim in
  check_tid tid;
  let line = fld.line in
  let c = ht.hcost in
  let exclusive = line.owner = tid && line.sharers = bit tid in
  let others = line.sharers land lnot (bit tid) in
  take_ownership line tid;
  let inst = ht.hinst in
  if observing inst then
    notify inst
      (Write { tid; line = line.lname; hit = exclusive; invalidated = popcount others });
  Sim.h_step ht.hsim (if exclusive then c.write_hit else c.write_miss);
  if inst.fp_on then fp_add inst line.luid fp_write;
  fld.v <- v

(* Complete (persist) every outstanding write-back of [tid]. *)
let drain_queue inst tid =
  let q = inst.pending.(tid) in
  while not (Queue.is_empty q) do
    match Queue.pop q with
    | Apply a ->
        if inst.fp_on then fp_add inst a.auid fp_persist;
        a.apply ();
        (match inst.iwb_obs with
        | None -> ()
        | Some obs -> obs tid a.aline a.asite Drained)
    | Fence -> ()
  done;
  inst.wb_deadline.(tid) <- neg_infinity

let cas fld expected desired =
  check fld;
  let ht = hot () in
  let tid = Sim.h_tid ht.hsim in
  check_tid tid;
  let line = fld.line in
  let c = ht.hcost in
  let inst = ht.hinst in
  let now = Sim.h_now ht.hsim in
  let base = if line.owner = tid then c.cas_base else c.cas_contended in
  (* Store serialization: a locked instruction waits for an in-flight
     write-back of the same line (the pwb-then-CAS pathology of §5)... *)
  let line_stall =
    if line.wb_owner >= 0 && line.wb_until > now then line.wb_until -. now
    else 0.
  in
  (* ...and, on Intel, for the whole store buffer, completing the
     thread's own outstanding write-backs as a side effect. *)
  let drain_stall =
    if c.cas_drains_wb then begin
      let stall = Float.max 0. (inst.wb_deadline.(tid) -. now) in
      drain_queue inst tid;
      stall
    end
    else 0.
  in
  let others = line.sharers land lnot (bit tid) in
  take_ownership line tid;
  if line.wb_owner >= 0 && line.wb_until <= now then begin
    line.wb_owner <- -1;
    line.wb_until <- neg_infinity
  end;
  (* Switch on the static instruction cost only: the stall part depends
     on write-back deadlines, i.e. on the clocks, and letting it pick
     switch points would make schedule placement drift whenever the
     causal profiler scales a cost (a replayed tape would diverge).
     With a static basis, switch placement is a pure function of the
     instruction stream. *)
  Sim.h_step_as ht.hsim ~switch:base (base +. Float.max line_stall drain_stall);
  let success = fld.v == expected in
  if inst.fp_on then
    fp_add inst line.luid (if success then fp_write else fp_read);
  if observing inst then
    notify inst
      (Cas { tid; line = line.lname; success; invalidated = popcount others });
  if success then begin
    fld.v <- desired;
    true
  end
  else false

(* ---- persistence instructions ----------------------------------------- *)

(* The impact class of a pwb is determined by who last wrote the line:

   - flushing a line this thread itself wrote last, with nobody else
     caching it, is the cheap private/fresh case (Tracking's CP, RD,
     descriptor and new-node flushes);
   - flushing an own-written line that other threads also cache costs a
     bit more (Tracking's post-CAS flushes of list nodes);
   - flushing a line another thread wrote last requires a coherence fetch
     of foreign data plus an uncombinable media write — the paper's
     high-impact pwbs (Capsules-Opt's marked-node and target-neighborhood
     flushes; nearly every flush of the general transformation). *)
let classify line tid now =
  if line.wb_owner >= 0 && line.wb_owner <> tid && line.wb_until > now then
    Pstats.High
  else if line.owner >= 0 && line.owner <> tid then Pstats.High
  else if line.sharers land lnot (bit tid) <> 0 then Pstats.Medium
  else Pstats.Low

(* The causal profiler's virtual-speedup hook: every persistence
   instruction's charge is scaled by its site multiplier (pwbs also by
   the emergent-category multiplier of this execution's impact class),
   and the scheduling decision is taken on the {e static, unscaled} part
   of the cost ([Sim.step_as]) so a recorded schedule replays without
   divergence while costs are what-if scaled.  All multipliers default
   to 1.0, in which case this is exactly the unscaled model. *)

let pwb site line =
  let ht = hot () in
  let pst = ht.hpst in
  if Pstats.d_enabled pst site then begin
    let tid = Sim.h_tid ht.hsim in
    check_tid tid;
    let c = ht.hcost in
    let inst = ht.hinst in
    let now = Sim.h_now ht.hsim in
    let impact = classify line tid now in
    Pstats.d_record pst site impact;
    if observing inst then
      notify inst
        (Pwb { tid; site = Pstats.name site; impact; line = line.lname });
    let m = Pstats.d_cost_mult pst site *. Pstats.d_category_mult pst impact in
    (* Flushing a line that is dirty in another cache, or that already has
       an in-flight write-back from another thread, pays the ping-pong
       penalty the paper associates with high-impact pwbs. *)
    let stall =
      if line.wb_owner >= 0 && line.wb_owner <> tid && line.wb_until > now
      then (line.wb_until -. now) +. c.pwb_inflight_stall
      else if line.owner >= 0 && line.owner <> tid then
        (* last written by another core: steal it before writing back *)
        c.pwb_steal
      else if line.sharers land lnot (bit tid) <> 0 then c.pwb_shared
      else 0.
    in
    let q = inst.pending.(tid) in
    (* Bound the queue like a real write-pending queue: the oldest
       *write-back* has certainly completed once the queue is deep.
       Fences carry no payload, so pop through them until an Apply is
       actually completed — popping a bare Fence would silently drop the
       bound's invariant (and let fences accumulate unboundedly). *)
    if Queue.length q > 64 then begin
      let rec complete_oldest () =
        match Queue.pop q with
        | Apply a ->
            if inst.fp_on then fp_add inst a.auid fp_persist;
            a.apply ();
            (match inst.iwb_obs with
            | None -> ()
            | Some obs -> obs tid a.aline a.asite Drained)
        | Fence -> if not (Queue.is_empty q) then complete_oldest ()
      in
      complete_oldest ()
    end;
    Queue.push
      (Apply
         {
           aheap = line.lheap;
           aline = line.lname;
           auid = line.luid;
           asite = Pstats.name site;
           apply = (fun () -> List.iter (fun f -> f ()) line.persists);
         })
      q;
    (* the line's media write-back completes late (contention stalls),
       but the persistence point — acceptance — is much earlier.  Both
       deadlines scale with the multiplier: a virtually-sped-up pwb also
       stalls later fences/CASes proportionally less. *)
    line.wb_owner <- tid;
    line.wb_until <- now +. (m *. c.pwb_latency);
    let accepted = now +. (m *. c.pwb_accept) in
    if accepted > inst.wb_deadline.(tid) then inst.wb_deadline.(tid) <- accepted;
    let cost = c.pwb_issue +. stall in
    Pstats.d_add_time pst site (m *. cost);
    Pstats.d_add_category_time pst impact (m *. cost);
    (* switch on the static issue cost: see the CAS path *)
    Sim.h_step_as ht.hsim ~switch:c.pwb_issue (m *. cost)
  end

let pwb_f site fld = pwb site fld.line

let pfence site =
  let ht = hot () in
  let pst = ht.hpst in
  if Pstats.d_enabled pst site then begin
    let tid = Sim.h_tid ht.hsim in
    check_tid tid;
    Pstats.d_record_fence pst site;
    let inst = ht.hinst in
    if observing inst then notify inst (Pfence { tid; site = Pstats.name site });
    Queue.push Fence inst.pending.(tid);
    let m = Pstats.d_cost_mult pst site in
    let cost = ht.hcost.pfence_base in
    Pstats.d_add_time pst site (m *. cost);
    Sim.h_step_as ht.hsim ~switch:cost (m *. cost)
  end

let psync site =
  let ht = hot () in
  let pst = ht.hpst in
  if Pstats.d_enabled pst site then begin
    let tid = Sim.h_tid ht.hsim in
    check_tid tid;
    Pstats.d_record_fence pst site;
    let inst = ht.hinst in
    if observing inst then notify inst (Psync { tid; site = Pstats.name site });
    let now = Sim.h_now ht.hsim in
    let stall = Float.max 0. (inst.wb_deadline.(tid) -. now) in
    drain_queue inst tid;
    let m = Pstats.d_cost_mult pst site in
    let c = ht.hcost in
    let cost = c.psync_base +. stall in
    Pstats.d_add_time pst site (m *. cost);
    (* switch on the static base cost: see the CAS path *)
    Sim.h_step_as ht.hsim ~switch:c.psync_base (m *. cost)
  end

(* ---- crashes ----------------------------------------------------------- *)

(* Every resolver reports each write-back's fate through [fate entry
   persisted] so the crash can log exactly which line/site survived. *)
let resolve_queue_at_crash rng ~fate q =
  match rng with
  | None ->
      Queue.iter (function Apply _ as e -> fate e false | Fence -> ()) q;
      Queue.clear q
  | Some rng ->
      (* Fence-delimited segments complete in order: some prefix of
         segments completed fully, the next one partially (an arbitrary
         in-order subset), everything later not at all. *)
      let fresh_mode () =
        if Random.State.bool rng then `Full
        else if Random.State.bool rng then `Partial
        else `Drop
      in
      let mode = ref (fresh_mode ()) in
      while not (Queue.is_empty q) do
        match Queue.pop q with
        | Fence -> (
            match !mode with
            | `Full -> mode := fresh_mode ()
            | `Partial | `Drop -> mode := `Drop)
        | Apply a as e -> (
            match !mode with
            | `Full ->
                a.apply ();
                fate e true
            | `Partial ->
                if Random.State.bool rng then begin
                  a.apply ();
                  fate e true
                end
                else fate e false
            | `Drop -> fate e false)
      done

(* Deterministic resolutions for the exploration harness: instead of an
   rng-drawn write-back subset, complete an explicit, replayable choice.
   [`Prefix k] completes each thread's k oldest write-backs in issue
   order — a prefix always respects fence ordering, so every such choice
   is a legal NVM state. *)
let resolve_queue_deterministic choice ~fate q =
  match choice with
  | `Drop ->
      Queue.iter (function Apply _ as e -> fate e false | Fence -> ()) q;
      Queue.clear q
  | `All ->
      Queue.iter
        (function
          | Apply a as e ->
              a.apply ();
              fate e true
          | Fence -> ())
        q;
      Queue.clear q
  | `Prefix k ->
      let applied = ref 0 in
      while not (Queue.is_empty q) do
        match Queue.pop q with
        | Fence -> ()
        | Apply a as e ->
            if !applied < k then begin
              a.apply ();
              incr applied;
              fate e true
            end
            else fate e false
      done

(* Heap-scoped resolution: walk a thread's queue once, resolving only the
   victim heap's write-backs through [on_victim] and preserving every
   other entry — fences included — in issue order.  Fences survive (they
   still order the remaining entries, which belong to live structures)
   but they also advance the victim resolver's segment state: fence
   ordering is a per-thread property, not a per-heap one, so a victim
   write-back issued after a fence may only persist if the fence's
   predecessors did. *)
let resolve_queue_scoped h on_victim q =
  let keep = Queue.create () in
  while not (Queue.is_empty q) do
    match Queue.pop q with
    | Apply a as e when a.aheap == h -> on_victim e
    | Fence as e ->
        on_victim e;
        Queue.push e keep
    | Apply _ as e -> Queue.push e keep
  done;
  Queue.transfer keep q

(* Per-queue resolver closures mirroring the machine-wide resolvers'
   semantics on the victim-entry subsequence. *)
let victim_resolver_rng rng ~fate =
  match rng with
  | None -> (
      function Apply _ as e -> fate e false | Fence -> ())
  | Some rng ->
      let fresh_mode () =
        if Random.State.bool rng then `Full
        else if Random.State.bool rng then `Partial
        else `Drop
      in
      let mode = ref (fresh_mode ()) in
      fun ev ->
        match ev with
        | Fence -> (
            match !mode with
            | `Full -> mode := fresh_mode ()
            | `Partial | `Drop -> mode := `Drop)
        | Apply a as e -> (
            match !mode with
            | `Full ->
                a.apply ();
                fate e true
            | `Partial ->
                if Random.State.bool rng then begin
                  a.apply ();
                  fate e true
                end
                else fate e false
            | `Drop -> fate e false)

let victim_resolver_deterministic choice ~fate =
  match choice with
  | `Drop -> ( function Apply _ as e -> fate e false | Fence -> ())
  | `All -> (
      function
      | Apply a as e ->
          a.apply ();
          fate e true
      | Fence -> ())
  | `Prefix k ->
      let applied = ref 0 in
      fun ev ->
        match ev with
        | Fence -> ()
        | Apply a as e ->
            if !applied < k then begin
              a.apply ();
              incr applied;
              fate e true
            end
            else fate e false

let resolution_to_string = function
  | `Rng -> "rng"
  | `Drop -> "drop"
  | `All -> "all"
  | `Prefix k -> Printf.sprintf "prefix:%d" k

let resolution_of_string = function
  | "rng" -> Ok `Rng
  | "drop" -> Ok `Drop
  | "all" -> Ok `All
  | s -> (
      let bad () = Error (Printf.sprintf "bad write-back resolution %S" s) in
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "prefix" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some k when k >= 1 -> Ok (`Prefix k)
          | _ -> bad ())
      | _ -> bad ())

let resolution_label ?rng ?resolution () =
  match (resolution, rng) with
  | Some r, _ -> resolution_to_string r
  | None, Some _ -> "rng"
  | None, None -> "drop"

let crash ?rng ?resolution ?(scope = `Machine) h =
  let inst = instance () in
  (* Forensic bookkeeping: every resolved write-back's fate, in tid order
     (issue order within a tid), recorded unconditionally — this runs
     once per crash, never on the hot path. *)
  let fates = ref [] and n_persisted = ref 0 and n_dropped = ref 0 in
  let fate_for tid e persisted =
    (match e with
    | Apply a ->
        if persisted then incr n_persisted else incr n_dropped;
        fates :=
          {
            cf_tid = tid;
            cf_line = a.aline;
            cf_site = a.asite;
            cf_persisted = persisted;
          }
          :: !fates;
        (match inst.iwb_obs with
        | None -> ()
        | Some obs ->
            obs tid a.aline a.asite
              (if persisted then Crash_persisted else Crash_dropped))
    | Fence -> ())
  in
  (match scope with
  | `Machine ->
      (match resolution with
      | Some choice ->
          Array.iteri
            (fun tid q ->
              resolve_queue_deterministic choice ~fate:(fate_for tid) q)
            inst.pending
      | None ->
          Array.iteri
            (fun tid q -> resolve_queue_at_crash rng ~fate:(fate_for tid) q)
            inst.pending);
      Array.fill inst.wb_deadline 0 max_threads neg_infinity
  | `Heap ->
      (* Survivors' pending write-backs are untouched, so their
         acceptance deadlines stay meaningful: leave [wb_deadline]
         alone.  Keeping a (now possibly stale) deadline for a thread
         whose victim entries were resolved only makes its next fence
         conservatively slower, never incorrect. *)
      Array.iteri
        (fun tid q ->
          let on_victim =
            match resolution with
            | Some choice ->
                victim_resolver_deterministic choice ~fate:(fate_for tid)
            | None -> victim_resolver_rng rng ~fate:(fate_for tid)
          in
          resolve_queue_scoped h on_victim q)
        inst.pending);
  (* Revert every field to its durable value; fields with no durable
     value come up poisoned, fields whose volatile value was newer lose
     it, and both kinds of line are what a postmortem's durable-vs-
     volatile diff names. *)
  let pois = ref [] and rev = ref [] in
  List.iter
    (fun f ->
      match f () with
      | Rclean -> ()
      | Rpoisoned l -> pois := l :: !pois
      | Rreverted l -> rev := l :: !rev)
    h.resets;
  let dedup_capped acc =
    match !acc with
    | [] -> ([], 0)
    | lines ->
        let lines = List.rev lines in
        let seen = Hashtbl.create 16 in
        let total = ref 0 in
        let uniq =
          List.filter
            (fun l ->
              if Hashtbl.mem seen l then false
              else begin
                Hashtbl.add seen l ();
                incr total;
                true
              end)
            lines
        in
        let capped =
          if !total <= poisoned_cap then uniq
          else List.filteri (fun i _ -> i < poisoned_cap) uniq
        in
        (capped, !total)
  in
  let poisoned_capped, poisoned_total = dedup_capped pois in
  let reverted_capped, reverted_total = dedup_capped rev in
  List.iter (fun f -> f ()) h.metas;
  inst.icrashes <-
    {
      cr_heap = h.hname;
      cr_scope = scope;
      cr_resolution = resolution_label ?rng ?resolution ();
      cr_persisted = !n_persisted;
      cr_dropped = !n_dropped;
      cr_fates = List.rev !fates;
      cr_poisoned = poisoned_capped;
      cr_poisoned_total = poisoned_total;
      cr_reverted = reverted_capped;
      cr_reverted_total = reverted_total;
    }
    :: inst.icrashes

(* ---- introspection ----------------------------------------------------- *)

let system_persist fld v =
  check fld;
  if Atomic.get fp_instances > 0 then begin
    let inst = instance () in
    if inst.fp_on then begin
      fp_add inst fld.line.luid fp_write;
      fp_add inst fld.line.luid fp_persist
    end
  end;
  fld.v <- v;
  fld.durable <- P v;
  Sim.step 0.

let peek fld =
  if Atomic.get fp_instances > 0 then begin
    let inst = instance () in
    if inst.fp_on then fp_add inst fld.line.luid fp_read
  end;
  fld.v

let peek_persisted fld = match fld.durable with Never -> None | P p -> Some p
let is_poisoned fld = fld.poisoned

let outstanding_writebacks tid =
  check_tid tid;
  Queue.fold
    (fun n e -> match e with Apply _ -> n + 1 | Fence -> n)
    0 (instance ()).pending.(tid)

let max_outstanding_writebacks () =
  let m = ref 0 in
  for tid = 0 to max_threads - 1 do
    m := max !m (outstanding_writebacks tid)
  done;
  !m
