(* Bounded exhaustive exploration (stateless model checking) of small
   crash campaigns.

   The explorer runs one campaign configuration over and over through
   [Crashes.run_logged ~ctl], doing depth-first search over every
   decision the campaign makes:

   - {e scheduling}: which ready thread runs at each simulator step,
     with CHESS-style preemption bounding — the default schedule is
     non-preemptive (keep running the current thread until it blocks or
     finishes; free choice points, where the previous thread is not
     ready, are explored fully), and at most [preemptions] decisions per
     execution may deviate from it while the previous thread was still
     runnable.  By default the scheduling frames are reduced: only races
     between dependent dispatches add alternatives, so one schedule per
     trace class runs (partial-order reduction, below; [~reduce:false]
     enumerates them all);
   - {e crash points}: for every round, either no crash or a crash at
     each step [1..n] of that round's crash-free execution (discovered
     when the no-crash branch runs), while the per-execution crash
     budget lasts;
   - {e write-back resolution}: at each crash, a bounded sweep of
     deterministic adversarial subsets — drop everything, complete
     everything, and each thread's [k]-oldest prefix for
     [k = 1..wb_width] (capped by the actual queue depth, since a prefix
     at least as deep as the fullest queue is [`All]).

   Everything is deterministic given the campaign seed and the decision
   path, so the search is {e stateless}: an execution is (re)produced by
   forcing a prefix of recorded decisions and letting defaults extend
   it; backtracking flips the deepest decision with untried
   alternatives.  Every execution runs the full oracle / invariant /
   poison checks of [Crashes.run_logged], and a failing execution's
   round log is already a standard [Repro.t] script — replay and
   shrinking work on it unchanged, with zero schedule divergences. *)

type config = {
  campaign : Crashes.config;
  seed : int;
  preemptions : int;  (* CHESS bound: max preemptive switches per execution *)
  crashes : int;  (* max crashes injected per execution *)
  wb_width : int;  (* `Prefix depths enumerated per crash, besides `Drop/`All *)
  max_execs : int;  (* execution budget; 0 = until the tree is exhausted *)
}

type stats = {
  executions : int;
  failures : int;
  decision_points : int;  (* scheduling frames expanded *)
  crash_points : int;  (* crash alternatives enumerated *)
  wb_choices : int;  (* write-back alternatives enumerated *)
  pruned : int;  (* schedule alternatives suppressed by the preemption bound *)
  races : int;  (* races found between dependent dispatches (reduced) *)
  backtracks_added : int;  (* alternatives those races added (reduced) *)
  sleep_blocked : int;  (* executions abandoned with every thread asleep *)
  complete : bool;  (* the bounded tree was exhausted *)
}

type outcome = {
  stats : stats;
  failure : Repro.t option;  (* first failure, as a replayable repro *)
}

(* ---- the decision tree ------------------------------------------------- *)

type choice =
  | Sched of int  (* run this tid *)
  | Crash of int  (* crash the upcoming round at this step; 0 = no crash *)
  | Wb of Repro.wb  (* resolution of the crash that just fired *)

(* One boxed [Sched t] per tid, shared by every frame. *)
let sched_of = Array.init Pmem.max_threads (fun t -> Sched t)

type frame = {
  mutable chosen : choice;
  mutable untried : choice list;
  fround : int;  (* campaign round this frame belongs to *)
  (* Partial-order reduction bookkeeping; meaningful on the scheduling
     frames of a reduced search only. *)
  ready : int;  (* ready tids at this decision, as a bitmask *)
  fprev : int;  (* tid the round's previous dispatch ran; -1 at round start *)
  pre_used : int;  (* preemptions spent by earlier frames of the execution *)
  drain : bool;  (* post-crash drain decision: not a transition *)
  sleep : (int * int array) list;  (* sleep set on arrival: tid, footprint *)
  mutable explored : (int * int array * int) list;
      (* choices whose subtrees are done: tid, footprint, and the price of
         running it here first, in preemptions (see [inherit_sleep]) *)
  mutable after : int;
      (* ready tids at the round's next decision after this dispatch;
         all bits when there was none *)
  mutable fp : int array;  (* footprint of the chosen dispatch *)
  mutable abort : bool;
      (* the dispatch raised out of the simulation (a poisoned access, the
         step limit): it ended the execution, so it depends on everything *)
  mutable vc : int array;  (* happens-before clock of the dispatch *)
}

let blank =
  {
    chosen = Crash 0;
    untried = [];
    fround = -1;
    ready = 0;
    fprev = -1;
    pre_used = 0;
    drain = false;
    sleep = [];
    explored = [];
    after = -1;
    fp = [||];
    abort = false;
    vc = [||];
  }

(* Minimal growable frame stack (OCaml 5.1 has no Dynarray). *)
type path = { mutable frames : frame array; mutable len : int }

let path_create () = { frames = [||]; len = 0 }

let path_push p f =
  if p.len = Array.length p.frames then begin
    let bigger = Array.make (max 64 (2 * p.len)) f in
    Array.blit p.frames 0 bigger 0 p.len;
    p.frames <- bigger
  end;
  p.frames.(p.len) <- f;
  p.len <- p.len + 1

let copy_frame f = { f with chosen = f.chosen }

let rec mem_tid (a : int array) t i =
  i < Array.length a && (a.(i) = t || mem_tid a t (i + 1))

let bit t = 1 lsl t

let lowest_bit m =
  let rec go t = if m land bit t <> 0 then t else go (t + 1) in
  go 0

(* ---- footprints and dependency ----------------------------------------- *)

(* A footprint entry is [uid lsl 2 lor kind] (Pmem.footprint_take).  A
   persist reads the line's volatile value and writes only its durable
   copy, which nothing reads before the next crash — a barrier — so for
   dependency it behaves as a read: two dispatches conflict when they
   touch a common line and at least one of them writes it. *)
let fp_uid e = e lsr 2
let fp_writes e = e land 3 = Pmem.fp_write
let rec asleep t = function
  | [] -> false
  | (r, _) :: rest -> r = t || asleep t rest

let conflict fa fb =
  let rec go i j =
    if i >= Array.length fa then false
    else if j >= Array.length fb then go (i + 1) 0
    else
      let x = fa.(i) and y = fb.(j) in
      (fp_uid x = fp_uid y && (fp_writes x || fp_writes y)) || go i (j + 1)
  in
  go 0 0

(* The thread a scheduling frame dispatched; -1 for other frames. *)
let tid_of f = match f.chosen with Sched t -> t | _ -> -1

(* Preemptions spent by running [q] at scheduling frame [f]. *)
let switch_cost f q =
  if f.fprev >= 0 && f.ready land bit f.fprev <> 0 && q <> f.fprev then 1
  else 0

(* A transition: a dispatch, not a post-crash drain decision. *)
let is_event f = (match f.chosen with Sched _ -> true | _ -> false) && not f.drain

exception Sleep_blocked

(* One depth-first search over the subtree reachable from [path] without
   ever flipping its pre-seeded frames (their untried lists are empty;
   backtracking pops them and runs dry).  [resume] means the path was
   already executed once by the caller (the discovery execution of a
   parallel run): start by backtracking instead of re-executing it.
   [grant] asks for permission to run one more execution — the local
   budget check at [jobs = 1], one shared atomic decrement per execution
   across the pool at [jobs > 1].

   With [reduce], scheduling frames start with no alternatives and learn
   them from races (source-DPOR with sleep sets, bounded as in Coons et
   al.): see [analyze] below and DESIGN.md "Partial-order reduction". *)
let search ?(stop_on_failure = true) ?progress ~reduce ~grant ~resume path cfg
    =
  let nthreads = cfg.campaign.Crashes.threads in
  let executions = ref 0 in
  let failures = ref 0 in
  let decision_points = ref 0 in
  let crash_points = ref 0 in
  let wb_choices = ref 0 in
  let pruned = ref 0 in
  let races = ref 0 in
  let backtracks_added = ref 0 in
  let sleep_blocked = ref 0 in
  let complete = ref false in
  let first_failure = ref None in
  let snapshot () =
    {
      executions = !executions;
      failures = !failures;
      decision_points = !decision_points;
      crash_points = !crash_points;
      wb_choices = !wb_choices;
      pruned = !pruned;
      races = !races;
      backtracks_added = !backtracks_added;
      sleep_blocked = !sleep_blocked;
      complete = !complete;
    }
  in
  let report () = match progress with None -> () | Some f -> f (snapshot ()) in
  (* One execution: consume the path as a forced prefix, extend it with
     default choices past the end.  Every callback below fires in a
     deterministic order given the prefix, so frame kinds always line up
     — a mismatch would mean the campaign itself is nondeterministic.
     Returns [None] when a reduced execution was abandoned because every
     thread it could run was asleep. *)
  let exec_once () =
    let cursor = ref 0 in
    (* frames before [stable] replay exactly what they did last time, so
       their footprints and clocks are kept; the frame at [stable] was
       just flipped and everything after it is fresh *)
    let stable = path.len - 1 in
    let prev = ref (-1) in  (* last scheduled tid of the current round *)
    let preemptions_used = ref 0 in
    let pending = ref (-1) in  (* frame whose dispatch is running *)
    (* the replayed prefix's footprints are already known: logging starts
       at the first dispatch that may differ *)
    let logging = ref (stable < 0) in
    let last_event = ref (-1) in  (* the round's previous transition frame *)
    let kind_error what =
      failwith
        (Printf.sprintf
           "Explore: nondeterministic campaign (frame %d is not a %s frame: \
            replaying the same prefix hit a different decision kind)"
           (!cursor - 1) what)
    in
    (* Close the running dispatch: its footprint is whatever Pmem logged
       since the last decision. *)
    let flush ?(abort = false) () =
      if reduce then begin
        let i = !pending in
        if i >= 0 && i >= stable then begin
          let f = path.frames.(i) in
          let fp = Pmem.footprint_take () in
          f.fp <- fp;
          f.abort <- abort
        end
        else if !logging then Pmem.footprint_clear ();
        pending := -1
      end
    in
    let next_frame () =
      let f = path.frames.(!cursor) in
      incr cursor;
      f
    in
    let push f =
      path_push path f;
      incr cursor;
      f
    in
    let ctl_crash_at ~kind:_ ~round =
      flush ();
      prev := -1;
      last_event := -1;
      let f =
        if !cursor < path.len then next_frame ()
        else push { blank with chosen = Crash 0; fround = round }
      in
      match f.chosen with Crash s -> s | _ -> kind_error "crash"
    in
    (* The sleep set a fresh frame inherits from the round's previous
       transition [e]: whatever slept there or was already explored
       there, still ready, and independent of what [e] then did. *)
    let inherit_sleep ready_mask =
      let e = !last_event in
      if e < 0 || ready_mask land bit (tid_of path.frames.(e)) = 0 then
        (* a thread just finished, in a dispatch that took no scheduling
           step: moving a sleeper ahead of it would shift which
           dispatches a crash at a fixed step count cuts off, so every
           sleeper wakes *)
        []
      else
        let pf = path.frames.(e) in
        let awake r fp_r = ready_mask land bit r = 0 || conflict fp_r pf.fp in
        let keep acc (r, fp_r) =
          if awake r fp_r then acc else (r, fp_r) :: acc
        in
        (* Under the preemption bound, a thread explored at [pf] may only
           sleep below [pf]'s current choice [x] if running it first
           costs no more: the equivalent execution that runs it at [pf]
           spends its price there instead of [x]'s cost, and otherwise
           may exceed the bound — so the branch that explored it never
           ran that execution. *)
        let cost_x = switch_cost pf (tid_of pf) in
        let keep_explored acc (r, fp_r, price) =
          if price <= cost_x && not (awake r fp_r) then (r, fp_r) :: acc
          else acc
        in
        List.rev
          (List.fold_left keep_explored (List.fold_left keep [] pf.sleep)
             pf.explored)
    in
    let ctl_choose ~crashing ready =
      flush ();
      let n = Array.length ready in
      let f =
        if !cursor < path.len then next_frame ()
        else if crashing || n <= 1 then
          (* post-crash drain order is semantically inert, and a single
             ready thread leaves nothing to choose *)
          push
            {
              blank with
              chosen = sched_of.(ready.(0));
              drain = crashing;
              ready = (if n = 1 then bit ready.(0) else 0);
              fprev = !prev;
              pre_used = !preemptions_used;
            }
        else begin
          let p = !prev in
          let p_ready = mem_tid ready p 0 in
          let default = if p_ready then p else ready.(0) in
          incr decision_points;
          if reduce then begin
            let mask = Array.fold_left (fun m t -> m lor bit t) 0 ready in
            let sleep = inherit_sleep mask in
            let pick =
              if not (asleep default sleep) then default
              else begin
                (* the default's subtree is covered: run the lowest
                   thread still awake, if the bound allows the switch *)
                let q = ref (-1) in
                Array.iter
                  (fun t -> if !q < 0 && not (asleep t sleep) then q := t)
                  ready;
                let cost = if p_ready && !q <> p then 1 else 0 in
                if !q < 0 || !preemptions_used + cost > cfg.preemptions then
                  raise Sleep_blocked;
                !q
              end
            in
            push
              {
                blank with
                chosen = sched_of.(pick);
                ready = mask;
                fprev = p;
                pre_used = !preemptions_used;
                sleep;
              }
          end
          else begin
            (* deviating while the previous thread could continue is a
               preemption; past the budget such branches are pruned (and
               counted, so coverage is honest).  When the previous thread
               is blocked or done, every choice is a free scheduling
               point. *)
            let untried =
              if p_ready && !preemptions_used >= cfg.preemptions then begin
                pruned := !pruned + (n - 1);
                []
              end
              else begin
                let alts = ref [] in
                for i = n - 1 downto 0 do
                  if ready.(i) <> default then alts := sched_of.(ready.(i)) :: !alts
                done;
                !alts
              end
            in
            push { blank with chosen = sched_of.(default); untried }
          end
        end
      in
      if reduce && (not crashing) && !last_event >= max 0 stable then
        path.frames.(!last_event).after <-
          Array.fold_left (fun m t -> m lor bit t) 0 ready;
      match f.chosen with
      | Sched t ->
          if (not crashing) && t <> !prev && mem_tid ready !prev 0 then
            incr preemptions_used;
          prev := t;
          if not crashing then begin
            pending := !cursor - 1;
            last_event := !cursor - 1;
            if reduce && (not !logging) && !pending >= stable then begin
              Pmem.set_footprint true;
              logging := true
            end
          end;
          t
      | _ -> kind_error "sched"
    in
    let ctl_wb ~round =
      flush ();
      let f =
        if !cursor < path.len then next_frame ()
        else begin
          let m = Pmem.max_outstanding_writebacks () in
          let alts =
            if m = 0 then [] (* nothing pending: every choice is `Drop *)
            else
              List.init
                (min cfg.wb_width (m - 1))
                (fun i -> Wb (`Prefix (i + 1)))
              @ [ Wb `All ]
          in
          wb_choices := !wb_choices + List.length alts;
          push { blank with chosen = Wb `Drop; untried = alts; fround = round }
        end
      in
      match f.chosen with Wb w -> w | _ -> kind_error "wb"
    in
    let ctl =
      {
        Crashes.ctl_crash_at;
        ctl_choose;
        ctl_wb;
        ctl_round_end = (fun () -> flush ());
      }
    in
    if reduce then begin
      Pmem.footprint_restart ();
      Pmem.set_footprint !logging
    end;
    match Crashes.run_logged ~ctl cfg.campaign ~seed:cfg.seed with
    | (Ok _, _) as r ->
        (* the last round's dispatch was closed at round end; what the
           final checks peek at belongs to no transition *)
        if reduce then Pmem.footprint_clear ();
        Some r
    | (Error _, _) as r ->
        (* a failure that escaped mid-dispatch ended the execution there:
           the dispatch that raised is a transition, and every other one
           depends on it (reordered, another thread may fail first) *)
        flush ~abort:true ();
        Some r
    | exception Sleep_blocked ->
        if reduce then Pmem.footprint_clear ();
        None
  in
  (* After an execution, frames created fresh on this path learn their
     alternatives that depend on how the execution went: a round's crash
     points are the steps [1..n] of its crash-free run, known only once
     the no-crash default branch has executed. *)
  let backfill_crash_frames rounds fresh_from =
    let rounds = Array.of_list rounds in
    let crashes_before = ref 0 in
    for i = 0 to path.len - 1 do
      let f = path.frames.(i) in
      match f.chosen with
      | Crash s ->
          if i >= fresh_from && s = 0 && !crashes_before < cfg.crashes
             && f.fround < Array.length rounds
          then begin
            (* steps of the round = recorded decisions minus the initial
               dispatch of each of the campaign's threads *)
            let sched = rounds.(f.fround).Repro.schedule in
            let n = Array.length sched - cfg.campaign.Crashes.threads in
            f.untried <- List.init (max 0 n) (fun i -> Crash (i + 1));
            crash_points := !crash_points + max 0 n
          end;
          if s > 0 then incr crashes_before
      | _ -> ()
    done
  in
  (* ---- race analysis (reduced searches) ---------------------------------

     Within one round, the transitions are the dispatches of the path's
     scheduling frames.  Each carries a vector clock over the round
     ([vc.(t)] = how many of thread t's dispatches happen before it,
     itself included), built from program order and the conflicts
     between footprints.  Rounds never race with each other: the crash,
     the write-back resolution, [recover_structure] and the start of the
     next round are barriers that depend on everything.

     For a race e ⋖ e' (conflicting dispatches of different threads with
     no happens-before path between them other than the direct one) the
     reversal needs, at e's frame, one of the initials of
     [notdep(e).e'] — the dispatches after e that do not happen after it,
     then e'.  If none of them is already explored, scheduled or asleep
     there, the lowest one the preemption bound admits is added.  As in
     Coons et al.'s bounded POR, it is also added at the start of the
     block of e's thread that contains e, where the switch may be cheaper
     under the bound.

     A crashed round ends in a pseudo-transition that depends on every
     dispatch: each thread's last dispatch that nothing else in the round
     happens after races with it.  Reversing such a race means that
     dispatch does not make it into the crashed prefix; when no other
     dispatch follows it, every other ready thread is added. *)
  let vc_zero = Array.make nthreads 0 in
  let first = Array.make nthreads (-1) in
  let admissible f q = f.pre_used + switch_cost f q <= cfg.preemptions in
  let present f =
    let m = ref (bit (tid_of f)) in
    List.iter (fun (r, _, _) -> m := !m lor bit r) f.explored;
    List.iter (fun (r, _) -> m := !m lor bit r) f.sleep;
    List.iter (function Sched r -> m := !m lor bit r | _ -> ()) f.untried;
    !m
  in
  let add f q =
    f.untried <- f.untried @ [ sched_of.(q) ];
    incr backtracks_added
  in
  (* Add the lowest admissible member of [initials] at frame [k] unless
     one is already there (every member when [all]), and the same at the
     start of [k]'s block.  A needed alternative the bound forbids is
     counted as pruned. *)
  let add_backtrack ~all k initials =
    let f = path.frames.(k) in
    let cands = initials land f.ready land lnot (bit (tid_of f)) in
    let pres = present f in
    if cands <> 0 && (all || cands land pres = 0) then begin
      let wanted = ref 0 in
      for q = nthreads - 1 downto 0 do
        if cands land bit q <> 0 && pres land bit q = 0 then
          if admissible f q then
            wanted := if all then !wanted lor bit q else bit q
      done;
      if !wanted = 0 then incr pruned;
      for q = 0 to nthreads - 1 do
        if !wanted land bit q <> 0 then add f q
      done;
      (* the block: the run of [f]'s thread that ends at [k] *)
      let t = tid_of f in
      let b = ref k in
      while
        !b > 0
        && is_event path.frames.(!b - 1)
        && tid_of path.frames.(!b - 1) = t
      do
        decr b
      done;
      if !b < k then begin
        let fb = path.frames.(!b) in
        let pres_b = present fb in
        let at_block =
          if all then cands
          else if !wanted <> 0 then !wanted
          else bit (lowest_bit cands)
        in
        for q = 0 to nthreads - 1 do
          if at_block land bit q <> 0 && fb.ready land bit q <> 0
             && pres_b land bit q = 0 && admissible fb q
          then add fb q
        done
      end
    end
  in
  (* initials of [notdep(k).e'] over the round's events strictly after
     [k] and before [upto], then [e'] itself (tid [te'] with clock
     [vce']; [te' < 0] for the crash pseudo-transition) *)
  let initials k upto te' vce' =
    let fk = path.frames.(k) in
    let tk = tid_of fk and lk = fk.vc.(tid_of fk) in
    Array.fill first 0 nthreads (-1);
    let init = ref 0 in
    let consider t vc =
      if first.(t) < 0 then begin
        let has_pred = ref false in
        for r = 0 to nthreads - 1 do
          if r <> t && first.(r) >= 0 && vc.(r) >= first.(r) then has_pred := true
        done;
        first.(t) <- vc.(t);
        if not !has_pred then init := !init lor bit t
      end
    in
    for i = k + 1 to upto - 1 do
      let f = path.frames.(i) in
      if is_event f && f.vc.(tk) < lk then consider (tid_of f) f.vc
    done;
    if te' >= 0 then consider te' vce';
    !init
  in
  (* Per-line access state of the round being analyzed, indexed by line
     identity (dense: identities restart at zero each execution): the
     last dispatch that wrote the line, and those that read it since.
     [stamp] marks which round an entry belongs to, so nothing is reset
     between rounds. *)
  let stamp = ref [||] and lw = ref [||] and rd_head = ref [||] in
  let rn_ev = ref (Array.make 256 0) and rn_next = ref (Array.make 256 0) in
  let rn_len = ref 0 in
  let round_id = ref 0 in
  let last_of = Array.make nthreads (-1) in
  let cands = ref (Array.make 16 0) and n_cands = ref 0 in
  let ensure_line u =
    if u >= Array.length !stamp then begin
      let n = max (2 * Array.length !stamp) (u + 64) in
      let grow a d =
        let b = Array.make n d in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      stamp := grow !stamp (-1);
      lw := grow !lw (-1);
      rd_head := grow !rd_head (-1)
    end;
    if !stamp.(u) <> !round_id then begin
      !stamp.(u) <- !round_id;
      !lw.(u) <- -1;
      !rd_head.(u) <- -1
    end
  in
  let add_cand k =
    let seen = ref false in
    for i = 0 to !n_cands - 1 do
      if !cands.(i) = k then seen := true
    done;
    if not !seen then begin
      if !n_cands = Array.length !cands then begin
        let b = Array.make (2 * !n_cands) 0 in
        Array.blit !cands 0 b 0 !n_cands;
        cands := b
      end;
      !cands.(!n_cands) <- k;
      incr n_cands
    end
  in
  (* the dispatches [m] directly depends on: per line, the last writer,
     plus the readers since when [m] writes it; every other thread's
     latest dispatch when [m] aborted the execution *)
  let collect fm t =
    n_cands := 0;
    if fm.abort then
      for r = 0 to nthreads - 1 do
        if r <> t && last_of.(r) >= 0 then add_cand last_of.(r)
      done
    else
      for i = 0 to Array.length fm.fp - 1 do
        let e = fm.fp.(i) in
        let u = fp_uid e in
        ensure_line u;
        let w = !lw.(u) in
        if w >= 0 && tid_of path.frames.(w) <> t then add_cand w;
        if fp_writes e then begin
          let r = ref !rd_head.(u) in
          while !r >= 0 do
            let k = !rn_ev.(!r) in
            if tid_of path.frames.(k) <> t then add_cand k;
            r := !rn_next.(!r)
          done
        end
      done;
    (* latest first, so a race's past covers the older candidates *)
    let c = !cands in
    for i = 1 to !n_cands - 1 do
      let x = c.(i) in
      let j = ref i in
      while !j > 0 && c.(!j - 1) < x do
        c.(!j) <- c.(!j - 1);
        decr j
      done;
      c.(!j) <- x
    done
  in
  let record m fm =
    for i = 0 to Array.length fm.fp - 1 do
        let e = fm.fp.(i) in
        let u = fp_uid e in
        ensure_line u;
        if fp_writes e then begin
          !lw.(u) <- m;
          !rd_head.(u) <- -1
        end
        else if !lw.(u) <> m
                && not (!rd_head.(u) >= 0 && !rn_ev.(!rd_head.(u)) = m)
        then begin
          if !rn_len = Array.length !rn_ev then begin
            let grow a =
              let b = Array.make (2 * !rn_len) 0 in
              Array.blit a 0 b 0 !rn_len;
              b
            in
            rn_ev := grow !rn_ev;
            rn_next := grow !rn_next
          end;
          !rn_ev.(!rn_len) <- m;
          !rn_next.(!rn_len) <- !rd_head.(u);
          !rd_head.(u) <- !rn_len;
          incr rn_len
        end
    done
  in
  (* One round: frames [a, b) (b = the next round's crash frame or the
     path end), [crashed] when a write-back frame closed it; clocks and
     races are computed from frame [start] on. *)
  let analyze_round start a b crashed =
    incr round_id;
    rn_len := 0;
    Array.fill last_of 0 nthreads (-1);
    for m = a to b - 1 do
      let fm = path.frames.(m) in
      if is_event fm then begin
        let t = tid_of fm in
        if m >= start then begin
          (* clock from the thread's previous dispatch of the round *)
          let c =
            if last_of.(t) >= 0 then Array.copy path.frames.(last_of.(t)).vc
            else Array.copy vc_zero
          in
          c.(t) <- c.(t) + 1;
          collect fm t;
          for i = 0 to !n_cands - 1 do
            let k = !cands.(i) in
            let fk = path.frames.(k) in
            let tk = tid_of fk in
            if fk.vc.(tk) > c.(tk) then begin
              incr races;
              add_backtrack ~all:false k (initials k m t c);
              for r = 0 to nthreads - 1 do
                if fk.vc.(r) > c.(r) then c.(r) <- fk.vc.(r)
              done
            end
          done;
          fm.vc <- c
        end;
        record m fm;
        last_of.(t) <- m
      end
    done;
    let last_event = Array.fold_left max (-1) last_of in
    if crashed && last_event >= start then
      for t = 0 to nthreads - 1 do
        (* t's last dispatch of the round, if nothing happens after it:
           no other thread's latest dispatch has it in its past *)
        let l = last_of.(t) in
        if l >= 0 then begin
          let lt = path.frames.(l).vc.(t) in
          let maximal = ref true in
          Array.iteri
            (fun r k ->
              if r <> t && k >= 0 && path.frames.(k).vc.(t) >= lt then
                maximal := false)
            last_of;
          if !maximal then begin
            incr races;
            let init = initials l b (-1) vc_zero in
            if init <> 0 then add_backtrack ~all:false l init
            else add_backtrack ~all:true l (lnot 0)
          end
        end
      done
  in
  let analyze start =
    let a = ref 0 and crashed = ref false in
    for i = 0 to path.len do
      let boundary =
        i = path.len
        || match path.frames.(i).chosen with Crash _ -> true | _ -> false
      in
      if boundary then begin
        if i > !a && i - 1 >= start then analyze_round start !a i !crashed;
        a := i + 1;
        crashed := false
      end
      else
        match path.frames.(i).chosen with Wb _ -> crashed := true | _ -> ()
    done
  in
  (* Flip the deepest decision with untried alternatives; false = tree
     exhausted. *)
  let backtrack () =
    let rec pop () =
      if path.len = 0 then false
      else
        let f = path.frames.(path.len - 1) in
        match f.untried with
        | [] ->
            path.len <- path.len - 1;
            pop ()
        | c :: rest ->
            if reduce then
              (match f.chosen with
              | Sched t ->
                  (* running [t] first here costs its switch, plus a
                     switch away from its thread if that stayed ready *)
                  let price =
                    switch_cost f t + if f.after land bit t <> 0 then 1 else 0
                  in
                  f.explored <- (t, f.fp, price) :: f.explored;
                  f.after <- -1
              | _ -> ());
            f.chosen <- c;
            f.untried <- rest;
            true
    in
    pop ()
  in
  let continue = ref true in
  if resume then begin
    (* the caller already executed (and backfilled) this path once *)
    if not (grant !executions) then continue := false
    else if not (backtrack ()) then begin
      complete := true;
      continue := false
    end
  end;
  (* each reduced execution turns footprint logging on (exec_once) *)
  Fun.protect ~finally:(fun () -> if reduce then Pmem.set_footprint false)
  @@ fun () ->
  while !continue do
    incr executions;
    let fresh_from = path.len in
    (match exec_once () with
    | None ->
        incr sleep_blocked;
        analyze (max 0 (fresh_from - 1))
    | Some (result, rounds) -> (
        backfill_crash_frames rounds fresh_from;
        if reduce then analyze (max 0 (fresh_from - 1));
        match result with
        | Error error ->
            incr failures;
            if !first_failure = None then
              first_failure :=
                Some (Crashes.repro_of cfg.campaign ~seed:cfg.seed ~error ~rounds);
            Trace.note
              (Printf.sprintf "EXPLORE FAILURE (exec %d): %s" !executions error);
            if stop_on_failure then continue := false
        | Ok _ -> ()));
    if !continue then begin
      if not (grant !executions) then
        continue := false (* budget exhausted: tree incomplete *)
      else if not (backtrack ()) then begin
        complete := true;
        continue := false
      end
    end;
    if !executions mod 500 = 0 then report ()
  done;
  (* A failure stopped the search before the tree was exhausted — the
     enumeration is complete only when backtracking ran dry. *)
  report ();
  { stats = snapshot (); failure = !first_failure }

(* ---- parallel fan-out --------------------------------------------------- *)

(* The decision tree is partitioned at its {e shallowest} frame with
   untried alternatives, discovered by running the all-defaults execution
   once on the calling domain: work item 0 continues the discovery path
   with that frame's alternatives removed (it owns the default subtree),
   and item [k] pins the frame to its [k]-th alternative over the same
   forced prefix.  Because the sequential explorer backtracks deepest
   frame first, it enumerates exactly item 0's subtree first, then each
   pinned subtree in alternative order — so merging by work-item index
   (Parallel's contract) reproduces the sequential visit order: summed
   stats match an exhausted sequential run, and the lowest-indexed
   failure {e is} the sequential first failure, making repro files
   bit-identical across [-j] values. *)

let zero_stats =
  {
    executions = 0;
    failures = 0;
    decision_points = 0;
    crash_points = 0;
    wb_choices = 0;
    pruned = 0;
    races = 0;
    backtracks_added = 0;
    sleep_blocked = 0;
    complete = false;
  }

let sum_stats a b =
  {
    executions = a.executions + b.executions;
    failures = a.failures + b.failures;
    decision_points = a.decision_points + b.decision_points;
    crash_points = a.crash_points + b.crash_points;
    wb_choices = a.wb_choices + b.wb_choices;
    pruned = a.pruned + b.pruned;
    races = a.races + b.races;
    backtracks_added = a.backtracks_added + b.backtracks_added;
    sleep_blocked = a.sleep_blocked + b.sleep_blocked;
    complete = a.complete && b.complete;
  }

let run ?(stop_on_failure = true) ?progress ?(jobs = 1) ?(reduce = true) cfg =
  if jobs <= 1 then begin
    let grant e = not (cfg.max_execs > 0 && e >= cfg.max_execs) in
    search ~stop_on_failure ?progress ~reduce ~grant ~resume:false
      (path_create ()) cfg
  end
  else begin
    (* Discovery: one all-defaults execution on the calling domain, as a
       1-execution budget search so stats and backfill run the standard
       code path. *)
    let discovery_path = path_create () in
    let discovery =
      search ~stop_on_failure ?progress:None ~reduce
        ~grant:(fun _ -> false)
        ~resume:false discovery_path cfg
    in
    let over_budget = cfg.max_execs > 0 && cfg.max_execs <= 1 in
    (* shallowest frame with alternatives = the partition point *)
    let split = ref (-1) in
    (try
       for i = 0 to discovery_path.len - 1 do
         if discovery_path.frames.(i).untried <> [] then begin
           split := i;
           raise Exit
         end
       done
     with Exit -> ());
    let j = !split in
    if (stop_on_failure && discovery.failure <> None) || over_budget || j < 0
    then begin
      (* Nothing to fan out: the discovery execution failed (and we stop
         on failure), the budget is spent, or the tree had a single
         execution — in which case the enumeration is complete. *)
      let complete =
        j < 0 && (not over_budget)
        && not (stop_on_failure && discovery.failure <> None)
      in
      let stats = { discovery.stats with complete } in
      (match progress with None -> () | Some f -> f stats);
      { discovery with stats }
    end
    else if
      reduce
      && match discovery_path.frames.(j).chosen with Sched _ -> true | _ -> false
    then begin
      (* Races add alternatives to scheduling frames only as executions
         reveal them, so a reduced tree is split at crash and write-back
         frames alone, where the alternatives are fixed up front.  With
         none above the first scheduling alternative, the rest of the
         search runs on the calling domain. *)
      let grant e = not (cfg.max_execs > 0 && e + 1 >= cfg.max_execs) in
      let rest =
        search ~stop_on_failure ?progress:None ~reduce ~grant ~resume:true
          discovery_path cfg
      in
      let stats = sum_stats { discovery.stats with complete = true } rest.stats in
      (match progress with None -> () | Some f -> f stats);
      let failure =
        match discovery.failure with Some _ as f -> f | None -> rest.failure
      in
      { stats; failure }
    end
    else begin
      let pivot = discovery_path.frames.(j) in
      let alts = pivot.untried in
      pivot.untried <- [];
      (* Shared execution budget: discovery consumed one. *)
      let remaining = Atomic.make (cfg.max_execs - 1) in
      let grant _ =
        cfg.max_execs = 0 || Atomic.fetch_and_add remaining (-1) > 0
      in
      let prefix =
        Array.init j (fun i -> copy_frame discovery_path.frames.(i))
      in
      let items =
        Array.of_list
          (`Continue
          :: List.map (fun alt -> `Pinned alt) alts)
      in
      let outcomes =
        Parallel.run ~jobs
          (fun _ item ->
            match item with
            | `Continue ->
                search ~stop_on_failure ?progress:None ~reduce ~grant ~resume:true
                  discovery_path cfg
            | `Pinned alt ->
                (* a pinned item's first execution is not the free
                   discovery one — it must claim budget like any other *)
                if not (grant 0) then { stats = zero_stats; failure = None }
                else begin
                  let path = path_create () in
                  Array.iter (fun f -> path_push path (copy_frame f)) prefix;
                  path_push path
                    { blank with chosen = alt; fround = pivot.fround };
                  search ~stop_on_failure ?progress:None ~reduce ~grant
                    ~resume:false
                    path cfg
                end)
          items
      in
      let stats =
        Array.fold_left
          (fun acc o -> sum_stats acc o.stats)
          { discovery.stats with complete = true }
          outcomes
      in
      let failure =
        match discovery.failure with
        | Some _ as f -> f
        | None -> (
            match
              Parallel.first_failure (fun o -> o.failure <> None) outcomes
            with
            | Some (_, o) -> o.failure
            | None -> None)
      in
      (* Sequential semantics: a failure that stopped the search leaves
         the enumeration incomplete even if every fanned subtree happened
         to run dry. *)
      let complete =
        stats.complete && not (stop_on_failure && failure <> None)
      in
      let stats = { stats with complete } in
      (match progress with None -> () | Some f -> f stats);
      { stats; failure }
    end
  end
