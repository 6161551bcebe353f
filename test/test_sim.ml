(* The discrete-event engine: determinism, clock accounting, crash
   injection, scheduling fairness. *)

let test_runs_all () =
  let hits = Array.make 5 false in
  (match Sim.run (Array.init 5 (fun i _ -> hits.(i) <- true)) with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Array.iteri
    (fun i h -> Alcotest.(check bool) (Printf.sprintf "thread %d ran" i) true h)
    hits

let test_tid_and_in_sim () =
  Alcotest.(check bool) "outside" false (Sim.in_sim ());
  let seen = Array.make 3 (-1) in
  ignore
    (Sim.run
       (Array.init 3 (fun i _ ->
            Alcotest.(check bool) "inside" true (Sim.in_sim ());
            seen.(i) <- Sim.tid ()))
      : Sim.outcome);
  Alcotest.(check (list int)) "tids" [ 0; 1; 2 ] (Array.to_list seen);
  Alcotest.(check bool) "outside again" false (Sim.in_sim ())

let test_clock_accounting () =
  let final = ref 0. in
  ignore
    (Sim.run
       [|
         (fun _ ->
           Sim.step 100.;
           Sim.advance 50.;
           Sim.step 0.;
           final := Sim.now ());
       |]
      : Sim.outcome);
  Alcotest.(check (float 0.001)) "clock" 150. !final

let test_perf_policy_interleaves_by_clock () =
  (* A thread with cheap steps must run many steps while an expensive
     thread completes few: min-clock scheduling is fair in virtual time. *)
  let order = ref [] in
  ignore
    (Sim.run ~policy:`Perf
       [|
         (fun _ ->
           for i = 1 to 3 do
             Sim.step 1000.;
             order := (0, i) :: !order
           done);
         (fun _ ->
           for i = 1 to 3 do
             Sim.step 10.;
             order := (1, i) :: !order
           done);
       |]
      : Sim.outcome);
  (* the cheap thread's three steps all precede the expensive thread's
     second step *)
  let pos x =
    let rec idx n = function
      | [] -> Alcotest.fail "missing event"
      | e :: rest -> if e = x then n else idx (n + 1) rest
    in
    idx 0 (List.rev !order)
  in
  Alcotest.(check bool) "cheap thread runs ahead" true (pos (1, 3) < pos (0, 2))

let test_random_policy_deterministic_per_seed () =
  let trace seed =
    let log = ref [] in
    ignore
      (Sim.run ~policy:`Random ~seed
         (Array.init 3 (fun i _ ->
              for j = 0 to 4 do
                Sim.step 1.;
                log := (i, j) :: !log
              done))
        : Sim.outcome);
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 42 = trace 42);
  Alcotest.(check bool)
    "different seeds usually differ" true
    (List.exists (fun s -> trace s <> trace 42) [ 1; 2; 3; 4; 5 ])

let test_crash_at_step () =
  let completed = ref 0 in
  let outcome =
    Sim.run ~policy:`Random ~crash_at:10
      (Array.init 4 (fun _ _ ->
           for _ = 1 to 100 do
             Sim.step 1.
           done;
           incr completed))
  in
  (match outcome with
  | Sim.Crashed_at n -> Alcotest.(check bool) "at step 10" true (n >= 10)
  | Sim.All_done -> Alcotest.fail "expected crash");
  Alcotest.(check int) "no thread completed" 0 !completed

let test_crash_unwinds_with_exception () =
  let cleaned = ref false in
  (match
     Sim.run ~crash_at:5
       [|
         (fun _ ->
           Fun.protect
             ~finally:(fun () -> cleaned := true)
             (fun () ->
               for _ = 1 to 100 do
                 Sim.step 1.
               done));
       |]
   with
  | Sim.Crashed_at _ -> ()
  | Sim.All_done -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "finalizer ran on Crashed" true !cleaned

let test_request_crash () =
  match
    Sim.run
      [| (fun _ -> Sim.step 1.); (fun _ -> Sim.request_crash ()) |]
  with
  | Sim.Crashed_at _ -> ()
  | Sim.All_done -> Alcotest.fail "expected crash"

let test_no_nested_runs () =
  match
    Sim.run [| (fun _ -> ignore (Sim.run [| (fun _ -> ()) |] : Sim.outcome)) |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "nested run must be rejected"

let test_exception_escapes_cleanly () =
  (match Sim.run [| (fun _ -> failwith "boom") |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception should propagate");
  (* the engine must not leak its context *)
  Alcotest.(check bool) "not in sim" false (Sim.in_sim ());
  Sim.step 5. (* must be a no-op, not an unhandled effect *)

let test_step_limit () =
  (* a livelocked fiber must abort the run instead of hanging it *)
  (match
     Sim.run ~step_limit:1000
       [| (fun _ -> while true do Sim.step 1. done) |]
   with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "expected Step_limit");
  Alcotest.(check bool) "engine clean" false (Sim.in_sim ());
  (* generous limits do not fire *)
  match Sim.run ~step_limit:1000 [| (fun _ -> Sim.step 1.) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_step_limit_runs_finalizers () =
  (* Fibers abandoned when the watchdog fires must be discontinued so
     their finalizers run — they used to be dropped as live continuations,
     leaking whatever the fiber held open. *)
  let cleaned = Array.make 3 false in
  (match
     Sim.run ~step_limit:500
       (Array.init 3 (fun i _ ->
            Fun.protect
              ~finally:(fun () -> cleaned.(i) <- true)
              (fun () ->
                while true do
                  Sim.step 1.
                done)))
   with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "expected Step_limit");
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "finalizer %d ran" i) true c)
    cleaned;
  Alcotest.(check bool) "engine clean" false (Sim.in_sim ());
  (* the engine is reusable afterwards *)
  match Sim.run [| (fun _ -> Sim.step 1.) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_schedule_record_replay () =
  let run ~seed ~schedule ~record =
    let log = ref [] in
    ignore
      (Sim.run ~policy:`Random ~seed ~schedule ~record
         (Array.init 4 (fun i _ ->
              for j = 0 to 9 do
                Sim.step 1.;
                log := (i, j) :: !log
              done))
        : Sim.outcome);
    List.rev !log
  in
  let picks = ref [] in
  let original =
    run ~seed:5 ~schedule:[||] ~record:(fun tid -> picks := tid :: !picks)
  in
  let schedule = Array.of_list (List.rev !picks) in
  Alcotest.(check bool) "picks recorded" true (Array.length schedule > 0);
  (* replaying the recorded schedule reproduces the interleaving exactly,
     even under a different rng seed: every decision comes from the tape *)
  let replayed = run ~seed:9999 ~schedule ~record:(fun _ -> ()) in
  Alcotest.(check bool) "identical interleaving" true (replayed = original)

let test_boundary_exactness () =
  (* Both bounds follow one convention (see sim.mli): a bound of n fires
     at the n-th scheduling step — steps 1..n-1 complete, the n-th [step]
     call does not return.  Lock the exact boundary on both sides. *)
  let body completed = [| (fun _ -> for _ = 1 to 5 do Sim.step 1. done; incr completed) |] in
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~crash_at:5 (body c) with
  | Sim.Crashed_at n -> Alcotest.(check int) "crash at exactly 5" 5 n
  | Sim.All_done -> Alcotest.fail "crash_at 5 must fire on the 5th step");
  Alcotest.(check int) "5th step call did not return" 0 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~crash_at:6 (body c) with
  | Sim.All_done -> ()
  | Sim.Crashed_at n -> Alcotest.failf "crash_at 6 fired at %d of 5 steps" n);
  Alcotest.(check int) "all 5 steps completed" 1 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~step_limit:5 (body c) with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "step_limit 5 must fire on the 5th step");
  Alcotest.(check int) "5th step call aborted" 0 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~step_limit:6 (body c) with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check int) "limit 6 lets 5 steps finish" 1 !c

let test_replay_divergence_reported () =
  let bodies =
    Array.init 2 (fun _ _ ->
        for _ = 1 to 10 do
          Sim.step 1.
        done)
  in
  let picks = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:3
       ~record:(fun tid -> picks := tid :: !picks)
       bodies
      : Sim.outcome);
  let schedule = Array.of_list (List.rev !picks) in
  (* a clean replay reports no divergence *)
  let count = ref 0 in
  ignore
    (Sim.run ~policy:`Random ~seed:3 ~schedule
       ~divergence:(fun ~step:_ ~want:_ -> incr count)
       bodies
      : Sim.outcome);
  Alcotest.(check int) "faithful replay has no divergence" 0 !count;
  (* corrupt one entry to a tid that is never ready: the divergence
     callback must fire with that entry, not be silently skipped *)
  let bad = Array.copy schedule in
  bad.(Array.length bad / 2) <- 61;
  let wants = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:3 ~schedule:bad
       ~divergence:(fun ~step:_ ~want -> wants := want :: !wants)
       bodies
      : Sim.outcome);
  Alcotest.(check bool) "divergence reported" true (List.mem 61 !wants)

let test_choose_drives_scheduling () =
  (* an external chooser that always picks the highest ready tid must run
     thread 1 to completion before thread 0 executes at all *)
  let log = ref [] in
  let seen_single = ref false in
  ignore
    (Sim.run ~policy:`Random
       ~choose:(fun ~crashing:_ ready ->
         if Array.length ready = 1 then seen_single := true;
         ready.(Array.length ready - 1))
       (Array.init 2 (fun i _ ->
            for j = 0 to 4 do
              Sim.step 1.;
              log := (i, j) :: !log
            done))
      : Sim.outcome);
  let order = List.rev !log in
  Alcotest.(check (list (pair int int)))
    "thread 1 runs first"
    [ (1, 0); (1, 1); (1, 2); (1, 3); (1, 4);
      (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    order;
  Alcotest.(check bool) "single-ready decisions also consulted" true
    !seen_single;
  (* a chooser returning a non-ready tid is a hard error, not a fallback *)
  match
    Sim.run ~policy:`Random
      ~choose:(fun ~crashing:_ _ -> 61)
      [| (fun _ -> Sim.step 1.) |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "non-ready choose pick must fail"

let test_many_threads () =
  let n = 60 in
  let done_ = Array.make n false in
  ignore
    (Sim.run ~policy:`Perf
       (Array.init n (fun i _ ->
            for _ = 1 to 50 do
              Sim.step 3.
            done;
            done_.(i) <- true))
      : Sim.outcome);
  Alcotest.(check bool) "all completed" true (Array.for_all Fun.id done_)

(* -- per-fiber interrupts ------------------------------------------------- *)

exception Boom

let test_interrupt_delivered_and_catchable () =
  let caught = ref (-1) in
  let finished = ref false in
  ignore
    (Sim.run ~policy:`Perf
       [|
         (fun _ ->
           let progress = ref 0 in
           (try
              for i = 1 to 100 do
                Sim.step 10.;
                progress := i
              done
            with Boom -> caught := !progress);
           (* the fiber survives the interrupt: in-fiber recovery *)
           Sim.step 5.;
           finished := true);
         (fun _ ->
           Sim.step 35.;
           Sim.interrupt ~tid:0 Boom;
           Sim.step 1.);
       |]
      : Sim.outcome);
  (* under `Perf the victim completes steps at 10/20/30, the attacker
     interrupts at clock 35, and the victim's next resumption (clock 40)
     receives the exception: progress is exactly 3 *)
  Alcotest.(check int) "delivered at the next resumption" 3 !caught;
  Alcotest.(check bool) "victim continued after catching" true !finished

let test_static_interrupt_at_exact_dispatch () =
  (* dispatch 1 is the fiber's initial thunk; dispatch n >= 2 resumes
     its (n-1)-th suspension.  Steps cost >= the expensive threshold so
     every one is a scheduling point (perf mode batches cheap steps).
     An interrupt at dispatch 3 replaces the return of the fiber's 2nd
     [step] call — the same boundary convention as [crash_at] — so
     exactly one loop iteration has finished. *)
  let caught_at = ref (-1) in
  ignore
    (Sim.run
       ~interrupts:[| (0, 3, Boom) |]
       [|
         (fun _ ->
           let progress = ref 0 in
           try
             for i = 1 to 10 do
               Sim.step 10.;
               progress := i
             done
           with Boom -> caught_at := !progress);
       |]
      : Sim.outcome);
  Alcotest.(check int) "one iteration completed before delivery" 1 !caught_at;
  (* at = 1 predates the first resumption: delivered there, 0 steps done *)
  let caught_at = ref (-1) in
  ignore
    (Sim.run
       ~interrupts:[| (0, 1, Boom) |]
       [|
         (fun _ ->
           let progress = ref 0 in
           try
             for i = 1 to 10 do
               Sim.step 10.;
               progress := i
             done
           with Boom -> caught_at := !progress);
       |]
      : Sim.outcome);
  Alcotest.(check int) "armed before any resumption" 0 !caught_at

let test_interrupt_on_finished_fiber_is_noop () =
  (* static: the victim finishes at dispatch 2, the interrupt armed for
     dispatch 5 never fires and must not wedge or escape the run *)
  (match
     Sim.run
       ~interrupts:[| (1, 5, Boom) |]
       [|
         (fun _ -> for _ = 1 to 20 do Sim.step 10. done);
         (fun _ -> Sim.step 10.);
       |]
   with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  (* dynamic: aiming at a fiber that already completed is a no-op *)
  match
    Sim.run ~policy:`Perf
      [|
        (fun _ -> Sim.step 1.);
        (fun _ ->
          Sim.step 100.;
          Sim.interrupt ~tid:0 Boom;
          Sim.step 1.);
      |]
  with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_self_interrupt_raises_immediately () =
  let caught = ref false in
  ignore
    (Sim.run
       [|
         (fun _ ->
           try Sim.interrupt ~tid:0 Boom with Boom -> caught := true);
       |]
      : Sim.outcome);
  Alcotest.(check bool) "self-interrupt raised in place" true !caught

(* -- in-place resumption ---------------------------------------------------

   A fiber takes each scheduling decision at its own yield point and, when
   it picks itself, resumes in place without an effect switch.  The four
   decision sources (seeded rng, replay tape under either policy, an
   external [choose]) must still make every decision exactly as a full
   enqueue-then-dequeue round trip would: replaying one run's recorded
   picks through each of them reproduces the run event for event. *)

exception Intr of int

type observed = {
  scheds : (int * int * float) list;  (* Sched events: step, tid, clock *)
  crash_events : int list;
  log : (int * int * int * float) list;  (* tid, step index, dispatches, now *)
  final : int array;  (* each fiber's dispatch count when it ended *)
  result : (Sim.outcome, string) result;
  divergences : int;
}

let observe ~costs ~crash_at ~step_limit ~interrupts run =
  let n = Array.length costs in
  let scheds = ref [] and crash_events = ref [] and log = ref [] in
  let final = Array.make n 0 in
  let divergences = ref 0 in
  let body i _ =
    Fun.protect
      ~finally:(fun () -> final.(i) <- Sim.dispatches ~tid:i)
      (fun () ->
        List.iteri
          (fun j cost ->
            (try Sim.step cost with Intr k -> log := (i, -k, 0, 0.) :: !log);
            log := (i, j, Sim.dispatches ~tid:i, Sim.now ()) :: !log)
          costs.(i))
  in
  Sim.set_tracer
    (Some
       (function
       | Sim.Sched { step; tid; clock } -> scheds := (step, tid, clock) :: !scheds
       | Sim.Crash { step } -> crash_events := step :: !crash_events));
  let result =
    Fun.protect
      ~finally:(fun () -> Sim.set_tracer None)
      (fun () ->
        match
          run ~crash_at ~step_limit ~interrupts
            ~divergence:(fun ~step:_ ~want:_ -> incr divergences)
            (Array.init n body)
        with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e))
  in
  {
    scheds = List.rev !scheds;
    crash_events = List.rev !crash_events;
    log = List.rev !log;
    final;
    result;
    divergences = !divergences;
  }

let gen_case =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    (* every cost reaches the perf policy's expensive threshold, so each
       step is a scheduling point under both policies *)
    let* costs =
      array_repeat n (list_size (int_range 0 12) (oneofl [ 10.; 15.; 40.; 100. ]))
    in
    let* bound = int_range 0 2 and* at = int_range 1 40 in
    let* interrupts =
      list_size (int_range 0 3)
        (triple (int_range 0 (n - 1)) (int_range 1 8) (int_range 1 9))
    in
    let* seed = int_range 0 10_000 in
    let crash_at = if bound = 1 then at else -1 in
    let step_limit = if bound = 2 then at else -1 in
    let interrupts =
      Array.of_list (List.map (fun (t, d, k) -> (t, d, Intr k)) interrupts)
    in
    return (costs, crash_at, step_limit, interrupts, seed))

let print_case (costs, crash_at, step_limit, interrupts, seed) =
  Printf.sprintf "costs=[%s] crash_at=%d step_limit=%d interrupts=[%s] seed=%d"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l -> String.concat "," (List.map string_of_float l))
             costs)))
    crash_at step_limit
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (t, d, e) ->
               Printf.sprintf "%d@%d:%s" t d (Printexc.to_string e))
             interrupts)))
    seed

let prop_decision_sources_agree =
  QCheck2.Test.make ~name:"one run, replayed through every decision source" ~count:300
    ~print:print_case gen_case
    (fun (costs, crash_at, step_limit, interrupts, seed) ->
      let observe = observe ~costs ~crash_at ~step_limit ~interrupts in
      let picks = ref [] in
      let recorded =
        observe (fun ~crash_at ~step_limit ~interrupts ~divergence bodies ->
            Sim.run ~policy:`Random ~seed ~crash_at ~step_limit ~interrupts
              ~divergence
              ~record:(fun tid -> picks := tid :: !picks)
              bodies)
      in
      let tape = Array.of_list (List.rev !picks) in
      let via_schedule policy =
        observe (fun ~crash_at ~step_limit ~interrupts ~divergence bodies ->
            Sim.run ~policy ~seed:(seed + 1) ~crash_at ~step_limit ~interrupts
              ~divergence ~schedule:tape bodies)
      in
      let next = ref 0 in
      let via_choose =
        observe (fun ~crash_at ~step_limit ~interrupts ~divergence bodies ->
            Sim.run ~policy:`Random ~seed:(seed + 1) ~crash_at ~step_limit
              ~interrupts ~divergence
              ~choose:(fun ~crashing:_ _ ->
                if !next >= Array.length tape then
                  QCheck2.Test.fail_report "choose ran past the tape";
                let t = tape.(!next) in
                incr next;
                t)
              bodies)
      in
      let total = Array.fold_left ( + ) 0 recorded.final in
      if List.length recorded.scheds <> total then
        QCheck2.Test.fail_reportf "%d Sched events for %d dispatches"
          (List.length recorded.scheds) total;
      List.iter
        (fun (name, o) ->
          if o.divergences <> 0 then
            QCheck2.Test.fail_reportf "%s: %d divergences" name o.divergences;
          if o <> recorded then QCheck2.Test.fail_reportf "%s differs" name)
        [
          ("schedule under `Random", via_schedule `Random);
          ("schedule under `Perf", via_schedule `Perf);
          ("choose reading the tape", via_choose);
        ];
      if !next <> Array.length tape then
        QCheck2.Test.fail_reportf "choose consumed %d of %d picks" !next
          (Array.length tape);
      (* the min-clock heap as the source, replayed under the rng policy *)
      let perf_picks = ref [] in
      let perf =
        observe (fun ~crash_at ~step_limit ~interrupts ~divergence bodies ->
            Sim.run ~policy:`Perf ~crash_at ~step_limit ~interrupts ~divergence
              ~record:(fun tid -> perf_picks := tid :: !perf_picks)
              bodies)
      in
      let perf_replayed =
        observe (fun ~crash_at ~step_limit ~interrupts ~divergence bodies ->
            Sim.run ~policy:`Random ~seed ~crash_at ~step_limit ~interrupts
              ~divergence
              ~schedule:(Array.of_list (List.rev !perf_picks))
              bodies)
      in
      if perf_replayed <> perf then
        QCheck2.Test.fail_report "`Perf run differs from its tape's replay";
      true)

let test_rng_picks_pinned () =
  (* The picks as the engine made them when every decision was an
     enqueue followed by a dequeue: a fiber re-picked in place must
     consume the same rng draw (post-crash drain included) and keep the
     heap's tie order. *)
  let picks = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:7 ~crash_at:15
       ~record:(fun t -> picks := t :: !picks)
       (Array.init 3 (fun _ _ ->
            for _ = 1 to 5 do
              Sim.step 1.
            done))
      : Sim.outcome);
  Alcotest.(check (list int))
    "rng picks"
    [ 2; 2; 2; 2; 0; 0; 2; 0; 1; 2; 0; 1; 0; 0; 1; 1; 1 ]
    (List.rev !picks);
  (* the min-clock heap on tied clocks: the fiber that just yielded goes
     behind every fiber already waiting at its clock *)
  let picks = ref [] in
  ignore
    (Sim.run ~policy:`Perf
       ~record:(fun t -> picks := t :: !picks)
       [|
         (fun _ -> for _ = 1 to 4 do Sim.step 10. done);
         (fun _ -> for _ = 1 to 4 do Sim.step 20. done);
         (fun _ ->
           for _ = 1 to 4 do Sim.step 10. done;
           Sim.step 5.;
           Sim.step 15.);
       |]
      : Sim.outcome);
  Alcotest.(check (list int))
    "perf picks"
    [ 0; 1; 2; 0; 2; 1; 0; 2; 0; 2; 1; 0; 2; 1; 2; 1 ]
    (List.rev !picks)

exception Gave_up

let test_choose_raise_unwinds_every_fiber () =
  (* [choose] runs on the deciding fiber's stack now; an exception it
     raises must still escape [run] only after teardown, with every
     fiber — the deciding one included — unwound exactly once by the
     teardown's Step_limit, never by the chooser's own exception. *)
  let n = 3 in
  let finalized = Array.make n 0 in
  let unwound_by = Array.make n "returned" in
  let decisions = ref 0 in
  let decider = ref (-1) in
  let body i _ =
    Fun.protect
      ~finally:(fun () -> finalized.(i) <- finalized.(i) + 1)
      (fun () ->
        try
          for _ = 1 to 20 do
            Sim.step 1.
          done
        with e ->
          unwound_by.(i) <- Printexc.to_string e;
          raise e)
  in
  (match
     Sim.run ~policy:`Random
       ~choose:(fun ~crashing:_ ready ->
         incr decisions;
         if !decisions = 10 then begin
           decider := if Sim.in_sim () then Sim.tid () else -1;
           raise Gave_up
         end;
         (* round robin, so every fiber has started by decision 10 *)
         ready.(!decisions mod Array.length ready))
       (Array.init n body)
   with
  | exception Gave_up -> ()
  | _ -> Alcotest.fail "the chooser's exception must escape Sim.run");
  Alcotest.(check bool) "decided on a fiber's stack" true (!decider >= 0);
  Alcotest.(check (array int)) "every finalizer ran once" [| 1; 1; 1 |]
    finalized;
  Array.iteri
    (fun i u ->
      Alcotest.(check string)
        (Printf.sprintf "fiber %d unwound by teardown" i)
        (Printexc.to_string Sim.Step_limit)
        u)
    unwound_by;
  Alcotest.(check bool) "engine clean" false (Sim.in_sim ());
  match Sim.run ~policy:`Random [| (fun _ -> Sim.step 1.); (fun _ -> Sim.step 1.) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let suite =
  [
    Alcotest.test_case "runs all threads" `Quick test_runs_all;
    Alcotest.test_case "tid and in_sim" `Quick test_tid_and_in_sim;
    Alcotest.test_case "clock accounting" `Quick test_clock_accounting;
    Alcotest.test_case "perf policy follows virtual clocks" `Quick
      test_perf_policy_interleaves_by_clock;
    Alcotest.test_case "random policy deterministic per seed" `Quick
      test_random_policy_deterministic_per_seed;
    Alcotest.test_case "crash at a chosen step" `Quick test_crash_at_step;
    Alcotest.test_case "crash unwinds fibers" `Quick
      test_crash_unwinds_with_exception;
    Alcotest.test_case "request_crash" `Quick test_request_crash;
    Alcotest.test_case "nested runs rejected" `Quick test_no_nested_runs;
    Alcotest.test_case "escaping exception leaves engine clean" `Quick
      test_exception_escapes_cleanly;
    Alcotest.test_case "step-limit watchdog" `Quick test_step_limit;
    Alcotest.test_case "step-limit teardown runs finalizers" `Quick
      test_step_limit_runs_finalizers;
    Alcotest.test_case "schedule record/replay" `Quick
      test_schedule_record_replay;
    Alcotest.test_case "crash/step-limit boundary exactness" `Quick
      test_boundary_exactness;
    Alcotest.test_case "replay divergence reported" `Quick
      test_replay_divergence_reported;
    Alcotest.test_case "choose drives scheduling" `Quick
      test_choose_drives_scheduling;
    Alcotest.test_case "sixty threads" `Quick test_many_threads;
    Alcotest.test_case "interrupt delivered and catchable" `Quick
      test_interrupt_delivered_and_catchable;
    Alcotest.test_case "static interrupt at exact dispatch" `Quick
      test_static_interrupt_at_exact_dispatch;
    Alcotest.test_case "interrupt on finished fiber is no-op" `Quick
      test_interrupt_on_finished_fiber_is_noop;
    Alcotest.test_case "self-interrupt raises immediately" `Quick
      test_self_interrupt_raises_immediately;
    QCheck_alcotest.to_alcotest prop_decision_sources_agree;
    Alcotest.test_case "rng and heap picks pinned" `Quick test_rng_picks_pinned;
    Alcotest.test_case "raising choose unwinds every fiber" `Quick
      test_choose_raise_unwinds_every_fiber;
  ]
