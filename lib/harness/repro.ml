(* Replay files for failing crash campaigns.

   A repro captures everything a campaign run depends on: the workload
   configuration, the campaign seed, and — per simulator round — the
   crash point used and the recorded scheduling decisions.  Feeding the
   rounds back through [Crashes.run_once ~script] replays the failure
   bit-for-bit; the format is line-based and documented in DESIGN.md
   ("Replay-file format"). *)

(* How the crash ending this round resolved outstanding write-backs.
   [`Rng] (the default, and the only choice harness-random campaigns
   produce) means the seeded harness rng drew the surviving subset —
   deterministic under replay because the draw stream is aligned.  The
   explicit choices are produced by the exploration harness and replayed
   verbatim through [Pmem.crash ~resolution]. *)
type wb = [ `Rng | `Drop | `All | `Prefix of int ]

type round = {
  kind : [ `Work | `Recover ];
  crash_at : int;  (* the crash_at parameter of that Sim.run; -1 = none *)
  schedule : int array;  (* tid picked at each scheduling decision *)
  wb : wb;  (* write-back resolution of the crash ending this round *)
}

type t = {
  algo : string;
  threads : int;
  ops_per_thread : int;
  find_pct : int;
  key_range : int;
  prefill : int;
  max_crashes : int;
  seed : int;
  error : string;
  rounds : round list;
}

let magic = "tracking-nvm-repro v1"

let kind_name = function `Work -> "work" | `Recover -> "recover"

(* A round line is "<kind> <crash_at> <schedule>" with the write-back
   resolution appended as a fourth token only when it is not [`Rng]:
   files written before explicit resolutions existed stay valid. *)
let round_string rd =
  Printf.sprintf "%s %d %s%s" (kind_name rd.kind) rd.crash_at
    (Repro_file.schedule_to_string rd.schedule)
    (match rd.wb with
    | `Rng -> ""
    | wb -> " " ^ Pmem.resolution_to_string wb)

let pp ppf r =
  Repro_file.pp ~magic ppf
    ([
       ("algo", r.algo);
       ("threads", string_of_int r.threads);
       ("ops-per-thread", string_of_int r.ops_per_thread);
       ("find-pct", string_of_int r.find_pct);
       ("key-range", string_of_int r.key_range);
       ("prefill", string_of_int r.prefill);
       ("max-crashes", string_of_int r.max_crashes);
       ("seed", string_of_int r.seed);
       ("error", r.error);
     ]
    @ List.map (fun rd -> ("round", round_string rd)) r.rounds)

let save path r = Repro_file.save pp path r

(* ---- parsing ---------------------------------------------------------- *)

let parse_round line =
  match String.split_on_char ' ' line with
  | ([ kind; crash_at; sched ] | [ kind; crash_at; sched; _ ]) as fields -> (
      let kind =
        match kind with
        | "work" -> Ok `Work
        | "recover" -> Ok `Recover
        | k -> Error (Printf.sprintf "bad round kind %S" k)
      in
      let wb =
        match fields with
        | [ _; _; _; w ] -> Pmem.resolution_of_string w
        | _ -> Ok `Rng
      in
      match
        (kind, int_of_string_opt crash_at, Repro_file.schedule_of_string sched, wb)
      with
      | Ok kind, Some crash_at, Ok schedule, Ok wb ->
          Ok { kind; crash_at; schedule; wb }
      | (Error _ as e), _, _, _ -> e
      | _, None, _, _ -> Error (Printf.sprintf "bad crash point %S" crash_at)
      | _, _, (Error _ as e), _ -> e
      | _, _, _, (Error _ as e) -> e)
  | _ -> Error (Printf.sprintf "bad round line %S" line)

let fields =
  Repro_file.
    [
      text "algo" (fun r algo -> { r with algo });
      int "threads" (fun r threads -> { r with threads });
      int "ops-per-thread" (fun r ops_per_thread -> { r with ops_per_thread });
      int "find-pct" (fun r find_pct -> { r with find_pct });
      int "key-range" (fun r key_range -> { r with key_range });
      int "prefill" (fun r prefill -> { r with prefill });
      int "max-crashes" (fun r max_crashes -> { r with max_crashes });
      int "seed" (fun r seed -> { r with seed });
      text "error" (fun r error -> { r with error });
      (* rounds accumulate newest-first and are reversed once in [load] *)
      field ~repeat:true "round" (fun r v ->
          Result.map (fun rd -> { r with rounds = rd :: r.rounds }) (parse_round v));
    ]

let empty =
  {
    algo = "";
    threads = 0;
    ops_per_thread = 0;
    find_pct = 0;
    key_range = 0;
    prefill = 0;
    max_crashes = 0;
    seed = 0;
    error = "";
    rounds = [];
  }

let load path =
  match Repro_file.load ~what:"repro" ~magic fields empty path with
  | Error _ as e -> e
  | Ok r ->
      let r = { r with rounds = List.rev r.rounds } in
      (* A config a campaign could never have run is a vacuous repro:
         replaying it "passes" while reproducing nothing.  Reject it
         here so --replay fails loudly on corrupt or truncated files. *)
      if r.algo = "" then Error "missing algo field"
      else if r.threads <= 0 then Error "missing/invalid threads field"
      else if r.ops_per_thread <= 0 then
        Error "missing/invalid ops-per-thread field"
      else if r.key_range <= 0 then Error "missing/invalid key-range field"
      else if r.max_crashes <= 0 then Error "missing/invalid max-crashes field"
      else if r.prefill < 0 then Error "invalid prefill field"
      else if r.find_pct < 0 || r.find_pct > 100 then
        Error "invalid find-pct field"
      else Ok r
