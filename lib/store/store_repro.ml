(* Replay files for failing serve runs, mirroring Harness.Repro's
   line-based format.  A serve is ONE Sim.run, so the file carries one
   recorded schedule instead of per-round lines; together with the
   config scalars and the seed it pins the client rng streams, the
   routing, the crash point and the write-back resolution, so a failure
   replays bit-for-bit.  Any schedule divergence on replay is fatal —
   the execution would no longer be the recorded one. *)

let magic = "tracking-nvm-serve v1"

type t = {
  algo : string;
  shards : int;
  clients : int;
  ops_per_client : int;
  batch : int;
  find_pct : int;
  key_range : int;
  prefill : int;
  skew : float option;  (* hot-set mass; None = uniform *)
  open_loop_ns : float option;
  crash : Store.crash_plan option;
  wb : [ `Rng | `Drop | `All | `Prefix of int ];
  (* Elastic-store fields.  All optional in the file with the defaults
     below, so pre-elastic repro files parse unchanged. *)
  wb2 : [ `Rng | `Drop | `All | `Prefix of int ] option;  (* default None *)
  backends : string list option;  (* per-shard algo names; default None *)
  replicate : bool;  (* default false *)
  failover_ns : float;  (* default 500 *)
  migrate : Store.migrate_plan option;  (* default None *)
  restart_ns : float;
  seed : int;
  error : string;
  schedule : int array;
}

let of_config (cfg : Store.config) ~error ~schedule =
  {
    algo = cfg.Store.factory.Set_intf.fname;
    shards = cfg.Store.shards;
    clients = cfg.Store.clients;
    ops_per_client = cfg.Store.ops_per_client;
    batch = cfg.Store.batch;
    find_pct = cfg.Store.workload.Workload.mix.Workload.find_pct;
    key_range = cfg.Store.workload.Workload.key_range;
    prefill = cfg.Store.workload.Workload.prefill_n;
    skew =
      (match cfg.Store.workload.Workload.dist with
      | Workload.Uniform -> None
      | Workload.Skewed { s; _ } -> Some s);
    open_loop_ns = cfg.Store.open_loop_ns;
    crash = cfg.Store.crash;
    wb = cfg.Store.wb;
    wb2 = cfg.Store.wb2;
    backends =
      Option.map
        (fun arr ->
          Array.to_list (Array.map (fun f -> f.Set_intf.fname) arr))
        cfg.Store.backends;
    replicate = cfg.Store.replicate;
    failover_ns = cfg.Store.failover_ns;
    migrate = cfg.Store.migrate;
    restart_ns = cfg.Store.restart_ns;
    seed = cfg.Store.seed;
    error;
    schedule;
  }

let config_of r =
  let ( let* ) = Result.bind in
  let resolve name =
    Result.map_error (Printf.sprintf "serve repro references %s")
      (Set_intf.by_name name)
  in
  let* factory = resolve r.algo in
  let* mix =
    match Workload.mix_of_find_pct r.find_pct with
    | mix -> Ok mix
    | exception Invalid_argument _ ->
        Error (Printf.sprintf "serve repro has invalid find-pct %d" r.find_pct)
  in
  let* dist =
    match r.skew with
    | None -> Ok Workload.Uniform
    | Some s -> (
        try Ok (Workload.skewed s) with Invalid_argument m -> Error m)
  in
  let* backends =
    match r.backends with
    | None -> Ok None
    | Some names ->
        List.fold_right
          (fun n acc ->
            let* f = resolve n in
            Result.map (List.cons f) acc)
          names (Ok [])
        |> Result.map (fun fs -> Some (Array.of_list fs))
  in
  Ok
    {
      Store.factory;
      backends;
      shards = r.shards;
      clients = r.clients;
      ops_per_client = r.ops_per_client;
      batch = r.batch;
      workload =
        { Workload.mix; key_range = r.key_range; prefill_n = r.prefill; dist };
      open_loop_ns = r.open_loop_ns;
      crash = r.crash;
      wb = r.wb;
      wb2 = r.wb2;
      restart_ns = r.restart_ns;
      failover_ns = r.failover_ns;
      replicate = r.replicate;
      migrate = r.migrate;
      seed = r.seed;
    }

(* ---- rendering --------------------------------------------------------- *)

let crash_string = function
  | None -> "none"
  | Some (Store.After_requests { victim; requests }) ->
      Printf.sprintf "after %d %d" victim requests
  | Some (Store.At_dispatch { victim; dispatch }) ->
      Printf.sprintf "dispatch %d %d" victim dispatch
  | Some (Store.Both_at_dispatch { a; b; dispatch }) ->
      Printf.sprintf "both %d %d %d" a b dispatch
  | Some (Store.Cascade { first; second; dispatch }) ->
      Printf.sprintf "cascade %d %d %d" first second dispatch

let pp ppf r =
  let opt f = function None -> "-" | Some v -> f v in
  Repro_file.pp ~magic ppf
    [
      ("algo", r.algo);
      ("shards", string_of_int r.shards);
      ("clients", string_of_int r.clients);
      ("ops-per-client", string_of_int r.ops_per_client);
      ("batch", string_of_int r.batch);
      ("find-pct", string_of_int r.find_pct);
      ("key-range", string_of_int r.key_range);
      ("prefill", string_of_int r.prefill);
      ( "dist",
        match r.skew with
        | None -> "uniform"
        | Some s -> Printf.sprintf "skew:%g" s );
      ("open-loop-ns", opt (Printf.sprintf "%g") r.open_loop_ns);
      ("crash", crash_string r.crash);
      ("wb", Pmem.resolution_to_string r.wb);
      ("wb2", opt Pmem.resolution_to_string r.wb2);
      ("backends", opt (String.concat ",") r.backends);
      ("replicate", if r.replicate then "1" else "0");
      ("failover-ns", Printf.sprintf "%g" r.failover_ns);
      ( "migrate",
        match r.migrate with
        | None -> "none"
        | Some { Store.msrc; m_after; m_broken } ->
            Printf.sprintf "%d %d %d" msrc m_after (if m_broken then 1 else 0) );
      ("restart-ns", Printf.sprintf "%g" r.restart_ns);
      ("seed", string_of_int r.seed);
      ("error", r.error);
      ("schedule", Repro_file.schedule_to_string r.schedule);
    ]

let save path r = Repro_file.save pp path r

(* ---- parsing ----------------------------------------------------------- *)

let parse_crash = function
  | "none" -> Ok None
  | s -> (
      let ints l = List.map int_of_string_opt l in
      match String.split_on_char ' ' s with
      | "after" :: args -> (
          match ints args with
          | [ Some victim; Some requests ] ->
              Ok (Some (Store.After_requests { victim; requests }))
          | _ -> Error (Printf.sprintf "bad crash plan %S" s))
      | "dispatch" :: args -> (
          match ints args with
          | [ Some victim; Some dispatch ] ->
              Ok (Some (Store.At_dispatch { victim; dispatch }))
          | _ -> Error (Printf.sprintf "bad crash plan %S" s))
      | "both" :: args -> (
          match ints args with
          | [ Some a; Some b; Some dispatch ] ->
              Ok (Some (Store.Both_at_dispatch { a; b; dispatch }))
          | _ -> Error (Printf.sprintf "bad crash plan %S" s))
      | "cascade" :: args -> (
          match ints args with
          | [ Some first; Some second; Some dispatch ] ->
              Ok (Some (Store.Cascade { first; second; dispatch }))
          | _ -> Error (Printf.sprintf "bad crash plan %S" s))
      | _ -> Error (Printf.sprintf "bad crash plan %S" s))

let parse_migrate = function
  | "none" -> Ok None
  | s -> (
      match List.map int_of_string_opt (String.split_on_char ' ' s) with
      | [ Some msrc; Some m_after; Some b ] when b = 0 || b = 1 ->
          Ok (Some { Store.msrc; m_after; m_broken = b = 1 })
      | _ -> Error (Printf.sprintf "bad migrate plan %S" s))

let parse_dist = function
  | "uniform" -> Ok None
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "skew" -> (
          match
            float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some v -> Ok (Some v)
          | None -> Error (Printf.sprintf "bad dist %S" s))
      | _ -> Error (Printf.sprintf "bad dist %S" s))

(* ["-"] is the absent value of the optional fields *)
let parse_opt parse = function
  | "-" -> Ok None
  | v -> Result.map Option.some (parse v)

let fields =
  let parsed key parse set =
    Repro_file.field key (fun r v -> Result.map (set r) (parse v))
  in
  Repro_file.
    [
      text "algo" (fun r algo -> { r with algo });
      int "shards" (fun r shards -> { r with shards });
      int "clients" (fun r clients -> { r with clients });
      int "ops-per-client" (fun r ops_per_client -> { r with ops_per_client });
      int "batch" (fun r batch -> { r with batch });
      int "find-pct" (fun r find_pct -> { r with find_pct });
      int "key-range" (fun r key_range -> { r with key_range });
      int "prefill" (fun r prefill -> { r with prefill });
      parsed "dist" parse_dist (fun r skew -> { r with skew });
      parsed "open-loop-ns"
        (parse_opt (fun v ->
             match float_of_string_opt v with
             | Some m when m > 0. -> Ok m
             | _ -> Error (Printf.sprintf "bad open-loop-ns %S" v)))
        (fun r open_loop_ns -> { r with open_loop_ns });
      parsed "crash" parse_crash (fun r crash -> { r with crash });
      parsed "wb" Pmem.resolution_of_string (fun r wb -> { r with wb });
      parsed "wb2" (parse_opt Pmem.resolution_of_string) (fun r wb2 ->
          { r with wb2 });
      parsed "backends"
        (parse_opt (fun v -> Ok (String.split_on_char ',' v)))
        (fun r backends -> { r with backends });
      parsed "replicate"
        (function
          | "0" -> Ok false
          | "1" -> Ok true
          | v -> Error (Printf.sprintf "bad replicate %S" v))
        (fun r replicate -> { r with replicate });
      float "failover-ns" (fun r failover_ns -> { r with failover_ns });
      parsed "migrate" parse_migrate (fun r migrate -> { r with migrate });
      float "restart-ns" (fun r restart_ns -> { r with restart_ns });
      int "seed" (fun r seed -> { r with seed });
      text "error" (fun r error -> { r with error });
      parsed "schedule" Repro_file.schedule_of_string (fun r schedule ->
          { r with schedule });
    ]

(* Unset required fields hold out-of-range sentinels so validation can
   name them; the elastic fields default here, so pre-elastic files
   parse unchanged. *)
let empty =
  {
    algo = "";
    shards = 0;
    clients = 0;
    ops_per_client = 0;
    batch = 0;
    find_pct = -1;
    key_range = 0;
    prefill = -1;
    skew = None;
    open_loop_ns = None;
    crash = None;
    wb = `Rng;
    wb2 = None;
    backends = None;
    replicate = false;
    failover_ns = 500.;
    migrate = None;
    restart_ns = -1.;
    seed = 0;
    error = "";
    schedule = [||];
  }

let load path =
  match Repro_file.load ~what:"serve repro" ~magic fields empty path with
  | Error _ as e -> e
  | Ok r ->
      if r.algo = "" then Error "missing algo field"
      else if r.shards <= 0 then Error "missing/invalid shards field"
      else if r.clients <= 0 then Error "missing/invalid clients field"
      else if r.ops_per_client <= 0 then
        Error "missing/invalid ops-per-client field"
      else if r.batch <= 0 then Error "missing/invalid batch field"
      else if r.find_pct < 0 || r.find_pct > 100 then
        Error "missing/invalid find-pct field"
      else if r.key_range <= 0 then Error "missing/invalid key-range field"
      else if r.prefill < 0 then Error "missing/invalid prefill field"
      else if r.restart_ns < 0. then Error "missing/invalid restart-ns field"
      else if r.failover_ns < 0. then Error "invalid failover-ns field"
      else Ok r

(* ---- replay ------------------------------------------------------------ *)

(* Re-run the recorded serve under its schedule.  A diverged schedule
   means the run was not the recorded execution; lost requests are the
   failure a serve records. *)
let rerun r cfg =
  match Store.run ~schedule:r.schedule cfg with
  | Ok report when report.Slo.divergences > 0 ->
      `Diverged
        (Printf.sprintf
           "schedule divergence (%d entries not honored): the replay executed \
            a different interleaving"
           report.Slo.divergences)
  | Ok report when report.Slo.lost > 0 ->
      `Failed (Printf.sprintf "%d lost requests" report.Slo.lost)
  | Ok _ -> `Passed
  | Error error -> `Failed error

let replay r =
  match config_of r with
  | Error _ as e -> e
  | Ok cfg -> (
      match rerun r cfg with
      | `Passed -> Ok ()
      | `Diverged msg | `Failed msg -> Error msg)

let explain r =
  match config_of r with
  | Error _ as e -> e
  | Ok cfg ->
      Forensics.explain_replay ~algo:r.algo ~seed:r.seed ~recorded:r.error
        (fun () -> rerun r cfg)
