(* JSONL trace -> Chrome trace_event JSON (Perfetto-openable).

   The simulator restarts every per-thread clock at 0 on each Sim.run, so
   a campaign's rounds all start at t=0.  The converter keeps a running
   offset: when a round boundary (or end of input) is reached, the
   maximum clock observed inside the round becomes the start of the next
   one, giving one continuous virtual timeline.  Spans still open at a
   crash or round boundary are emitted as slices ending at the round's
   maximum clock and tagged "interrupted". *)

type stats = { out_spans : int; out_threads : int; in_events : int }

let us_of_ns ns = ns /. 1000.

(* ---- conversion -------------------------------------------------------- *)

type open_span = { os_kind : string; os_key : int; os_begin : float }

let convert ~jsonl ~out =
  match
    try Ok (In_channel.with_open_text jsonl In_channel.input_all)
    with Sys_error m -> Error m
  with
  | Error m -> Error m
  | Ok text -> (
      match (try Ok (open_out out) with Sys_error m -> Error m) with
      | Error m -> Error m
      | Ok oc ->
          let first = ref true in
          let raw s =
            if !first then first := false else output_string oc ",\n  ";
            output_string oc s
          in
          output_string oc "{\"traceEvents\":[\n  ";
          let offset = ref 0. in
          let round_max = ref 0. in
          let opens : (int, open_span) Hashtbl.t = Hashtbl.create 16 in
          let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
          (* crash-recovery flow arrows: a span interrupted by a crash
             opens a flow (ph:"s") that the thread's next "recover" span
             terminates (ph:"f"), visually linking one operation's
             attempts across crash/recovery rounds *)
          let pending_flow : (int, int) Hashtbl.t = Hashtbl.create 8 in
          (* cumulative per-heap occupancy, fed by "alloc" events and
             rendered as one memory counter track per heap *)
          let heap_lines : (string, int) Hashtbl.t = Hashtbl.create 4 in
          let flow_ids = ref 0 in
          let spans = ref 0 in
          let events = ref 0 in
          let see tid = if not (Hashtbl.mem seen tid) then Hashtbl.add seen tid () in
          let clockbump c = if c > !round_max then round_max := c in
          let now_global () = !offset +. !round_max in
          let span ~tid ~name ~ts ~dur ~args =
            incr spans;
            raw
              (Printf.sprintf
                 {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{%s}}|}
                 (Json.escape name) (us_of_ns ts) (us_of_ns dur) tid args)
          in
          let instant ~tid ~scope ~name ~ts ~args =
            raw
              (Printf.sprintf
                 {|{"name":"%s","ph":"i","ts":%.3f,"pid":1,"tid":%d,"s":"%s"%s}|}
                 (Json.escape name) (us_of_ns ts) tid scope
                 (if args = "" then "" else Printf.sprintf {|,"args":{%s}|} args))
          in
          let close_open_spans ?(flows = false) reason =
            (* tid-sorted so flow ids are assigned deterministically *)
            let bindings =
              Hashtbl.fold (fun tid os acc -> (tid, os) :: acc) opens []
              |> List.sort compare
            in
            List.iter
              (fun (tid, os) ->
                let e = !offset +. !round_max in
                let b = !offset +. os.os_begin in
                span ~tid
                  ~name:(Printf.sprintf "%s(%d) (%s)" os.os_kind os.os_key reason)
                  ~ts:b
                  ~dur:(Float.max 0. (e -. b))
                  ~args:{|"interrupted":true|};
                if flows then begin
                  incr flow_ids;
                  Hashtbl.replace pending_flow tid !flow_ids;
                  raw
                    (Printf.sprintf
                       {|{"name":"crash-recovery","cat":"recovery","ph":"s","id":%d,"ts":%.3f,"pid":1,"tid":%d}|}
                       !flow_ids (us_of_ns e) tid)
                end)
              bindings;
            Hashtbl.reset opens
          in
          let on_line fields =
            incr events;
            match Json.fstr "ev" fields with
            | Some "sched" ->
                Option.iter see (Json.fint "tid" fields);
                Option.iter clockbump (Json.fnum "clock" fields)
            | Some "op_begin" -> (
                match
                  (Json.fint "tid" fields, Json.fstr "kind" fields, Json.fint "key" fields,
                   Json.fnum "clock" fields)
                with
                | Some tid, Some kind, Some key, Some clock ->
                    see tid;
                    clockbump clock;
                    (match Hashtbl.find_opt pending_flow tid with
                    | Some id when kind = "recover" ->
                        Hashtbl.remove pending_flow tid;
                        raw
                          (Printf.sprintf
                             {|{"name":"crash-recovery","cat":"recovery","ph":"f","bp":"e","id":%d,"ts":%.3f,"pid":1,"tid":%d}|}
                             id
                             (us_of_ns (!offset +. clock))
                             tid)
                    | _ -> ());
                    Hashtbl.replace opens tid
                      { os_kind = kind; os_key = key; os_begin = clock }
                | _ -> ())
            | Some "op_end" -> (
                match (Json.fint "tid" fields, Json.fnum "clock" fields) with
                | Some tid, Some clock -> (
                    see tid;
                    clockbump clock;
                    match Hashtbl.find_opt opens tid with
                    | None -> ()
                    | Some os ->
                        Hashtbl.remove opens tid;
                        let ok = Option.value ~default:false (Json.fbool "ok" fields) in
                        let cf = Option.value ~default:0 (Json.fint "cas_fail" fields) in
                        let helped =
                          Option.value ~default:false (Json.fbool "helped" fields)
                        in
                        span ~tid
                          ~name:(Printf.sprintf "%s(%d)" os.os_kind os.os_key)
                          ~ts:(!offset +. os.os_begin)
                          ~dur:(Float.max 0. (clock -. os.os_begin))
                          ~args:
                            (Printf.sprintf
                               {|"ok":%b,"cas_failures":%d,"helped":%b,"key":%d|}
                               ok cf helped os.os_key))
                | _ -> ())
            | Some "cas" -> (
                match (Json.fint "tid" fields, Json.fnum "clock" fields) with
                | Some tid, Some clock ->
                    see tid;
                    clockbump clock;
                    if Json.fbool "ok" fields = Some false then
                      instant ~tid ~scope:"t"
                        ~name:
                          (Printf.sprintf "cas-fail %s"
                             (Option.value ~default:"?" (Json.fstr "line" fields)))
                        ~ts:(!offset +. clock) ~args:""
                | _ -> ())
            | Some (("pwb" | "pfence" | "psync") as kind) -> (
                match (Json.fint "tid" fields, Json.fnum "clock" fields) with
                | Some tid, Some clock ->
                    see tid;
                    clockbump clock;
                    let site = Option.value ~default:"?" (Json.fstr "site" fields) in
                    let args =
                      match Json.fstr "impact" fields with
                      | Some i -> Printf.sprintf {|"impact":"%s"|} (Json.escape i)
                      | None -> ""
                    in
                    instant ~tid ~scope:"t"
                      ~name:(Printf.sprintf "%s %s" kind site)
                      ~ts:(!offset +. clock) ~args
                | _ -> ())
            | Some "crash" ->
                close_open_spans ~flows:true "interrupted";
                instant ~tid:0 ~scope:"g" ~name:"crash" ~ts:(now_global ())
                  ~args:""
            | Some "alloc" -> (
                match (Json.fstr "heap" fields, Json.fnum "clock" fields) with
                | Some heap, Some clock ->
                    clockbump clock;
                    let n =
                      1 + Option.value ~default:0 (Hashtbl.find_opt heap_lines heap)
                    in
                    Hashtbl.replace heap_lines heap n;
                    raw
                      (Printf.sprintf
                         {|{"name":"heap %s occupancy (lines)","ph":"C","ts":%.3f,"pid":1,"args":{"lines":%d}}|}
                         (Json.escape heap)
                         (us_of_ns (!offset +. clock))
                         n)
                | _ -> ())
            | Some "win" -> (
                (* per-shard windowed time-series -> counter tracks *)
                match
                  (Json.fint "sid" fields, Json.fnum "start" fields,
                   Json.fint "completions" fields, Json.fnum "mops" fields)
                with
                | Some sid, Some start, Some _, Some mops ->
                    let ts = us_of_ns (!offset +. start) in
                    raw
                      (Printf.sprintf
                         {|{"name":"shard %d throughput (Mops/s)","ph":"C","ts":%.3f,"pid":1,"args":{"mops":%.6f}}|}
                         sid ts mops);
                    (match Json.fnum "lat_mean" fields with
                    | Some lat ->
                        raw
                          (Printf.sprintf
                             {|{"name":"shard %d latency (ns)","ph":"C","ts":%.3f,"pid":1,"args":{"ns":%.1f}}|}
                             sid ts lat)
                    | None -> ())
                | _ -> ())
            | Some "round" ->
                close_open_spans "interrupted";
                offset := now_global ();
                round_max := 0.;
                let kind = Option.value ~default:"?" (Json.fstr "kind" fields) in
                let nr = Option.value ~default:0 (Json.fint "n" fields) in
                instant ~tid:0 ~scope:"g"
                  ~name:(Printf.sprintf "round %d (%s)" nr kind)
                  ~ts:!offset ~args:""
            | Some "note" ->
                instant ~tid:0 ~scope:"g"
                  ~name:(Option.value ~default:"note" (Json.fstr "msg" fields))
                  ~ts:(now_global ()) ~args:""
            | _ -> ()
          in
          let err = ref None in
          let lineno = ref 0 in
          String.split_on_char '\n' text
          |> List.iter (fun line ->
                 incr lineno;
                 if !err = None && String.length line > 0 then
                   match Json.parse line with
                   | Error m ->
                       err :=
                         Some (Printf.sprintf "%s:%d: %s" jsonl !lineno m)
                   | Ok (Json.Obj fields) -> on_line fields
                   | Ok _ ->
                       err :=
                         Some
                           (Printf.sprintf "%s:%d: not a JSON object" jsonl
                              !lineno));
          (match !err with
          | Some _ -> ()
          | None ->
              close_open_spans "unfinished";
              Hashtbl.iter
                (fun tid () ->
                  raw
                    (Printf.sprintf
                       {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"thread %d"}}|}
                       tid tid))
                seen;
              raw
                {|{"name":"process_name","ph":"M","pid":1,"args":{"name":"simulated multicore"}}|});
          output_string oc "\n]}\n";
          close_out oc;
          match !err with
          | Some m ->
              (try Sys.remove out with Sys_error _ -> ());
              Error m
          | None ->
              Ok
                {
                  out_spans = !spans;
                  out_threads = Hashtbl.length seen;
                  in_events = !events;
                })

(* ---- validation -------------------------------------------------------- *)

let validate_file file =
  match
    try Ok (In_channel.with_open_text file In_channel.input_all)
    with Sys_error m -> Error m
  with
  | Error m -> Error m
  | Ok text -> (
      match Json.parse text with
      | Error m -> Error (Printf.sprintf "%s: %s" file m)
      | Ok (Json.Obj fields) -> (
          match Json.field "traceEvents" fields with
          | Some (Json.Arr evs) ->
              let spans_per_tid : (int, int) Hashtbl.t = Hashtbl.create 16 in
              let tracks : (int, unit) Hashtbl.t = Hashtbl.create 16 in
              let spans = ref 0 in
              List.iter
                (fun ev ->
                  match ev with
                  | Json.Obj f -> (
                      match (Json.fstr "ph" f, Json.fint "tid" f) with
                      | Some "X", Some tid ->
                          incr spans;
                          Hashtbl.replace spans_per_tid tid
                            (1
                            + Option.value ~default:0
                                (Hashtbl.find_opt spans_per_tid tid))
                      | Some "M", Some tid
                        when Json.fstr "name" f = Some "thread_name" ->
                          Hashtbl.replace tracks tid ()
                      | _ -> ())
                  | _ -> ())
                evs;
              if Hashtbl.length tracks = 0 then
                Error (file ^ ": no thread tracks")
              else begin
                let missing =
                  Hashtbl.fold
                    (fun tid () acc ->
                      if Hashtbl.mem spans_per_tid tid then acc else tid :: acc)
                    tracks []
                in
                match List.sort compare missing with
                | [] ->
                    Ok
                      {
                        out_spans = !spans;
                        out_threads = Hashtbl.length tracks;
                        in_events = List.length evs;
                      }
                | tid :: _ ->
                    Error
                      (Printf.sprintf
                         "%s: thread %d has no complete span" file tid)
              end
          | _ -> Error (file ^ ": no traceEvents array"))
      | Ok _ -> Error (file ^ ": not a JSON object"))
