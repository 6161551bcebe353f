(* The Json module: the escaper round-trips every byte string through the
   parser, and every JSON renderer of the tool emits a document the
   parser accepts — including for messages carrying non-ASCII and control
   bytes. *)

let parses what s =
  match Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s does not parse (%s): %s" what e s

(* Any byte string — control bytes, quotes, backslashes, bytes >= 0x80 —
   survives escape-then-parse unchanged. *)
let prop_escape_roundtrip =
  QCheck2.Test.make ~name:"parse (escape s) = s for any bytes" ~count:500
    ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun s ->
      match Json.parse ("\"" ^ Json.escape s ^ "\"") with
      | Ok (Json.Str s') -> s' = s
      | Ok _ -> QCheck2.Test.fail_report "parsed to a non-string"
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e)

let test_escape_spelling () =
  Alcotest.(check string) "escapes" {|\"\\\n\t\r\u0001é|}
    (Json.escape "\"\\\n\t\r\001é");
  Alcotest.(check string) "null for absent" "null" (Json.num "%.1f" None);
  Alcotest.(check string) "null for NaN" "null" (Json.num "%.6g" (Some nan));
  Alcotest.(check string) "caller's precision" "2.5" (Json.num "%.1f" (Some 2.5))

(* ---- every renderer emits valid JSON ----------------------------------- *)

let space_cfg =
  Space.
    {
      threads = 2;
      ops_per_thread = 10;
      find_pct = 20;
      key_range = 16;
      prefill = 4;
      max_crashes = 1;
      seed = 3;
    }

(* Space.render_json used to print strings with OCaml's %S, which is not
   JSON for non-ASCII or control bytes. *)
let test_space_error_message_escaped () =
  let rs = [ ("tracking", Error "bad \xe2\x80\x94 state\n\"quoted\"") ] in
  let doc = Space.render_json space_cfg rs in
  match Json.parse doc with
  | Error e -> Alcotest.failf "space JSON does not parse (%s): %s" e doc
  | Ok (Json.Obj fields) -> (
      match Json.field "variants" fields with
      | Some (Json.Arr [ Json.Obj v ]) ->
          Alcotest.(check (option string)) "error survives"
            (Some "bad \xe2\x80\x94 state\n\"quoted\"") (Json.fstr "error" v)
      | _ -> Alcotest.fail "no variants array")
  | Ok _ -> Alcotest.fail "space JSON is not an object"

let test_space_json () =
  parses "Space.render_json"
    (Space.render_json space_cfg
       (Space.campaign space_cfg [ Set_intf.tracking ]))

let test_forensics_json () =
  let r = Test_forensics.failing_repro Test_forensics.memento_broken_cfg in
  match Crashes.explain r with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok pm -> parses "Forensics.render_json" (Forensics.render_json pm)

let test_causal_json () =
  parses "Causal.to_json"
    (Causal.to_json
       (Causal.profile
          {
            (Causal.quick_config Set_intf.tracking Workload.update_intensive) with
            Causal.threads = 2;
            ops_per_thread = 10;
            factors = [ 0. ];
            mechanisms = [];
          }))

let test_metrics_json () =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      let cfg =
        {
          Crashes.factory = Set_intf.tracking;
          threads = 2;
          ops_per_thread = 8;
          workload =
            {
              (Workload.default Workload.update_intensive) with
              key_range = 16;
              prefill_n = 8;
            };
          max_crashes = 2;
        }
      in
      ignore (Crashes.run_once cfg ~seed:1 : (Crashes.outcome, string) result);
      parses "Report.metrics_json" (Report.metrics_json ()))

let test_slo_json () =
  let cfg =
    {
      (Store.default_config Set_intf.tracking) with
      Store.shards = 2;
      clients = 2;
      ops_per_client = 20;
      crash = Some (Store.After_requests { victim = 1; requests = 10 });
    }
  in
  match Store.run cfg with
  | Error e -> Alcotest.failf "serve failed: %s" e
  | Ok report -> parses "Slo.to_json" (Slo.to_json report)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    Alcotest.test_case "escape and number spelling" `Quick test_escape_spelling;
    Alcotest.test_case "space JSON escapes error messages" `Quick
      test_space_error_message_escaped;
    Alcotest.test_case "Space.render_json parses" `Quick test_space_json;
    Alcotest.test_case "Forensics.render_json parses" `Quick
      test_forensics_json;
    Alcotest.test_case "Causal.to_json parses" `Quick test_causal_json;
    Alcotest.test_case "Report.metrics_json parses" `Quick test_metrics_json;
    Alcotest.test_case "Slo.to_json parses" `Quick test_slo_json;
  ]
