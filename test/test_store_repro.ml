(* Serve replay files ("tracking-nvm-serve v1"): every malformed file is
   rejected with a message naming the problem, and every well-formed
   value survives pp -> load unchanged. *)

let with_temp_file f =
  let path = Filename.temp_file "tracking-nvm-serve" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let load_text text =
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text);
      Store_repro.load path)

let base =
  Store_repro.of_config
    {
      (Store.default_config Set_intf.tracking) with
      Store.crash = Some (Store.After_requests { victim = 1; requests = 9 });
    }
    ~error:"3 lost requests" ~schedule:[| 0; 1; 1; 2 |]

let base_lines =
  String.split_on_char '\n' (Format.asprintf "%a" Store_repro.pp base)

let has_key key line =
  let p = key ^ " " in
  String.length line >= String.length p
  && String.sub line 0 (String.length p) = p

(* [key] set to [value] in the base file, or dropped with [None] *)
let edit key value =
  String.concat "\n"
    (List.filter_map
       (fun line ->
         if has_key key line then Option.map (fun v -> key ^ " " ^ v) value
         else Some line)
       base_lines)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_base_loads () =
  match load_text (String.concat "\n" base_lines) with
  | Ok r -> Alcotest.(check bool) "base round-trips" true (r = base)
  | Error e -> Alcotest.failf "base file rejected: %s" e

let test_malformed_corpus () =
  let file = String.concat "\n" base_lines in
  let cases =
    [
      ("empty file", "", "empty serve repro file");
      ("bad magic", "tracking-nvm-repro v1\n" ^ file, "not a serve repro file");
      ("duplicate field", file ^ "shards 3\n", "duplicate field \"shards\"");
      ("unknown field", file ^ "wibble 1\n", "unknown field \"wibble\"");
      ("bad integer", edit "shards" (Some "two"), "bad integer");
      ("bad number", edit "failover-ns" (Some "fast"), "bad number");
      ("bad crash kind", edit "crash" (Some "explode 1 2"), "bad crash plan");
      ("bad crash arg", edit "crash" (Some "after x 3"), "bad crash plan");
      ("short crash plan", edit "crash" (Some "both 0 1"), "bad crash plan");
      ("bad wb", edit "wb" (Some "sometimes"), "bad write-back resolution");
      ("bad wb prefix", edit "wb" (Some "prefix:0"), "bad write-back resolution");
      ("bad wb2", edit "wb2" (Some "prefix:x"), "bad write-back resolution");
      ("bad migrate flag", edit "migrate" (Some "0 3 2"), "bad migrate plan");
      ("short migrate", edit "migrate" (Some "0 3"), "bad migrate plan");
      ("bad dist kind", edit "dist" (Some "zipf"), "bad dist");
      ("bad dist mass", edit "dist" (Some "skew:abc"), "bad dist");
      ("bad replicate", edit "replicate" (Some "yes"), "bad replicate");
      ("bad open-loop-ns", edit "open-loop-ns" (Some "-3"), "bad open-loop-ns");
      ("bad schedule", edit "schedule" (Some "1,x"), "bad schedule");
      ("missing algo", edit "algo" None, "missing algo field");
      ("missing shards", edit "shards" None, "missing/invalid shards field");
      ("zero shards", edit "shards" (Some "0"), "missing/invalid shards field");
      ("missing clients", edit "clients" None, "missing/invalid clients field");
      ("zero clients", edit "clients" (Some "0"), "missing/invalid clients field");
      ( "missing ops-per-client",
        edit "ops-per-client" None,
        "missing/invalid ops-per-client field" );
      ("missing batch", edit "batch" None, "missing/invalid batch field");
      ("zero batch", edit "batch" (Some "0"), "missing/invalid batch field");
      ("missing find-pct", edit "find-pct" None, "missing/invalid find-pct field");
      ( "find-pct out of range",
        edit "find-pct" (Some "101"),
        "missing/invalid find-pct field" );
      ( "missing key-range",
        edit "key-range" None,
        "missing/invalid key-range field" );
      ("missing prefill", edit "prefill" None, "missing/invalid prefill field");
      ( "negative prefill",
        edit "prefill" (Some "-1"),
        "missing/invalid prefill field" );
      ( "missing restart-ns",
        edit "restart-ns" None,
        "missing/invalid restart-ns field" );
      ( "negative failover-ns",
        edit "failover-ns" (Some "-1"),
        "invalid failover-ns field" );
    ]
  in
  List.iter
    (fun (name, text, want) ->
      match load_text text with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error e ->
          if not (contains ~needle:want e) then
            Alcotest.failf "%s: error %S does not mention %S" name e want)
    cases

(* Generated values stay inside what the format can spell: floats are
   written with %g (six significant digits), values are single-line and
   carry no surrounding blanks, and a backend list is never empty. *)
let gen_repro =
  let open QCheck2.Gen in
  let name = oneofl [ "tracking"; "tracking-hash"; "memento-list"; "rqueue-topic" ] in
  let gen_wb =
    oneof
      [
        oneofl [ `Rng; `Drop; `All ];
        map (fun k -> `Prefix k) (int_range 1 9);
      ]
  in
  let whole = map float_of_int (int_range 0 99_999) in
  let gen_crash =
    opt
      (oneof
         [
           map2 (fun victim requests -> Store.After_requests { victim; requests })
             nat nat;
           map2 (fun victim dispatch -> Store.At_dispatch { victim; dispatch })
             nat nat;
           map3 (fun a b dispatch -> Store.Both_at_dispatch { a; b; dispatch })
             nat nat nat;
           map3
             (fun first second dispatch ->
               Store.Cascade { first; second; dispatch })
             nat nat nat;
         ])
  in
  let gen_migrate =
    opt
      (map3
         (fun msrc m_after m_broken -> { Store.msrc; m_after; m_broken })
         nat nat bool)
  in
  let gen_error =
    map String.trim
      (string_size ~gen:(oneofl [ 'a'; 'z'; ' '; ':'; '-'; '%'; '"' ])
         (int_range 0 20))
  in
  let* algo = name in
  let* shards = int_range 1 8 in
  let* clients = int_range 1 8 in
  let* ops_per_client = int_range 1 500 in
  let* batch = int_range 1 4 in
  let* find_pct = int_range 0 100 in
  let* key_range = int_range 1 1000 in
  let* prefill = int_range 0 1000 in
  let* skew = opt (map (fun k -> float_of_int k /. 100.) (int_range 20 99)) in
  let* open_loop_ns = opt (map float_of_int (int_range 1 99_999)) in
  let* crash = gen_crash in
  let* wb = gen_wb in
  let* wb2 = opt gen_wb in
  let* backends = opt (list_size (int_range 1 4) name) in
  let* replicate = bool in
  let* failover_ns = whole in
  let* migrate = gen_migrate in
  let* restart_ns = whole in
  let* seed = int in
  let* error = gen_error in
  let+ schedule = array_size (int_range 0 30) (int_range 0 7) in
  {
    Store_repro.algo;
    shards;
    clients;
    ops_per_client;
    batch;
    find_pct;
    key_range;
    prefill;
    skew;
    open_loop_ns;
    crash;
    wb;
    wb2;
    backends;
    replicate;
    failover_ns;
    migrate;
    restart_ns;
    seed;
    error;
    schedule;
  }

let prop_pp_load_roundtrip =
  QCheck2.Test.make ~name:"serve repro pp/load round-trip" ~count:200
    ~print:(Format.asprintf "%a" Store_repro.pp)
    gen_repro
    (fun r ->
      with_temp_file (fun path ->
          Store_repro.save path r;
          match Store_repro.load path with
          | Error e -> QCheck2.Test.fail_reportf "load failed: %s" e
          | Ok r' -> r = r'))

let suite =
  [
    Alcotest.test_case "well-formed file loads" `Quick test_base_loads;
    Alcotest.test_case "malformed corpus rejected" `Quick test_malformed_corpus;
    QCheck_alcotest.to_alcotest prop_pp_load_roundtrip;
  ]
