(* Host-time spans recorded by the benchmark around its calls into each
   layer, their self-time arithmetic, the percentile rule used for every
   reported timing, and the Chrome trace_event export of a traced run.

   Spans nest on one stack (the benchmark is sequential, -j 1).  Besides
   child spans, a span accumulates "leaf" time: structure-call segments
   timed by [Wrap] while the span is the innermost one open.  Self time
   is a span's duration minus its children's coverage minus its leaf
   time. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  mutable t1 : float;
  mutable leaf_s : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;
  mutable next_id : int;
}

let create () = { spans = []; stack = []; next_id = 0 }

let enter p ~layer name =
  let parent = match p.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = p.next_id; name; layer; parent; t0 = now (); t1 = nan; leaf_s = 0. }
  in
  p.next_id <- p.next_id + 1;
  p.spans <- s :: p.spans;
  p.stack <- s :: p.stack

let leave p =
  match p.stack with
  | s :: rest ->
      s.t1 <- now ();
      p.stack <- rest
  | [] -> invalid_arg "Prof.leave: no open span"

(* [span (Some p) ~layer name f] runs [f] inside a span; [None] is the
   untraced path and costs nothing. *)
let span p ~layer name f =
  match p with
  | None -> f ()
  | Some p ->
      enter p ~layer name;
      Fun.protect ~finally:(fun () -> leave p) f

let add_leaf p dt =
  match p.stack with s :: _ -> s.leaf_s <- s.leaf_s +. dt | [] -> ()

let spans p = List.rev p.spans

(* ---- self time --------------------------------------------------------- *)

(* Total length covered by a set of intervals (overlaps counted once). *)
let union_length ivs =
  let sorted = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

let duration s = s.t1 -. s.t0

(* Self time of every span: duration minus the union of its children's
   intervals (clipped to the span) minus its leaf time. *)
let self_times spans =
  List.map
    (fun s ->
      let kids =
        List.filter_map
          (fun c ->
            if c.parent = s.id then
              Some (Float.max c.t0 s.t0, Float.min c.t1 s.t1)
            else None)
          spans
      in
      (s, duration s -. union_length kids -. s.leaf_s))
    spans

(* Self time per layer, with all leaf time under "structures".  Layers
   appear in first-seen order. *)
let layer_self spans =
  let order = ref [] and tbl = Hashtbl.create 8 in
  let add layer v =
    if not (Hashtbl.mem tbl layer) then order := layer :: !order;
    Hashtbl.replace tbl layer
      (v +. Option.value (Hashtbl.find_opt tbl layer) ~default:0.)
  in
  List.iter
    (fun (s, self) ->
      add s.layer self;
      if s.leaf_s > 0. then add "structures" s.leaf_s)
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* ---- percentiles ------------------------------------------------------- *)

(* Nearest-rank quantile of a sample (rank ceil(q n), 1-based). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Prof.quantile: empty sample";
  let a = Array.copy xs in
  Array.sort compare a;
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (r - 1)))

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Prof.median: empty sample";
  let a = Array.copy xs in
  Array.sort compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail_candidates = [ 0.999; 0.99; 0.95; 0.9; 0.5 ]

(* The highest percentile with at least ten samples beyond it: the
   nearest-rank rank r = ceil(q n) leaves n - r samples above it.  [None]
   when even the median has fewer than ten beyond (n < 21). *)
let tail xs =
  let n = Array.length xs in
  List.find_map
    (fun q ->
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      if n - r >= 10 then Some (q, quantile xs q) else None)
    tail_candidates

(* ---- Chrome trace_event export ---------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One complete ("X") event per span on a single track, timestamps in µs
   from the first span; self and leaf times ride along as args.  The
   output loads in ui.perfetto.dev and chrome://tracing. *)
let chrome_trace spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let selfs = self_times spans in
  let ev (s, self) =
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_ms\":%.3f,\"structures_ms\":%.3f}}"
      (json_string s.name) (json_string s.layer)
      ((s.t0 -. base) *. 1e6)
      (duration s *. 1e6) (self *. 1e3) (s.leaf_s *. 1e3)
  in
  Printf.sprintf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s\n]}\n"
    (String.concat ",\n" (List.map ev selfs))
