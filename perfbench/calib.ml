(* Machine-speed probe.  On a shared host the speed of this process
   drifts by tens of percent over seconds to minutes, and a round slows
   together with a fixed piece of OCaml work timed next to it.
   Expressing a round in units of the probe's time during that round
   gives a machine-relative time ("cal") that holds stiller than raw
   seconds from one run to the next.  Rounds probe at their start and
   end and at natural boundaries inside them, which cut the round into
   the same stretches every time.  A single probe can be off by a third,
   so a round is measured against its median probe.

   The probe inserts pseudo-random keys into a persistent binary search
   tree: short-lived allocation, pointer chasing and minor collections,
   the stuff the simulator's host time is made of.  Timed next to short
   pieces of each workload on a shared 2-vCPU host, its time followed
   theirs more closely (correlation 0.87-0.93 over windows of eight
   pieces) than a loop of integer work with cache-missing loads
   (0.64-0.87) or either alone, and halved the windows' spread where the
   loop cut it by a quarter.  It is fixed work, touches no simulator
   state, and allocates the same amount every time; [words] reports that
   amount so that rounds can leave it out of their allocation counts. *)

let probe_keys = 15_000

(* A probe's time in a fresh set-up process on the machine the
   benchmark was tuned on (2 vCPU, OCaml 5.1).  Calibrated set-up times
   this reads as seconds there; elsewhere it stays proportional to the
   work, not to the host's momentary speed. *)
let nominal_probe_s = 0.006

type tree = Leaf | Node of tree * int * tree

let rec insert t k =
  match t with
  | Leaf -> Node (Leaf, k, Leaf)
  | Node (l, x, r) ->
      if k < x then Node (insert l k, x, r)
      else if k > x then Node (l, x, insert r k)
      else t

let spin () =
  let t = ref Leaf and k = ref 0x2545F491 in
  for _ = 1 to probe_keys do
    k := ((!k * 1103515245) + 12345) land 0x3FFFFFFF;
    t := insert !t (!k lsr 10)
  done;
  ignore (Sys.opaque_identity !t)

(* minor and promoted words all probes so far allocated *)
let minor_words = ref 0.
let promoted_words = ref 0.

let words () = (!minor_words, !promoted_words)

(* Run one probe and return its time; its allocation goes to [words]. *)
let time_probe () =
  let m0, p0, _ = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  spin ();
  let t1 = Unix.gettimeofday () in
  let m1, p1, _ = Gc.counters () in
  minor_words := !minor_words +. (m1 -. m0);
  promoted_words := !promoted_words +. (p1 -. p0);
  t1 -. t0

(* (probe start, probe duration), newest first *)
let probes = ref []

let probe () =
  let t0 = Unix.gettimeofday () in
  let d = time_probe () in
  probes := (t0, d) :: !probes

let start () =
  probes := [];
  probe ()

(* Median probe time of the current round. *)
let probe_s () = Prof.median (Array.of_list (List.map snd !probes))

(* Close the round with one more probe and return its stretches, the
   times between consecutive probes (oldest first), in units of the
   round's median probe.  The probes themselves are not counted. *)
let finish () =
  probe ();
  let unit = probe_s () in
  let rec go acc = function
    | (s1, _) :: ((s0, d0) :: _ as rest) ->
        go (((s1 -. (s0 +. d0)) /. unit) :: acc) rest
    | _ -> acc
  in
  Array.of_list (go [] !probes)
