(** Structured event tracing: installs the [Sim] and [Pmem] observability
    hooks and writes one JSON object per line (JSONL).  Schema (documented
    in DESIGN.md):

    - [{"ev":"sched","step":N,"tid":T,"clock":C}] — scheduling decision
    - [{"ev":"crash","step":N}] — system-wide crash boundary
    - [{"ev":"read","tid":T,"line":L,"hit":B}] — memory read
    - [{"ev":"write","tid":T,"line":L,"hit":B,"inv":I}] — memory write
      ([inv] = other caches invalidated by the store)
    - [{"ev":"cas","tid":T,"line":L,"ok":B,"inv":I,"clock":C}] — CAS outcome
    - [{"ev":"pwb","tid":T,"site":S,"impact":"low"|"medium"|"high","clock":C,"line":L}]
      ([line] = the cache line being written back — write provenance)
    - [{"ev":"pfence"|"psync","tid":T,"site":S,"clock":C}]
    - [{"ev":"round","n":N,"kind":"work"|"recover"}] — campaign round
    - [{"ev":"note","msg":M}] — freeform harness marker
    - [{"ev":"op_begin","tid":T,"kind":K,"key":N,"clock":C}] — operation span
    - [{"ev":"op_end","tid":T,"ok":B,"cas_fail":N,"helped":B,"clock":C}]
    - [{"ev":"win","sid":S,"index":I,"start":T0,"end":T1,"completions":N,
       "mops":V,"lat_mean":L}] — per-shard serve window (counter tracks)

    [clock] is the emitting thread's virtual clock in ns; it restarts at 0
    on every [Sim.run], so round boundaries re-base it (the Perfetto
    converter accumulates offsets).  Tracing off (the default) costs one
    domain-local read per instrumented operation and allocates nothing.

    The sink and the hooks it installs are {e domain-local}: a trace
    started on one domain records that domain's runs only.  Worker
    domains of a parallel campaign ([-j]) are not traced. *)

val active : unit -> bool

val start : string -> unit
(** Open [path] (truncating) and trace into it until {!stop}. *)

val stop : unit -> unit
(** Uninstall hooks and close the sink ([stdout]/[stderr] are left open).
    Idempotent. *)

val with_file : string -> (unit -> 'a) -> 'a
(** [with_file path f] traces [f ()] into [path], stopping on exit. *)

val round : kind:[ `Work | `Recover ] -> int -> unit
(** Campaign-round boundary (emitted by {!Crashes}); no-op when off. *)

val note : string -> unit

val win :
  sid:int ->
  index:int ->
  start_ns:float ->
  end_ns:float ->
  completions:int ->
  mops:float ->
  lat_mean_ns:float option ->
  unit
(** One shard's stats over one virtual-time window of a serve run
    (emitted by {!Store} after the SLO report is built); no-op when
    off. *)

val op_begin : tid:int -> kind:string -> key:int -> clock:float -> unit
(** Operation-span boundaries (emitted by {!Metrics}); no-ops when off. *)

val op_end :
  tid:int -> ok:bool -> cas_failures:int -> helped:bool -> clock:float -> unit
