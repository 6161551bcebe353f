(** Crash forensics: operation lineage, durable-vs-volatile state diffs
    at crash points, and automatic postmortems for failing campaigns.

    The recorder is a third, independent observer on [Pmem] (next to the
    tracer and the metrics collector): while active it attributes every
    CAS, write and issued write-back to the operation open on the
    issuing thread, follows each write-back to its fate (drained,
    persisted-at-crash or dropped-at-crash, with the crash resolution
    that decided it), and pairs [Pmem]'s per-crash reports with campaign
    rounds.  {!build} turns the recording plus the failure message into
    an immutable postmortem whose text/JSON renderings are
    deterministic: byte-identical across replays of the same repro and
    across [-j] settings, because a postmortem is always produced by a
    dedicated forensic replay on one domain.

    Everything is a no-op while the recorder is inactive (the default):
    the hooks are [None] so [Pmem] constructs no events, and the harness
    entry points return after one domain-local read — campaigns run with
    zero forensics cost. *)

val start : unit -> unit
(** Install a fresh recorder on the calling domain (forensics + write-
    back observer hooks on the current [Pmem] instance). *)

val stop : unit -> unit
(** Uninstall the hooks and drop the recording.  Idempotent. *)

val active : unit -> bool

(** {1 Harness entry points}

    Called by [Crashes] and [Store]/[Shard] alongside the corresponding
    [Metrics]/[Trace] calls; all no-ops when the recorder is off. *)

val op_begin : tid:int -> kind:string -> key:int -> unit
(** Announce an operation on [tid].  If an operation is still open on
    this thread it is recorded as interrupted (it never returned). *)

val op_end : tid:int -> ok:bool -> unit

val round : kind:[ `Work | `Recover ] -> int -> unit
(** Campaign-round boundary. *)

val note_crash : round:int -> unit
(** Attribute the crash that just happened ([Pmem.crash] has returned)
    to [round]. *)

(** {1 Postmortems} *)

type postmortem

val build : algo:string -> seed:int -> error:string -> postmortem
(** Reconstruct the postmortem from the active recording, [Pmem]'s crash
    reports and the failure message: per-crash persisted/dropped
    write-back fates and the never-persisted-line diff, a culprit
    analysis (parsing the poisoned line or violated key out of [error],
    naming registered-but-disabled persist sites), and the lineage of
    the operations touching the failure.  Call before {!stop}.

    @raise Invalid_argument when the recorder is not active. *)

val explain_replay :
  algo:string ->
  seed:int ->
  recorded:string ->
  (unit -> [ `Diverged of string | `Passed | `Failed of string ]) ->
  (postmortem, string) result
(** [explain_replay ~algo ~seed ~recorded replay] runs [replay] under the
    recorder and builds the postmortem of its failure.  A postmortem must
    describe the recorded execution, so a diverged schedule, a passing
    replay and a failure other than [recorded] are each an [Error].  The
    one explain path of both replay-file kinds. *)

val render_text : postmortem -> string
(** Human-readable postmortem; deterministic byte-for-byte. *)

val render_json : postmortem -> string
(** The same postmortem as one JSON object; deterministic. *)

val error : postmortem -> string

val disabled_sites : postmortem -> string list
(** The registered-but-disabled persist sites observed after the
    forensic replay, sorted — a negative control's elided flush shows up
    here by name. *)
