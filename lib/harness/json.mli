(** JSON emit and parse for every document the tool writes: [--json]
    reports (stats, space, causal, serve), [explain --json] postmortems,
    the [Trace] JSONL stream and the Perfetto export.

    This is the only JSON string escaper and the only JSON parser in the
    tree.  It replaces the private escapers that [Trace], [Report],
    [Causal], [Forensics] and [Perfetto] each kept, the float-or-null
    helpers of [Causal], [Report] and [Slo], and the parser [Perfetto]
    kept for [--validate].  Documents are still assembled by their
    owners with [Printf]; this module only fixes how a string, an absent
    number and an incoming document are spelled. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): the
    double quote and the backslash are backslash-escaped, newline, tab
    and carriage return become [\n], [\t], [\r], every other byte below
    0x20 becomes [\u00XX], and all other bytes — including bytes >= 0x80
    — pass through. *)

val num : (float -> string, unit, string) format -> float option -> string
(** [num fmt v] prints a present number with the caller's [fmt] (each
    document keeps its own precision), and [None] or NaN as [null] —
    JSON has no NaN. *)

(** {1 Parsing} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Recursive-descent parse of one complete document; [Error] names the
    offset of the first syntax error, or trailing garbage.  A [\uXXXX]
    escape below 0x80 decodes to its byte; others are kept as written
    ({!escape} passes bytes >= 0x80 through and never writes one). *)

(** {2 Object field accessors}

    Each looks a key up in an object's field list and returns [None]
    when it is absent or of another type. *)

val field : string -> (string * t) list -> t option
val fnum : string -> (string * t) list -> float option
val fint : string -> (string * t) list -> int option
val fstr : string -> (string * t) list -> string option
val fbool : string -> (string * t) list -> bool option
