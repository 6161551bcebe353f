(** The line format shared by both replay-file kinds: campaign repros
    ({!Repro}, magic ["tracking-nvm-repro v1"]) and serve repros
    ([Store_repro], magic ["tracking-nvm-serve v1"]).

    A file is its magic line followed by one [key value] line per field
    (the value is the rest of the line after the first space; blank lines
    are skipped).  This module owns everything the two kinds have in
    common — the magic check, the key/value split, duplicate-field
    rejection, int and float fields, first-error reporting, one-line
    values, saving, and the spelling of schedules — and replaces the
    copies each kind used to carry.  Write-back resolutions are spelled
    by {!Pmem.resolution_to_string} / {!Pmem.resolution_of_string}.  The
    format itself is documented in DESIGN.md ("Replay-file format"). *)

val schedule_to_string : int array -> string
(** Comma-separated tids, or ["-"] for an empty schedule. *)

val schedule_of_string : string -> (int array, string) result
(** Inverse of {!schedule_to_string} (an empty value also reads as
    empty). *)

(** {1 Writing} *)

val pp : magic:string -> Format.formatter -> (string * string) list -> unit
(** The magic line, then one [key value] line per pair, in order.
    Newlines inside a value are flattened to spaces so every field stays
    on its line. *)

val save : (Format.formatter -> 'a -> unit) -> string -> 'a -> unit
(** [save pp path v] writes [pp v] to [path]. *)

(** {1 Reading} *)

type 'a field
(** How one key updates the value being built. *)

val field :
  ?repeat:bool -> string -> ('a -> string -> ('a, string) result) -> 'a field
(** [field key set]: [set acc value] parses the raw value.  A key may
    appear once unless [repeat] (default [false]); a second occurrence is
    ["duplicate field"]. *)

val text : string -> ('a -> string -> 'a) -> 'a field
(** A raw string value. *)

val int : string -> ('a -> int -> 'a) -> 'a field
(** An integer value (["bad integer"] otherwise). *)

val float : string -> ('a -> float -> 'a) -> 'a field
(** A float value (["bad number"] otherwise). *)

val load :
  what:string -> magic:string -> 'a field list -> 'a -> string ->
  ('a, string) result
(** [load ~what ~magic fields init path] folds the file's fields into
    [init].  The first problem wins: an unreadable file, ["empty <what>
    file"], ["not a <what> file (expected <magic>)"], an unknown or
    duplicate key, or a value its field rejects.  Validating the result
    is the caller's job. *)
