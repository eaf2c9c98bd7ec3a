(** Minimal JSON reader (RFC 8259 subset, no dependency).  The trace
    writer hand-builds its JSON; tests and the CI checker use this
    independent reader to certify the output. *)

(** Parsed JSON values, for the few readers in the tree (query-log
    round-trips, profile checks); emitters still hand-build strings. *)
type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

(** Parse one complete JSON value (string escapes decoded). *)
val parse : string -> (value, string) result

(** Check one complete JSON value: {!parse} with the value dropped, so
    both report the same message and offset. *)
val validate : string -> (unit, string) result

(** First binding of [k] in an object; [None] otherwise. *)
val member : string -> value -> value option

(** Check line-delimited JSON: every non-empty line must be a standalone
    value.  Reports the first offending 1-based line. *)
val validate_lines : string -> (unit, string) result
