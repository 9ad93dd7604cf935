(** Bytewise diffs for the multiple-writer protocol.

    When a thread first writes a page of a cached line in an ordinary
    region, the cache keeps a pristine copy of that page (its {e twin}).
    At the next consistency point, the diff of the current contents
    against the twins — restricted to the pages actually written — travels
    to the line's home, which applies it. Two threads writing disjoint
    bytes of the same line (false sharing) produce disjoint diffs that
    merge cleanly at the home.

    {!make_paged} diffs against per-page twins, as the cache keeps them;
    {!make} diffs against one line-sized twin. Both run the same scan and
    give the same diff when the twins hold the same bytes. *)

type span = { offset : int; data : bytes }
(** A run of modified bytes at [offset] within the line. *)

type t = private {
  line : int;
  count : int;  (** Number of spans. *)
  offs : int array;  (** Span offsets within the line, ascending. *)
  lens : int array;  (** Span lengths, parallel to [offs]. *)
  payload : bytes;  (** Span bytes, concatenated in offset order. *)
}
(** Spans are packed — boundaries in two int arrays, changed bytes in one
    concatenated buffer — so building a diff costs a fixed handful of
    allocations however fragmented the line is. Use {!spans} for the
    materialised per-span view. *)

val make :
  Layout.t -> line:int -> twin:bytes -> current:bytes -> dirty_pages:int -> t
(** Compare [current] against [twin] within the pages set in the
    [dirty_pages] bitmask. Spans are byte-exact: only changed bytes are
    carried, so concurrent writers of disjoint bytes — even interleaved
    within one word — merge correctly at the home. Raises
    [Invalid_argument] if the buffers are not line-sized. *)

val make_paged :
  Layout.t -> line:int -> twins:bytes array -> current:bytes ->
  dirty_pages:int -> t
(** {!make} against per-page twins: for every page [p] set in
    [dirty_pages], [twins.(p)] is the page-sized twin of page [p]; the
    other slots are not read. Raises [Invalid_argument] if [current] is
    not line-sized or a dirty page's twin is not page-sized. *)

val apply : t -> bytes -> unit
(** Write every span into a line-sized buffer. *)

val is_empty : t -> bool
val span_count : t -> int

val spans : t -> span list
(** Materialise the spans (offset-ascending). Allocates; for tests and
    debugging — hot paths read the packed fields directly. *)

val payload_bytes : t -> int
(** Total modified bytes carried. *)

val wire_bytes : t -> int
(** Size on the wire: {!Wire.diff} of the span count and payload. *)
