(** Materialized state [S]: the map obtained by folding a history's events.

    Each binding remembers the revision that last touched it (Kubernetes'
    [resourceVersion]). The module is persistent so that views can be
    snapshotted for free. *)

type 'v t

val empty : 'v t

val rev : 'v t -> int
(** Revision of the latest event applied; 0 for {!empty}. *)

val apply : 'v t -> 'v Event.t -> 'v t
(** Applies one event. Deletions of absent keys and out-of-date events
    (rev <= already-applied rev for that key) are tolerated and applied
    with last-writer-wins semantics on the global revision, because a
    *view*'s state may legitimately receive replayed events. *)

val find : 'v t -> string -> ('v * int) option
(** Value and the revision that produced it. *)

val get : 'v t -> string -> 'v option

val mem : 'v t -> string -> bool

val bindings : 'v t -> (string * ('v * int)) list
(** Sorted by key. *)

val keys : 'v t -> string list

val cardinal : 'v t -> int

val bindings_with_prefix : 'v t -> prefix:string -> (string * ('v * int)) list
(** Bindings whose key starts with [prefix], sorted by key — a single
    ordered-map range scan (O(log n + k)) cut at the first key past the
    prefix run, yielding key, value and mod-revision in one traversal. *)

val keys_with_prefix : 'v t -> prefix:string -> string list
(** [List.map fst] of {!bindings_with_prefix}. *)

val iter_prefix : 'v t -> prefix:string -> (string -> 'v * int -> unit) -> unit
(** [f key (value, mod_rev)] over the bindings whose key starts with
    [prefix], in key order: the same run as {!bindings_with_prefix},
    walked in place without building a list. *)

val fold : (string -> 'v * int -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

val iter_under : ?prefix:string -> 'v t -> (string -> 'v * int -> unit) -> unit
(** {!iter_prefix}, or every binding when [prefix] is absent; key order. *)

val equal_under : ?prefix:string -> 'v t -> 'v t -> bool
(** Whether the two states hold structurally equal bindings under
    [prefix] (everywhere when absent): the same answer as comparing the
    two {!bindings_with_prefix} (or {!bindings}) lists with [=], without
    building them. *)

val diff : 'v t -> 'v t -> (string * [ `Added | `Removed | `Changed ]) list
(** [diff before after] lists keys whose presence or revision differs.
    This is exactly what a component doing sparse reads can recover — note
    that a create followed by a delete between two reads produces *no*
    entry, which is the paper's Figure 3c observability gap. *)
