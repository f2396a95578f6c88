(** Minimum priority queue used as the simulator's event heap.

    Keys are [(time, seq)] pairs compared lexicographically; the sequence
    number makes the pop order total and therefore the whole simulation
    deterministic even when many events share a timestamp.

    Keys live in unboxed int arrays beside a payload array; a popped
    payload's slot is cleared at once, so the queue never pins a value
    it no longer holds. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the minimum [(time, seq, value)]. *)

val peek : 'a t -> (int * int * 'a) option

val min_time : 'a t -> int
(** The minimum's time, or [max_int] when the queue is empty. Allocates
    nothing. *)

val pop_min : 'a t -> 'a
(** Removes the minimum and returns its value alone; with {!min_time}
    this is {!pop} without the tuple and option it allocates.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
