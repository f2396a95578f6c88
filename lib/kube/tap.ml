(* Conformance taps: read-only observation points at every consumer-side
   delivery boundary (apiserver watch cache, informer stores).

   A tap is a set of callbacks a monitor installs on a component; the
   component calls them *after* mutating its cache, passing a [view]
   snapshot of the cache it just exposed to its consumers. Taps carry no
   authority: they must not write to the cluster, draw randomness, or
   schedule work, so an installed tap leaves the simulation's event
   order, RNG stream and journal bytes untouched. *)

type view = {
  component : string;  (* the cache owner, e.g. "api-1" or "kubelet-2" *)
  stream : string;
      (* upstream stream identity for the current generation,
         "<stream>@<generation>": the generation is bumped on crash or
         re-list, and a new generation is a new stream. Built once per
         generation. *)
  rev : int;  (* the frontier the component claims after this step *)
  prefix : string option;  (* the stream's key filter, if any *)
  state : Resource.value History.State.t;  (* the cache after this step *)
}

type t = {
  on_event : view -> Resource.value History.Event.t -> unit;
      (* a watch event was delivered and applied *)
  on_advance : view -> int -> unit;
      (* the frontier advanced without state change (bookmark / seal) *)
  on_reset : view -> unit;
      (* the cache was rebuilt from a list response at [view.rev] *)
}

(* A stream's name for its current generation, "<stream>@<generation>",
   rebuilt only when the generation changes. *)
type key = { base : string; mutable generation : int; mutable name : string }

let key base = { base; generation = -1; name = "" }

let stream_name k ~generation =
  if k.generation <> generation then begin
    k.generation <- generation;
    k.name <- k.base ^ "@" ^ string_of_int generation
  end;
  k.name
