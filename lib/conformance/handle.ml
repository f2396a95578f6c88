(* The monitor is polymorphic in the store's value type, which would
   force every consumer of a runner outcome to be substrate-typed too.
   Nothing downstream ever looks at a committed value directly — cards
   and reports only need violation/divergence records (monomorphic) and
   a rendering of the committed event at a revision — so a closure
   record erases the type where the substrate is still known. *)
type t = {
  violations : unit -> Monitor.violation list;
  total : unit -> int;
  strict : unit -> bool;
  divergences : unit -> Monitor.divergence list;
  committed_describe : int -> string option;
  finish : unit -> unit;
}

let violations t = t.violations ()

let total t = t.total ()

let strict t = t.strict ()

let divergences t = t.divergences ()

let committed_describe t rev = t.committed_describe rev

let finish t = t.finish ()

let of_monitor monitor ~finish =
  {
    violations = (fun () -> Monitor.violations monitor);
    total = (fun () -> Monitor.total monitor);
    strict = (fun () -> Monitor.strict monitor);
    divergences = (fun () -> Monitor.divergences monitor);
    committed_describe =
      (fun rev -> Option.map History.Event.describe (Monitor.committed_at monitor rev));
    finish;
  }

let of_kube hooks = of_monitor (Hooks.monitor hooks) ~finish:(fun () -> Hooks.finish hooks)

let of_hbase hooks =
  of_monitor (Hbase_hooks.monitor hooks) ~finish:(fun () -> Hbase_hooks.finish hooks)
