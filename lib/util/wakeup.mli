(** A self-pipe: a wake-up that one thread raises and another waits on
    with [Unix.select], alongside other descriptors or with a timeout.

    A raised wake-up is a byte left in the pipe, so one raised between
    the waiter's last look at shared state and its [select] still ends
    that [select] at once: no wake-up is lost. A waiter must {!drain}
    before it looks at that state again. Both ends are non-blocking and
    close-on-exec. [Unix.select] cannot watch a descriptor numbered 1024
    or more, so create the wake-up before a process opens many
    descriptors, and {!close} it when done. *)

type t

val create : unit -> t

val fd : t -> Unix.file_descr
(** The end to [select] for reading. *)

val signal : t -> unit
(** Raise the wake-up. Never blocks: a full pipe already holds one. *)

val drain : t -> unit
(** Consume every raised wake-up. *)

val wait : t -> timeout:float option -> unit
(** Block until the wake-up is raised, or [timeout] seconds pass
    ([None]: no limit; a negative timeout counts as 0), then {!drain}.
    A signal that interrupts the wait ends it early. *)

val close : t -> unit
(** Close both ends. *)
