(** Domain-safe memo tables: a mutex-guarded hashtable with the compute
    step outside the lock.

    First writer wins — racing domains all receive the value inserted
    first, so repeated lookups stay physically equal ([==]). Computes must
    be pure; under contention a compute may run once per racing domain (the
    losers' values are dropped). See the implementation header for the full
    domain-safety contract, and use [Domain.DLS] instead for state that is
    mutable per use. *)

type ('a, 'b) t

val create : ?size:int -> unit -> ('a, 'b) t

(** The memoized value for the key, computing and caching it if absent. *)
val find_or_add : ('a, 'b) t -> 'a -> (unit -> 'b) -> 'b

val find_opt : ('a, 'b) t -> 'a -> 'b option
val mem : ('a, 'b) t -> 'a -> bool
val length : ('a, 'b) t -> int
val clear : ('a, 'b) t -> unit
