(** Thread-safe string-keyed memoization tables with hit/miss accounting.

    Every in-memory cache of the pipeline is one named [Memo.t]: values
    are memoized under canonical string keys (use {!key} to digest the key
    parts) and the table is safe to consult from multiple domains.

    {b Names.} [create name] binds the {!Mdh_obs.Metrics} counters
    [<name>.hits] and [<name>.misses]; they are the table's only
    accounting, so its hits and misses appear in every [--metrics] report
    and {!stats} reads them back. Counters are per process and never reset
    by this module: callers that want the traffic of one run take a
    before/after delta.

    {b The switch.} {!set_caching} turns every table off at once (the
    front ends' [--no-cache]). A disabled lookup still computes and counts
    one miss, so miss counts stay "real computations".

    {b Clearing.} {!clear} drops a table's entries and leaves its counters
    alone. *)

type 'a t

type stats = { n_hits : int; n_misses : int; n_entries : int }

val create : string -> 'a t
(** A fresh empty table named [name] (e.g. ["atf.cost_cache"]).
    Raises [Invalid_argument] if a table of that name already exists. *)

val key : string list -> string
(** Canonical digest of the key components (order-sensitive, collision
    resistant for our purposes: an MD5 over the NUL-joined parts). *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** Return the cached value for the key, computing and caching it on a
    miss. The compute function runs outside the table lock, so it may run
    more than once under concurrent misses of the same key; it must be
    pure. Each call counts exactly one hit or one miss. *)

val set_caching : bool -> unit
(** Process-wide: [set_caching false] makes every table compute on every
    call (counted as a miss) without consulting or filling its entries. *)

val stats : 'a t -> stats
(** [n_misses] counts real computations, [n_hits] avoided ones — the
    values of the [<name>.*] counters. *)

val clear : 'a t -> unit
(** Drop all entries; the counters are left as they are. *)
