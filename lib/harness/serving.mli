(** Offered-load sweeps of the {!Workload.Kv} serving scenario, with
    tail-latency reporting.

    A sweep first measures service capacity with a closed-loop probe
    (offered rate far beyond capacity, so workers serve back to back),
    then replays the open-loop workload at fractions of that capacity.
    Points past 1.0 are deliberately overloaded: arrivals outpace
    service, queues grow for the rest of the run, and the tail
    percentiles diverge — visible only because the generator is
    open-loop. *)

type backend_kind = Smh | Pth

type point = {
  fraction : float;  (** Of measured capacity. *)
  rate_rps : float;  (** Offered aggregate load. *)
  served : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  mean_ns : float;
  max_ns : int;
  achieved_rps : float;  (** served / simulated wall. *)
  wall_ns : int;
  lost_writes : int;  (** {!Workload.Kv.lost_writes}; must be 0. *)
}

type t = {
  backend : string;
  threads : int;
  replication : int;
  manager_shards : int;  (** Control-plane shards (1 = classic manager). *)
  crash : bool;
  kv : Workload.Kv.params;  (** Base parameters; rate set per point. *)
  capacity_rps : float;
  points : point list;
}

val run :
  ?fractions:float list ->
  ?manager_shards:int ->
  backend:backend_kind ->
  threads:int ->
  replication:int ->
  crash:bool ->
  Workload.Kv.params -> t
(** Deterministic per seed. [replication]/[crash]/[manager_shards > 1]
    need [Smh] (two memory servers are used for every Smh run so
    replication on/off compares like for like); [crash] needs
    [replication = 1] and injects a fail-stop memory-server crash
    mid-sweep-point, measuring what a lease-detected promotion costs the
    tail. [fractions] defaults to [0.25; 0.5; 0.75; 0.9; 1.5], four
    stable points and one past capacity. [manager_shards] (default 1)
    shards the control plane the KV mutexes resolve through. Raises
    [Invalid_argument] on bad combinations. *)

val pp : Format.formatter -> t -> unit
(** Human-readable capacity line plus one row per sweep point. *)

val to_json : t -> string
(** The sweep as one JSON object (hand-rolled, schema pinned by
    [test/exit_codes.sh]); [serve --json] prints it to stdout. *)
