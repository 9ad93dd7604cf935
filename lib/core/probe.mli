(** The protocol-event stream: the one observer mechanism of a running
    system ({!System.add_probe}).

    The runtime reports every global-memory access — each is one aligned
    8-byte word, reported with its value — every {e publication} (a
    home-side merge of a flushed diff or update log, the instant a value
    becomes RegC-visible to other threads), every allocation event, every
    barrier episode and every lock/condvar edge. Three subscribers read it:
    - the RegCSan sanitizer ({!Analysis.Regcsan}), attached by
      {!System.create} when [Config.sanitize] is set;
    - the torture harness's linearizable-memory oracle;
    - RegCCheck's per-interval footprint recorder, next to the oracle.

    Callbacks run synchronously inside the emitting thread's process, in
    deterministic simulation order, so an event stream is replayable and
    hashable. [data] buffers passed to [on_publish] are {e borrowed} (the
    home's live line) — copy before retaining. With no probe attached the
    runtime pays one branch per event site and builds no argument. *)

(** A lock or condvar edge. Constant constructors, with the object id
    passed beside them, so an edge event allocates nothing. *)
type sync_op =
  | Lock_attempt
      (** Before the acquire request leaves, and before any blocking. *)
  | Lock_acquired
  | Release
      (** Unlock entry: the release's happens-before instant, before the
          update log is flushed. *)
  | Unlock  (** The release was acknowledged by the manager. *)
  | Cond_signal
  | Cond_wake

type t = {
  on_read : thread:int -> time:Desim.Time.t -> addr:int -> value:int64 -> unit;
      (** [addr] is 8-aligned and [value] the word read there. *)
  on_write :
    thread:int -> time:Desim.Time.t -> addr:int -> region:int ->
    value:int64 -> unit;
      (** [region] is the innermost lock the writer holds — the
          consistency region the store belongs to — or [-1] for an
          ordinary write. *)
  on_publish :
    thread:int -> time:Desim.Time.t -> server:int -> line:int ->
    version:int -> data:bytes -> unit;
      (** The home server's line [line] now holds [data] (borrowed) at
          [version], after merging a diff or update log flushed by
          [thread]. *)
  on_malloc : thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit;
  on_free : thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit;
  on_barrier :
    thread:int -> time:Desim.Time.t -> barrier:int -> epoch:int ->
    phase:[ `Arrive | `Depart ] -> unit;
      (** [epoch] is captured before arriving, so every participant of
          one episode names the same epoch. *)
  on_sync : thread:int -> time:Desim.Time.t -> op:sync_op -> id:int -> unit;
      (** [id] is the lock for the four lock ops, the condvar for the
          two condvar ops. *)
  on_crash : time:Desim.Time.t -> node:int -> server:int -> unit;
      (** The lease monitor detected that fabric node [node] (hosting
          memory server [server]) is fail-stop dead. [time] is the
          detection instant — after the crash instant by at least one
          missed heartbeat. *)
  on_recovery :
    time:Desim.Time.t -> failed:int -> promoted:int -> replayed:int -> unit;
      (** Recovery finished: physical server [failed]'s stripes now live
          on [promoted], after replaying [replayed] surviving update-log
          entries; parked threads resume from [time]. *)
  on_takeover :
    time:Desim.Time.t -> dead:int -> takeover:int -> moved:int ->
    redriven:int -> unit;
      (** The failure detector declared manager shard [dead] failed and
          its ring successor [takeover] absorbed its slice: [moved] sync
          objects changed shard and [redriven] stranded reply pushes were
          re-sent. [time] is the detection instant; parked requesters
          resume from it. *)
}

val nothing : t
(** Every callback a no-op; build probes with [{ nothing with ... }]. *)

val both : t -> t -> t
(** [both a b] delivers every event to [a], then to [b]. *)
