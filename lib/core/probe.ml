type sync_op =
  | Lock_attempt
  | Lock_acquired
  | Release
  | Unlock
  | Cond_signal
  | Cond_wake

type t = {
  on_read :
    thread:int -> time:Desim.Time.t -> addr:int -> len:int ->
    value:int64 option -> unit;
  on_write :
    thread:int -> time:Desim.Time.t -> addr:int -> len:int -> region:int ->
    value:int64 option -> unit;
  on_publish :
    thread:int -> time:Desim.Time.t -> server:int -> line:int ->
    version:int -> data:bytes -> unit;
  on_malloc : thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit;
  on_free : thread:int -> time:Desim.Time.t -> addr:int -> bytes:int -> unit;
  on_barrier :
    thread:int -> time:Desim.Time.t -> barrier:int -> epoch:int ->
    phase:[ `Arrive | `Depart ] -> unit;
  on_sync : thread:int -> time:Desim.Time.t -> op:sync_op -> id:int -> unit;
  on_crash : time:Desim.Time.t -> node:int -> server:int -> unit;
  on_recovery :
    time:Desim.Time.t -> failed:int -> promoted:int -> replayed:int -> unit;
  on_takeover :
    time:Desim.Time.t -> dead:int -> takeover:int -> moved:int ->
    redriven:int -> unit;
}

let nothing =
  { on_read = (fun ~thread:_ ~time:_ ~addr:_ ~len:_ ~value:_ -> ());
    on_write = (fun ~thread:_ ~time:_ ~addr:_ ~len:_ ~region:_ ~value:_ -> ());
    on_publish =
      (fun ~thread:_ ~time:_ ~server:_ ~line:_ ~version:_ ~data:_ -> ());
    on_malloc = (fun ~thread:_ ~time:_ ~addr:_ ~bytes:_ -> ());
    on_free = (fun ~thread:_ ~time:_ ~addr:_ ~bytes:_ -> ());
    on_barrier = (fun ~thread:_ ~time:_ ~barrier:_ ~epoch:_ ~phase:_ -> ());
    on_sync = (fun ~thread:_ ~time:_ ~op:_ ~id:_ -> ());
    on_crash = (fun ~time:_ ~node:_ ~server:_ -> ());
    on_recovery = (fun ~time:_ ~failed:_ ~promoted:_ ~replayed:_ -> ());
    on_takeover =
      (fun ~time:_ ~dead:_ ~takeover:_ ~moved:_ ~redriven:_ -> ()) }

let both a b =
  { on_read =
      (fun ~thread ~time ~addr ~len ~value ->
         a.on_read ~thread ~time ~addr ~len ~value;
         b.on_read ~thread ~time ~addr ~len ~value);
    on_write =
      (fun ~thread ~time ~addr ~len ~region ~value ->
         a.on_write ~thread ~time ~addr ~len ~region ~value;
         b.on_write ~thread ~time ~addr ~len ~region ~value);
    on_publish =
      (fun ~thread ~time ~server ~line ~version ~data ->
         a.on_publish ~thread ~time ~server ~line ~version ~data;
         b.on_publish ~thread ~time ~server ~line ~version ~data);
    on_malloc =
      (fun ~thread ~time ~addr ~bytes ->
         a.on_malloc ~thread ~time ~addr ~bytes;
         b.on_malloc ~thread ~time ~addr ~bytes);
    on_free =
      (fun ~thread ~time ~addr ~bytes ->
         a.on_free ~thread ~time ~addr ~bytes;
         b.on_free ~thread ~time ~addr ~bytes);
    on_barrier =
      (fun ~thread ~time ~barrier ~epoch ~phase ->
         a.on_barrier ~thread ~time ~barrier ~epoch ~phase;
         b.on_barrier ~thread ~time ~barrier ~epoch ~phase);
    on_sync =
      (fun ~thread ~time ~op ~id ->
         a.on_sync ~thread ~time ~op ~id;
         b.on_sync ~thread ~time ~op ~id);
    on_crash =
      (fun ~time ~node ~server ->
         a.on_crash ~time ~node ~server;
         b.on_crash ~time ~node ~server);
    on_recovery =
      (fun ~time ~failed ~promoted ~replayed ->
         a.on_recovery ~time ~failed ~promoted ~replayed;
         b.on_recovery ~time ~failed ~promoted ~replayed);
    on_takeover =
      (fun ~time ~dead ~takeover ~moved ~redriven ->
         a.on_takeover ~time ~dead ~takeover ~moved ~redriven;
         b.on_takeover ~time ~dead ~takeover ~moved ~redriven) }
