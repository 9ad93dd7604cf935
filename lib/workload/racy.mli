(** A deliberately buggy two-thread kernel used to validate RegCSan.

    Seeds exactly one instance of each defect class on its own word:
    a write-write data race, a read of an ordinary store no barrier
    published, mixed region/ordinary stores to one word, and a
    use-after-free — all with deterministic ordering, so the analyzer
    must report exactly four findings every run. *)

val run :
  ?on_create:(Samhita.System.t -> unit) ->
  ?config:Samhita.Config.t -> unit -> Samhita.System.t * Analysis.Regcsan.t
(** Build and run the system with a RegCSan instance attached, and return
    both; query the sanitizer for the findings. [on_create] runs after
    the sanitizer is attached but before any thread is spawned — the
    torture harness attaches its oracle probe there. *)
