(** Open-loop traffic generation for the KV serving scenario.

    The generator draws every request — arrival instant, client, key,
    operation — ahead of service, from a Poisson process at the offered
    aggregate rate with Zipf-skewed keys. Because arrivals never wait for
    completions, offered load beyond capacity makes queues (and measured
    latencies) grow without bound instead of silently throttling the
    generator: the open- vs closed-loop distinction that makes tail
    latency measurable. *)

type op = Get | Put

type request = {
  client : int;  (** Simulated client issuing the request. *)
  key : int;
  op : op;
  arrival_ns : int;
      (** Absolute arrival instant, ns from the start of serving. *)
}

type params = {
  clients : int;  (** Simulated clients (each a serial request stream). *)
  requests : int;  (** Total requests to draw. *)
  rate_rps : float;  (** Aggregate offered load, requests per second. *)
  keys : int;
  zipf_s : float;  (** Key-popularity skew ({!Zipf}); 0 = uniform. *)
  read_fraction : float;  (** Probability a request is a [Get]. *)
  seed : int;
}

val generate : params -> request array
(** Requests in arrival order. Deterministic per [seed]; raises
    [Invalid_argument] on nonsensical parameters. *)

val puts_per_key : request array -> keys:int -> int array
(** How many [Put]s the stream contains for each key: the expected final
    version counters, which the exactness oracle checks against the
    store's contents after the run (an acked write must never be lost). *)
