(** Home assignment: which memory server backs a given line.

    Lines are striped round-robin across the memory servers in runs of
    [stripe_lines], so any allocation larger than one stripe spreads over
    every server — the paper's third allocation strategy (hot-spot
    avoidance for large allocations) falls out of this mapping once large
    requests are stripe-aligned. *)

val server_of_line : Config.t -> line:int -> int
(** Index in [\[0, memory_servers)]. *)

val stripe_bytes : Config.t -> int
(** Bytes per stripe ([stripe_lines] lines). *)

val group_by_server :
  Config.t -> ('a -> int) -> 'a list -> (int * 'a list) list
(** Partition [items] by the home server of [line_of item]; servers
    ascending, each with its items in input order. *)
