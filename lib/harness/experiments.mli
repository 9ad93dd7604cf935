(** One entry point per figure of the paper's evaluation (Figures 3-13),
    plus the ablation studies listed in DESIGN.md §6.

    Every function is deterministic: same scale, same numbers. [Quick]
    shrinks sweeps for tests and smoke runs; [Paper] matches the paper's
    parameter ranges (N = 10, B = 256, M in {1,10,100}, S in {1,2,4,8},
    up to 8 Pthreads cores and 32 Samhita cores). *)

type scale = Quick | Paper

val scale_of_string : string -> (scale, string) result

type ctx
(** Memoizes kernel runs shared between figures (e.g. Figs 6-8 feed 9-10). *)

val ctx : scale -> ctx
val scale : ctx -> scale

val fig3 : ctx -> Series.figure
(** Normalized compute time vs cores, local allocation, M sweep. *)

val fig4 : ctx -> Series.figure
(** Same, global allocation. *)

val fig5 : ctx -> Series.figure
(** Same, global allocation with strided access. *)

val fig6 : ctx -> Series.figure
(** Compute time vs cores, local allocation, S sweep (M = 10). *)

val fig7 : ctx -> Series.figure
val fig8 : ctx -> Series.figure

val fig9 : ctx -> Series.figure
(** Compute time vs S at P = 16 for the three strategies. *)

val fig10 : ctx -> Series.figure
(** Synchronization time vs S at P = 16 for the three strategies. *)

val fig11 : ctx -> Series.figure
(** Synchronization time vs cores, both runtimes, three strategies. *)

val fig12 : ctx -> Series.figure
(** Jacobi strong-scaling speedup vs cores. *)

val fig13 : ctx -> Series.figure
(** Molecular-dynamics strong-scaling speedup vs cores. *)

val ablation_prefetch : ctx -> Series.figure
(** Cold-start compute time and misses with prefetching on/off. *)

val ablation_line_size : ctx -> Series.figure
(** Strided-access compute/sync vs pages per cache line. *)

val ablation_manager_bypass : ctx -> Series.figure
(** §V future work: local synchronization on a single compute node. *)

val ablation_fabric : ctx -> Series.figure
(** §V future work: SCIF/PCIe profile vs the verbs-proxy IB path. *)

val ablation_history : ctx -> Series.figure
(** Fine-grained update history depth: patch vs invalidate on acquire. *)

val ablation_eviction : ctx -> Series.figure
(** Write-biased eviction under cache pressure. *)

val all : (string * (ctx -> Series.figure)) list
(** Figure id -> builder, in presentation order (paper figures first). *)

val by_id : string -> (ctx -> Series.figure) option
