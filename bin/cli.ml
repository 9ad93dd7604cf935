(* Shared command-line vocabulary for the samhita_sim driver.

   Every subcommand draws its converters, common flags and usage-error
   reporting from here, so two contracts are declared exactly once:

   - the exit-code contract (0 clean, 1 the tool found what it hunts
     for, 2 usage error), pinned by test/exit_codes.sh;
   - the usage-error shape: "samhita_sim <cmd>: message" on stderr, so a
     scripted consumer always learns which subcommand and flag it got
     wrong before the exit-2.

   Flags that several subcommands share (backend, threads, control-plane
   shards, sanitizer, ...) are defined here as cmdliner terms; the
   validators re-check semantic bounds that cmdliner's converters cannot
   express (threads against Config.max_threads, shard counts,
   backend/flag compatibility). *)

open Cmdliner

(* ---------------- usage errors ---------------- *)

let usage ~cmd fmt =
  Printf.ksprintf
    (fun m ->
       Printf.eprintf "samhita_sim %s: %s\n" cmd m;
       exit 2)
    fmt

(* ---------------- converters ---------------- *)

let scale_conv =
  let parse s =
    match Harness.Experiments.scale_of_string s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  let print ppf = function
    | Harness.Experiments.Quick -> Format.fprintf ppf "quick"
    | Harness.Experiments.Paper -> Format.fprintf ppf "paper"
  in
  Arg.conv (parse, print)

type backend = [ `Smh | `Pth ]

let backend_name = function `Smh -> "samhita" | `Pth -> "pthreads"

let backend_conv =
  let parse = function
    | "smh" | "samhita" -> Ok `Smh
    | "pth" | "pthreads" -> Ok `Pth
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print ppf v =
    Format.pp_print_string ppf (match v with `Smh -> "smh" | `Pth -> "pth")
  in
  Arg.conv (parse, print)

let faults_conv =
  let parse s =
    match Fabric.Faults.level_of_string s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  let print ppf v = Format.pp_print_string ppf (Fabric.Faults.level_name v) in
  Arg.conv (parse, print)

(* ---------------- shared terms ---------------- *)

let scale_t =
  Arg.(
    value
    & opt scale_conv Harness.Experiments.Paper
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Sweep size: $(b,quick) or $(b,paper).")

let backend_t =
  Arg.(
    value
    & opt backend_conv `Smh
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"Runtime: $(b,smh) (Samhita DSM) or $(b,pth) (SMP baseline).")

let threads_t =
  Arg.(
    value & opt int 8
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"Compute thread count.")

let report_t =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "After the run, print a system report (fabric traffic, server \
           and manager utilization, cache behaviour). Samhita backend \
           only.")

let sanitize_t =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Attach the RegCSan access-stream analyzer and print its \
           findings after the run: data races, RegC publication \
           violations, mixed region/ordinary writes, invalid reads, lock \
           misuse. Samhita backend only.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")

(* Control-plane geometry: the kernels call the manager-shard count
   --shards; serve already uses --shards for its KV key partitions, so
   there the same knob is spelled --manager-shards. *)

let shards_t =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Manager (control-plane) shards: sync objects are \
           consistent-hashed across $(docv) shard processes; allocation \
           stays on shard 0. Samhita backend only.")

let manager_shards_t =
  Arg.(
    value & opt int 1
    & info [ "manager-shards" ] ~docv:"N"
        ~doc:
          "Manager (control-plane) shards: sync objects are \
           consistent-hashed across $(docv) shard processes; allocation \
           stays on shard 0. Samhita backend only.")

let servers_t =
  Arg.(
    value
    & opt int Samhita.Config.default.Samhita.Config.memory_servers
    & info [ "servers" ] ~docv:"N"
        ~doc:
          "Memory servers the global address space is striped across. \
           Samhita backend only.")

(* ---------------- validators ---------------- *)

(* Errors name the violated bound. *)
let check_threads ~cmd threads =
  if threads <= 0 then usage ~cmd "--threads must be positive";
  if threads > Samhita.Config.max_threads then
    usage ~cmd "--threads %d exceeds the thread cap (Config.max_threads = %d)"
      threads Samhita.Config.max_threads

let check_shards ~cmd ~flag shards =
  if shards < 1 then usage ~cmd "%s must be >= 1" flag

(* The DSM-only flags, rejected with context when the SMP baseline was
   selected. *)
let check_smh_only ~cmd ~backend flags =
  match backend with
  | `Smh -> ()
  | `Pth ->
    List.iter
      (fun (flag, set) ->
         if set then
           usage ~cmd "%s requires --backend smh (got --backend pth)" flag)
      flags

(* ---------------- backend construction ---------------- *)

(* Kernel config for the smh backend: Config.default with only the
   flag-selected fields overridden, so a run with every new flag at its
   default is byte-identical to the pre-sharding driver. *)
let kernel_config ~cmd ~threads ~shards ~servers =
  check_shards ~cmd ~flag:"--shards" shards;
  if servers < 1 then usage ~cmd "--servers must be >= 1";
  let config =
    { Samhita.Config.default with
      Samhita.Config.memory_servers = servers;
      manager_shards = shards }
  in
  check_threads ~cmd threads;
  config

(* The backend for one kernel run, and what to print after it: the run
   report with [report], RegCSan's findings with [sanitize]. Both read the
   concrete system, so under --backend pth they are usage errors before
   the kernel runs, alongside the other DSM-only flags. *)
let kernel_backend ~cmd ~backend ~threads ~shards ~servers ?(report = false)
    ~sanitize () =
  match backend with
  | `Smh ->
    let config = kernel_config ~cmd ~threads ~shards ~servers in
    let after = ref ignore in
    let on_create sys =
      let san =
        if not sanitize then None
        else begin
          let s =
            Analysis.Regcsan.create ~threads
              ~page_bytes:config.Samhita.Config.page_bytes
          in
          Samhita.System.add_probe sys (Analysis.Regcsan.probe s);
          Some s
        end
      in
      after :=
        fun () ->
          if report then Format.printf "%a@." Samhita.Metrics.pp_report sys;
          Option.iter (Format.printf "%a@." Analysis.Regcsan.pp_report) san
    in
    (Workload.Samhita_backend.make ~config ~on_create (), fun () -> !after ())
  | `Pth ->
    check_smh_only ~cmd ~backend
      [ ("--shards", shards > 1);
        ("--servers", servers <> Samhita.Config.default.Samhita.Config.memory_servers);
        ("--report", report);
        ("--sanitize", sanitize) ];
    check_threads ~cmd threads;
    (Workload.Smp_backend.default, ignore)
