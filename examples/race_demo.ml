(* RegCSan catching seeded concurrency bugs.

   Runs the deliberately buggy {!Workload.Racy} kernel with the analyzer
   attached and prints its report: one finding per defect class — a
   write-write data race, a read of an ordinary store no barrier
   published, mixed region/ordinary stores to one word, and a
   use-after-free.

   The sanitizer is an ordinary probe subscriber. The kernel attaches it
   the way any run can, between System.create and the first spawn:

     let san = Analysis.Regcsan.create ~threads ~page_bytes in
     Samhita.System.add_probe sys (Analysis.Regcsan.probe san)

     dune exec examples/race_demo.exe *)

let () =
  let _, s = Workload.Racy.run () in
  Format.printf "%a@." Analysis.Regcsan.pp_report s;
  if Analysis.Regcsan.findings_count s = 4 then
    print_endline "all four seeded defects detected OK"
  else print_endline "MISMATCH: expected exactly 4 findings"
