let server_of_line (cfg : Config.t) ~line =
  (line / cfg.Config.stripe_lines) mod cfg.Config.memory_servers

let stripe_bytes (cfg : Config.t) =
  Config.line_bytes cfg * cfg.Config.stripe_lines

let group_by_server cfg line_of items =
  (* At most [memory_servers] homes, so an assoc list of batches (each
     newest first) beats a table. *)
  let homes =
    List.fold_left
      (fun homes x ->
         let s = server_of_line cfg ~line:(line_of x) in
         match List.assq_opt s homes with
         | Some batch ->
           batch := x :: !batch;
           homes
         | None -> (s, ref [ x ]) :: homes)
      [] items
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) homes
  |> List.map (fun (s, batch) -> (s, List.rev !batch))
