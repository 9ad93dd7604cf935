let server_of_line (cfg : Config.t) ~line =
  (line / cfg.Config.stripe_lines) mod cfg.Config.memory_servers

let stripe_bytes (cfg : Config.t) =
  Config.line_bytes cfg * cfg.Config.stripe_lines

let group_by_server cfg line_of items =
  let homes = Hashtbl.create 4 in
  List.iter
    (fun x ->
       let s = server_of_line cfg ~line:(line_of x) in
       let batch = Option.value (Hashtbl.find_opt homes s) ~default:[] in
       Hashtbl.replace homes s (x :: batch))
    items;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun s xs acc -> (s, List.rev xs) :: acc) homes [])
