(* The benchmark's command line:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --alphonsec PATH [--self-test]

   runs one workload and prints, as the last line of standard output,
   one JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones; a traced run also writes its spans to
   perfbench/out/trace-<workload>-<seed>.json. --self-test corrupts one
   expected value, so the run must report a failed operation.
   Run it through run.sh, which builds it first. *)

open Harness

(* Each workload with the per-layer metrics it does not measure: an
   entry ending in "." names a whole layer. The result format has a
   number for every declared metric, so these print as 0, and the run
   lists them on stderr; the README says which layers each workload
   crosses without being able to observe them. *)
let workloads =
  let off = [ "daemon."; "serve."; "json."; "wal."; "durable."; "engine.settle_us_mean" ] in
  [
    ("avl-churn", (Avl_churn.run, "sheet." :: off));
    ("sheet-recalc", (Sheet_recalc.run, "avl." :: off));
    ( "daemon-durable",
      ( Daemon_durable.run,
        [
          "avl."; "sheet."; "graph."; "order."; "gc.";
          "engine.queue_pushes_per_edit"; "engine.exec_self_us_per_edit";
          "engine.bookkeeping_us_per_edit";
        ] ) );
  ]

let listed entries name =
  List.exists
    (fun e ->
      let n = String.length e in
      if e.[n - 1] = '.' then String.length name > n && String.sub name 0 n = e
      else e = name)
    entries

(* The metrics a run prints, in order, with their units: the
   "end_to_end" list of BENCHMARK.json for untraced runs, its "per_layer"
   list for traced ones. *)
let declared ~trace =
  let module J = Alphonse.Json in
  let spec = J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let key = if trace then "per_layer" else "end_to_end" in
  Option.value ~default:[] (Option.bind (J.member key spec) J.to_list)
  |> List.filter_map (fun m ->
         match
           ( Option.bind (J.member "name" m) J.to_str,
             Option.bind (J.member "unit" m) J.to_str )
         with
         | Some n, Some u -> Some (n, u)
         | _ -> None)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (avl-churn|sheet-recalc|daemon-durable) \
     --seed N --seconds S --trace 0|1 --alphonsec PATH [--self-test]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and alphonsec = ref "" and corrupt = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--alphonsec" :: p :: rest -> alphonsec := p; parse rest
    | "--self-test" :: rest -> corrupt := true; parse rest
    | a :: _ ->
      prerr_endline ("bench.exe: unknown argument " ^ a);
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run, not_measured =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some n, Some s, Some t when s > 0. -> (n, s, t)
    | _ -> usage ()
  in
  let out = Filename.concat "perfbench" "out" in
  let run_dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Alphonse.Wal.mkdir_p run_dir;
  let cfg =
    { seed; seconds; trace; corrupt = !corrupt; out_dir = run_dir; alphonsec = !alphonsec }
  in
  let tr, r =
    Fun.protect
      ~finally:(fun () -> Daemon_durable.rm_rf run_dir)
      (fun () -> run cfg)
  in
  if trace then
    Trace.write tr
      (Filename.concat out (Printf.sprintf "trace-%s-%d.json" !workload seed));
  let declared = declared ~trace in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n declared) then
        failwith ("metric not declared in BENCHMARK.json: " ^ n))
    r.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some (_, v, u) when u = unit -> (name, v, unit)
        | Some (_, _, u) ->
          failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name u unit)
        | None when trace && listed not_measured name ->
          Printf.eprintf "perfbench: %s does not measure %s (printed as 0)\n" !workload name;
          (name, 0., unit)
        | None -> failwith ("metric not measured: " ^ name))
      declared
  in
  let module J = Alphonse.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool r.correct);
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
                   metrics) );
          ]))
