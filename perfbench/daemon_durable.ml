(* daemon-durable: a child `alphonsec daemon` — durable, with the HTTP
   metrics surface on — hosting 32 small sheet tenants, driven over
   NDJSON by a closed loop on one connection.

   Why this workload: it is the request -> reply path users run. It
   crosses Serve and the NDJSON framing, Json, Daemon admission, Tenant
   transact (undo log and journal hooks), Wal appends, the Metrics
   branches and, after kill -9, Durable.recover. Its settles are small,
   so the engine layer does little here.

   Each tenant is a small sheet:
     A1..A8  input constants 0..999
     B1 =A1, Bi =B(i-1)+Ai      (running total)
     C1 =ROUND(B8/100)
     C2 =B8+C1                  (the observed total)
   Every reply is compared with a per-tenant model.

   Where the numbers come from (see also the README):
   - tenants visited round-robin, and a write batch that sets one input
     and reads the tail ([set] + [get C2]): as in bench E21, the daemon
     under multi-tenant load;
   - 32 tenants, not E21's 1,000: an assumption. With 1,000 tenants,
     set-up and restart measured the file system: each tenant is a new
     directory, and on the machine of the reference figures creating
     1,000 directories took from 0.06 s to 1.5 s from one try to the next. Set-up took 0.86-2.1 s, of which
     0.30 s without durability;
   - the read-only batch ([get C2]) and one read-only batch per write
     batch: assumptions, made so that both latencies have as many
     samples (E21 sends writes only);
   - the tenant's 18-cell sheet, smaller than E21's 64-cell chain: an
     assumption, so that settles stay small and the protocol, the
     transaction and the WAL are most of a batch;
   - [seed_history] write batches per tenant in set-up: an assumption,
     made so that set-up is mostly the daemon's own work (see below). *)

open Harness
module Json = Alphonse.Json

let tenants = 32

(* Set-up seeds every tenant with its formulas and inputs, then brings
   it to its starting state through a history of [seed_history] write
   batches, as a tenant's state is built in use. Without the history,
   set-up took 0.02-0.03 s: process start and 32 directory creations,
   whose medians were 33% apart between sets of runs. With it, set-up
   is mostly request handling. *)
let seed_history = 256

(* Repetitions per run. A median is only as steady as the time it
   spans, so set-up and restart are repeated and their medians
   reported. The restarts come in two groups (see below), each after
   one untimed restart. *)
let setup_reps = 5
let recover_reps = 20

(* rounds of the measured phase per second of --seconds: about one
   second's worth on the machine of the reference figures (20,000
   operations per second, two per round); see {!Phase} for why a run
   does a fixed number of rounds *)
let rounds_per_s = 10_000

(* write batches sent to every tenant between the clean checkpoint and
   the kill -9, so recovery replays a fixed amount of journal whatever
   the speed of the measured phase. Enough that replaying it, not the
   per-tenant file opens, is most of a restart: with 48 batches per
   tenant recover_s spread by 0.37 over ten runs. *)
let replay_batches = 1024

(* batches of each kind in a traced run's per-kind WAL probes *)
let probe_batches = 200

(* The WAL fsync policy of the measured daemon. Every WAL frame is still
   written and flushed to the kernel (one write(2) per frame) and
   survives kill -9; only fsync(2) is left out. The benchmark keeps its
   state inside its checkout, which may sit on a shared disk: on the
   machine of the reference figures the daemon's mean fsync went from
   92 us in one set of ten runs to 231 us in the next, moving ops_per_s
   by 21%, so under the default "commit" policy the figures measured the
   disk. A traced run's WAL probe daemon runs the default policy, so the
   per-layer WAL figures, fsyncs included, are the default's. *)
let measured_wal = "never"

(* ------------------------------------------------------------------ *)
(* The model                                                           *)
(* ------------------------------------------------------------------ *)

let cells =
  List.init 8 (fun i -> Printf.sprintf "A%d" (i + 1))
  @ List.init 8 (fun i -> Printf.sprintf "B%d" (i + 1))
  @ [ "C1"; "C2" ]

(* values of every cell, in [cells] order, from the eight inputs *)
let eval a =
  let b = Array.make 8 0 in
  for i = 0 to 7 do
    b.(i) <- (if i = 0 then a.(0) else b.(i - 1) + a.(i))
  done;
  let c1 = (b.(7) + 50) / 100 in
  Array.to_list a @ Array.to_list b @ [ c1; b.(7) + c1 ]

let value_of cell a =
  let rec find = function
    | c :: cs, v :: vs -> if c = cell then v else find (cs, vs)
    | _ -> invalid_arg cell
  in
  find (cells, eval a)

let formulas =
  List.init 8 (fun k ->
      ( Printf.sprintf "B%d" (k + 1),
        if k = 0 then "=A1" else Printf.sprintf "=B%d+A%d" k (k + 1) ))
  @ [ ("C1", "=ROUND(B8/100)"); ("C2", "=B8+C1") ]

let tenant_id i = Printf.sprintf "t%03d" i

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let set_op cell v =
  Json.Obj [ ("op", Json.Str "set"); ("cell", Json.Str cell); ("v", Json.Str v) ]

let get_op cell = Json.Obj [ ("op", Json.Str "get"); ("cell", Json.Str cell) ]

let request id tenant ops =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("tenant", Json.Str tenant);
      ("ops", Json.Arr ops);
    ]

let status reply =
  match Option.bind (Json.member "status" reply) Json.to_float with
  | Some f -> int_of_float f
  | None -> 0

(* the values of the reply's get results, in order *)
let got_values reply =
  match Option.bind (Json.member "results" reply) Json.to_list with
  | None -> []
  | Some rs ->
    List.filter_map
      (fun r ->
        match Json.member "value" r with
        | Some v -> Some (Json.to_float v)
        | None -> None)
      rs

(* A reply is right when its status is 200 and its get values are
   exactly the expected integers. *)
let reply_ok reply expect =
  status reply = 200
  && got_values reply = List.map (fun n -> Some (float_of_int n)) expect

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send c line = Alphonse.Serve.write_all c.fd (line ^ "\n")

(* one request, one reply line *)
let call c req =
  send c (Json.to_string req);
  Json.of_string (input_line c.ic)

(* HTTP/1.0 GET against the metrics surface: (status, body) *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | exception Unix.Unix_error _ -> (0, "")
      | () ->
        Alphonse.Serve.write_all fd
          (Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path);
        let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
        let rec read () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        in
        read ();
        let s = Buffer.contents buf in
        let st =
          try Scanf.sscanf s "HTTP/%_s %d" Fun.id with _ -> 0
        in
        let rec body i =
          if i + 4 > String.length s then ""
          else if String.sub s i 4 = "\r\n\r\n" then
            String.sub s (i + 4) (String.length s - i - 4)
          else body (i + 1)
        in
        (st, body 0))

(* ------------------------------------------------------------------ *)
(* Metrics scrapes                                                     *)
(* ------------------------------------------------------------------ *)

let scrape port =
  match http_get port "/metrics.json" with
  | 200, body -> Json.of_string body
  | st, _ -> failwith (Printf.sprintf "GET /metrics.json: status %d" st)

(* the series of metric [name] whose labels include [labels] *)
let series s name labels =
  let full = "alphonse_" ^ name in
  let fams =
    Option.value ~default:[] (Option.bind (Json.member "metrics" s) Json.to_list)
  in
  List.concat_map
    (fun fam ->
      if Option.bind (Json.member "name" fam) Json.to_str = Some full then
        Option.value ~default:[]
          (Option.bind (Json.member "series" fam) Json.to_list)
        |> List.filter (fun sr ->
               List.for_all
                 (fun (k, v) ->
                   Option.bind
                     (Option.bind (Json.member "labels" sr) (Json.member k))
                     Json.to_str
                   = Some v)
                 labels)
      else [])
    fams

(* a counter's or gauge's [value], or a histogram's [count] or [sum],
   summed over the matching series; 0 when absent *)
let value s ?(labels = []) ?(field = "value") name =
  List.fold_left
    (fun acc sr ->
      acc +. Option.value ~default:0. (Option.bind (Json.member field sr) Json.to_float))
    0. (series s name labels)

let hist_count s name = int_of_float (value s ~field:"count" name)

(* Mean in microseconds of the observations made between two scrapes.
   The histograms' buckets are decades wide, so a quantile read from
   them is a guess within a factor of ten; their sums are exact. *)
let hist_mean_us s0 s1 name =
  let sum s = value s ~field:"sum" name in
  (sum s1 -. sum s0) *. 1e6 /. float_of_int (hist_count s1 name - hist_count s0 name)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int; mport : int }

let live = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill9 d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d.pid

(* SIGTERM drains: in-flight batches finish, every tenant checkpoints *)
let term d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s

(* the int printed right after [key] in [s], if any *)
let int_after s key =
  let n = String.length key in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = key then
      Scanf.sscanf_opt (String.sub s (i + n) (String.length s - i - n)) "%d" Fun.id
    else find (i + 1)
  in
  find 0

(* Starts the daemon on [state] with WAL fsync policy [wal] and returns
   once /readyz answers 200, i.e. after every tenant directory found
   there has been recovered. *)
let start ?(wal = measured_wal) cfg ~state =
  let log = state ^ ".log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.alphonsec
      [|
        cfg.alphonsec; "daemon"; "--port"; "0"; "--metrics-port"; "0";
        "--state"; state; "--wal"; wal;
      |]
      null out out
  in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  let give_up = Unix.gettimeofday () +. 60. in
  let rec wait_ports () =
    let s = read_file log in
    match (int_after s "ndjson on 127.0.0.1:", int_after s "http on 127.0.0.1:") with
    | Some p, Some m -> (p, m)
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith ("alphonsec daemon exited: " ^ String.trim s));
      if Unix.gettimeofday () > give_up then failwith "alphonsec daemon: no ports";
      Unix.sleepf 0.0005;
      wait_ports ()
  in
  let port, mport = wait_ports () in
  let rec wait_ready () =
    match http_get mport "/readyz" with
    | 200, _ -> ()
    | _ ->
      if Unix.gettimeofday () > give_up then failwith "alphonsec daemon: not ready";
      (* each probe takes the daemon's runtime lock from the recovery it
         waits for, so probe every 2 ms, not faster *)
      Unix.sleepf 0.002;
      wait_ready ()
  in
  wait_ready ();
  { pid; port; mport }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run cfg =
  let tl = tally () in
  let tr = Trace.create ~enabled:cfg.trace in
  let models = Array.init tenants (fun _ -> Array.make 8 0) in
  let rid = ref 0 in
  let next_id () =
    incr rid;
    !rid
  in
  (* a checked round trip on one connection, outside the measured phase *)
  let checked c tenant ops expect what =
    let r = call c (request (next_id ()) tenant ops) in
    check tl (reply_ok r expect) (fun () ->
        Printf.sprintf "%s on %s: %s" what tenant (Json.to_string r))
  in
  let write_ops a sets =
    List.map (fun (i, v) -> a.(i) <- v; set_op (Printf.sprintf "A%d" (i + 1)) (string_of_int v)) sets
    @ [ get_op "C2" ]
  in
  Fun.protect ~finally:kill_all @@ fun () ->
  (* set-up: start the daemon on an empty state directory and seed every
     tenant over the protocol; repeated, the last daemon is kept *)
  let init_rng = Random.State.make [| cfg.seed; 0xd43 |] in
  let init = Array.init tenants (fun _ -> Array.init 8 (fun _ -> Random.State.int init_rng 1000)) in
  (* a daemon on a fresh state directory, every tenant seeded with
     the initial inputs (copied into [models]) over the protocol, then
     [history] write batches round-robin, the same ones every time *)
  let gen = ref 0 in
  let seeded ?wal ?(history = seed_history) models =
    incr gen;
    let state = Filename.concat cfg.out_dir (Printf.sprintf "daemon-%d" !gen) in
    let d = start ?wal cfg ~state in
    let c = connect d.port in
    Array.iteri
      (fun i a0 ->
        let a = models.(i) in
        Array.blit a0 0 a 0 8;
        let ops =
          List.init 8 (fun k ->
              set_op (Printf.sprintf "A%d" (k + 1)) (string_of_int a.(k)))
          @ List.map (fun (cell, src) -> set_op cell src) formulas
          @ [ get_op "C2" ]
        in
        checked c (tenant_id i) ops [ value_of "C2" a ] "seed")
      init;
    let hrng = Random.State.make [| cfg.seed; 0x5eed |] in
    for _ = 1 to history do
      for i = 0 to tenants - 1 do
        let a = models.(i) in
        let ops = write_ops a [ (Random.State.int hrng 8, Random.State.int hrng 1000) ] in
        checked c (tenant_id i) ops [ value_of "C2" a ] "seed history"
      done
    done;
    close_conn c;
    (d, state)
  in
  (* Deleting a state directory keeps the file system busy for a while
     after, so the earlier ones are deleted only once every set-up has
     been timed. *)
  let prev = ref [] in
  let setup_s, (d, state) =
    median_of_runs setup_reps
      ~before:(fun () -> List.iter (fun (d, _) -> kill9 d) !prev)
      (fun () ->
        let r = seeded models in
        prev := r :: !prev;
        r)
  in
  (* The restarts run on the directory of the first set-up, which holds
     the same state as the others; the rest are deleted. Half of the
     restarts are timed before the measured phase and half after it, so
     that the median spans the whole run rather than a few seconds of
     it: the machine's speed moves from one stretch of seconds to the
     next, and ten runs timing all restarts after the phase spread by
     0.29. The daemon restarted is its own process, so its memory stays
     out of peak_rss_mb. *)
  let rstate = snd (List.nth !prev (List.length !prev - 1)) in
  List.iter (fun (_, st) -> if st <> state && st <> rstate then rm_rf st) !prev;
  let rmodels = Array.map Array.copy models in
  (* the recovery state: recover the killed set-up daemon's journal,
     drain (every tenant checkpoints), restart, send a fixed journal of
     [replay_batches] writes per tenant; each restart after a kill -9
     replays that journal *)
  term (start cfg ~state:rstate);
  let last = ref (start cfg ~state:rstate) in
  let c = connect !last.port in
  let rrng = Random.State.make [| cfg.seed; 0x7e |] in
  for _ = 1 to replay_batches do
    for i = 0 to tenants - 1 do
      let a = rmodels.(i) in
      let ops = write_ops a [ (Random.State.int rrng 8, Random.State.int rrng 1000) ] in
      checked c (tenant_id i) ops [ value_of "C2" a ] "journal write"
    done
  done;
  close_conn c;
  let restarts () =
    fst
      (timed_runs ~warmup:1 (recover_reps / 2)
         ~before:(fun () -> kill9 !last)
         (fun () -> last := start cfg ~state:rstate))
  in
  let restarts_before = restarts () in
  kill9 !last;
  (* the measured phase: one closed loop on one connection; a round is
     one write batch on the next tenant round-robin, with its input and
     value drawn by the seed, then one read-only batch on the tenant
     after it *)
  let s0 = scrape d.mport in
  let c = connect d.port in
  let rng = Random.State.make [| cfg.seed; 0xc0 |] in
  let edit_lat = Samples.create () and read_lat = Samples.create () in
  let rtt = Samples.create () in
  let corrupt = ref cfg.corrupt in
  let writes = ref 0 in
  let next = ref 0 in
  let exchange ~write =
    let i = !next in
    next := (i + 1) mod tenants;
    let a = models.(i) in
    let ops, expect =
      if write then begin
        let ops = write_ops a [ (Random.State.int rng 8, Random.State.int rng 1000) ] in
        let e = value_of "C2" a + if !corrupt then 1 else 0 in
        corrupt := false;
        (ops, [ e ])
      end
      else ([ get_op "C2" ], [ value_of "C2" a ])
    in
    Trace.next_op tr;
    let line =
      Trace.span tr "json.encode" (fun () ->
          Json.to_string (request (next_id ()) (tenant_id i) ops))
    in
    let t0 = now_ns () in
    send c line;
    let reply = input_line c.ic in
    let t1 = now_ns () in
    Samples.add rtt (t1 - t0);
    Samples.add (if write then edit_lat else read_lat) (t1 - t0);
    Trace.add tr (if write then "rtt.write" else "rtt.read") ~t0 ~t1;
    let r = Trace.span tr "json.decode" (fun () -> Json.of_string reply) in
    check tl (reply_ok r expect) (fun () ->
        Printf.sprintf "%s on %s: %s" (if write then "write" else "read") (tenant_id i) reply);
    if write then incr writes
  in
  let t_start = now_ns () in
  for _ = 1 to max 1 (int_of_float (float_of_int rounds_per_s *. cfg.seconds)) do
    exchange ~write:true;
    exchange ~write:false
  done;
  let t_end = now_ns () in
  let phase = phase_metrics ~t0:t_start ~t1:t_end ~edits:edit_lat ~reads:read_lat in
  let s1 = scrape d.mport in
  close_conn c;
  let rss = vm_hwm_mb d.pid in
  (* traced runs: WAL probes on a second daemon under the default fsync
     policy — read-only batches, then write batches, with a scrape and a
     state-directory size between *)
  let probes =
    if not cfg.trace then None
    else begin
      let pmodels = Array.map Array.copy init in
      let pd, pstate = seeded ~wal:"commit" ~history:0 pmodels in
      let c = connect pd.port in
      let probe ~write =
        for j = 0 to probe_batches - 1 do
          let i = j mod tenants in
          let a = pmodels.(i) in
          if write then
            let ops = write_ops a [ (j mod 8, (j * 37) mod 1000) ] in
            checked c (tenant_id i) ops [ value_of "C2" a ] "probe write"
          else checked c (tenant_id i) [ get_op "C2" ] [ value_of "C2" a ] "probe read"
        done
      in
      let s1 = scrape pd.mport in
      probe ~write:false;
      let s2 = scrape pd.mport in
      let b2 = du pstate in
      probe ~write:true;
      let s3 = scrape pd.mport in
      let b3 = du pstate in
      close_conn c;
      term pd;
      rm_rf pstate;
      Some (s1, s2, s3, b3 - b2)
    end
  in
  term d;
  rm_rf state;
  let recover_s = median (restarts_before @ restarts ()) in
  let d = !last in
  let sr = scrape d.mport in
  let degraded = value sr ~labels:[ ("degraded", "yes") ] "recoveries_total" in
  let recovered = value sr ~labels:[ ("degraded", "no") ] "recoveries_total" in
  (* every acknowledged batch is visible in every tenant *)
  let c = connect d.port in
  Array.iteri
    (fun i a ->
      checked c (tenant_id i) (List.map get_op cells) (eval a) "after recovery")
    rmodels;
  close_conn c;
  let final_ok = degraded = 0. && recovered = float_of_int tenants in
  if not final_ok then
    Printf.eprintf "perfbench: recovery: %.0f tenants recovered, %.0f degraded\n%!"
      recovered degraded;
  term d;
  rm_rf rstate;
  let writes_f = float_of_int !writes in
  let delta s0 s1 ?labels name = value s1 ?labels name -. value s0 ?labels name in
  let e2e =
    [
      ("setup_s", setup_s, "s");
    ]
    @ phase
    @ [
      ("peak_rss_mb", rss, "MiB");
      ( "reexec_per_edit",
        delta s0 s1 ~labels:[ ("kind", "re") ] "executions_total" /. writes_f,
        "count" );
      ("recover_s", recover_s, "s");
    ]
  in
  let layers =
    match probes with
    | None -> []
    | Some (p1, p2, p3, bytes) ->
      let k = float_of_int probe_batches in
      let batch_us = hist_mean_us s0 s1 "daemon_batch_seconds" in
      [
        traced_ops phase;
        ("engine.cutoffs_per_edit", delta s0 s1 "cutoffs_total" /. writes_f, "count");
        ("engine.cache_hits_per_read", delta p1 p2 "cache_hits_total" /. k, "count");
        ("engine.settle_steps_per_edit", delta s0 s1 "settle_steps_total" /. writes_f, "count");
        ("daemon.batch_us_mean", batch_us, "us");
        ("engine.settle_us_mean", hist_mean_us s0 s1 "settle_seconds", "us");
        ("serve.rtt_minus_batch_us_mean", Samples.mean_us rtt -. batch_us, "us");
        ("json.encode_us", Trace.median_us tr "json.encode", "us");
        ("json.decode_us", Trace.median_us tr "json.decode", "us");
        ("wal.appends_per_edit", delta p2 p3 "wal_appends_total" /. k, "count");
        ("wal.appends_per_read", delta p1 p2 "wal_appends_total" /. k, "count");
        ( "wal.fsyncs_per_edit",
          float_of_int (hist_count p3 "wal_fsync_seconds" - hist_count p2 "wal_fsync_seconds") /. k,
          "count" );
        ( "wal.fsyncs_per_read",
          float_of_int (hist_count p2 "wal_fsync_seconds" - hist_count p1 "wal_fsync_seconds") /. k,
          "count" );
        ("wal.fsync_us_mean", hist_mean_us p1 p3 "wal_fsync_seconds", "us");
        ("wal.bytes_per_edit", float_of_int bytes /. k, "B");
        ("durable.replayed", value sr "recovery_last_replayed", "count");
      ]
  in
  ( tr,
    {
      correct = final_ok;
      attempted = tl.attempted;
      failed = tl.failed;
      metrics = (if cfg.trace then layers else e2e);
    } )
