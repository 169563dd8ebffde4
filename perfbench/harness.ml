(* Shared machinery of the benchmark: the clock, latency samples, the
   span recorder of traced runs, memory readings and the result every
   workload hands back. *)

(* Monotonic nanoseconds. [Unix.gettimeofday] has microsecond
   resolution, too coarse for reads that take well under a microsecond. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns *. 1e-3

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  (* durations and completion times, in ns *)
  type t = { mutable a : int array; mutable at : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; at = Array.make 4096 0; n = 0 }

  let add_at t ~at ns =
    if t.n = Array.length t.a then begin
      let grow x =
        let y = Array.make (2 * t.n) 0 in
        Array.blit x 0 y 0 t.n;
        y
      in
      t.a <- grow t.a;
      t.at <- grow t.at
    end;
    t.a.(t.n) <- ns;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  (* a duration that ended now *)
  let add t ns = add_at t ~at:(now_ns ()) ns
  let count t = t.n

  (* Nearest-rank quantile in microseconds; [nan] when empty. *)
  let quantile_us t q =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let i = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      us_of_ns s.(max 0 (min (t.n - 1) i))
    end

  let mean_us t =
    if t.n = 0 then nan
    else begin
      let s = ref 0 in
      for i = 0 to t.n - 1 do
        s := !s + t.a.(i)
      done;
      us_of_ns !s /. float_of_int t.n
    end

  (* The samples split by completion time into [slices] equal slices of
     the phase that started at [t0] and lasted [len] ns; samples
     completing after the phase go to the last slice. *)
  let slices t ~t0 ~len ~slices =
    let out = Array.init slices (fun _ -> create ()) in
    for i = 0 to t.n - 1 do
      let k = (t.at.(i) - t0) * slices / len in
      add_at out.(max 0 (min (slices - 1) k)) ~at:t.at.(i) t.a.(i)
    done;
    out
end

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The phase's throughput and latency metrics. The phase [t0, t1] is cut
   into one-second slices and each metric is the median of its value
   over the slices, so a burst of outside load in one slice does not
   move it. The tail is the 90th percentile: on the daemon under its
   default fsync policy the 99th followed the disk's fsync tail and moved
   by half its value from one run to the next. *)
let phase_metrics ~t0 ~t1 ~edits ~reads =
  let len = t1 - t0 in
  let k = max 1 (int_of_float (secs_of_ns len)) in
  let es = Samples.slices edits ~t0 ~len ~slices:k in
  let rs = Samples.slices reads ~t0 ~len ~slices:k in
  let over a f = median (Array.to_list (Array.map f a)) in
  let slice_s = secs_of_ns len /. float_of_int k in
  [
    ( "ops_per_s",
      median
        (List.init k (fun i ->
             float_of_int (Samples.count es.(i) + Samples.count rs.(i)) /. slice_s)),
      "1/s" );
    ("edit_p50_us", over es (fun s -> Samples.quantile_us s 0.5), "us");
    ("edit_p90_us", over es (fun s -> Samples.quantile_us s 0.9), "us");
    ("read_p50_us", over rs (fun s -> Samples.quantile_us s 0.5), "us");
    ("read_p90_us", over rs (fun s -> Samples.quantile_us s 0.9), "us");
  ]

(* A traced run's own throughput, beside the untraced ops_per_s: the
   difference is the cost of tracing. *)
let traced_ops phase =
  let _, v, u = List.find (fun (n, _, _) -> n = "ops_per_s") phase in
  ("trace.ops_per_s", v, u)

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                            *)
(* ------------------------------------------------------------------ *)

(* A span is a timed call into one layer, recorded from the benchmark's
   side of the call. Spans of one operation share its id; [parent] is
   the index of the enclosing span, -1 at the top. All spans stay in
   memory until {!Trace.write}. With tracing off, [span] is a branch and
   a call. *)
module Trace = struct
  type t = {
    enabled : bool;
    mutable names : string array;
    mutable ops : int array;
    mutable parents : int array;
    mutable t0 : int array;
    mutable t1 : int array;
    mutable n : int;
    mutable op : int;
    mutable cur : int;
  }

  let create ~enabled =
    let cap = if enabled then 65536 else 1 in
    {
      enabled;
      names = Array.make cap "";
      ops = Array.make cap 0;
      parents = Array.make cap 0;
      t0 = Array.make cap 0;
      t1 = Array.make cap 0;
      n = 0;
      op = 0;
      cur = -1;
    }

  (* Starts a new operation: the spans that follow share its id. *)
  let next_op t = t.op <- t.op + 1

  let grow t =
    let g a z =
      let b = Array.make (2 * Array.length a) z in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.names <- g t.names "";
    t.ops <- g t.ops 0;
    t.parents <- g t.parents 0;
    t.t0 <- g t.t0 0;
    t.t1 <- g t.t1 0

  let span t name f =
    if not t.enabled then f ()
    else begin
      if t.n = Array.length t.names then grow t;
      let i = t.n in
      t.n <- i + 1;
      t.names.(i) <- name;
      t.ops.(i) <- t.op;
      t.parents.(i) <- t.cur;
      t.cur <- i;
      let finish () =
        t.t1.(i) <- now_ns ();
        t.cur <- t.parents.(i)
      in
      t.t0.(i) <- now_ns ();
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  (* Records a span measured elsewhere (e.g. across a socket). *)
  let add t name ~t0 ~t1 =
    if t.enabled then begin
      if t.n = Array.length t.names then grow t;
      let i = t.n in
      t.n <- i + 1;
      t.names.(i) <- name;
      t.ops.(i) <- t.op;
      t.parents.(i) <- t.cur;
      t.t0.(i) <- t0;
      t.t1.(i) <- t1
    end

  (* Durations (ns) of every span with this name. *)
  let durations t name =
    let s = Samples.create () in
    for i = 0 to t.n - 1 do
      if t.names.(i) = name then Samples.add s (t.t1.(i) - t.t0.(i))
    done;
    s

  let median_us t name = Samples.quantile_us (durations t name) 0.5

  (* Chrome trace-event format ("X" complete events), loadable in
     Perfetto or chrome://tracing. *)
  let write t path =
    let oc = open_out path in
    let base = if t.n = 0 then 0 else t.t0.(0) in
    output_string oc "{\"traceEvents\":[\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        t.names.(i)
        (us_of_ns (t.t0.(i) - base))
        (us_of_ns (t.t1.(i) - t.t0.(i)))
        t.ops.(i) i t.parents.(i)
    done;
    output_string oc "]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Engine instruments (traced library runs)                           *)
(* ------------------------------------------------------------------ *)

(* The engine's own instruments: a telemetry recorder whose sink turns
   Exec_begin/Exec_end pairs into body self time (a body's time minus
   the nested bodies it called), and a metrics registry for the
   counters Engine.stats lacks (equality cutoffs). Both allocate per
   event, so a traced run uses them only in the second half of its
   phase and takes allocation figures from the first half.

   Every event emitted while a body runs (an edge recorded by a read, a
   nested body's begin, the body's own end) is paid inside that body's
   measured time. The sink counts those events in [inside]; the phase
   (see {!Phase}) prices them and takes them back out. *)
type instruments = {
  tel : Alphonse.Telemetry.t;
  exec_self_ns : int ref;
  inside : int ref;
  reg : Alphonse.Metrics.t;
}

let instruments () =
  let exec_self_ns = ref 0 and inside = ref 0 and stack = ref [] in
  let tel = Alphonse.Telemetry.create ~capacity:1024 () in
  Alphonse.Telemetry.set_sink tel
    (Some
       (fun r ->
         if !stack <> [] then incr inside;
         match r.Alphonse.Telemetry.ev with
         | Alphonse.Telemetry.Exec_begin _ -> stack := (now_ns (), ref 0) :: !stack
         | Alphonse.Telemetry.Exec_end _ -> (
           match !stack with
           | (t0, kids) :: rest ->
             let d = now_ns () - t0 in
             exec_self_ns := !exec_self_ns + d - !kids;
             (match rest with (_, pk) :: _ -> pk := !pk + d | [] -> ());
             stack := rest
           | [] -> ())
         | _ -> ()));
  { tel; exec_self_ns; inside; reg = Alphonse.Metrics.create () }

(* Attaches the instruments to the engine, or takes them off. *)
let attach eng i on =
  Alphonse.Engine.set_telemetry eng (if on then Some i.tel else None);
  Alphonse.Engine.set_metrics eng (if on then Some i.reg else None)

let cutoffs i =
  Alphonse.Metrics.counter_value (Alphonse.Metrics.counter i.reg "cutoffs_total")

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
  in
  let v = find () in
  close_in ic;
  v

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;
      (** self-test: one expected value per run is deliberately wrong,
          so the run must report at least one failed operation *)
  out_dir : string;  (** scratch space for state and traces, in the checkout *)
  alphonsec : string;  (** the CLI binary, for the daemon workload *)
}

(* Operation accounting. [check] counts one attempted operation and
   fails it when [ok] is false; the first few failures are described on
   stderr so a failing run says why. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: failed operation: " ^ what ())
  end

type result = {
  correct : bool;  (** every whole-run invariant held *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Runs [f] [warmup + n] times and returns the durations of the last
   [n], in seconds, together with the last result. Each run starts from
   a compacted heap, so garbage of the one before neither slows it nor
   raises the peak resident set. [before] runs untimed ahead of each
   run, [after] untimed on each result (checks go there). *)
let timed_runs ?(before = ignore) ?(after = ignore) ?(warmup = 0) n f =
  let rec go k acc last =
    if k = 0 then (acc, Option.get last)
    else begin
      before ();
      Gc.compact ();
      let t0 = now_ns () in
      let v = f () in
      let dt = secs_of_ns (now_ns () - t0) in
      after v;
      go (k - 1) (if k > n then acc else dt :: acc) (Some v)
    end
  in
  go (warmup + n) [] None

let median_of_runs ?before ?after ?warmup n f =
  let ds, v = timed_runs ?before ?after ?warmup n f in
  (median ds, v)
