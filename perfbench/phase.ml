(* The measured phase of a library workload (avl-churn, sheet-recalc):
   a closed loop of whole rounds of edits and reads against one engine,
   each call into the program timed.

   A run does a fixed number of rounds: [rounds_per_s] (sized to one
   second of rounds on the machine of the reference figures) times the
   run's seconds. Every commit then does the same work, so figures that
   grow with the work done (avl-churn's graph and its peak RSS) compare
   like with like; a phase cut at a deadline would let a faster commit
   do more edits and so grow more.

   A traced run splits the phase in two halves. The first half counts
   minor words per call and GC work, with nothing attached to the
   engine. The second half has the engine's telemetry and metrics (see
   {!Harness.instruments}) attached on every other round, for body self
   time and cutoffs; their own allocations would otherwise show in the
   first half's figures.

   Body self time is measured with telemetry attached, and the events a
   body emits (about 4,500 per edit on sheet-recalc, half of them edge
   records) are paid inside it. The phase prices one event from the
   second half: the mean edit time of the rounds with the instruments
   on, minus that of the rounds with them off, over the events emitted
   per edit. It takes that price times the events emitted inside bodies
   back out of the self time. Rounds on and off alternate, so a change
   in the machine's speed during the run moves both alike. The result
   is an estimate: it holds as far as an event inside a body costs what
   an event outside one does. Bookkeeping is the mean edit time of the
   rounds with the instruments off minus that self time. *)

open Harness
module Engine = Alphonse.Engine

type t = {
  cfg : config;
  eng : Engine.t;
  tr : Trace.t;
  edit_lat : Samples.t;
  read_lat : Samples.t;
  mutable edits : int;
  mutable reads : int;
  mutable inst : instruments option;
  mutable on : bool;  (** the instruments are attached this round *)
  (* first half of a traced run *)
  mutable a_edits : int;
  mutable a_reads : int;
  mutable a_edit_words : float;
  mutable a_read_words : float;
  mutable read_hits : int;
  (* second half of a traced run, rounds with the instruments on: edits,
     their time, the events they emitted, those emitted inside bodies,
     and body self time; then rounds with them off: edits, their time *)
  mutable b_edits : int;
  mutable b_edit_ns : int;
  mutable b_events : int;
  mutable b_inside : int;
  mutable b_self_ns : int;
  mutable c_edits : int;
  mutable c_edit_ns : int;
}

let create cfg eng tr =
  {
    cfg;
    eng;
    tr;
    edit_lat = Samples.create ();
    read_lat = Samples.create ();
    edits = 0;
    reads = 0;
    inst = None;
    on = false;
    a_edits = 0;
    a_reads = 0;
    a_edit_words = 0.;
    a_read_words = 0.;
    read_hits = 0;
    b_edits = 0;
    b_edit_ns = 0;
    b_events = 0;
    b_inside = 0;
    b_self_ns = 0;
    c_edits = 0;
    c_edit_ns = 0;
  }

(* One timed call; [edit] says which latency it counts towards. Its
   spans are whatever [f] records, under a top span named [name]. *)
let call t ~edit name f =
  Trace.next_op t.tr;
  let first_half = t.cfg.trace && t.inst = None in
  let h0 = if first_half && not edit then (Engine.stats t.eng).cache_hits else 0 in
  let w0 = if first_half then Gc.minor_words () else 0. in
  let i0 =
    match t.inst with
    | Some i when edit && t.on ->
      (Alphonse.Telemetry.total_emitted i.tel, !(i.inside), !(i.exec_self_ns))
    | _ -> (0, 0, 0)
  in
  let t0 = now_ns () in
  let v = Trace.span t.tr name f in
  let dt = now_ns () - t0 in
  let w = if first_half then Gc.minor_words () -. w0 else 0. in
  if edit then begin
    Samples.add t.edit_lat dt;
    t.edits <- t.edits + 1;
    if first_half then begin
      t.a_edits <- t.a_edits + 1;
      t.a_edit_words <- t.a_edit_words +. w
    end
    else
      match t.inst with
      | Some i when t.on ->
        let e0, in0, s0 = i0 in
        t.b_edits <- t.b_edits + 1;
        t.b_edit_ns <- t.b_edit_ns + dt;
        t.b_events <- t.b_events + Alphonse.Telemetry.total_emitted i.tel - e0;
        t.b_inside <- t.b_inside + !(i.inside) - in0;
        t.b_self_ns <- t.b_self_ns + !(i.exec_self_ns) - s0
      | Some _ ->
        t.c_edits <- t.c_edits + 1;
        t.c_edit_ns <- t.c_edit_ns + dt
      | None -> ()
  end
  else begin
    Samples.add t.read_lat dt;
    t.reads <- t.reads + 1;
    if first_half then begin
      t.a_reads <- t.a_reads + 1;
      t.a_read_words <- t.a_read_words +. w;
      t.read_hits <- t.read_hits + ((Engine.stats t.eng).cache_hits - h0)
    end
  end;
  v

let edit t f = call t ~edit:true "edit" f
let read t f = call t ~edit:false "read" f

let reexec (s : Engine.stats) = s.executions - s.first_executions

(* Runs [round] [rounds_per_s * seconds] times; returns the end-to-end
   metrics the phase itself measures and, in a traced run, the engine,
   graph and GC layer metrics. *)
let run t ~rounds_per_s round =
  let st0 = Engine.stats t.eng and g0 = Engine.graph_stats t.eng in
  let gc0 = Gc.quick_stat () in
  let gc_a = ref gc0 in
  let rounds = max 2 (int_of_float (float_of_int rounds_per_s *. t.cfg.seconds)) in
  let t_start = now_ns () in
  for k = 1 to rounds do
    if t.cfg.trace && k = (rounds / 2) + 1 then begin
      gc_a := Gc.quick_stat ();
      t.inst <- Some (instruments ())
    end;
    Option.iter
      (fun i ->
        t.on <- not t.on;
        attach t.eng i t.on)
      t.inst;
    round ()
  done;
  let t_end = now_ns () in
  let st1 = Engine.stats t.eng and g1 = Engine.graph_stats t.eng in
  let rss = vm_hwm_mb (Unix.getpid ()) in
  let edits = float_of_int t.edits in
  let per_edit a b = float_of_int (b - a) /. edits in
  let phase = phase_metrics ~t0:t_start ~t1:t_end ~edits:t.edit_lat ~reads:t.read_lat in
  let e2e =
    phase
    @ [
      ("peak_rss_mb", rss, "MiB");
      ("reexec_per_edit", per_edit (reexec st0) (reexec st1), "count");
    ]
  in
  let layers =
    match t.inst with
    | None -> []
    | Some i ->
      let gc_a = !gc_a in
      let a_ops = float_of_int (t.a_edits + t.a_reads) in
      let b_edits = float_of_int t.b_edits in
      attach t.eng i false;
      let off_ns = float_of_int t.c_edit_ns /. float_of_int t.c_edits in
      let per_b x = float_of_int x /. b_edits in
      (* the price of one telemetry event, from rounds on against off *)
      let event_ns =
        if t.b_events = 0 then 0.
        else Float.max 0. ((per_b t.b_edit_ns -. off_ns) /. per_b t.b_events)
      in
      let self_us = (per_b t.b_self_ns -. (event_ns *. per_b t.b_inside)) *. 1e-3 in
      [
        traced_ops phase;
        ("engine.settle_steps_per_edit", per_edit st0.settle_steps st1.settle_steps, "count");
        ("engine.queue_pushes_per_edit", per_edit st0.queue_pushes st1.queue_pushes, "count");
        ("engine.cutoffs_per_edit", float_of_int (cutoffs i) /. b_edits, "count");
        ( "engine.cache_hits_per_read",
          float_of_int t.read_hits /. float_of_int t.a_reads,
          "count" );
        ("engine.exec_self_us_per_edit", self_us, "us");
        ( "engine.bookkeeping_us_per_edit",
          (off_ns *. 1e-3) -. self_us,
          "us" );
        ("graph.edges_added_per_edit", per_edit g0.total_edges g1.total_edges, "count");
        ("graph.edges_removed_per_edit", per_edit g0.removed_edges g1.removed_edges, "count");
        ("graph.nodes_created_per_edit", per_edit g0.total_nodes g1.total_nodes, "count");
        ("graph.live_nodes_end", float_of_int g1.live_nodes, "count");
        ("graph.live_edges_end", float_of_int g1.live_edges, "count");
        ("order.relabels_per_edit", per_edit g0.order_relabels g1.order_relabels, "count");
        ("gc.minor_words_per_edit", t.a_edit_words /. float_of_int t.a_edits, "words");
        ("gc.minor_words_per_read", t.a_read_words /. float_of_int t.a_reads, "words");
        ( "gc.major_collections_per_kop",
          float_of_int (gc_a.major_collections - gc0.major_collections)
          /. (a_ops /. 1000.),
          "count" );
        ( "gc.top_heap_mb",
          float_of_int (gc_a.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
          "MiB" );
      ]
  in
  (e2e, layers)
