(* sheet-recalc: one large Spreadsheet.Sheet of integer-valued formulas,
   edited with Sheet.set and read with Sheet.value.

   Why this workload: an edit propagates widely — a running-total chain,
   a SUM over every row, ROUND cells whose unchanged values cut the
   propagation off — so Flat_heap pops, equality cutoffs and formula
   bodies dominate, while dependencies are mostly static. The engine
   stays in its quick regime (no transaction, no journal): this is the
   same Sheet/Engine code the daemon workload runs, minus the undo log
   and the WAL.

   Layout, row r of [rows] (1-based in cell names), rows grouped in
   blocks of [block]:
     A r  input constant 0..999
     B r  input constant 0..99
     C r  =A r+3*B r            (a rewrite may add +A r' of another row)
     D r  =C r, or =D r-1+C r   (running total within the block)
     E r  =ROUND(D r/100000)     (cuts propagation when unchanged)
     G1   =SUM(C1:C rows)       (wide fan-in over every row)
     G2   =SUM(E1:E rows)       (fan-in behind the cutoffs)
     G3   =G1+G2                (the observed total)

   The model evaluates the same integer formulas itself; every read is
   compared with it, and every edit's re-execution count is bounded by
   the model's count of cells downstream of the edited cell. *)

open Harness
module Engine = Alphonse.Engine
module Sheet = Spreadsheet.Sheet

let rows = 1000
let block = 50
(* set-up and restore take a twentieth and a tenth of a second, so they
   are repeated until their medians span seconds of the machine's noise
   (its speed moves by a fifth from one half second to the next); the
   restores follow one untimed restore *)
let setup_reps = 25
let recover_reps = 41
(* One edit in 16 rewrites a row formula, and each round is one edit
   and three reads. Both ratios are assumptions: no measured mix of
   sheet traffic exists to take them from. *)
let rewrite_every = 16
(* rounds of the measured phase per second of --seconds: about one
   second's worth on the machine of the reference figures (6,200
   operations per second, four per round) *)
let rounds_per_s = 1_500

let name col r = Printf.sprintf "%c%d" col (r + 1)

(* ------------------------------------------------------------------ *)
(* The model                                                           *)
(* ------------------------------------------------------------------ *)

type model = {
  a : int array;
  b : int array;
  extra : int array; (* row whose A the C formula also adds, or -1 *)
  c : int array;
  d : int array;
  e : int array;
  mutable g1 : int;
  mutable g2 : int;
}

(* ROUND of a non-negative quotient, half away from zero — what
   [Float.round (d /. 100000.)] gives for these magnitudes *)
let round_div x = (x + 50_000) / 100_000

let c_of m r = m.a.(r) + (3 * m.b.(r)) + if m.extra.(r) >= 0 then m.a.(m.extra.(r)) else 0

let c_formula m r =
  if m.extra.(r) >= 0 then
    Printf.sprintf "=A%d+3*B%d+A%d" (r + 1) (r + 1) (m.extra.(r) + 1)
  else Printf.sprintf "=A%d+3*B%d" (r + 1) (r + 1)

(* Recomputes the block holding row [r] from C down; returns the number
   of cells downstream of a change to C r, C r included (C r, D and E
   from r to the block end). *)
let recompute_from m r =
  let stop = ((r / block) + 1) * block in
  for i = r to stop - 1 do
    let c = c_of m i in
    m.g1 <- m.g1 - m.c.(i) + c;
    m.c.(i) <- c;
    m.d.(i) <- (if i mod block = 0 then c else m.d.(i - 1) + c);
    let e = round_div m.d.(i) in
    m.g2 <- m.g2 - m.e.(i) + e;
    m.e.(i) <- e
  done;
  1 + (2 * (stop - r))

let g3 m = m.g1 + m.g2

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let build m =
  let s = Sheet.create () in
  for r = 0 to rows - 1 do
    Sheet.set s (name 'A' r) (string_of_int m.a.(r));
    Sheet.set s (name 'B' r) (string_of_int m.b.(r));
    Sheet.set s (name 'C' r) (c_formula m r);
    Sheet.set s (name 'D' r)
      (if r mod block = 0 then Printf.sprintf "=C%d" (r + 1)
       else Printf.sprintf "=D%d+C%d" r (r + 1));
    Sheet.set s (name 'E' r) (Printf.sprintf "=ROUND(D%d/100000)" (r + 1))
  done;
  Sheet.set s "G1" (Printf.sprintf "=SUM(C1:C%d)" rows);
  Sheet.set s "G2" (Printf.sprintf "=SUM(E1:E%d)" rows);
  Sheet.set s "G3" "=G1+G2";
  let v = Sheet.value_at s "G3" in
  (s, v)

let value_is v n = match v with Sheet.Num x -> x = float_of_int n | _ -> false

let show v = Format.asprintf "%a" Sheet.pp_value v

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run cfg =
  let rng = Random.State.make [| cfg.seed; 0x5ee7 |] in
  let tl = tally () in
  let m =
    {
      a = Array.init rows (fun _ -> Random.State.int rng 1000);
      b = Array.init rows (fun _ -> Random.State.int rng 100);
      extra = Array.make rows (-1);
      c = Array.make rows 0;
      d = Array.make rows 0;
      e = Array.make rows 0;
      g1 = 0;
      g2 = 0;
    }
  in
  let r = ref 0 in
  while !r < rows do
    ignore (recompute_from m !r : int);
    r := !r + block
  done;
  let setup_g3 = g3 m in
  let setup_s, (sheet, _) =
    median_of_runs setup_reps
      ~after:(fun (_, v) ->
        check tl (value_is v setup_g3) (fun () -> "G3 after set-up: " ^ show v))
      (fun () -> build m)
  in
  (* the set-up inputs, rebuilt for the recovery stage after the phase *)
  let m0 = { m with a = Array.copy m.a; b = Array.copy m.b; extra = Array.copy m.extra } in
  let eng = Sheet.engine sheet in
  let tr = Trace.create ~enabled:cfg.trace in
  let ph = Phase.create cfg eng tr in
  (* rows whose C formula adds A of row r, for downstream counting *)
  let refs = Array.make rows [] in
  let corrupt = ref cfg.corrupt in
  let nedit = ref 0 in
  (* edit: change one input constant (or, every [rewrite_every]th edit,
     rewrite a row formula), then observe G3 *)
  let edit () =
    incr nedit;
    let r = Random.State.int rng rows in
    let cell, input, downstream =
      if !nedit mod rewrite_every = 0 then begin
        (* toggle the extra reference of row r's C formula *)
        let old = m.extra.(r) in
        if old >= 0 then refs.(old) <- List.filter (( <> ) r) refs.(old);
        m.extra.(r) <-
          (if old >= 0 then -1
           else begin
             let x = Random.State.int rng rows in
             refs.(x) <- r :: refs.(x);
             x
           end);
        (name 'C' r, c_formula m r, recompute_from m r)
      end
      else if Random.State.bool rng then begin
        m.a.(r) <- Random.State.int rng 1000;
        (* A r feeds C r and every C that adds it *)
        let n =
          List.fold_left (fun acc x -> acc + recompute_from m x) 0 (r :: refs.(r))
        in
        (name 'A' r, string_of_int m.a.(r), 1 + n)
      end
      else begin
        m.b.(r) <- Random.State.int rng 100;
        (name 'B' r, string_of_int m.b.(r), 1 + recompute_from m r)
      end
    in
    let re0 = Phase.reexec (Engine.stats eng) in
    let v =
      Phase.edit ph (fun () ->
          Trace.span tr "sheet.set" (fun () -> Sheet.set sheet cell input);
          Trace.span tr "sheet.value" (fun () -> Sheet.value_at sheet "G3"))
    in
    let reexec = Phase.reexec (Engine.stats eng) - re0 in
    let expect = g3 m + if !corrupt then 1 else 0 in
    corrupt := false;
    (* G1, G2 and G3 sit downstream of every edit *)
    check tl
      (value_is v expect && reexec <= downstream + 3)
      (fun () ->
        Printf.sprintf
          "set %s %s: G3 %s, expected %d; %d re-executions, %d cells downstream"
          cell input (show v) expect reexec (downstream + 3))
  in
  let read () =
    let r = Random.State.int rng rows in
    let coord, expect =
      match Random.State.int rng 4 with
      | 0 -> ((2, r), m.c.(r))
      | 1 -> ((3, r), m.d.(r))
      | 2 -> ((4, r), m.e.(r))
      | _ -> if r mod 2 = 0 then ((6, 0), m.g1) else ((6, 2), g3 m)
    in
    let v = Phase.read ph (fun () -> Trace.span tr "sheet.value" (fun () -> Sheet.value sheet coord)) in
    check tl (value_is v expect) (fun () ->
        Printf.sprintf "read %s: %s, expected %d"
          (Spreadsheet.Formula.name_of_cell coord)
          (show v) expect)
  in
  (* whole rounds: one edit, three reads *)
  let e2e, layers =
    Phase.run ph ~rounds_per_s (fun () ->
        edit ();
        read ();
        read ();
        read ())
  in
  (* end-of-run invariant: every formula cell equals the model *)
  let final_ok =
    let ok = ref (value_is (Sheet.value_at sheet "G3") (g3 m)) in
    for r = 0 to rows - 1 do
      List.iter
        (fun (col, x) -> if not (value_is (Sheet.value sheet (col, r)) x) then ok := false)
        [ (2, m.c.(r)); (3, m.d.(r)); (4, m.e.(r)) ]
    done;
    !ok
  in
  if not final_ok then prerr_endline "perfbench: sheet-recalc final state differs";
  (* recovery, after the phase so its memory stays out of peak_rss_mb:
     snapshot a fresh build of the set-up sheet, restore it into a fresh
     sheet [recover_reps] times; the restored G3 must be the set-up one *)
  let dir = Filename.concat cfg.out_dir "sheet-state" in
  (let s0, _ = build m0 in
   let s = Alphonse.Durable.attach ~dir (Sheet.engine s0) (Sheet.persist s0) in
   ignore (Alphonse.Durable.checkpoint s : string);
   Alphonse.Durable.detach s);
  let recover_s, _ =
    median_of_runs ~warmup:1 recover_reps
      ~after:(fun (o, v) ->
        check tl
          ((not o.Alphonse.Durable.o_degraded) && value_is v setup_g3)
          (fun () ->
            Printf.sprintf "recovered G3 %s, degraded %b" (show v) o.o_degraded))
      (fun () ->
        let s2 = Sheet.create () in
        let o = Alphonse.Durable.recover ~dir (Sheet.engine s2) (Sheet.persist s2) in
        (o, Sheet.value_at s2 "G3"))
  in
  let spans =
    [
      ("sheet.set_us", Trace.median_us tr "sheet.set", "us");
      ("sheet.value_us", Trace.median_us tr "sheet.value", "us");
    ]
  in
  ( tr,
    {
      correct = final_ok;
      attempted = tl.attempted;
      failed = tl.failed;
      metrics =
        (if cfg.trace then spans @ layers
         else ("setup_s", setup_s, "s") :: ("recover_s", recover_s, "s") :: e2e);
    } )
