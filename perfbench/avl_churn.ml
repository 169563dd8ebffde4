(* avl-churn: an order-statistic AVL tree (Trees.Ostat) held at a fixed
   key count while keys are inserted and deleted, with rank/select/mem
   reads in between.

   Why this workload: every rotation rewires tracked child pointers, so
   dependency edges churn on each edit — Depgraph.Graph edge records and
   removals, Order_list relabels and node creation do most of the work,
   while bodies are tiny. No WAL, undo log or protocol is involved.

   The model is a Fenwick tree over the key space, kept apart from the
   program: every answer is compared with it. *)

open Harness
module Engine = Alphonse.Engine
module Ostat = Trees.Ostat
module Avl = Trees.Avl

let keys = 20_000
let space = 2 * keys (* half the key space is present at any time *)
let setup_reps = 5
(* Restores, after one untimed restore: the first one after the phase
   ran about a fifth slower than the rest, and single restores vary by
   a fifth, so the median needs about ten. *)
let recover_reps = 9
(* rounds of the measured phase per second of --seconds: about one
   second's worth on the machine of the reference figures (14,400
   operations per second, six per round) *)
let rounds_per_s = 2_400

(* ------------------------------------------------------------------ *)
(* The model: membership, rank and select over [0, space)              *)
(* ------------------------------------------------------------------ *)

module Model = struct
  type t = {
    bit : int array; (* Fenwick tree, 1-based *)
    present : bool array;
    (* present and absent keys, each with a position index, so a random
       member or non-member is an O(1) pick *)
    members : int array;
    absent : int array;
    pos : int array;
    mutable n : int;
  }

  let create () =
    {
      bit = Array.make (space + 1) 0;
      present = Array.make space false;
      members = Array.make space 0;
      absent = Array.init space Fun.id;
      pos = Array.init space Fun.id;
      n = 0;
    }

  let bit_add m k d =
    let i = ref (k + 1) in
    while !i <= space do
      m.bit.(!i) <- m.bit.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* number of present keys < k *)
  let rank m k =
    let i = ref k and s = ref 0 in
    while !i > 0 do
      s := !s + m.bit.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  (* the i-th smallest present key, 0-based *)
  let select m i =
    let pos = ref 0 and rem = ref (i + 1) in
    let step = ref 1 in
    while !step * 2 <= space do
      step := !step * 2
    done;
    while !step > 0 do
      let nxt = !pos + !step in
      if nxt <= space && m.bit.(nxt) < !rem then begin
        pos := nxt;
        rem := !rem - m.bit.(nxt)
      end;
      step := !step / 2
    done;
    !pos

  (* members occupy [0, n) of [members]; absent keys [0, space - n) of
     [absent]; [pos] indexes whichever array holds the key *)
  let insert m k =
    let last = m.absent.(space - m.n - 1) in
    m.absent.(m.pos.(k)) <- last;
    m.pos.(last) <- m.pos.(k);
    m.members.(m.n) <- k;
    m.pos.(k) <- m.n;
    m.n <- m.n + 1;
    m.present.(k) <- true;
    bit_add m k 1

  let delete m k =
    let last = m.members.(m.n - 1) in
    m.members.(m.pos.(k)) <- last;
    m.pos.(last) <- m.pos.(k);
    m.n <- m.n - 1;
    m.absent.(space - m.n - 1) <- k;
    m.pos.(k) <- space - m.n - 1;
    m.present.(k) <- false;
    bit_add m k (-1)

  let sorted m = List.filter (fun k -> m.present.(k)) (List.init space Fun.id)
end

(* ------------------------------------------------------------------ *)
(* Set-up and recovery                                                 *)
(* ------------------------------------------------------------------ *)

(* The initial key set: [keys] distinct keys drawn by the seed. *)
let initial_keys rng =
  let a = Array.init space Fun.id in
  for i = space - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 keys

let build init =
  let eng = Engine.create () in
  let t = Ostat.create eng in
  Array.iter (Ostat.insert t) init;
  Avl.rebalance (Ostat.avl t);
  let n = Ostat.size t in
  (eng, t, n)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run cfg =
  let rng = Random.State.make [| cfg.seed; 0xa71 |] in
  let tl = tally () in
  let model = Model.create () in
  let init = initial_keys rng in
  Array.iter (Model.insert model) init;
  let setup_s, (eng, t, _) =
    median_of_runs setup_reps
      ~after:(fun (_, _, n) ->
        check tl (n = keys) (fun () -> Printf.sprintf "size after set-up %d" n))
      (fun () -> build init)
  in
  let avl = Ostat.avl t in
  let tr = Trace.create ~enabled:cfg.trace in
  let ph = Phase.create cfg eng tr in
  let corrupt = ref cfg.corrupt in
  (* edit: insert an absent key (or delete a present one), rebalance,
     and observe the edited key's rank *)
  let edit ~insert =
    let k =
      if insert then model.absent.(Random.State.int rng (space - model.n))
      else model.members.(Random.State.int rng model.n)
    in
    if insert then Model.insert model k else Model.delete model k;
    let r =
      Phase.edit ph (fun () ->
          Trace.span tr "avl.mutate" (fun () ->
              if insert then Ostat.insert t k else Ostat.delete t k);
          Trace.span tr "avl.rebalance" (fun () -> Avl.rebalance avl);
          Trace.span tr "ostat.rank" (fun () -> Ostat.rank t k))
    in
    let expect = Model.rank model k + if !corrupt then 1 else 0 in
    corrupt := false;
    check tl (r = expect) (fun () ->
        Printf.sprintf "rank %d after %s: got %d, expected %d" k
          (if insert then "insert" else "delete")
          r expect)
  in
  let read_rank () =
    let k = Random.State.int rng space in
    let r = Phase.read ph (fun () -> Trace.span tr "ostat.rank" (fun () -> Ostat.rank t k)) in
    check tl (r = Model.rank model k) (fun () -> Printf.sprintf "rank %d" k)
  and read_select () =
    let i = Random.State.int rng model.n in
    let k = Phase.read ph (fun () -> Trace.span tr "ostat.select" (fun () -> Ostat.select t i)) in
    check tl (k = Model.select model i) (fun () -> Printf.sprintf "select %d" i)
  and read_mem () =
    let k = Random.State.int rng space in
    let b = Phase.read ph (fun () -> Trace.span tr "ostat.mem" (fun () -> Ostat.mem t k)) in
    check tl (b = model.present.(k)) (fun () -> Printf.sprintf "mem %d" k)
  in
  (* whole rounds: two edits, after which the key count is back at
     [keys], and four reads *)
  let e2e, layers =
    Phase.run ph ~rounds_per_s (fun () ->
        edit ~insert:true;
        read_rank ();
        read_select ();
        edit ~insert:false;
        read_mem ();
        read_rank ())
  in
  (* end-of-run invariants: the tree holds exactly the model's keys and
     is a balanced search tree *)
  let root = Avl.root avl in
  let final_ok =
    Ostat.to_list t = Model.sorted model
    && Avl.is_balanced root && Avl.is_ordered root
  in
  if not final_ok then prerr_endline "perfbench: avl-churn final state differs";
  (* recovery, after the phase so its memory stays out of peak_rss_mb:
     snapshot a fresh build of the set-up state, then restore it into a
     fresh engine [recover_reps] times; each restore must give back the
     set-up key set, undegraded *)
  let dir = Filename.concat cfg.out_dir "avl-state" in
  (let eng, t, _ = build init in
   let s = Alphonse.Durable.attach ~dir eng (Avl.persist (Ostat.avl t)) in
   ignore (Alphonse.Durable.checkpoint s : string);
   Alphonse.Durable.detach s);
  let expect_keys = List.sort compare (Array.to_list init) in
  let recover_s, _ =
    median_of_runs ~warmup:1 recover_reps
      ~after:(fun (o, t2, n) ->
        check tl
          ((not o.Alphonse.Durable.o_degraded) && n = keys && Ostat.to_list t2 = expect_keys)
          (fun () ->
            Printf.sprintf "recovered tree: size %d, degraded %b" n o.o_degraded))
      (fun () ->
        let t2 = Ostat.create (Engine.create ()) in
        let o =
          Alphonse.Durable.recover ~dir (Ostat.engine t2) (Avl.persist (Ostat.avl t2))
        in
        (o, t2, Ostat.size t2))
  in
  let spans =
    [
      ("avl.mutate_us", Trace.median_us tr "avl.mutate", "us");
      ("avl.rebalance_us", Trace.median_us tr "avl.rebalance", "us");
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
