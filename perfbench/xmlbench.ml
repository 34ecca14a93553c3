(* The benchmark command:

     xmlbench --workload NAME --seed N --seconds S --trace 0|1

   The inputs are generated from the seed first, outside every timing.
   Untraced (--trace 0) it then sets the workload up several times
   (setup_s is the median), checks the set-up stores, then runs whole
   rounds of the workload until S seconds have passed and enough queries
   were sampled for a p99 with ten samples above it. It prints a report,
   then one JSON line with the end-to-end metrics. Traced (--trace 1) it
   sets up once, runs S/2 seconds with every trace sampled (spans opened
   around each layer call), probes each layer directly, writes and
   validates a Chrome trace under .perfbench/, measures the tracing
   overhead on the workload's queries, and prints the per-layer metrics
   instead. *)

module M = Measure

(* p99 is reported with at least ten samples above it *)
let min_queries = 1000


type workload = {
  setups : int;
      (* setup_s is the median of this many set-ups: about a second of
         them, so a set-up of a few milliseconds still has a median that
         holds still *)
  setup : Ctx.t -> unit;  (* timed; the program's work the measured phase starts from *)
  verify : Ctx.t -> unit;  (* checks what set-up built *)
  measure : Ctx.t -> deadline:int -> min_queries:int -> after_round:(unit -> unit) -> unit;
  query_pass : Ctx.t -> unit;  (* a fixed batch of the workload's queries, for the overhead figure *)
  probes : Ctx.t -> unit;
  stored_bytes_per_xml_byte : unit -> float;
  report : Ctx.t -> string list;  (* workload-specific end-to-end figures *)
  teardown : unit -> unit;
}

(* Whole rounds until the deadline has passed and [min_queries] were
   sampled; always at least one. *)
let rounds round (ctx : Ctx.t) ~deadline ~min_queries ~after_round =
  let go () =
    round ctx;
    after_round ()
  in
  go ();
  while M.now_ns () < deadline || M.count ctx.query_ms < min_queries do
    go ()
  done

let line name unit_ v = Printf.sprintf "figure %-28s %14.4f %s" name v unit_

let commit_line (ctx : Ctx.t) =
  let s = Ctx.series ctx.named "commit_ms" in
  line "commit_p50_ms" "ms" (M.median s) :: [ Printf.sprintf "  (%d commits)" (M.count s) ]

let xmark_read ~seed =
  let inputs = Read.inputs ~seed in
  let env = ref None in
  let st = ref None in
  let get r = Option.get !r in
  let state () =
    (match !st with None -> st := Some (Read.start (get env) ~seed) | Some _ -> ());
    get st
  in
  {
    setups = 6;
    setup = (fun ctx -> env := Some (Read.setup inputs ctx); st := None);
    verify = (fun ctx -> Read.verify (get env) ctx);
    measure = (fun ctx -> rounds (fun ctx -> Read.round (state ()) ctx) ctx);
    query_pass = (fun ctx -> Read.query_pass (state ()) ctx);
    probes = (fun ctx -> Read.probes (state ()) ctx);
    stored_bytes_per_xml_byte = (fun () -> Read.stored_bytes_per_xml_byte (get env));
    report = (fun _ -> []);
    teardown = ignore;
  }

let pool_rw ~seed =
  let doc = Inputs.main_auction seed in
  let env = ref None in
  let get () = Option.get !env in
  {
    setups = 5;
    setup = (fun ctx -> env := Some (Pool_rw.setup ~seed doc ctx));
    verify = (fun ctx -> Pool_rw.verify (get ()) ctx);
    measure =
      (fun ctx ~deadline ~min_queries ~after_round ->
        Pool_rw.measure (get ()) ctx ~deadline ~min_queries;
        after_round ());
    query_pass = (fun ctx -> Pool_rw.query_pass (get ()) ctx);
    probes = (fun ctx -> Pool_rw.probes (get ()) ctx);
    stored_bytes_per_xml_byte = (fun () -> Pool_rw.stored_bytes_per_xml_byte (get ()));
    report = (fun ctx -> Printf.sprintf "readers %d, one commit per %d reader-0 queries" Pool_rw.readers Pool_rw.queries_per_commit :: commit_line ctx);
    teardown = ignore;
  }

let corpus_ingest ~seed =
  let env = Ingest.make ~seed in
  let st = ref None in
  let state () =
    (match !st with None -> st := Some (Ingest.start env) | Some _ -> ());
    Option.get !st
  in
  let nodes () = float_of_int (Ingest.corpus_nodes env) in
  let rate name (ctx : Ctx.t) =
    let s = Ctx.series ctx.named name in
    M.ratio (nodes () *. float_of_int (M.count s)) (M.total s /. 1e9)
  in
  {
    setups = 25;
    setup = Ingest.setup env;
    verify = Ingest.verify env;
    measure = (fun ctx -> rounds (fun ctx -> Ingest.round (state ()) ctx) ctx);
    query_pass =
      (fun ctx ->
        let st = state () in
        Option.iter (Ingest.query_pass st ctx) st.Ingest.last);
    probes = (fun ctx -> Ingest.probes (state ()) ctx);
    stored_bytes_per_xml_byte = (fun () -> Ingest.stored_bytes_per_xml_byte (state ()));
    report =
      (fun ctx ->
        let upd = Ctx.series ctx.named "update_ms" in
        Printf.sprintf "corpus %d documents, %d nodes, %d bytes of XML"
          (Array.length env.Ingest.corpus) (int_of_float (nodes ()))
          (Array.fold_left (fun a (d : Inputs.doc) -> a + String.length d.xml) 0 env.Ingest.corpus)
        :: commit_line ctx
        @ [
            line "update_ops_per_s" "1/s" (M.ratio (float_of_int (M.count upd)) (M.total upd /. 1e3));
            line "recover_nodes_per_s" "nodes/s" (rate "recover_ns" ctx);
            line "restore_nodes_per_s" "nodes/s" (rate "restore_ns" ctx);
            "phase wall time per scheme:";
          ]
        @ Ingest.phase_report ctx);
    teardown = (fun () -> Option.iter Ingest.teardown !st);
  }

let workloads = [ ("xmark-read", xmark_read); ("pool-rw", pool_rw); ("corpus-ingest", corpus_ingest) ]

(* ------------------------------------------------------------------ *)

let queries_per_s (ctx : Ctx.t) =
  M.ratio (float_of_int (M.count ctx.query_ms)) (M.s_of_ns ctx.query_wall_ns)

(* The measured phase's figure if it did that work, else set-up's. *)
let rate (setup : Ctx.t) (run : Ctx.t) table =
  if Hashtbl.length (table run) > 0 then Ctx.nodes_per_s (table run) else Ctx.nodes_per_s (table setup)

let untraced w ~seconds =
  let sctx = Ctx.create ~traced:false in
  let setup_s = M.samples () in
  for _ = 1 to w.setups do
    Gc.full_major ();
    let t0 = M.now_ns () in
    w.setup sctx;
    M.add setup_s (M.s_of_ns (M.now_ns () - t0))
  done;
  w.verify sctx;
  let ctx = Ctx.create ~traced:false in
  (* every run starts its measured phase from a compacted heap *)
  Gc.compact ();
  let deadline = M.now_ns () + (seconds * 1_000_000_000) in
  w.measure ctx ~deadline ~min_queries ~after_round:ignore;
  let n = M.count ctx.query_ms in
  let p99 = M.percentile ctx.query_ms 0.99 in
  let above = Array.fold_left (fun acc v -> if v > p99 then acc + 1 else acc) 0 (M.sorted ctx.query_ms) in
  let report =
    Printf.sprintf "queries %d, %d above p99" n above :: w.report ctx
  in
  let metrics =
    [
      M.metric "setup_s" "s" (M.median setup_s);
      M.metric "queries_per_s" "1/s" (queries_per_s ctx);
      M.metric "query_p50_ms" "ms" (M.median ctx.query_ms);
      M.metric "query_p99_ms" "ms" p99;
      M.metric "load_nodes_per_s" "nodes/s" (rate sctx ctx (fun c -> c.Ctx.loads));
      M.metric "reconstruct_nodes_per_s" "nodes/s" (rate sctx ctx (fun c -> c.Ctx.recons));
      M.metric "stored_bytes_per_xml_byte" "ratio" (w.stored_bytes_per_xml_byte ());
      M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
    ]
  in
  M.merge_ops ctx.ops sctx.ops;
  (ctx.ops, report, metrics)

(* Tracing overhead on the workload's queries: the same query passes with
   sampling off and with every trace sampled, in the order off, on, on,
   off so a steady drift of the host's speed cancels. Nothing else
   differs: no benchmark span, no per-layer sampling. *)
let overhead w =
  let plain = Ctx.create ~traced:false and sampled = Ctx.create ~traced:false in
  List.iter
    (fun (ctx, sampling) ->
      Obskit.Trace.set_sampling sampling;
      w.query_pass ctx;
      Obskit.Trace.set_sampling Obskit.Trace.Off;
      Obskit.Trace.clear ())
    [ (plain, Obskit.Trace.Off); (sampled, Obskit.Trace.Always); (sampled, Obskit.Trace.Always);
      (plain, Obskit.Trace.Off) ];
  (plain, sampled)

let traced w ~workload ~seconds =
  let sctx = Ctx.create ~traced:false in
  w.setup sctx;
  w.verify sctx;
  let half = max 1 (seconds / 2) * 1_000_000_000 in
  Gc.full_major ();
  let collector = Traced.start () in
  let base = Traced.baseline () in
  let ctx = Ctx.create ~traced:true in
  w.measure ctx ~deadline:(M.now_ns () + half) ~min_queries:0 ~after_round:(fun () -> Traced.drain collector);
  let deltas = Traced.deltas base in
  let queries = M.count ctx.query_ms in
  let qps = queries_per_s ctx in
  w.probes ctx;
  Traced.stop collector;
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  let path = Printf.sprintf ".perfbench/trace-%s.json" workload in
  let trace_line, trace_ok = Traced.export collector ~path in
  ignore (M.attempt ctx.ops "trace-check" (fun () -> trace_ok));
  let plain, sampled = overhead w in
  let metrics =
    Traced.per_layer ~ctx ~d:deltas ~queries
      ~commits:(deltas.counter "pool.commit")
      ~trace_overhead_pct:(100. *. (M.ratio (queries_per_s plain) (queries_per_s sampled) -. 1.))
      ~spans_dropped:collector.dropped
  in
  let report =
    (Printf.sprintf "traced phase %.2f queries/s; overhead passes: %d queries at %.2f/s untraced, %d at %.2f/s sampled"
       qps (M.count plain.query_ms) (queries_per_s plain) (M.count sampled.query_ms) (queries_per_s sampled)
    :: trace_line :: "per-scheme and workload-specific layer timings:" :: Traced.table_only ~ctx)
    @ Traced.self_time_table collector
  in
  M.merge_ops ctx.ops plain.ops;
  M.merge_ops ctx.ops sampled.ops;
  M.merge_ops ctx.ops sctx.ops;
  (ctx.ops, report, metrics)

let usage () =
  prerr_endline
    "usage: xmlbench --workload (xmark-read|pool-rw|corpus-ingest) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun _ -> usage ())
    "xmlbench --workload NAME --seed N --seconds S --trace 0|1";
  let make = match List.assoc_opt !workload workloads with Some m -> m | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let w = make ~seed:!seed in
  let ops, report, metrics =
    Fun.protect ~finally:w.teardown (fun () ->
        if !trace = 1 then traced w ~workload:!workload ~seconds:!seconds
        else untraced w ~seconds:!seconds)
  in
  M.print_result ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~report ops metrics
