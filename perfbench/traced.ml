(* The traced run: registry and GC deltas over the traced phase, span
   self times, the Chrome trace export and its validation, and the
   per-layer metric set. Spans are only ever opened by the benchmark
   ([Ctx.span]); the program's internal spans nest beneath them. *)

module M = Measure
module Trace = Obskit.Trace

(* Registry series read as deltas over the traced phase. *)
let counters =
  [
    "db.cache.hit"; "db.cache.miss"; "store.query.fastpath_empty"; "db.wal.bytes"; "db.wal.fsync";
    "db.page.write"; "buffer_pool.hit"; "buffer_pool.miss"; "pool.acquire.reuse";
    "pool.acquire.refresh"; "pool.acquire.build"; "pool.commit";
  ]

let histograms = [ "db.execute" ]

type baseline = {
  b_counters : (string * int) list;
  b_hists : (string * (int * int)) list;
  b_gc : Gc.stat;
}

let baseline () =
  {
    b_counters = List.map (fun n -> (n, M.counter_sum n)) counters;
    b_hists = List.map (fun n -> (n, M.hist_sum n)) histograms;
    b_gc = Gc.quick_stat ();
  }

type deltas = {
  counter : string -> int;
  hist_ns : string -> int;
  gc : Gc.stat * Gc.stat;
}

let deltas b =
  let c = List.map (fun n -> (n, M.counter_sum n - List.assoc n b.b_counters)) counters in
  let h =
    List.map
      (fun n ->
        let c1, t1 = M.hist_sum n in
        let c0, t0 = List.assoc n b.b_hists in
        (n, (c1 - c0, t1 - t0)))
      histograms
  in
  {
    counter = (fun n -> List.assoc n c);
    hist_ns = (fun n -> snd (List.assoc n h));
    gc = (b.b_gc, Gc.quick_stat ());
  }

(* ------------------------------------------------------------------ *)
(* Spans *)

type span_stats = { mutable n : int; mutable total_ns : int; mutable self_ns : int }

type collector = {
  by_name : (string, span_stats) Hashtbl.t;
  mutable kept : Trace.span list;  (* the first whole traces, for export; reversed *)
  mutable kept_count : int;
  mutable dropped : int;
}

let export_limit = 20_000

let start () =
  Trace.set_capacity (1 lsl 18);
  Trace.clear ();
  Trace.set_sampling Trace.Always;
  { by_name = Hashtbl.create 64; kept = []; kept_count = 0; dropped = 0 }

(* Fold the retained spans into the per-name totals and clear the ring.
   Self time is a span's duration minus the time its children cover;
   children of one span run one after another on one domain. *)
let drain c =
  let spans = Trace.spans () in
  c.dropped <- c.dropped + Trace.dropped_count ();
  Trace.clear ();
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun (s : Trace.span) ->
      match s.parent_id with
      | Some p ->
        Hashtbl.replace child_ns p (s.dur_ns + Option.value (Hashtbl.find_opt child_ns p) ~default:0)
      | None -> ())
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let st =
        match Hashtbl.find_opt c.by_name s.name with
        | Some st -> st
        | None ->
          let st = { n = 0; total_ns = 0; self_ns = 0 } in
          Hashtbl.replace c.by_name s.name st;
          st
      in
      st.n <- st.n + 1;
      st.total_ns <- st.total_ns + s.dur_ns;
      let children = Option.value (Hashtbl.find_opt child_ns s.span_id) ~default:0 in
      st.self_ns <- st.self_ns + max 0 (s.dur_ns - children))
    spans;
  let admitted = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if not (Hashtbl.mem admitted s.trace_id) then
        Hashtbl.replace admitted s.trace_id (c.kept_count < export_limit);
      if Hashtbl.find admitted s.trace_id then begin
        c.kept <- s :: c.kept;
        c.kept_count <- c.kept_count + 1
      end)
    spans

let stop c =
  drain c;
  Trace.set_sampling Trace.Off

(* Write the kept spans as Chrome JSON, then validate the file's contents
   and the span tree. Returns report lines and whether both checks held. *)
let export c ~path =
  let spans = List.rev c.kept in
  let json = Obskit.Export.to_chrome_json spans in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json);
  let validated = Obskit.Export.validate_chrome_json json in
  let nested = Obskit.Export.check_well_nested spans in
  let line =
    match (validated, nested) with
    | Ok events, Ok () ->
      Printf.sprintf "trace %s: %d events, valid Chrome JSON, well nested" path events
    | Error e, _ | _, Error e -> Printf.sprintf "trace %s: INVALID: %s" path e
  in
  (line, Result.is_ok validated && Result.is_ok nested)

let self_time_table c =
  let rows = Hashtbl.fold (fun name st acc -> (name, st) :: acc) c.by_name [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.self_ns a.self_ns) rows in
  "span self time (ms, summed over the traced phase):"
  :: List.filteri
       (fun i _ -> i < 40)
       (List.map
          (fun (name, st) ->
            Printf.sprintf "  %-36s n=%-7d total=%10.2f self=%10.2f" name st.n (M.ms_of_ns st.total_ns)
              (M.ms_of_ns st.self_ns))
          rows)

(* ------------------------------------------------------------------ *)
(* The per-layer metric set. Every workload reports every metric; a layer
   the workload does not exercise reads 0 on its counts and ratios. *)

let per_layer ~(ctx : Ctx.t) ~(d : deltas) ~queries ~commits
    ~trace_overhead_pct ~spans_dropped =
  let mean name = M.mean (Ctx.series ctx.Ctx.layer name) in
  let sum name = M.total (Ctx.series ctx.Ctx.layer name) in
  let q = float_of_int (max 1 queries) in
  let per_query_us name = float_of_int (d.hist_ns name) /. 1e3 /. q in
  let hits = sum "relstore.plan_cache_hits" and misses = sum "relstore.plans_per_query" in
  let bp_hit = float_of_int (d.counter "buffer_pool.hit")
  and bp_miss = float_of_int (d.counter "buffer_pool.miss") in
  let reuse = float_of_int (d.counter "pool.acquire.reuse") in
  let builds = float_of_int (d.counter "pool.acquire.refresh" + d.counter "pool.acquire.build") in
  let g0, g1 = d.gc in
  let m = M.metric in
  [
    m "xmlkit.parse_ms" "ms" (mean "xmlkit.parse_ms");
    m "xmlkit.index_ms" "ms" (mean "xmlkit.index_ms");
    m "xpathkit.parse_us" "us" (mean "xpathkit.parse_us");
    m "xmlshred.query_us" "us" (mean "xmlshred.query_us");
    m "xmlshred.statements_per_query" "count" (mean "xmlshred.statements_per_query");
    m "xmlshred.joins_per_query" "count" (mean "xmlshred.joins_per_query");
    m "xmlshred.shred_ms" "ms" (mean "xmlshred.shred_ms");
    m "xmlshred.reconstruct_ms" "ms" (mean "xmlshred.reconstruct_ms");
    m "xmlshred.update_rows_touched" "count" (mean "xmlshred.update_rows_touched");
    m "relstore.parse_us" "us" (mean "relstore.parse_us");
    m "relstore.plan_us" "us" (mean "relstore.plan_us");
    m "relstore.execute_us" "us" (per_query_us "db.execute");
    m "relstore.plans_per_query" "count" (misses /. q);
    m "relstore.plan_cache_hit_ratio" "ratio" (M.ratio hits (hits +. misses));
    m "relstore.plan_cache_evictions" "count" (sum "relstore.plan_cache_evictions");
    m "relstore.plan_cache_invalidations" "count" (sum "relstore.plan_cache_invalidations");
    m "relstore.rows_examined_per_result" "ratio" (mean "relstore.rows_examined_per_result");
    m "relstore.restore_ms" "ms" (mean "relstore.restore_ms");
    m "relstore.restore_us_per_row" "us" (mean "relstore.restore_us_per_row");
    m "relstore.dump_ms" "ms" (mean "relstore.dump_ms");
    m "relstore.bulk_index_build_ms" "ms" (mean "relstore.bulk_index_build_ms");
    m "relstore.wal_bytes_per_xml_byte" "ratio"
      (M.ratio (float_of_int (d.counter "db.wal.bytes")) (float_of_int ctx.Ctx.xml_bytes_loaded));
    m "relstore.wal_fsyncs" "count" (float_of_int (d.counter "db.wal.fsync"));
    m "relstore.pages_written" "count" (float_of_int (d.counter "db.page.write"));
    m "relstore.buffer_pool_hit_ratio" "ratio" (M.ratio bp_hit (bp_hit +. bp_miss));
    m "relstore.recovery_redo_records" "count" (sum "relstore.recovery_redo_records");
    m "xmlstore.query_us" "us" (mean "xmlstore.query_us");
    m "xmlstore.minor_bytes_per_query" "bytes" (mean "xmlstore.minor_bytes_per_query");
    m "xmlstore.major_bytes_per_query" "bytes" (mean "xmlstore.major_bytes_per_query");
    m "xmlstore.fastpath_empty" "count" (float_of_int (d.counter "store.query.fastpath_empty"));
    m "xmlstore.snapshot_ms" "ms" (mean "xmlstore.snapshot_ms");
    m "xmlstore.of_snapshot_ms" "ms" (mean "xmlstore.of_snapshot_ms");
    m "xmlstore.add_document_ms" "ms" (mean "xmlstore.add_document_ms");
    m "storepool.acquire_wait_pct" "%"
      (100. *. M.ratio (sum "storepool.acquire_wait_us") (sum "storepool.query_us"));
    m "storepool.replica_builds_per_commit" "count" (M.ratio builds (float_of_int commits));
    m "storepool.replica_reuse_ratio" "ratio" (M.ratio reuse (reuse +. builds));
    m "gc.minor_collections" "count" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    m "gc.major_collections" "count" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    m "gc.major_words_per_query" "words" ((g1.Gc.major_words -. g0.Gc.major_words) /. q);
    m "obskit.trace_overhead_pct" "%" trace_overhead_pct;
    m "obskit.spans_dropped" "count" (float_of_int spans_dropped);
  ]

(* Layer timings that only some workloads produce: printed in the table,
   left out of the metric set. *)
let table_only ~(ctx : Ctx.t) =
  Hashtbl.fold
    (fun name s acc ->
      if M.count s > 0
         && List.exists (fun p -> String.starts_with ~prefix:p name)
              [ "xmlstore.query_us."; "xmlshred.query_us."; "relstore.checkpoint_ms";
                "storepool.acquire_wait_us"; "storepool.apply_ms"; "relstore.recover_ms" ]
      then Printf.sprintf "  %-36s mean=%10.3f n=%d" name (M.mean s) (M.count s) :: acc
      else acc)
    ctx.Ctx.layer []
  |> List.sort compare
