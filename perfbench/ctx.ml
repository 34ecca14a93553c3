(* Per-run (per reader domain, in the pool workload) accumulators, the
   calls every workload times the same way, and the traced-run layer
   probes. In a traced run every timed call into a layer is wrapped in a
   span opened here, so the program's own spans nest beneath it. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom
module M = Measure

type t = {
  ops : M.ops;
  query_ms : M.samples;
  mutable query_wall_ns : int;  (* wall time of the phases that issue queries *)
  mutable xml_bytes_loaded : int;  (* XML text handed to loads and commits *)
  loads : (string, int * M.samples) Hashtbl.t;  (* per document key: nodes, ns per load *)
  recons : (string, int * M.samples) Hashtbl.t;  (* the same for reconstructions *)
  named : (string, M.samples) Hashtbl.t;  (* workload-specific timings *)
  layer : (string, M.samples) Hashtbl.t;  (* per-layer samples, traced runs only *)
  traced : bool;
}

let create ~traced =
  {
    ops = M.ops ();
    query_ms = M.samples ();
    query_wall_ns = 0;
    xml_bytes_loaded = 0;
    loads = Hashtbl.create 8;
    recons = Hashtbl.create 8;
    named = Hashtbl.create 8;
    layer = Hashtbl.create 32;
    traced;
  }

let series tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let s = M.samples () in
    Hashtbl.replace tbl name s;
    s

let sample t name v = M.add (series t.named name) v

(* The timings of the work on one document, identified by [key]. *)
let sized tbl key nodes =
  match Hashtbl.find_opt tbl key with
  | Some (_, s) -> s
  | None ->
    let s = M.samples () in
    Hashtbl.replace tbl key (nodes, s);
    s

let add_sized tbl key nodes ns = M.add (sized tbl key nodes) (float_of_int ns)

(* Nodes per second over every document key, each key's time taken as
   the median of its repetitions: a GC pause in one repetition does not
   move the figure. *)
let nodes_per_s tbl =
  let nodes, ns =
    Hashtbl.fold
      (fun _ (n, s) (an, ans) -> if M.count s = 0 then (an, ans) else (an + n, ans +. M.median s))
      tbl (0, 0.)
  in
  M.ratio (float_of_int nodes) (ns /. 1e9)

let layer t name v = if t.traced then M.add (series t.layer name) v

let merge into t =
  M.merge_ops into.ops t.ops;
  M.append_to into.query_ms t.query_ms;
  into.query_wall_ns <- max into.query_wall_ns t.query_wall_ns;
  into.xml_bytes_loaded <- into.xml_bytes_loaded + t.xml_bytes_loaded;
  let fold dst src = Hashtbl.iter (fun k s -> M.append_to (series dst k) s) src in
  let fold_sized dst src = Hashtbl.iter (fun k (n, s) -> M.append_to (sized dst k n) s) src in
  fold_sized into.loads t.loads;
  fold_sized into.recons t.recons;
  fold into.named t.named;
  fold into.layer t.layer

let span t name f = if t.traced then Obskit.Trace.with_span name f else f ()

(* Time [f]; the duration in ns is returned beside the result. *)
let timed t name f =
  let t0 = M.now_ns () in
  let r = span t name f in
  (r, M.now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* Operations shared by the workloads *)

(* Plan-cache activity of one operation, from [Store.cache_stats]. *)
let cache_delta t (h0, m0, i0, e0) (h1, m1, i1, e1) =
  layer t "relstore.plan_cache_hits" (float_of_int (h1 - h0));
  layer t "relstore.plans_per_query" (float_of_int (m1 - m0));
  layer t "relstore.plan_cache_invalidations" (float_of_int (i1 - i0));
  layer t "relstore.plan_cache_evictions" (float_of_int (e1 - e0))

(* Run one query, recording its per-layer costs in a traced run. *)
let run_query t store doc xpath =
  let before = if t.traced then Store.cache_stats store else (0, 0, 0, 0) in
  let r, ns = timed t "bench.query" (fun () -> Store.query store doc xpath) in
  if t.traced then begin
    cache_delta t before (Store.cache_stats store);
    layer t "xmlstore.query_us" (float_of_int ns /. 1e3);
    layer t ("xmlstore.query_us." ^ Store.scheme store) (float_of_int ns /. 1e3);
    layer t "xmlshred.statements_per_query" (float_of_int (List.length r.Store.sql));
    layer t "xmlshred.joins_per_query" (float_of_int r.Store.joins);
    layer t "xmlstore.minor_bytes_per_query" (float_of_int r.Store.gc_minor_bytes);
    layer t "xmlstore.major_bytes_per_query" (float_of_int r.Store.gc_major_bytes)
  end;
  (r, ns)

(* One query, checked against the native answer. With [known_fault] (edge,
   a document an [append_child] changed) an answer holding exactly the
   expected values in another order is the known fault, not a wrong one. *)
let query ?(known_fault = false) t store doc xpath expected =
  M.attempt_outcome t.ops "query" (fun () ->
      let r, ns = run_query t store doc xpath in
      M.add t.query_ms (M.ms_of_ns ns);
      let got = r.Store.values in
      if got = expected then M.Correct
      else if known_fault && List.sort compare got = List.sort compare expected then M.Known_fault
      else begin
        M.note_error t.ops
          (Printf.sprintf "query %s on document %d under %s: %d values, %d expected" xpath doc
             (Store.scheme store) (List.length got) (List.length expected));
        M.Wrong
      end)

(* Parse the document text and store it: one load, checked by the id it
   is given. *)
let load t ?(key = "") store (d : Inputs.doc) ~expect_id =
  M.attempt t.ops "load" (fun () ->
      let dom, parse_ns = timed t "bench.xmlkit.parse" (fun () -> Xmlkit.Parser.parse d.xml) in
      let id, add_ns = timed t "bench.xmlstore.add_document" (fun () -> Store.add_document store dom) in
      add_sized t.loads (Printf.sprintf "%s %s %s" (Store.scheme store) d.label key) d.nodes (parse_ns + add_ns);
      t.xml_bytes_loaded <- t.xml_bytes_loaded + String.length d.xml;
      sample t "commit_ms" (M.ms_of_ns add_ns);
      layer t "xmlkit.parse_ms" (M.ms_of_ns parse_ns);
      layer t "xmlstore.add_document_ms" (M.ms_of_ns add_ns);
      id = expect_id)

(* Reconstruct a stored document and compare it with [reference]. *)
let reconstruct t ?(key = "") store doc ~nodes (reference : Dom.t) =
  M.attempt t.ops "reconstruct" (fun () ->
      let got, ns = timed t "bench.xmlstore.get_document" (fun () -> Store.get_document store doc) in
      add_sized t.recons (Printf.sprintf "%s %d %s" (Store.scheme store) doc key) nodes ns;
      Dom.equal got reference)

(* ------------------------------------------------------------------ *)
(* Layer probes (traced runs): direct calls into each layer's public
   functions on the workload's own inputs and stores. *)

(* The inline scheme is derived from a DTD: the auction generator's. *)
let dtd_of scheme =
  if String.equal scheme "inline" then Some (Lazy.force Xmlwork.Auction.dtd) else None

let make_store scheme = Store.create ?dtd:(dtd_of scheme) scheme

let mapping_of scheme : Xmlshred.Mapping.mapping =
  match (dtd_of scheme, Xmlshred.Registry.find scheme) with
  | Some dtd, _ -> Xmlshred.Inline.make dtd
  | None, Some m -> m
  | None, None -> invalid_arg ("unknown scheme " ^ scheme)

let probe t name ~scale f =
  let r, ns = timed t ("bench." ^ name) f in
  layer t name (float_of_int ns /. scale);
  r

let ms = 1e6
let us = 1e3

(* Parse, index, shred through a bulk session (its B+-tree builds timed
   from the [db.bulk.index_build] series), reconstruct, dump and restore
   one document under one scheme, and store it through [Store]. The
   reconstruction is checked. *)
let probe_document t scheme (d : Inputs.doc) =
  let module Map = (val mapping_of scheme : Xmlshred.Mapping.MAPPING) in
  let dom = probe t "xmlkit.parse_ms" ~scale:ms (fun () -> Xmlkit.Parser.parse d.xml) in
  let idx = probe t "xmlkit.index_ms" ~scale:ms (fun () -> Xmlkit.Index.of_document dom) in
  let db = Relstore.Database.create () in
  Map.create_schema db;
  Map.create_indexes db;
  let session = Relstore.Database.load_session db in
  probe t "xmlshred.shred_ms" ~scale:ms (fun () -> Map.shred_bulk session ~doc:0 idx);
  let builds0 = snd (M.hist_sum "db.bulk.index_build") in
  ignore (Relstore.Database.finish_session session);
  layer t "relstore.bulk_index_build_ms" (M.ms_of_ns (snd (M.hist_sum "db.bulk.index_build") - builds0));
  ignore
    (M.attempt t.ops "probe" (fun () ->
         let back = probe t "xmlshred.reconstruct_ms" ~scale:ms (fun () -> Map.reconstruct db ~doc:0) in
         Dom.equal back d.dom));
  let dump = probe t "relstore.dump_ms" ~scale:ms (fun () -> Relstore.Database.dump db) in
  let rows = Relstore.Database.total_rows db in
  let _, ns = timed t "bench.relstore.restore" (fun () -> Relstore.Database.restore dump) in
  layer t "relstore.restore_ms" (M.ms_of_ns ns);
  if rows > 0 then layer t "relstore.restore_us_per_row" (float_of_int ns /. 1e3 /. float_of_int rows);
  let store = make_store scheme in
  ignore (probe t "xmlstore.add_document_ms" ~scale:ms (fun () -> Store.add_document store dom))

(* Snapshot a store and rebuild it, as the pool does per epoch and
   reader. *)
let probe_snapshot t store =
  let snap = probe t "xmlstore.snapshot_ms" ~scale:ms (fun () -> Store.snapshot store) in
  let dtd = dtd_of (Store.scheme store) in
  ignore (probe t "xmlstore.of_snapshot_ms" ~scale:ms (fun () -> Store.of_snapshot ?dtd snap))

(* Per-query layer costs: XPath parse, the scheme's translation and
   execution called directly, and rows examined per value returned from
   the EXPLAIN ANALYZE operator trees. *)
let probe_queries t store doc queries =
  let module Map = (val mapping_of (Store.scheme store) : Xmlshred.Mapping.MAPPING) in
  let db = Store.database store in
  List.iter
    (fun xpath ->
      let path = probe t "xpathkit.parse_us" ~scale:us (fun () -> Xpathkit.Parser.parse_path xpath) in
      let _, ns = timed t "bench.xmlshred.query" (fun () -> Map.query db ~doc path) in
      layer t "xmlshred.query_us" (float_of_int ns /. us);
      layer t ("xmlshred.query_us." ^ Store.scheme store) (float_of_int ns /. us);
      let r = span t "bench.analyze" (fun () -> Store.query ~analyze:true store doc xpath) in
      (* the cold path of each executed statement: SQL parse, then plan *)
      let parse_ns, plan_ns =
        List.fold_left
          (fun (pa, pl) sql ->
            let stmt, p_ns = timed t "bench.relstore.parse" (fun () -> Relstore.Sql_parser.parse_statement sql) in
            match stmt with
            | Relstore.Sql_ast.Select_stmt q ->
              let _, q_ns =
                timed t "bench.relstore.plan" (fun () ->
                    Relstore.Planner.plan_query (Relstore.Database.catalog db) q)
              in
              (pa + p_ns, pl + q_ns)
            | _ -> (pa + p_ns, pl))
          (0, 0) r.Store.sql
      in
      layer t "relstore.parse_us" (float_of_int parse_ns /. us);
      layer t "relstore.plan_us" (float_of_int plan_ns /. us);
      let examined =
        List.fold_left
          (fun acc (_, tree) ->
            Relstore.Plan.fold_annotated
              (fun acc (n : Relstore.Plan.annotated) ->
                if n.an_children = [] then acc + n.an_rows else acc)
              acc tree)
          0 r.Store.analyzed
      in
      if r.Store.analyzed <> [] then
        layer t "relstore.rows_examined_per_result"
          (float_of_int examined /. float_of_int (max 1 (List.length r.Store.values))))
    queries
