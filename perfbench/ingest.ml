(* corpus-ingest: a seeded stream of documents (~1 MB of XML text) is
   parsed and loaded into a durable store per scheme, one WAL commit per
   document and a checkpoint every few documents. Then a fixed batch of
   in-place updates, reconstruction of the untouched documents, close and
   reopen through crash recovery, and save and load of a text dump. The
   stored documents are queried after the load, after recovery and after
   the restore; every answer is checked against native evaluation. *)

module Store = Xmlstore.Store
module Dom = Xmlkit.Dom
module Index = Xmlkit.Index
module M = Measure

let schemes = [ "edge"; "dewey"; "interval" ]
let checkpoint_every = 4

type update = Append of string * Dom.node | Delete of string

(* The item appended under /site/regions/asia. It is the same for every
   seed. Edge numbers an appended subtree past the end of the document,
   so its Q10 answer on an updated document lists this item last instead
   of before the items of the regions that follow asia: the known fault
   (README.md). Those regions hold items on every seed (the two touched
   documents have 180 and 240 items spread over six regions). *)
let appended_item =
  Dom.element
    ~attrs:[ Dom.attr "id" "ingest-item" ]
    "item"
    [ Dom.element "name" [ Dom.text "appended item" ]; Dom.element "category" [ Dom.text "tools" ];
      Dom.element "location" [ Dom.text "Japan" ]; Dom.element "quantity" [ Dom.text "1" ];
      Dom.element "payment" [ Dom.text "Cash" ];
      Dom.element "description" [ Dom.text "an item appended after the load" ] ]

(* The batch applied to each of the two largest auction documents. *)
let updates seed =
  let rng = Xmlwork.Rng.create (Inputs.sub_seed seed 4000) in
  let person k =
    Dom.element
      ~attrs:[ Dom.attr "id" (Printf.sprintf "ingest%d" k) ]
      "person"
      [ Dom.element "name" [ Dom.text (Xmlwork.Rng.sentence rng 2) ];
        Dom.element "emailaddress" [ Dom.text (Xmlwork.Rng.word rng ^ "@example.org") ] ]
  in
  [ Append ("/site/people", person 1); Append ("/site/people", person 2);
    Append ("/site/regions/asia", appended_item); Delete "/site/people/person[@id='person3']" ]

(* The same update on the generated tree, through the native evaluator:
   the reference the stored document is compared with afterwards. *)
let apply_native dom u =
  let idx = Index.of_document dom in
  let skip, append =
    match u with
    | Delete path -> (Xpathkit.Eval.select_nodes idx path, None)
    | Append (parent, node) -> (
      match Xpathkit.Eval.select_nodes idx parent with
      | [ p ] -> ([], Some (p, node))
      | _ -> failwith ("append target is not unique: " ^ parent))
  in
  let rec build i =
    match Index.kind idx i with
    | Index.Element ->
      let attrs =
        List.map (fun a -> Dom.attr (Index.name idx a) (Index.value idx a)) (Index.attributes idx i)
      in
      let kids = List.filter_map (fun c -> if List.mem c skip then None else Some (build c)) (Index.children idx i) in
      let kids = match append with Some (p, n) when p = i -> kids @ [ n ] | _ -> kids in
      Dom.element ~attrs (Index.name idx i) kids
    | _ -> Index.to_node idx i
  in
  match build (Index.root_element idx) with
  | Dom.Element e -> Dom.document e
  | _ -> failwith "root is not an element"

type env = { seed : int; corpus : Inputs.doc array; mutable parsed : Dom.t array }

let make ~seed = { seed; corpus = Array.of_list (Inputs.corpus seed); parsed = [||] }

(* Set-up: the program parses the corpus text. The loads parse it again;
   this is the part of a load that does not depend on the scheme. *)
let setup env (ctx : Ctx.t) =
  env.parsed <-
    Array.map
      (fun (d : Inputs.doc) ->
        let dom, ns = Ctx.timed ctx "bench.xmlkit.parse" (fun () -> Xmlkit.Parser.parse d.xml) in
        Ctx.layer ctx "xmlkit.parse_ms" (M.ms_of_ns ns);
        dom)
      env.corpus

(* Every parsed document equals its generated tree. *)
let verify env (ctx : Ctx.t) =
  Array.iteri
    (fun i (d : Inputs.doc) -> ignore (M.attempt ctx.ops "parse" (fun () -> Dom.equal env.parsed.(i) d.dom)))
    env.corpus

type state = {
  env : env;
  dir : string;  (* durable stores and dumps, removed after each cycle *)
  touched : int list;  (* the two largest auction documents *)
  batch : update list;
  final : Dom.t array;  (* reference tree of each document after the updates *)
  expected : (string * string list) list array;
  mutable round_no : int;
  mutable last : Store.t option;  (* the last cycle's restored store, for the traced run *)
  mutable stored_bytes : int;
  mutable stored_xml_bytes : int;
}

let start env =
  let auctions =
    List.filter
      (fun i -> String.starts_with ~prefix:"auction" env.corpus.(i).Inputs.label)
      (List.init (Array.length env.corpus) Fun.id)
  in
  let by_size = List.sort (fun a b -> compare env.corpus.(b).Inputs.nodes env.corpus.(a).Inputs.nodes) auctions in
  let touched = List.filteri (fun i _ -> i < 2) by_size in
  let batch = updates env.seed in
  let final =
    Array.mapi
      (fun i (d : Inputs.doc) ->
        if List.mem i touched then List.fold_left apply_native d.dom batch else d.dom)
      env.corpus
  in
  let expected = Array.mapi (fun i (d : Inputs.doc) -> Inputs.native_all final.(i) d.queries) env.corpus in
  { env; dir = M.scratch_dir "ingest"; touched; batch; final; expected; round_no = 0; last = None;
    stored_bytes = 0; stored_xml_bytes = 0 }

(* Every document's verification set once. On edge the touched documents
   are subject to the known fault. *)
let query_pass st (ctx : Ctx.t) store =
  let t0 = M.now_ns () in
  let edge = String.equal (Store.scheme store) "edge" in
  Array.iteri
    (fun i answers ->
      let known_fault = edge && List.mem i st.touched in
      List.iter (fun (q, ans) -> ignore (Ctx.query ~known_fault ctx store i q ans)) answers)
    st.expected;
  ctx.query_wall_ns <- ctx.query_wall_ns + (M.now_ns () - t0)

(* Two passes: the first right after the store was (re)opened, the second
   with warm caches. *)
let query_all st ctx store =
  query_pass st ctx store;
  query_pass st ctx store

let count_docs (ctx : Ctx.t) kind store n =
  ignore (M.attempt ctx.ops kind (fun () -> List.length (Store.documents store) = n))

let update (ctx : Ctx.t) store doc u =
  M.attempt ctx.ops "update" (fun () ->
      let cost, ns =
        Ctx.timed ctx "bench.xmlstore.update" (fun () ->
            match u with
            | Append (parent, node) -> Store.append_child store doc ~parent node
            | Delete path -> Store.delete_matching store doc path)
      in
      Ctx.sample ctx "update_ms" (M.ms_of_ns ns);
      Ctx.layer ctx "xmlshred.update_rows_touched"
        (float_of_int (cost.Store.rows_inserted + cost.Store.rows_updated + cost.Store.rows_deleted));
      true)

(* Wall time of one phase of one scheme's cycle, for the report. *)
let phase (ctx : Ctx.t) scheme name f =
  let t0 = M.now_ns () in
  let r = f () in
  Ctx.sample ctx (Printf.sprintf "phase %s %s" scheme name) (M.s_of_ns (M.now_ns () - t0));
  r

let one_scheme st (ctx : Ctx.t) scheme =
  let phase name f = phase ctx scheme name f in
  let n = Array.length st.env.corpus in
  st.last <- None;
  let dir = Filename.concat st.dir (Printf.sprintf "%s-%d" scheme st.round_no) in
  let store = Store.create ~durable:dir scheme in
  (* load: one WAL commit per document, a checkpoint every few *)
  phase "load" (fun () ->
      Array.iteri
        (fun i d ->
          ignore (Ctx.load ctx ~key:(string_of_int i) store d ~expect_id:i);
          if (i + 1) mod checkpoint_every = 0 then begin
            let (), ns = Ctx.timed ctx "bench.xmlstore.checkpoint" (fun () -> Store.checkpoint store) in
            Ctx.add_sized ctx.loads (Printf.sprintf "%s checkpoint %d" scheme i) 0 ns;
            Ctx.layer ctx "relstore.checkpoint_ms" (M.ms_of_ns ns)
          end)
        st.env.corpus);
  st.stored_bytes <- st.stored_bytes + (Store.stats store).Store.total_bytes;
  st.stored_xml_bytes <-
    st.stored_xml_bytes
    + Array.fold_left (fun acc (d : Inputs.doc) -> acc + String.length d.xml) 0 st.env.corpus;
  (* in-place updates, then each touched document against its reference *)
  phase "update" (fun () ->
      List.iter
        (fun doc ->
          List.iter (fun u -> ignore (update ctx store doc u)) st.batch;
          ignore
            (M.attempt ctx.ops "update-check" (fun () ->
                 Dom.equal (Store.get_document store doc) st.final.(doc))))
        st.touched);
  phase "reconstruct" (fun () ->
      Array.iteri
        (fun i (d : Inputs.doc) ->
          if not (List.mem i st.touched) then ignore (Ctx.reconstruct ctx store i ~nodes:d.nodes d.dom))
        st.env.corpus);
  phase "query" (fun () -> query_all st ctx store);
  (* close, then reopen through crash recovery from the page image *)
  let reopened =
    phase "recover" (fun () ->
        Store.close store;
        let reopened, ns = Ctx.timed ctx "bench.xmlstore.open_durable" (fun () -> Store.open_durable dir) in
        Ctx.sample ctx "recover_ns" (float_of_int ns);
        Ctx.layer ctx "relstore.recover_ms" (M.ms_of_ns ns);
        (match Store.last_recovery reopened with
        | Some r -> Ctx.layer ctx "relstore.recovery_redo_records" (float_of_int r.Relstore.Database.rc_redone)
        | None -> ());
        count_docs ctx "recover" reopened n;
        reopened)
  in
  phase "query" (fun () -> query_all st ctx reopened);
  (* save a text dump and load it back *)
  let dump = Filename.concat st.dir (Printf.sprintf "%s-%d.sql" scheme st.round_no) in
  let restored =
    phase "restore" (fun () ->
        Store.save reopened dump;
        Store.close reopened;
        let restored, ns = Ctx.timed ctx "bench.xmlstore.load" (fun () -> Store.load ~scheme dump) in
        Ctx.sample ctx "restore_ns" (float_of_int ns);
        count_docs ctx "restore" restored n;
        restored)
  in
  phase "query" (fun () -> query_all st ctx restored);
  st.last <- Some restored;
  M.rm_rf dir;
  M.rm_rf dump

let phase_report (ctx : Ctx.t) =
  List.map
    (fun scheme ->
      Printf.sprintf "  %-8s %s" scheme
        (String.concat ", "
           (List.map
              (fun p -> Printf.sprintf "%s %.2fs" p (M.total (Ctx.series ctx.named (Printf.sprintf "phase %s %s" scheme p))))
              [ "load"; "update"; "reconstruct"; "query"; "recover"; "restore" ])))
    schemes

let round st ctx =
  st.round_no <- st.round_no + 1;
  List.iter
    (fun scheme -> ignore (M.attempt ctx.Ctx.ops "cycle" (fun () -> one_scheme st ctx scheme; true)))
    schemes

let corpus_nodes env = Array.fold_left (fun acc (d : Inputs.doc) -> acc + d.nodes) 0 env.corpus

(* Layer probes on the corpus documents; the snapshot probe uses a store
   holding the two touched documents. *)
let probes st ctx =
  Array.iter (fun d -> Ctx.probe_document ctx "interval" d) st.env.corpus;
  let store = Store.create "interval" in
  List.iter (fun i -> ignore (Store.add_string store st.env.corpus.(i).Inputs.xml)) st.touched;
  Ctx.probe_snapshot ctx store;
  List.iteri (fun id i -> Ctx.probe_queries ctx store id (List.map fst st.expected.(i))) st.touched

let stored_bytes_per_xml_byte st = M.ratio (float_of_int st.stored_bytes) (float_of_int st.stored_xml_bytes)

let teardown st = M.rm_rf st.dir
