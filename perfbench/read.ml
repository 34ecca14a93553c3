(* xmark-read: one closed-loop client issues Q1-Q12 in seeded random
   order against auction documents, each stored under four schemes. No
   writes, no pool, no durability: only the read path runs in the
   measured phase. Each run queries [documents] seeded documents, each in
   its own store per scheme: one scale-1.0 document's query costs swing
   by up to 10% from seed to seed, and the run's figures average over
   the documents instead of following one. *)

module Store = Xmlstore.Store

let schemes = [ "edge"; "interval"; "dewey"; "inline" ]

let documents = 4

type env = { docs : (Inputs.doc * Store.t list) list }

let inputs ~seed = List.init documents (Inputs.read_auction seed)

(* Set-up: parse and store every document under every scheme. *)
let setup inputs ctx =
  let load i (doc : Inputs.doc) =
    List.map
      (fun scheme ->
        let store = Ctx.make_store scheme in
        ignore (Ctx.load ctx ~key:(string_of_int i) store doc ~expect_id:0);
        store)
      schemes
  in
  { docs = List.mapi (fun i doc -> (doc, load i doc)) inputs }

let stores env = List.concat_map snd env.docs

(* Every stored copy reconstructs to its generated document. *)
let verify env ctx =
  List.iteri
    (fun i ((doc : Inputs.doc), stores) ->
      List.iter
        (fun store -> ignore (Ctx.reconstruct ctx ~key:(string_of_int i) store 0 ~nodes:doc.nodes doc.dom))
        stores)
    env.docs

type state = { env : env; pairs : (Store.t * string * string list) array; rng : Xmlwork.Rng.t }

let start env ~seed =
  let pairs =
    List.concat_map
      (fun ((doc : Inputs.doc), stores) ->
        let expected = Inputs.native_all doc.dom doc.queries in
        List.concat_map (fun store -> List.map (fun (q, ans) -> (store, q, ans)) expected) stores)
      env.docs
  in
  { env; pairs = Array.of_list pairs; rng = Xmlwork.Rng.create (Inputs.sub_seed seed 1) }

(* Every (document, scheme, query) triple once, in a fresh seeded order. *)
let query_pass st ctx =
  let t0 = Measure.now_ns () in
  List.iter
    (fun (store, q, ans) -> ignore (Ctx.query ctx store 0 q ans))
    (Inputs.shuffle st.rng (Array.to_list st.pairs));
  ctx.Ctx.query_wall_ns <- ctx.Ctx.query_wall_ns + (Measure.now_ns () - t0)

(* One round: the query pass, then every stored copy reconstructed whole
   (the paper's document retrieval). *)
let round st ctx =
  query_pass st ctx;
  verify st.env ctx

let probes st ctx =
  match st.env.docs with
  | [] -> ()
  | ((doc : Inputs.doc), stores) :: _ ->
    List.iter
      (fun store ->
        Ctx.probe_document ctx (Store.scheme store) doc;
        Ctx.probe_snapshot ctx store;
        Ctx.probe_queries ctx store 0 doc.queries)
      stores

let xml_bytes env =
  List.fold_left (fun acc ((doc : Inputs.doc), stores) -> acc + (List.length stores * String.length doc.xml)) 0 env.docs

let stored_bytes_per_xml_byte env =
  let bytes = List.fold_left (fun acc s -> acc + (Store.stats s).Store.total_bytes) 0 (stores env) in
  float_of_int bytes /. float_of_int (xml_bytes env)
