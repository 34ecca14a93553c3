(* Seeded inputs. Everything the program receives is generated here from
   the workload seed and handed over as XML text; the generated DOM is
   kept only as the reference the outputs are checked against. The same
   seed always yields the same inputs. *)

module Dom = Xmlkit.Dom

type doc = {
  label : string;
  dom : Dom.t;  (* the generated tree: reference for reconstruction *)
  xml : string;  (* what the program is given *)
  nodes : int;
  queries : string list;  (* paths checked against native evaluation *)
}

let auction_queries = List.map (fun q -> q.Xmlwork.Queries.xpath) Xmlwork.Queries.auction_queries

let make label queries dom =
  { label; dom; xml = Xmlkit.Serializer.to_string dom; nodes = Dom.count_nodes dom; queries }

(* A distinct, reproducible seed per generated document. *)
let sub_seed seed i = (seed * 7919) + i

(* The ingest workload's verification set over auction documents: the
   child-step paths of Q1-Q12 (Q1-Q4, Q8, Q10). Q10 reads every region's
   items, so it sees the item the ingest update batch appends. The
   descendant paths are left to the read workloads; on a store holding
   the whole corpus they cost up to seconds each under edge. *)
let child_path_queries =
  List.filter_map
    (fun id -> Option.map (fun q -> q.Xmlwork.Queries.xpath) (Xmlwork.Queries.find id))
    [ "Q1"; "Q2"; "Q3"; "Q4"; "Q8"; "Q10" ]

let auction ?(queries = auction_queries) ~seed ~scale () =
  make (Printf.sprintf "auction@%g" scale) queries
    (Xmlwork.Auction.generate ~params:{ Xmlwork.Auction.default with seed; scale } ())

let bibliography ~seed ~entries =
  make (Printf.sprintf "bib@%d" entries)
    [ "/bib/article/title"; "/bib/inproceedings/booktitle" ]
    (Xmlwork.Bibliography.generate ~params:{ Xmlwork.Bibliography.seed; entries } ())

let deep ~seed ~depth ~fanout =
  make (Printf.sprintf "deep@%dx%d" depth fanout)
    [ "/part/part/part/weight"; "/part/part/partname" ]
    (Xmlwork.Deep.generate ~params:{ Xmlwork.Deep.seed; depth; fanout } ())

(* The documents the read workloads query: XMark-style auction, scale 1.0
   (~5.2k nodes, ~75 KB each). pool-rw serves the first. *)
let read_auction seed i = auction ~seed:(sub_seed seed (100 + i)) ~scale:1.0 ()
let main_auction seed = read_auction seed 0

(* The small document reader 0 commits through the pool, one per
   commit. *)
let commit_doc seed k = auction ~seed:(sub_seed seed (1000 + k)) ~scale:0.02 ()

type spec = Auction of float | Bib of int | Deep of int * int

(* The ingest stream: ~1 MB of XML text, ~65k nodes. Auction documents
   at varied scale dominate; two bibliographies and three part
   hierarchies vary the shape (flat and wide, deep and recursive). *)
let corpus_specs =
  [
    Auction 2.0; Auction 1.5; Auction 1.0; Auction 1.0; Auction 0.75; Auction 0.5; Auction 0.5;
    Auction 0.25; Auction 0.25; Auction 0.25; Bib 400; Bib 400; Deep (6, 4); Deep (6, 4);
    Deep (12, 2);
  ]

(* Fisher-Yates with the workload's own generator. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Xmlwork.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let corpus seed =
  let rng = Xmlwork.Rng.create (sub_seed seed 2000) in
  List.mapi
    (fun i spec ->
      let seed = sub_seed seed (3000 + i) in
      match spec with
      | Auction scale -> auction ~queries:child_path_queries ~seed ~scale ()
      | Bib entries -> bibliography ~seed ~entries
      | Deep (depth, fanout) -> deep ~seed ~depth ~fanout)
    (shuffle rng corpus_specs)

(* Native answers: the in-memory XPath evaluator over the generated
   tree. It never touches relational storage. *)
let native dom xpath = Xpathkit.Eval.select_strings (Xmlkit.Index.of_document dom) xpath

let native_all dom queries =
  let idx = Xmlkit.Index.of_document dom in
  List.map (fun q -> (q, Xpathkit.Eval.select_strings idx q)) queries
