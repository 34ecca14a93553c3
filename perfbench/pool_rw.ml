(* pool-rw: one reader per core runs closed-loop Q1-Q12 through the store
   pool on an interval store; reader 0 also commits a small generated
   auction document through [Pool.apply] after every
   [queries_per_commit] of its own queries, so each commit costs one
   snapshot and one replica rebuild per reader. The schedule is counted
   in queries, not time. *)

module Store = Xmlstore.Store
module Pool = Storepool.Pool
module M = Measure

(* One reader domain per core the host grants, main domain included. *)
let readers = max 1 (min 4 (Domain.recommended_domain_count ()))
let queries_per_commit = 36

(* Checked on every committed document once the commit returns. *)
let visible_query = "/site/people/person/name"

type env = {
  seed : int;
  doc : Inputs.doc;
  pool : Pool.t;
  mutable commits : int;  (* documents committed so far; the next one gets id commits + 1 *)
  mutable committed_bytes : int;
}

(* Set-up: parse and store the document, build the pool and one replica
   per reader. *)
let setup ~seed (doc : Inputs.doc) ctx =
  let primary = Store.create "interval" in
  ignore (Ctx.load ctx primary doc ~expect_id:0);
  let pool = Pool.create ~readers primary in
  (* every reader's first replica is built here, not in the measured phase *)
  let warm = List.init readers (fun _ -> Pool.acquire pool) in
  List.iter (Pool.release pool) warm;
  { seed; doc; pool; commits = 0; committed_bytes = 0 }

let verify env ctx =
  let nodes = env.doc.nodes in
  Pool.with_primary env.pool (fun s -> ignore (Ctx.reconstruct ctx s 0 ~nodes env.doc.dom));
  Pool.with_reader env.pool (fun s -> ignore (Ctx.reconstruct ctx s 0 ~nodes env.doc.dom))

(* A client query through the pool. Untraced it is [Pool.query]; traced,
   the same acquire / [Store.query] / release composition through
   [Pool.with_reader], so the time to enter the callback is the acquire
   wait (including any replica rebuild). *)
let pool_query (ctx : Ctx.t) pool xpath expected =
  M.attempt ctx.ops "query" (fun () ->
      let t0 = M.now_ns () in
      let values =
        if ctx.traced then
          Ctx.span ctx "bench.pool.query" (fun () ->
              Pool.with_reader pool (fun store ->
                  let waited = M.now_ns () - t0 in
                  Ctx.layer ctx "storepool.acquire_wait_us" (float_of_int waited /. 1e3);
                  (fst (Ctx.run_query ctx store 0 xpath)).Store.values))
        else (Pool.query pool 0 xpath).Store.values
      in
      let ns = M.now_ns () - t0 in
      M.add ctx.query_ms (M.ms_of_ns ns);
      Ctx.layer ctx "storepool.query_us" (float_of_int ns /. 1e3);
      values = expected)

let commit env (ctx : Ctx.t) (d : Inputs.doc) ~expect_id =
  M.attempt ctx.ops "commit" (fun () ->
      let dom, parse_ns = Ctx.timed ctx "bench.xmlkit.parse" (fun () -> Xmlkit.Parser.parse d.xml) in
      let id, apply_ns =
        Ctx.timed ctx "bench.storepool.apply" (fun () ->
            Pool.apply env.pool (fun s -> Store.add_document s dom))
      in
      (* one key for all commits, timed per node: the rate is the median
         commit's, whichever documents a few slow commits happened to carry *)
      Ctx.add_sized ctx.loads "commit" 1 ((parse_ns + apply_ns) / max 1 d.nodes);
      env.committed_bytes <- env.committed_bytes + String.length d.xml;
      ctx.xml_bytes_loaded <- ctx.xml_bytes_loaded + String.length d.xml;
      Ctx.sample ctx "commit_ms" (M.ms_of_ns apply_ns);
      Ctx.layer ctx "xmlkit.parse_ms" (M.ms_of_ns parse_ns);
      Ctx.layer ctx "storepool.apply_ms" (M.ms_of_ns apply_ns);
      id = expect_id)

(* A committed document answers like the native evaluator once the
   commit has returned. *)
let visible env (ctx : Ctx.t) id (d : Inputs.doc) =
  M.attempt ctx.ops "visible" (fun () ->
      (Pool.query env.pool id visible_query).Store.values = Inputs.native d.dom visible_query)

(* Reader [i]'s closed loop. A round is [queries_per_commit] queries (three
   seeded passes over Q1-Q12); reader 0 ends each round by reconstructing
   document 0 from a replica, then a commit and its visibility check.
   Rounds stop once the deadline has passed and the readers together have
   issued [min_queries]. *)
let reader env ~expected ~total ~deadline ~min_queries i (ctx : Ctx.t) =
  let rng = Xmlwork.Rng.create (Inputs.sub_seed env.seed (10 + i)) in
  let round () =
    for _ = 1 to queries_per_commit / List.length expected do
      List.iter
        (fun (q, ans) ->
          ignore (pool_query ctx env.pool q ans);
          Atomic.incr total)
        (Inputs.shuffle rng expected)
    done;
    if i = 0 then begin
      (* document 0 is the same at every epoch *)
      Pool.with_reader env.pool (fun s ->
          ignore (Ctx.reconstruct ctx s 0 ~nodes:env.doc.nodes env.doc.dom));
      env.commits <- env.commits + 1;
      let id = env.commits in
      let d = Inputs.commit_doc env.seed id in
      if commit env ctx d ~expect_id:id then ignore (visible env ctx id d)
    end
  in
  round ();
  while M.now_ns () < deadline || Atomic.get total < min_queries do
    round ()
  done

let measure env (ctx : Ctx.t) ~deadline ~min_queries =
  let expected = Inputs.native_all env.doc.dom env.doc.queries in
  let total = Atomic.make 0 in
  let t0 = M.now_ns () in
  let run i c = reader env ~expected ~total ~deadline ~min_queries i c in
  let others =
    List.init (readers - 1) (fun i ->
        let c = Ctx.create ~traced:ctx.traced in
        (c, Domain.spawn (fun () -> run (i + 1) c)))
  in
  run 0 ctx;
  List.iter (fun (c, d) -> Domain.join d; Ctx.merge ctx c) others;
  ctx.query_wall_ns <- ctx.query_wall_ns + (M.now_ns () - t0)

(* The traced run's overhead pass: a reader round's queries through
   [Pool.query] from this domain, with no commit. *)
let query_pass env (ctx : Ctx.t) =
  let expected = Inputs.native_all env.doc.dom env.doc.queries in
  let t0 = M.now_ns () in
  for _ = 1 to queries_per_commit / List.length expected do
    List.iter (fun (q, ans) -> ignore (pool_query ctx env.pool q ans)) expected
  done;
  ctx.query_wall_ns <- ctx.query_wall_ns + (M.now_ns () - t0)

let probes env ctx =
  Ctx.probe_document ctx "interval" env.doc;
  Pool.with_primary env.pool (fun s -> Ctx.probe_snapshot ctx s);
  Pool.with_reader env.pool (fun s -> Ctx.probe_queries ctx s 0 env.doc.queries)

let stored_bytes_per_xml_byte env =
  let bytes = Pool.with_primary env.pool (fun s -> (Store.stats s).Store.total_bytes) in
  float_of_int bytes /. float_of_int (String.length env.doc.xml + env.committed_bytes)
