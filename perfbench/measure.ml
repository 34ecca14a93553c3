(* Timing, sample statistics, operation accounting, registry deltas and
   result printing shared by the workloads. Everything here observes the
   program from outside: wall clock around public calls, and the
   counters and histograms the program already keeps in
   [Relstore.Metrics]. *)

let now_ns = Obskit.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Samples *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let total s = Array.fold_left ( +. ) 0. (Array.sub s.data 0 s.len)
let append_to dst src = for i = 0 to src.len - 1 do add dst src.data.(i) done

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

let median_of (a : float array) =
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median s = median_of (sorted s)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. With n >= 1000 the 0.99 rank leaves at least
   ten samples above it. *)
let percentile s p =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean s = if s.len = 0 then 0. else total s /. float_of_int s.len
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Operations: attempted / failed per kind. An operation fails when the
   program raises or when its output disagrees with the independent
   reference; the latter also marks the run incorrect, except for an
   output the known fault below explains, which is counted apart. *)

type outcome =
  | Correct
  | Wrong
  | Known_fault
      (* edge [append_child] numbers an appended subtree past the end of
         the document, so path queries on an updated document return the
         right values in another order; see README.md *)

type ops = {
  kinds : (string, int ref * int ref) Hashtbl.t;
  mutable order : string list;  (* first-seen order, reversed *)
  mutable wrong : int;
  mutable known : int;  (* failed with [Known_fault] *)
  mutable first_error : string option;
}

let ops () = { kinds = Hashtbl.create 8; order = []; wrong = 0; known = 0; first_error = None }

let slot o kind =
  match Hashtbl.find_opt o.kinds kind with
  | Some c -> c
  | None ->
    let c = (ref 0, ref 0) in
    Hashtbl.replace o.kinds kind c;
    o.order <- kind :: o.order;
    c

let note_error o msg = if o.first_error = None then o.first_error <- Some msg

(* Run one operation; [f] judges its output. *)
let attempt_outcome o kind f =
  let attempted, failed = slot o kind in
  incr attempted;
  match f () with
  | Correct -> Correct
  | Wrong ->
    incr failed;
    o.wrong <- o.wrong + 1;
    note_error o (kind ^ ": output differs from the reference");
    Wrong
  | Known_fault ->
    incr failed;
    o.known <- o.known + 1;
    Known_fault
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
    incr failed;
    note_error o (kind ^ ": " ^ Printexc.to_string e);
    Wrong

(* Run one operation; [f] returns whether its output was correct. *)
let attempt o kind f = attempt_outcome o kind (fun () -> if f () then Correct else Wrong) = Correct

let merge_ops into o =
  List.iter
    (fun kind ->
      let a, f = Hashtbl.find o.kinds kind in
      let a', f' = slot into kind in
      a' := !a' + !a;
      f' := !f' + !f)
    (List.rev o.order);
  into.wrong <- into.wrong + o.wrong;
  into.known <- into.known + o.known;
  match o.first_error with Some m -> note_error into m | None -> ()

let attempted o = Hashtbl.fold (fun _ (a, _) acc -> acc + !a) o.kinds 0
let failed o = Hashtbl.fold (fun _ (_, f) acc -> acc + !f) o.kinds 0

(* ------------------------------------------------------------------ *)
(* Registry deltas, summed over every store label *)

let base_name qualified =
  match String.index_opt qualified '{' with
  | Some i -> String.sub qualified 0 i
  | None -> qualified

let counter_sum name =
  List.fold_left
    (fun acc (n, v) -> if String.equal (base_name n) name then acc + v else acc)
    0
    (Relstore.Metrics.counter_list ())

(* (samples, total ns) of a histogram series *)
let hist_sum name =
  List.fold_left
    (fun (c, t) (n, (h : Relstore.Metrics.histogram_snapshot)) ->
      if String.equal (base_name n) name then (c + h.hs_count, t + h.hs_total_ns) else (c, t))
    (0, 0)
    (Relstore.Metrics.histogram_list ())

(* ------------------------------------------------------------------ *)
(* Process *)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Scratch space for durable stores and saved dumps, inside the checkout. *)
let scratch_dir name =
  let root = ".perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let d = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else failwith "non-finite metric value"

let print_result ~workload ~seed ~seconds ~trace ~report o metrics =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%d trace=%d\n" workload seed seconds trace;
  List.iter print_endline report;
  List.iter
    (fun kind ->
      let a, f = Hashtbl.find o.kinds kind in
      Printf.printf "ops %-12s attempted=%d failed=%d\n" kind !a !f)
    (List.rev o.order);
  if o.known > 0 then
    Printf.printf "known fault: %d failed queries (edge append_child order, README.md)\n" o.known;
  (match o.first_error with Some m -> Printf.printf "first failure: %s\n" m | None -> ());
  List.iter (fun m -> Printf.printf "metric %-34s %14.4f %s\n" m.name m.value m.unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.wrong = 0) (attempted o) (failed o)
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
          metrics))
