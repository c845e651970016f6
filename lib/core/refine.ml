module Tag = Hfad_index.Tag

type t = {
  fs : Fs.t;
  stack : (Tag.t * string) list;  (* innermost first *)
  results : Hfad_osd.Oid.t list;
}

let start fs =
  { fs; stack = []; results = Fs.objects fs }

let narrow t pair =
  let results =
    match t.stack with
    | [] ->
        (* First constraint: the index answers directly. *)
        Fs.lookup t.fs [ pair ]
    | _ ->
        (* Conjoin with the cached result set. *)
        let matching = Fs.lookup t.fs [ pair ] in
        List.filter (fun oid -> List.exists (Hfad_osd.Oid.equal oid) matching)
          t.results
  in
  { t with stack = pair :: t.stack; results }

let widen t =
  match t.stack with
  | [] -> t
  | _ :: outer ->
      let results =
        match outer with
        | [] -> Fs.objects t.fs
        | pairs -> Fs.lookup t.fs pairs
      in
      { t with stack = outer; results }

let constraints t = List.rev t.stack
let ls t = t.results
let count t = List.length t.results

let pwd t =
  match constraints t with
  | [] -> "/"
  | pairs ->
      String.concat ""
        (List.map
           (fun (tag, value) -> Printf.sprintf "/%s=%s" (Tag.to_string tag) value)
           pairs)
