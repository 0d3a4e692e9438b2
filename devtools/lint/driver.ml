(* Two-phase driver: reads and parses every source file exactly once, runs
   the per-file rules over the shared ASTs, builds Summary data for lib/ and
   bin/ modules, links the summaries and runs the interprocedural passes
   (Ipa), then applies per-file suppressions and the optional baseline
   ratchet. The CLI and the test suite both call [analyze]. *)

let default_dirs = [ "lib"; "bin"; "bench"; "examples"; "devtools"; "perfbench" ]

let registry_rel = "devtools/lint/telemetry.registry"

type analysis = {
  an_findings : Lint.finding list;  (* suppressions and baseline applied, sorted *)
  an_summaries : Summary.file_summary list;  (* lib/ and bin/ implementation summaries *)
  an_files : string list;  (* every source file visited, repo-relative *)
}

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

(* The registry file is one series name per line; blank lines and lines
   starting with '#' are comments. Returns (name, line) pairs. *)
let parse_registry src =
  let entries = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then entries := (line, i + 1) :: !entries)
    (String.split_on_char '\n' src);
  List.rev !entries

let analyze ?baseline_file ~rules ~root ~dirs () =
  let files = Lint.collect_files ~root dirs in
  let known_rules = List.map (fun (r : Lint.rule) -> r.Lint.id) rules in
  (* Phase 1: one read + one parse per file, shared by everything below. *)
  let parsed =
    List.map
      (fun file ->
        let src = Lint.read_file (Filename.concat root file) in
        let ast = Lint.parse_ast ~file src in
        let directives = Lint.scan_directives ~known_rules src in
        (file, src, ast, directives))
      files
  in
  let registry = Lint.build_registry (List.map (fun (f, _, a, _) -> (f, a)) parsed) in
  let file_findings =
    List.concat_map
      (fun (file, src, ast, _) -> Lint.lint_source ~registry ~ast ~rules ~file src)
      parsed
  in
  (* Whole-tree rule hooks (interface coverage) see the file list, not ASTs. *)
  let tree_findings = ref [] in
  List.iter
    (fun (r : Lint.rule) ->
      match r.Lint.on_tree with
      | None -> ()
      | Some hook ->
          hook ~files
            (fun ~file ~line msg ->
              tree_findings :=
                Lint.finding ~file ~line ~col:0 ~rule:r.Lint.id ~severity:r.Lint.severity msg
                :: !tree_findings))
    rules;
  let summaries =
    List.filter_map
      (fun (file, _, ast, directives) ->
        match ast with
        | Ok (Lint.Impl str)
          when starts_with ~prefix:"lib/" file || starts_with ~prefix:"bin/" file ->
            Some (Summary.of_structure ~file ~directives str)
        | _ -> None)
      parsed
  in
  let intfs =
    List.filter_map
      (fun (file, _, ast, directives) ->
        match ast with
        | Ok (Lint.Intf sg) when starts_with ~prefix:"lib/" file ->
            Some (Summary.of_signature ~file ~directives sg)
        | _ -> None)
      parsed
  in
  let telemetry_registry =
    let path = Filename.concat root registry_rel in
    if Sys.file_exists path then Some (registry_rel, parse_registry (Lint.read_file path))
    else None
  in
  let pass_findings = List.rev !tree_findings @ Ipa.run ~summaries ~intfs ~telemetry_registry in
  (* Per-file [allow] suppressions apply to tree and link findings too;
     findings anchored in non-source files (the registry itself) have no
     directives. *)
  let directives_of =
    let tbl = Hashtbl.create (List.length parsed) in
    List.iter (fun (file, _, _, d) -> Hashtbl.replace tbl file d) parsed;
    fun file -> Hashtbl.find_opt tbl file
  in
  let pass_findings =
    List.filter
      (fun (f : Lint.finding) ->
        match directives_of f.Lint.file with
        | Some d -> not (Lint.suppressed d ~line:f.Lint.line ~rule:f.Lint.rule)
        | None -> true)
      pass_findings
  in
  let all = List.sort Lint.compare_findings (file_findings @ pass_findings) in
  let all =
    match baseline_file with
    | None -> all
    | Some path ->
        if not (Sys.file_exists path) then all
        else (
          match Baseline.of_string (Lint.read_file path) with
          | Ok base -> Baseline.apply base all
          | Error e ->
              Lint.finding ~file:path ~line:1 ~col:0 ~rule:"parse" ~severity:Lint.Error
                ("baseline is unreadable: " ^ e)
              :: all)
  in
  { an_findings = all; an_summaries = summaries; an_files = files }

(* Findings only — what most tests want. *)
let lint_tree ?baseline_file ~rules ~root ~dirs () =
  (analyze ?baseline_file ~rules ~root ~dirs ()).an_findings

let registry_text summaries =
  let names = Ipa.live_series summaries in
  "# Telemetry series registry: every live metric name in lib/ and bin/,\n\
   # one per line, checked by the telemetry-registry lint pass. Regenerate\n\
   # with `scion_lint --write-telemetry-registry` after renaming a series,\n\
   # and update goldens/dashboards in the same change.\n"
  ^ String.concat "" (List.map (fun n -> n ^ "\n") names)
