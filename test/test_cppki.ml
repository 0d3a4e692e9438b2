open Scion_cppki
module Schnorr = Scion_crypto.Schnorr
module Ia = Scion_addr.Ia

let now = 1_700_000_000.0
let day = 86400.0
let year = 365.0 *. day
let ia = Ia.of_string

let roots n = List.init n (fun i ->
    let name = Printf.sprintf "root-%d" i in
    let priv, pub = Schnorr.derive ~seed:("trc-" ^ name) in
    (name, priv, pub))

let base_trc ?(quorum = 2) ?(n_roots = 3) () =
  Trc.sign_base ~isd:71
    ~validity:(now, now +. year)
    ~core_ases:[ ia "71-2:0:1"; ia "71-2:0:2" ]
    ~ca_ases:[ ia "71-2:0:1" ] ~quorum ~roots:(roots n_roots)

let test_base_trc_verifies () =
  let trc = base_trc () in
  Alcotest.(check bool) "base verifies" true (Trc.verify_base trc);
  Alcotest.(check bool) "within validity" true (Trc.in_validity trc (now +. day));
  Alcotest.(check bool) "before validity" false (Trc.in_validity trc (now -. 1.0));
  Alcotest.(check bool) "root lookup" true (Trc.find_root trc "root-0" <> None);
  Alcotest.(check bool) "unknown root" true (Trc.find_root trc "nope" = None)

let test_base_trc_tamper_detected () =
  let trc = base_trc () in
  let tampered = { trc with Trc.quorum = 1 } in
  Alcotest.(check bool) "tampered base rejected" false (Trc.verify_base tampered)

let test_trc_update_quorum () =
  let trc = base_trc () in
  let all = roots 3 in
  let votes2 = List.filteri (fun i _ -> i < 2) (List.map (fun (n, p, _) -> (n, p)) all) in
  (match Trc.update ~prev:trc ~validity:(now, now +. (2.0 *. year)) ~votes:votes2 () with
  | Ok next -> (
      Alcotest.(check int) "serial bumped" 2 next.Trc.serial;
      match Trc.verify_update ~prev:trc next with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let votes1 = [ List.hd (List.map (fun (n, p, _) -> (n, p)) all) ] in
  match Trc.update ~prev:trc ~validity:(now, now +. year) ~votes:votes1 () with
  | Ok _ -> Alcotest.fail "accepted sub-quorum update"
  | Error _ -> ()

let test_trc_update_unknown_voter () =
  let trc = base_trc () in
  let stranger, _ = Schnorr.derive ~seed:"stranger" in
  let root0_priv = match roots 3 with (_, p, _) :: _ -> p | [] -> assert false in
  match
    Trc.update ~prev:trc ~validity:(now, now +. year)
      ~votes:[ ("mallory", stranger); ("root-0", root0_priv) ]
      ()
  with
  | Ok _ -> Alcotest.fail "accepted unknown voter"
  | Error _ -> ()

let test_trc_chain () =
  let trc = base_trc () in
  let votes = List.map (fun (n, p, _) -> (n, p)) (roots 3) in
  let next1 =
    match Trc.update ~prev:trc ~validity:(now, now +. year) ~votes () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let next2 =
    match Trc.update ~prev:next1 ~validity:(now, now +. year) ~votes () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (match Trc.verify_chain ~base:trc [ next1; next2 ] with
  | Ok latest -> Alcotest.(check int) "latest serial" 3 latest.Trc.serial
  | Error e -> Alcotest.fail e);
  (* Skipping a link breaks the chain. *)
  match Trc.verify_chain ~base:trc [ next2 ] with
  | Ok _ -> Alcotest.fail "accepted gap in chain"
  | Error _ -> ()

let test_trc_root_rotation () =
  let trc = base_trc () in
  let votes = List.map (fun (n, p, _) -> (n, p)) (roots 3) in
  let new_roots =
    List.map
      (fun i ->
        let name = Printf.sprintf "newroot-%d" i in
        let _, pub = Schnorr.derive ~seed:name in
        { Trc.name; key = pub })
      [ 0; 1; 2 ]
  in
  match Trc.update ~prev:trc ~rotate_roots:new_roots ~validity:(now, now +. year) ~votes () with
  | Ok next -> (
      match Trc.verify_update ~prev:trc next with
      | Ok () -> Alcotest.(check bool) "rotated" true (Trc.find_root next "newroot-0" <> None)
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* --- Certificates and CA --- *)

let setup_ca ?(profile = Cert.Open_source) () =
  let root_priv, root_pub = Schnorr.derive ~seed:"ca-root" in
  ignore root_pub;
  let ca_ia = ia "71-2:0:1" in
  let ca_priv, ca_pub = Schnorr.derive ~seed:"ca-key" in
  let ca_cert =
    Cert.sign ~kind:Cert.Ca ~profile ~serial:1 ~subject:ca_ia ~pubkey:ca_pub
      ~validity:(now, now +. (5.0 *. year))
      ~issuer:ca_ia ~issuer_key_name:"root-0" ~issuer_priv:root_priv
  in
  let trc =
    Trc.sign_base ~isd:71
      ~validity:(now, now +. (10.0 *. year))
      ~core_ases:[ ca_ia ] ~ca_ases:[ ca_ia ] ~quorum:1
      ~roots:[ ("root-0", root_priv, root_pub) ]
  in
  (Ca.create ~ia:ca_ia ~priv:ca_priv ~cert:ca_cert (), trc)

let subject_keys = Schnorr.derive ~seed:"subject-71-559"

let test_issue_and_chain () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  Alcotest.(check bool) "short-lived" true (cert.Cert.not_after -. cert.Cert.not_before <= 3.0 *. day +. 1.0);
  (match Verify.chain ~verify_cert:Cert.verify_with ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now:(now +. day) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Verify.error_to_string e));
  (* Expired AS cert fails. *)
  (match Verify.chain ~verify_cert:Cert.verify_with ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now:(now +. (10.0 *. day)) with
  | Ok () -> Alcotest.fail "accepted expired cert"
  | Error (Verify.As_cert_invalid _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e));
  (* Forged cert (wrong issuer key) fails. *)
  let mallory, _ = Schnorr.derive ~seed:"mallory" in
  let forged =
    Cert.sign ~kind:Cert.As_signing ~profile:Cert.Open_source ~serial:99 ~subject:(ia "71-559")
      ~pubkey:pub ~validity:(now, now +. day) ~issuer:(Ca.ia ca) ~issuer_key_name:"ca"
      ~issuer_priv:mallory
  in
  match Verify.chain ~verify_cert:Cert.verify_with ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:forged ~now with
  | Ok () -> Alcotest.fail "accepted forged cert"
  | Error (Verify.As_cert_invalid _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e)

let test_profiles_interop () =
  let ca, trc = setup_ca ~profile:Cert.Proprietary () in
  let _, pub = subject_keys in
  (* Proprietary CA issuing an open-source-profile AS cert and vice versa
     must both verify (the Section 4.5 interop lesson). *)
  List.iter
    (fun profile ->
      let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile ~now in
      match Verify.chain ~verify_cert:Cert.verify_with ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Verify.error_to_string e))
    [ Cert.Open_source; Cert.Proprietary ];
  (* The two profiles produce different canonical bytes. *)
  let c1 = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let c2 = { c1 with Cert.profile = Cert.Proprietary } in
  Alcotest.(check bool) "encodings differ" true (Cert.signed_bytes c1 <> Cert.signed_bytes c2)

let test_renewal_flow () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  Alcotest.(check bool) "fresh cert needs no renewal" false (Ca.needs_renewal cert ~now);
  let later = now +. (2.5 *. day) in
  Alcotest.(check bool) "old cert needs renewal" true (Ca.needs_renewal cert ~now:later);
  (match Ca.renew ca ~current:cert ~pubkey:pub ~now:later with
  | Ok fresh -> (
      Alcotest.(check bool) "new serial" true (fresh.Cert.serial > cert.Cert.serial);
      match Verify.chain ~verify_cert:Cert.verify_with ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:fresh ~now:(later +. day) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Verify.error_to_string e))
  | Error e -> Alcotest.fail e);
  (* Renewal after expiry requires re-enrollment. *)
  (match Ca.renew ca ~current:cert ~pubkey:pub ~now:(now +. (30.0 *. day)) with
  | Ok _ -> Alcotest.fail "renewed expired cert"
  | Error _ -> ());
  (* Revoked certificates cannot renew. *)
  Ca.revoke ca ~serial:cert.Cert.serial;
  Alcotest.(check bool) "revoked" true (Ca.is_revoked ca ~serial:cert.Cert.serial);
  match Ca.renew ca ~current:cert ~pubkey:pub ~now:later with
  | Ok _ -> Alcotest.fail "renewed revoked cert"
  | Error _ -> ()

let test_ca_rejects_non_ca_cert () =
  let ca, _ = setup_ca () in
  let _, pub = subject_keys in
  let as_cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let priv, _ = Schnorr.derive ~seed:"x" in
  try
    ignore (Ca.create ~ia:(ia "71-559") ~priv ~cert:as_cert ());
    Alcotest.fail "accepted AS cert as CA cert"
  with Invalid_argument _ -> ()

let test_unauthorized_ca_rejected () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  (* A TRC that does not list the CA AS. *)
  let root_priv, root_pub = Schnorr.derive ~seed:"ca-root" in
  let other_trc =
    Trc.sign_base ~isd:71
      ~validity:(now, now +. (10.0 *. year))
      ~core_ases:[ ia "71-2:0:1" ] ~ca_ases:[ ia "71-2:0:99" ] ~quorum:1
      ~roots:[ ("root-0", root_priv, root_pub) ]
  in
  match Verify.chain ~verify_cert:Cert.verify_with ~trc:other_trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now with
  | Ok () -> Alcotest.fail "accepted unauthorized CA"
  | Error (Verify.Ca_cert_invalid _) -> ignore trc
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e)

let test_cert_remaining_fraction () =
  let _, pub = subject_keys in
  let priv, _ = Schnorr.derive ~seed:"issuer" in
  let cert =
    Cert.sign ~kind:Cert.As_signing ~profile:Cert.Open_source ~serial:1 ~subject:(ia "71-1")
      ~pubkey:pub ~validity:(0.0, 100.0) ~issuer:(ia "71-2") ~issuer_key_name:"ca" ~issuer_priv:priv
  in
  Alcotest.(check (float 1e-9)) "start" 1.0 (Cert.remaining_fraction cert 0.0);
  Alcotest.(check (float 1e-9)) "middle" 0.5 (Cert.remaining_fraction cert 50.0);
  Alcotest.(check (float 1e-9)) "end" 0.0 (Cert.remaining_fraction cert 100.0);
  Alcotest.(check (float 1e-9)) "past" 0.0 (Cert.remaining_fraction cert 200.0)

(* --- Certificate-verdict memo ---

   [Sigcache.verify_cert] memoises "signature s over message m verifies
   under key k", a fact. A chain checked through a memo that already holds
   the genuine verdicts must get exactly the verdict and error of a cold
   check, whatever was tampered. *)

module Sigcache = Scion_controlplane.Sigcache
module Mesh = Scion_controlplane.Mesh

let cold = Verify.chain ~verify_cert:Cert.verify_with
let warm memo = Verify.chain ~verify_cert:(Sigcache.verify_cert memo)

let chain_result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with Ok () -> "Ok" | Error e -> Verify.error_to_string e))
    ( = )

let as_err = function Verify.As_cert_invalid _ -> true | _ -> false
let ca_err = function Verify.Ca_cert_invalid _ -> true | _ -> false

let check_rejected name memo ~trc ~ca_cert ~as_cert ~now ~expect =
  let c = cold ~trc ~ca_cert ~as_cert ~now in
  Alcotest.check chain_result (name ^ ": warm = cold") c (warm memo ~trc ~ca_cert ~as_cert ~now);
  match c with
  | Error e when expect e -> ()
  | Ok () -> Alcotest.fail (name ^ ": accepted")
  | Error e -> Alcotest.fail (name ^ ": wrong error: " ^ Verify.error_to_string e)

let check_accepted name memo ~trc ~ca_cert ~as_cert ~now =
  Alcotest.check chain_result (name ^ ": cold") (Ok ()) (cold ~trc ~ca_cert ~as_cert ~now);
  Alcotest.check chain_result (name ^ ": warm") (Ok ()) (warm memo ~trc ~ca_cert ~as_cert ~now)

let flip_byte ?(mask = 0x01) s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let test_memo_rejects_tampering () =
  let ca, trc = setup_ca () in
  let ca_cert = Ca.ca_cert ca in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let memo = Sigcache.create () in
  check_accepted "genuine chain" memo ~trc ~ca_cert ~as_cert:cert ~now;
  Alcotest.(check int) "both verdicts memoised" 2 (Sigcache.cert_entries memo);
  check_rejected "flipped AS signature byte" memo ~trc ~ca_cert
    ~as_cert:{ cert with Cert.signature = flip_byte cert.Cert.signature 40 }
    ~now ~expect:as_err;
  check_rejected "flipped CA signature byte" memo ~trc
    ~ca_cert:{ ca_cert with Cert.signature = flip_byte ca_cert.Cert.signature 40 }
    ~as_cert:cert ~now ~expect:ca_err;
  check_rejected "AS field changed, old signature" memo ~trc ~ca_cert
    ~as_cert:{ cert with Cert.serial = cert.Cert.serial + 1 }
    ~now ~expect:as_err;
  check_rejected "CA field changed, old signature" memo ~trc
    ~ca_cert:{ ca_cert with Cert.not_after = ca_cert.Cert.not_after +. 1.0 }
    ~as_cert:cert ~now ~expect:ca_err;
  (* Root rotated under the same name: the genuine CA certificate no longer
     chains, although its verdict under the old root key is memoised. *)
  let root_priv, _ = Schnorr.derive ~seed:"ca-root" in
  let _, rotated_key = Schnorr.derive ~seed:"ca-root-rotated" in
  let rotated =
    match
      Trc.update ~prev:trc
        ~rotate_roots:[ { Trc.name = "root-0"; key = rotated_key } ]
        ~validity:(now, now +. (10.0 *. year))
        ~votes:[ ("root-0", root_priv) ]
        ()
    with
    | Ok next -> next
    | Error e -> Alcotest.fail e
  in
  check_rejected "genuine chain under a rotated root" memo ~trc:rotated ~ca_cert ~as_cert:cert
    ~now ~expect:ca_err;
  check_accepted "genuine chain again" memo ~trc ~ca_cert ~as_cert:cert ~now

let test_memo_seized_identity_after_rotation () =
  let net = Sciera.Network.create ~per_origin:2 ~verify_pcbs:false () in
  let m = Sciera.Network.mesh net in
  let now = Sciera.Network.now_unix net in
  let victim =
    match List.filter (fun a -> not (Mesh.is_core m a)) (Mesh.ases m) with
    | a :: _ -> a
    | [] -> Alcotest.fail "no leaf AS"
  in
  let material () =
    match Mesh.cert_lookup m victim with
    | Some x -> x
    | None -> Alcotest.fail "no certificate material"
  in
  Mesh.seize_as m ~ia:victim ~now;
  let seized_cert, old_ca, old_trc = material () in
  (* The memo is never re-bound to the new epoch here: the rejections below
     come from content keying alone. *)
  let memo = Sigcache.create () in
  check_accepted "seized identity before rotation" memo ~trc:old_trc ~ca_cert:old_ca
    ~as_cert:seized_cert ~now;
  Mesh.rotate_trc m ~isd:victim.Ia.isd ~now;
  let fresh_cert, ca_cert, trc = material () in
  check_rejected "seized cert under the rotated CA" memo ~trc ~ca_cert ~as_cert:seized_cert ~now
    ~expect:as_err;
  check_rejected "seized chain under the rotated TRC" memo ~trc ~ca_cert:old_ca
    ~as_cert:seized_cert ~now ~expect:ca_err;
  check_accepted "re-issued cert" memo ~trc ~ca_cert ~as_cert:fresh_cert ~now;
  Sigcache.set_epoch memo (Mesh.key_epoch m);
  Alcotest.(check int) "new epoch drops the memo" 0 (Sigcache.cert_entries memo)

(* Random tamperings of either certificate, checked through one memo that
   accumulates every verdict seen so far: warm and cold must agree, on the
   first warm call and on the memoised second one. *)
let qcheck_memo_equals_cold =
  let ca, trc = setup_ca () in
  let ca_cert = Ca.ca_cert ca in
  let _, pub = subject_keys in
  let _, other_pub = Schnorr.derive ~seed:"other-subject" in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let other = Ca.issue ca ~subject:(ia "71-560") ~pubkey:other_pub ~profile:Cert.Proprietary ~now in
  let memo = Sigcache.create () in
  ignore (warm memo ~trc ~ca_cert ~as_cert:cert ~now);
  let tamper (c : Cert.t) (kind, p) =
    match kind with
    | 0 -> c
    | 1 ->
        let i = p mod String.length c.Cert.signature in
        { c with Cert.signature = flip_byte ~mask:(1 + (p mod 255)) c.Cert.signature i }
    | 2 -> { c with Cert.serial = c.Cert.serial + 1 + p }
    | 3 -> { c with Cert.not_before = c.Cert.not_before -. float_of_int (1 + p) }
    | 4 -> { c with Cert.not_after = c.Cert.not_after +. float_of_int (1 + p) }
    | 5 -> { c with Cert.subject = ia (Printf.sprintf "71-%d" (600 + p)) }
    | 6 -> { c with Cert.issuer = ia (Printf.sprintf "71-%d" (600 + p)) }
    | 7 -> { c with Cert.issuer_key_name = c.Cert.issuer_key_name ^ "x" }
    | 8 -> { c with Cert.pubkey = other_pub }
    | 9 ->
        let profile =
          match c.Cert.profile with Cert.Open_source -> Cert.Proprietary | Cert.Proprietary -> Cert.Open_source
        in
        { c with Cert.profile }
    | 10 -> { c with Cert.kind = (match c.Cert.kind with Cert.Ca -> Cert.As_signing | Cert.As_signing -> Cert.Ca) }
    | _ -> { c with Cert.signature = other.Cert.signature }
  in
  QCheck.Test.make ~count:150 ~name:"warm-memo chain verdict = cold verdict"
    QCheck.(list_of_size Gen.(1 -- 3) (triple bool (int_bound 11) (int_bound 1000)))
    (fun tamperings ->
      let ca_cert, as_cert =
        List.fold_left
          (fun (ca_c, as_c) (on_ca, kind, p) ->
            if on_ca then (tamper ca_c (kind, p), as_c) else (ca_c, tamper as_c (kind, p)))
          (ca_cert, cert) tamperings
      in
      let c = cold ~trc ~ca_cert ~as_cert ~now in
      let w1 = warm memo ~trc ~ca_cert ~as_cert ~now in
      let w2 = warm memo ~trc ~ca_cert ~as_cert ~now in
      c = w1 && c = w2)

let test_memo_bounded () =
  let module Network = Sciera.Network in
  let cache = Sigcache.global in
  Sigcache.clear cache;
  let net = Network.create ~per_origin:2 ~verify_pcbs:true () in
  let m = Network.mesh net in
  (* Bind the process-wide cache to this mesh's epoch, then beacon: an
     earlier mesh of the same seed may have left the cache at the epoch a
     rotation here produces. *)
  Sigcache.set_epoch cache (Mesh.key_epoch m);
  let at = ref (Network.now_unix net) in
  Mesh.run_beaconing m ~now:!at;
  let isds = List.sort_uniq compare (List.map (fun a -> a.Ia.isd) (Mesh.ases m)) in
  (* One AS certificate per AS and one CA certificate per ISD are live. *)
  let live = List.length (Mesh.ases m) + List.length isds in
  let entries () = Sigcache.cert_entries cache in
  Alcotest.(check bool) (Printf.sprintf "after set-up %d <= %d live" (entries ()) live) true
    (entries () > 0 && entries () <= live);
  for round = 1 to 3 do
    at := !at +. (2.5 *. day);
    let before = entries () in
    let renewed = Mesh.renew_certificates m ~now:!at in
    Mesh.run_beaconing m ~now:!at;
    Alcotest.(check bool) (Printf.sprintf "round %d renews" round) true (renewed > 0);
    Alcotest.(check bool)
      (Printf.sprintf "round %d adds only the renewed certificates" round)
      true
      (entries () <= before + renewed)
  done;
  List.iter
    (fun isd ->
      Mesh.rotate_trc m ~isd ~now:!at;
      Alcotest.(check int) (Printf.sprintf "rotating ISD %d drops the memo" isd) 0 (entries ()))
    isds;
  Mesh.run_beaconing m ~now:!at;
  Alcotest.(check bool) "after rotation <= live" true (entries () <= live);
  Alcotest.(check int) "no verification failures" 0 (Mesh.verification_failures m);
  (* Within one epoch the memo is capped at 4096 verdicts (Sigcache.mli).
     Signatures of the wrong length are rejected before any group
     arithmetic, so 5000 distinct ones fill it cheaply. *)
  let memo = Sigcache.create () in
  let ca, _ = setup_ca () in
  let _, pub = subject_keys in
  let base = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let peak = ref 0 in
  for serial = 1 to 5000 do
    let junk = { base with Cert.serial; signature = "" } in
    Alcotest.(check bool) "junk rejected" false (Sigcache.verify_cert memo pub junk);
    peak := max !peak (Sigcache.cert_entries memo)
  done;
  Alcotest.(check int) "peak is the capacity" 4096 !peak;
  Alcotest.(check int) "emptied whole when full" (5000 - 4096) (Sigcache.cert_entries memo)

let () =
  Alcotest.run "scion_cppki"
    [
      ( "trc",
        [
          Alcotest.test_case "base verifies" `Quick test_base_trc_verifies;
          Alcotest.test_case "tamper detected" `Quick test_base_trc_tamper_detected;
          Alcotest.test_case "update quorum" `Quick test_trc_update_quorum;
          Alcotest.test_case "unknown voter" `Quick test_trc_update_unknown_voter;
          Alcotest.test_case "chain" `Quick test_trc_chain;
          Alcotest.test_case "root rotation" `Quick test_trc_root_rotation;
        ] );
      ( "cert/ca",
        [
          Alcotest.test_case "issue and chain" `Quick test_issue_and_chain;
          Alcotest.test_case "profiles interop" `Quick test_profiles_interop;
          Alcotest.test_case "renewal flow" `Quick test_renewal_flow;
          Alcotest.test_case "CA rejects non-CA cert" `Quick test_ca_rejects_non_ca_cert;
          Alcotest.test_case "unauthorized CA" `Quick test_unauthorized_ca_rejected;
          Alcotest.test_case "remaining fraction" `Quick test_cert_remaining_fraction;
        ] );
      ( "cert memo",
        [
          Alcotest.test_case "tampered chains rejected" `Quick test_memo_rejects_tampering;
          Alcotest.test_case "seized identity after rotation" `Quick
            test_memo_seized_identity_after_rotation;
          QCheck_alcotest.to_alcotest qcheck_memo_equals_cold;
          Alcotest.test_case "bounded across renewals and rotations" `Quick test_memo_bounded;
        ] );
    ]
