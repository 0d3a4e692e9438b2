type t = {
  ia : Scion_addr.Ia.t;
  priv : Scion_crypto.Schnorr.private_key;
  cert : Cert.t;
  default_validity : float;
  mutable next_serial : int;
  revoked : (int, unit) Hashtbl.t;
}

let create ~ia ~priv ~cert ?(default_validity = 3.0 *. 24.0 *. 3600.0) () =
  if cert.Cert.kind <> Cert.Ca then invalid_arg "Ca.create: certificate is not a CA certificate";
  if not (Scion_addr.Ia.equal cert.Cert.subject ia) then
    invalid_arg "Ca.create: certificate subject does not match CA identity";
  { ia; priv; cert; default_validity; next_serial = 1; revoked = Hashtbl.create 8 }

let ia t = t.ia
let ca_cert t = t.cert

let issue t ~subject ~pubkey ~profile ~now =
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  Cert.sign ~kind:Cert.As_signing ~profile ~serial ~subject ~pubkey
    ~validity:(now, now +. t.default_validity)
    ~issuer:t.ia ~issuer_key_name:"ca" ~issuer_priv:t.priv

let renew t ~current ~pubkey ~now =
  if current.Cert.kind <> Cert.As_signing then Error "not an AS certificate"
  else if not (Scion_addr.Ia.equal current.Cert.issuer t.ia) then Error "issued by a different CA"
  else if Hashtbl.mem t.revoked current.Cert.serial then Error "certificate was revoked"
  else if not (Cert.in_validity current now) then Error "certificate already expired; re-enrollment required"
  else Ok (issue t ~subject:current.Cert.subject ~pubkey ~profile:current.Cert.profile ~now)

let revoke t ~serial = Hashtbl.replace t.revoked serial ()
let is_revoked t ~serial = Hashtbl.mem t.revoked serial
let needs_renewal cert ~now = Cert.remaining_fraction cert now < 1.0 /. 3.0
