(** Certificate-chain verification: AS certificate → CA certificate → TRC
    root key, with validity-window and authorization checks. This is what a
    control service runs before trusting a PCB signature. *)

type error =
  | As_cert_invalid of string
  | Ca_cert_invalid of string
  | Trc_invalid of string

val error_to_string : error -> string

val chain :
  verify_cert:(Scion_crypto.Schnorr.public_key -> Cert.t -> bool) ->
  trc:Trc.t ->
  ca_cert:Cert.t ->
  as_cert:Cert.t ->
  now:float ->
  (unit, error) result
(** Full chain check: the TRC is within validity; the CA certificate's
    subject is an authorized CA AS of the TRC and its signature verifies
    under the named TRC root key; the AS certificate verifies under the CA
    key and is within validity; issuers line up. The two signature checks
    go through [verify_cert issuer_key cert], which must answer exactly
    {!Cert.verify_with}: pass [Cert.verify_with] itself, or a memo of it
    such as [Scion_controlplane.Sigcache.verify_cert]. Every other check
    runs on every call, in the order above. *)
