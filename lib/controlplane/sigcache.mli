(** Memoisation of signature verification.

    Beacon propagation re-verifies the same (message, signature, key)
    triples many times: every PCB received by an AS contains the signatures
    of all upstream ASes, and the same PCB prefix flows down every branch of
    the ISD. Verification results are immutable facts, so a global cache is
    sound and turns the beaconing cost from quadratic to linear in practice. *)

type t

val create : unit -> t
val global : t
(** A process-wide cache used by default. *)

val set_epoch : t -> string -> unit
(** Bind the cache to a key epoch — canonically the concatenation of every
    trusted TRC's [isd:serial] pair. The epoch is mixed into every cache
    key and changing it drops all entries, so verdicts produced under a
    rotated-out (possibly compromised) trust root cannot keep validating
    signatures after a TRC update. Setting the current epoch is a no-op.
    The certificate memo of {!verify_cert} is dropped with it. *)

val epoch : t -> string
(** The current key epoch ([""] until {!set_epoch} is called). *)

val verify :
  t -> Scion_crypto.Schnorr.public_key -> msg:string -> signature:string -> bool

val verify_batch :
  t -> (Scion_crypto.Schnorr.public_key * string * string) list -> bool list
(** [verify_batch t [(pub, msg, signature); ...]] returns one verdict per
    item, in order. Cached triples are answered from the table; the misses
    are checked in a single {!Scion_crypto.Schnorr.verify_batch}
    random-linear-combination pass (duplicates within the batch are
    collapsed first). If the batched check rejects, each miss is re-verified
    individually so verdicts stay exact per item. All results are cached. *)

val verify_cert : t -> Scion_crypto.Schnorr.public_key -> Scion_cppki.Cert.t -> bool
(** [verify_cert t issuer_pub cert] is {!Scion_cppki.Cert.verify_with}
    [issuer_pub cert], memoised per key epoch: a certificate signature is
    checked once, however many PCB entries chain through it. Pass it to
    {!Scion_cppki.Verify.chain} as [~verify_cert]; the chain's trust
    decisions (validity windows, CA authorisation, root lookup, issuer
    matching) still run on every call. The memo holds at most 4096
    verdicts and is emptied whole when full. It does not move {!hits} or
    {!misses}, which count PCB signatures only. *)

val cert_entries : t -> int
(** Number of memoised certificate verdicts. *)

val hits : t -> int
val misses : t -> int

val clear : t -> unit
(** Drop every memoised verdict (PCB and certificate) and zero the
    hit/miss counters. The epoch is kept. *)
