//! Signed bid envelopes: worker-authenticated, replay-protected bids.
//!
//! A worker submits its bid wrapped in a [`BidEnvelope`] carrying the
//! round it targets, a fresh nonce, an expiry instant, and an ed25519
//! signature over a canonical byte encoding of all of it. The platform
//! verifies the signature against the public key the round's roster
//! registered for that worker *before* the bid is admitted (and before
//! anything reaches the write-ahead log), so a forged, altered, expired,
//! or replayed envelope never enters durable state.
//!
//! # Canonical signing bytes
//!
//! The signature covers this exact byte string — a domain-separation
//! tag followed by every envelope field in fixed little-endian layout,
//! with the bundle length-prefixed so no two distinct envelopes share
//! an encoding:
//!
//! ```text
//! "mcs-bid-envelope-v1"      (19 bytes)
//! round_id        u64 LE     (8)
//! worker          u32 LE     (4)
//! nonce           u64 LE     (8)
//! expires_at_ms   u64 LE     (8)
//! price           i64 LE     (8, tenths)
//! bundle length   u32 LE     (4)
//! each task id    u32 LE     (4 each, sorted — Bundle canonicalises)
//! ```
//!
//! The bytes are rebuilt from the parsed fields on the verifying side,
//! so JSON re-encoding differences (whitespace, field order) cannot
//! change what is signed.

use std::fmt;

use ed25519::{hex_decode, hex_encode, Signature, SigningKey, VerifyingKey};
use serde::{Deserialize, Serialize};

use mcs_types::{Bid, WorkerId};

/// Domain-separation tag prefixed to every signed byte string.
pub const ENVELOPE_DOMAIN: &[u8] = b"mcs-bid-envelope-v1";

/// A signed, replay-protected bid submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BidEnvelope {
    /// The durable round this bid targets.
    pub round_id: u64,
    /// The submitting worker's roster identity.
    pub worker: WorkerId,
    /// The bid itself (bundle + asking price).
    pub bid: Bid,
    /// A per-(round, worker) unique value; reusing one is a replay.
    pub nonce: u64,
    /// Unix-epoch milliseconds after which the envelope is invalid.
    pub expires_at_ms: u64,
    /// Hex-encoded 64-byte ed25519 signature over the canonical bytes.
    pub signature: String,
}

/// Why an envelope was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The worker is not on the round's roster.
    UnknownWorker(WorkerId),
    /// The roster's public key for this worker does not decode.
    BadKey(String),
    /// The signature is malformed or does not verify.
    BadSignature(String),
    /// The envelope's expiry instant has passed.
    Expired {
        /// The envelope's expiry (Unix ms).
        expires_at_ms: u64,
        /// The platform clock at admission (Unix ms).
        now_ms: u64,
    },
    /// This (worker, nonce) pair was already admitted in this round.
    ReplayedNonce {
        /// The replaying worker.
        worker: WorkerId,
        /// The reused nonce.
        nonce: u64,
    },
    /// The worker already has an admitted bid in this round.
    DuplicateBid(WorkerId),
}

impl EnvelopeError {
    /// Stable snake_case rejection code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            EnvelopeError::UnknownWorker(_) => "unknown_worker",
            EnvelopeError::BadKey(_) => "bad_key",
            EnvelopeError::BadSignature(_) => "bad_signature",
            EnvelopeError::Expired { .. } => "expired",
            EnvelopeError::ReplayedNonce { .. } => "replayed_nonce",
            EnvelopeError::DuplicateBid(_) => "duplicate_bid",
        }
    }
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::UnknownWorker(w) => write!(f, "worker {} is not on the roster", w.0),
            EnvelopeError::BadKey(msg) => write!(f, "roster public key invalid: {msg}"),
            EnvelopeError::BadSignature(msg) => write!(f, "signature rejected: {msg}"),
            EnvelopeError::Expired {
                expires_at_ms,
                now_ms,
            } => write!(f, "envelope expired at {expires_at_ms} ms, now {now_ms} ms"),
            EnvelopeError::ReplayedNonce { worker, nonce } => {
                write!(f, "worker {} replayed nonce {nonce}", worker.0)
            }
            EnvelopeError::DuplicateBid(w) => {
                write!(f, "worker {} already bid in this round", w.0)
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// The canonical byte string an envelope's signature covers.
pub fn signing_bytes(
    round_id: u64,
    worker: WorkerId,
    bid: &Bid,
    nonce: u64,
    expires_at_ms: u64,
) -> Vec<u8> {
    let bundle = bid.bundle().as_slice();
    let mut out = Vec::with_capacity(ENVELOPE_DOMAIN.len() + 40 + 4 * bundle.len());
    out.extend_from_slice(ENVELOPE_DOMAIN);
    out.extend_from_slice(&round_id.to_le_bytes());
    out.extend_from_slice(&worker.0.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&expires_at_ms.to_le_bytes());
    out.extend_from_slice(&bid.price().tenths().to_le_bytes());
    out.extend_from_slice(&(bundle.len() as u32).to_le_bytes());
    for task in bundle {
        out.extend_from_slice(&task.0.to_le_bytes());
    }
    out
}

impl BidEnvelope {
    /// Builds and signs an envelope with the worker's key.
    pub fn sign(
        round_id: u64,
        worker: WorkerId,
        bid: Bid,
        nonce: u64,
        expires_at_ms: u64,
        key: &SigningKey,
    ) -> BidEnvelope {
        let bytes = signing_bytes(round_id, worker, &bid, nonce, expires_at_ms);
        let signature = hex_encode(&key.sign(&bytes).to_bytes());
        BidEnvelope {
            round_id,
            worker,
            bid,
            nonce,
            expires_at_ms,
            signature,
        }
    }

    /// Decodes the hex signature field into raw bytes.
    ///
    /// # Errors
    ///
    /// [`EnvelopeError::BadSignature`] when the field is not exactly
    /// 128 hex characters.
    pub fn signature_bytes(&self) -> Result<[u8; 64], EnvelopeError> {
        let bytes = hex_decode(&self.signature)
            .ok_or_else(|| EnvelopeError::BadSignature("signature is not valid hex".to_string()))?;
        <[u8; 64]>::try_from(bytes.as_slice()).map_err(|_| {
            EnvelopeError::BadSignature(format!(
                "signature is {} hex bytes, expected 64",
                self.signature.len() / 2
            ))
        })
    }

    /// Verifies expiry and signature against the roster key.
    ///
    /// Replay (nonce) and duplicate-bid checks need round state and live
    /// in the ledger; this covers the stateless checks.
    ///
    /// # Errors
    ///
    /// [`EnvelopeError::Expired`] or [`EnvelopeError::BadSignature`].
    pub fn verify(&self, key: &VerifyingKey, now_ms: u64) -> Result<(), EnvelopeError> {
        if now_ms > self.expires_at_ms {
            return Err(EnvelopeError::Expired {
                expires_at_ms: self.expires_at_ms,
                now_ms,
            });
        }
        let signature = Signature::from_bytes(&self.signature_bytes()?);
        let bytes = signing_bytes(
            self.round_id,
            self.worker,
            &self.bid,
            self.nonce,
            self.expires_at_ms,
        );
        key.verify(&bytes, &signature)
            .map_err(|e| EnvelopeError::BadSignature(e.to_string()))
    }
}

/// Decodes a roster entry's hex public key.
///
/// # Errors
///
/// [`EnvelopeError::BadKey`] when the hex is malformed, the wrong
/// length, or not a valid curve point.
pub fn decode_public_key(hex: &str) -> Result<VerifyingKey, EnvelopeError> {
    let bytes =
        hex_decode(hex).ok_or_else(|| EnvelopeError::BadKey("not valid hex".to_string()))?;
    let bytes = <[u8; 32]>::try_from(bytes.as_slice())
        .map_err(|_| EnvelopeError::BadKey(format!("{} hex bytes, expected 32", bytes.len())))?;
    VerifyingKey::from_bytes(&bytes).map_err(|e| EnvelopeError::BadKey(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_types::{Bundle, Price, TaskId};

    fn test_key(tag: u8) -> SigningKey {
        let mut seed = [tag; 32];
        seed[0] = 0x5e;
        SigningKey::from_seed(seed)
    }

    fn bid() -> Bid {
        Bid::new(
            Bundle::new(vec![TaskId(2), TaskId(0)]),
            Price::from_tenths(135),
        )
    }

    #[test]
    fn sign_and_verify_round_trip() {
        let key = test_key(1);
        let env = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &key);
        env.verify(&key.verifying_key(), 5_000).expect("verifies");
    }

    #[test]
    fn any_field_tamper_breaks_the_signature() {
        let key = test_key(1);
        let good = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &key);
        let vk = key.verifying_key();
        let mut cases = Vec::new();
        let mut e = good.clone();
        e.round_id = 8;
        cases.push(e);
        let mut e = good.clone();
        e.worker = WorkerId(4);
        cases.push(e);
        let mut e = good.clone();
        e.nonce = 100;
        cases.push(e);
        let mut e = good.clone();
        e.expires_at_ms = 10_001;
        cases.push(e);
        let mut e = good.clone();
        e.bid = Bid::new(e.bid.bundle().clone(), Price::from_tenths(134));
        cases.push(e);
        let mut e = good.clone();
        e.bid = Bid::new(Bundle::new(vec![TaskId(0)]), e.bid.price());
        cases.push(e);
        for tampered in cases {
            assert!(
                matches!(
                    tampered.verify(&vk, 5_000),
                    Err(EnvelopeError::BadSignature(_))
                ),
                "tampered envelope accepted: {tampered:?}"
            );
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let env = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &test_key(1));
        assert!(matches!(
            env.verify(&test_key(2).verifying_key(), 5_000),
            Err(EnvelopeError::BadSignature(_))
        ));
    }

    #[test]
    fn expiry_is_enforced_before_the_signature() {
        let key = test_key(1);
        let env = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &key);
        assert!(matches!(
            env.verify(&key.verifying_key(), 10_001),
            Err(EnvelopeError::Expired { .. })
        ));
        // Exactly at the deadline is still valid.
        env.verify(&key.verifying_key(), 10_000).expect("at expiry");
    }

    #[test]
    fn malformed_signature_and_key_hex_are_typed() {
        let key = test_key(1);
        let mut env = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &key);
        env.signature = "zz".repeat(64);
        assert!(matches!(
            env.verify(&key.verifying_key(), 0),
            Err(EnvelopeError::BadSignature(_))
        ));
        env.signature = "ab".repeat(63);
        assert!(matches!(
            env.verify(&key.verifying_key(), 0),
            Err(EnvelopeError::BadSignature(_))
        ));
        assert!(matches!(
            decode_public_key("not hex"),
            Err(EnvelopeError::BadKey(_))
        ));
        assert!(matches!(
            decode_public_key(&"ff".repeat(32)),
            Err(EnvelopeError::BadKey(_))
        ));
        // A wrong-length key names its decoded byte count.
        for len in [64, 16] {
            assert_eq!(
                decode_public_key(&"ab".repeat(len)).map(|key| key.to_bytes()),
                Err(EnvelopeError::BadKey(format!(
                    "{len} hex bytes, expected 32"
                )))
            );
        }
    }

    #[test]
    fn envelope_serde_round_trips() {
        let env = BidEnvelope::sign(7, WorkerId(3), bid(), 99, 10_000, &test_key(1));
        let json = serde_json::to_string(&env).expect("serialize");
        let back: BidEnvelope = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, env);
    }
}
