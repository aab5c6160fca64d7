//! Stable content digests for auction inputs.
//!
//! The service layer caches schedule/PMF builds keyed by *what the auction
//! would compute over*, so it needs a digest of an [`Instance`] that is
//!
//! * **content-determined** — two instances that compare equal under
//!   `PartialEq` always digest equally, however they were constructed
//!   (bundle task order, builder path, cloning, serde round-trips);
//! * **field-sensitive** — changing any input the mechanism reads (one bid
//!   price, one bundle membership, one skill cell, one `δ_j`, the price
//!   grid, the cost range) changes the digest with overwhelming
//!   probability;
//! * **stable** — the value depends only on this module's canonical
//!   encoding, never on pointer identity, hash-map iteration order,
//!   platform endianness, or the Rust version, so digests may be persisted
//!   and compared across processes and machines.
//!
//! # Stability contract
//!
//! The encoding below is versioned by [`DIGEST_VERSION`], which is mixed
//! into every digest. Any change to the canonical field encoding or to the
//! hash that absorbs it MUST bump the version so stale persisted digests
//! can never alias fresh ones. Within one version,
//! `a == b  ⇒  a.digest() == b.digest()`, and the converse holds up to
//! 64-bit collision probability (a folded-multiply hash, not a
//! cryptographic one; callers that need collision resistance against
//! crafted inputs must not use this digest).
//!
//! Version 1 absorbed the encoding byte by byte with FNV-1a. Version 2
//! absorbs the same fields one 64-bit word at a time (every field is a
//! word: tags, counts, task ids, tenths, IEEE-754 bit patterns), which
//! digests a Setting I, N = 560 instance about four times faster.

use crate::Instance;

/// Version tag mixed into every [`Instance::digest`]; bump on any encoding
/// change (see the module-level stability contract).
pub const DIGEST_VERSION: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over a canonical byte encoding.
///
/// All multi-byte values are written little-endian; floats are written as
/// their IEEE-754 bit patterns (so `-0.0` and `0.0` digest differently,
/// which is fine — instance validation never produces both for equal
/// instances). Each logical field is preceded by a one-byte domain tag so
/// adjacent variable-length fields cannot alias each other.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Creates a hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a one-byte domain-separation tag.
    pub fn tag(&mut self, tag: u8) {
        self.write(&[tag]);
    }

    /// Absorbs a `u64` little-endian.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs an `i64` little-endian.
    pub fn write_i64(&mut self, x: i64) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs a `u32` little-endian.
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs a `usize` as `u64` so 32- and 64-bit platforms agree.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Absorbs an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The hash of [`Instance::digest`]: each 64-bit word is XORed into the
/// state, and the state becomes the folded product — the XOR of the two
/// halves of its 128-bit product with an odd constant — XORed with its
/// old value. One multiply a word, where FNV-1a takes eight.
struct WordHash {
    state: u64,
}

impl WordHash {
    /// π's first fractional bits and the golden ratio's (odd).
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        WordHash { state: Self::SEED }
    }

    fn word(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(Self::MULTIPLIER);
        self.state ^= (product as u64) ^ ((product >> 64) as u64);
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn i64(&mut self, x: i64) {
        self.word(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Field tags of the canonical [`Instance`] encoding. Values are part of
/// the stability contract; never reuse or renumber within a version.
mod field {
    pub const NUM_TASKS: u8 = 0x01;
    pub const BIDS: u8 = 0x02;
    pub const SKILLS: u8 = 0x03;
    pub const DELTAS: u8 = 0x04;
    pub const PRICE_GRID: u8 = 0x05;
    pub const COST_RANGE: u8 = 0x06;
    /// Written only when the completion model is effectively uncertain
    /// (some stored `p < 1`); see [`Instance::digest`](crate::Instance::digest).
    pub const COMPLETION: u8 = 0x07;
}

impl Instance {
    /// A stable 64-bit content digest of every field the mechanisms
    /// read: task count, the full bid profile (bundles and prices), the
    /// skill matrix, the per-task error bounds, the candidate price grid,
    /// and the cost range.
    ///
    /// Equal instances (in the `PartialEq` sense) always digest equally;
    /// see the stability contract at the top of `digest.rs` for what else
    /// is guaranteed. This is the cache key of the service layer's
    /// schedule/PMF cache, sound because schedule and PMF construction are
    /// deterministic functions of `(Instance, ε)`.
    pub fn digest(&self) -> u64 {
        let mut h = WordHash::new();
        h.word(DIGEST_VERSION);

        h.word(u64::from(field::NUM_TASKS));
        h.usize(self.num_tasks());

        h.word(u64::from(field::BIDS));
        h.usize(self.num_workers());
        for (_, bid) in self.bids().iter() {
            // Bundles are stored sorted and deduplicated, so iteration
            // order is canonical whatever order the caller listed tasks in.
            h.usize(bid.bundle().len());
            for t in bid.bundle().iter() {
                h.word(u64::from(t.0));
            }
            h.i64(bid.price().tenths());
        }

        h.word(u64::from(field::SKILLS));
        h.usize(self.skills().num_workers());
        h.usize(self.skills().num_tasks());
        // The *logical* matrix is hashed cell by cell, so a dense and a
        // CSR construction of equal matrices digest identically —
        // which is what keeps the service PmfCache and request-batching
        // keys stable across layouts.
        for i in 0..self.skills().num_workers() {
            self.skills()
                .for_each_theta(crate::WorkerId(i as u32), |theta| h.f64(theta));
        }

        h.word(u64::from(field::DELTAS));
        h.usize(self.deltas().len());
        for &d in self.deltas() {
            h.f64(d);
        }

        h.word(u64::from(field::PRICE_GRID));
        h.i64(self.price_grid().min().tenths());
        h.i64(self.price_grid().max().tenths());
        h.i64(self.price_grid().step().tenths());

        h.word(u64::from(field::COST_RANGE));
        h.i64(self.cmin().tenths());
        h.i64(self.cmax().tenths());

        // Canonicalization, not an omission: a completion model with every
        // stored p = 1 (or no model at all) yields provably the same
        // effective covering problem — hence the same schedules and PMFs —
        // as Deterministic, so both digest identically and may share cache
        // entries. Any p < 1 makes the model (probabilities and shortfall
        // bounds) part of what the mechanisms compute over, so it is mixed
        // in.
        if let crate::CompletionModel::Bernoulli(b) = self.completion() {
            if self.completion().is_uncertain() {
                h.word(u64::from(field::COMPLETION));
                h.usize(b.rows().len());
                for row in b.rows() {
                    h.usize(row.len());
                    for &(t, p) in row {
                        h.word(u64::from(t.0));
                        h.f64(p);
                    }
                }
                h.usize(b.gammas().len());
                for &g in b.gammas() {
                    h.f64(g);
                }
            }
        }

        h.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bid, Bundle, Price, SkillMatrix, TaskId, WorkerId};

    fn base() -> Instance {
        Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .error_bounds(vec![0.2, 0.3])
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap()
    }

    #[test]
    fn permuted_but_equal_instances_collide() {
        // Same content, different construction order: bundle tasks listed
        // reversed and with a duplicate; deltas set via the vector path.
        let permuted = Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(1), TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .error_bounds(vec![0.2, 0.3])
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert_eq!(base(), permuted);
        assert_eq!(base().digest(), permuted.digest());
    }

    #[test]
    fn digest_survives_clone_and_serde() {
        let inst = base();
        assert_eq!(inst.digest(), inst.clone().digest());
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst.digest(), back.digest());
    }

    #[test]
    fn one_bid_price_changes_digest() {
        let inst = base();
        let tweaked = inst
            .with_bid(
                WorkerId(1),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.1)),
            )
            .unwrap();
        assert_ne!(inst.digest(), tweaked.digest());
    }

    #[test]
    fn one_bundle_membership_changes_digest() {
        let inst = base();
        let tweaked = inst
            .with_bid(
                WorkerId(1),
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(15.0),
                ),
            )
            .unwrap();
        assert_ne!(inst.digest(), tweaked.digest());
    }

    #[test]
    fn one_skill_cell_changes_digest() {
        let tweaked = Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.94]]).unwrap())
            .error_bounds(vec![0.2, 0.3])
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert_ne!(base().digest(), tweaked.digest());
    }

    #[test]
    fn one_delta_changes_digest() {
        let tweaked = Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .error_bounds(vec![0.2, 0.30000001])
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert_ne!(base().digest(), tweaked.digest());
    }

    #[test]
    fn grid_and_cost_range_change_digest() {
        let grid = Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .error_bounds(vec![0.2, 0.3])
            .price_grid_f64(10.0, 20.0, 0.1)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.0))
            .build()
            .unwrap();
        assert_ne!(base().digest(), grid.digest());
        let range = Instance::builder(2)
            .bids(vec![
                Bid::new(
                    Bundle::new(vec![TaskId(0), TaskId(1)]),
                    Price::from_f64(12.0),
                ),
                Bid::new(Bundle::new(vec![TaskId(1)]), Price::from_f64(15.0)),
            ])
            .skills(SkillMatrix::from_rows(vec![vec![0.9, 0.8], vec![0.7, 0.95]]).unwrap())
            .error_bounds(vec![0.2, 0.3])
            .price_grid_f64(10.0, 20.0, 0.5)
            .cost_range(Price::from_f64(10.0), Price::from_f64(20.5))
            .build()
            .unwrap();
        assert_ne!(base().digest(), range.digest());
    }

    #[test]
    fn completion_model_digest_canonicalization() {
        use crate::{BernoulliCompletion, CompletionModel};
        let inst = base();
        // All-ones Bernoulli is provably equivalent to Deterministic, so it
        // digests identically (shared PmfCache entries are sound).
        let unit = inst
            .with_completion(CompletionModel::Bernoulli(BernoulliCompletion::new(
                vec![vec![(TaskId(0), 1.0)], vec![(TaskId(1), 1.0)]],
                vec![0.1, 0.2],
            )))
            .unwrap();
        assert_eq!(inst.digest(), unit.digest());
        // Any p < 1 is read by the mechanisms and must change the digest.
        let uncertain = inst
            .with_completion(CompletionModel::Bernoulli(BernoulliCompletion::new(
                vec![vec![(TaskId(0), 0.9)], vec![]],
                vec![0.1, 0.2],
            )))
            .unwrap();
        assert_ne!(inst.digest(), uncertain.digest());
        // ... and so must the shortfall bounds, once uncertain.
        let tighter = inst
            .with_completion(CompletionModel::Bernoulli(BernoulliCompletion::new(
                vec![vec![(TaskId(0), 0.9)], vec![]],
                vec![0.05, 0.2],
            )))
            .unwrap();
        assert_ne!(uncertain.digest(), tighter.digest());
    }

    #[test]
    fn base_digest_known_answer() {
        // The version-2 digest of `base()`, pinned: a change here means the
        // encoding or the hash changed and DIGEST_VERSION must be bumped.
        assert_eq!(base().digest(), 12_758_838_223_019_700_907);
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // Pin the concrete value: a change here means the canonical
        // encoding changed and DIGEST_VERSION must be bumped.
        let d = base().digest();
        assert_eq!(d, base().digest());
        // Known-answer check for the encoding itself.
        let mut h = Fnv1a::new();
        h.write(b"fnv");
        assert_eq!(h.finish(), {
            let mut s = FNV_OFFSET;
            for &b in b"fnv" {
                s ^= u64::from(b);
                s = s.wrapping_mul(FNV_PRIME);
            }
            s
        });
    }
}
