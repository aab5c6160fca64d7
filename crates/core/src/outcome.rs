//! Auction outcomes and payment accounting.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Sink, Value};

use mcs_types::{Price, TrueType, WorkerId};

/// The result of one auction run: the single clearing price and the winner
/// set.
///
/// Under the paper's single-price payment scheme every winner is paid the
/// clearing price and every loser is paid nothing, so the payment profile
/// is fully determined by `(price, winners)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuctionOutcome {
    price: Price,
    winners: Vec<WorkerId>,
}

impl AuctionOutcome {
    /// Creates an outcome; winner ids are sorted and deduplicated.
    pub fn new(price: Price, mut winners: Vec<WorkerId>) -> Self {
        winners.sort_unstable();
        winners.dedup();
        AuctionOutcome { price, winners }
    }

    /// The clearing price `p`.
    #[inline]
    pub fn price(&self) -> Price {
        self.price
    }

    /// The winner set `S`, ascending by worker id.
    #[inline]
    pub fn winners(&self) -> &[WorkerId] {
        &self.winners
    }

    /// Whether a worker won.
    pub fn is_winner(&self, worker: WorkerId) -> bool {
        self.winners.binary_search(&worker).is_ok()
    }

    /// Payment to one worker: the price if she won, zero otherwise.
    pub fn payment_to(&self, worker: WorkerId) -> Price {
        if self.is_winner(worker) {
            self.price
        } else {
            Price::ZERO
        }
    }

    /// The platform's total payment `R = p · |S|` (Definition 4).
    pub fn total_payment(&self) -> Price {
        self.price * self.winners.len()
    }

    /// The full payment profile over `num_workers` workers.
    pub fn payment_profile(&self, num_workers: usize) -> Vec<Price> {
        (0..num_workers)
            .map(|i| self.payment_to(WorkerId(i as u32)))
            .collect()
    }

    /// A worker's utility given her true type (Definition 3): payment minus
    /// true cost if she won (and thus executes her bundle), zero otherwise.
    ///
    /// This assumes the worker bid her true bundle, so winning means
    /// executing `Γ*` at cost `c*`. Deviation analyses that misreport the
    /// bundle must account costs separately (see [`crate::utility`]).
    pub fn utility_of(&self, worker: WorkerId, true_type: &TrueType) -> Price {
        if self.is_winner(worker) {
            self.price - true_type.cost()
        } else {
            Price::ZERO
        }
    }

    /// Checks individual rationality (Definition 6): no worker with the
    /// given true costs has negative utility.
    pub fn is_individually_rational(&self, true_types: &[TrueType]) -> bool {
        true_types
            .iter()
            .enumerate()
            .all(|(i, t)| self.utility_of(WorkerId(i as u32), t) >= Price::ZERO)
    }
}

// Serialization is hand-written (rather than derived) so deserialization
// funnels through `AuctionOutcome::new` and the sorted/deduplicated winner
// invariant survives arbitrary wire input.
impl Serialize for AuctionOutcome {
    fn serialize<S: Sink + ?Sized>(&self, out: &mut S) {
        out.begin_object();
        out.key("price");
        self.price.serialize(out);
        out.key("winners");
        self.winners.serialize(out);
        out.end_object();
    }
}

impl Deserialize for AuctionOutcome {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let price = Price::from_value(
            v.get("price")
                .ok_or_else(|| DeError::missing_field("price"))?,
        )?;
        let winners = Vec::<WorkerId>::from_value(
            v.get("winners")
                .ok_or_else(|| DeError::missing_field("winners"))?,
        )?;
        Ok(AuctionOutcome::new(price, winners))
    }
}

impl fmt::Display for AuctionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "price {} with {} winners (total payment {})",
            self.price,
            self.winners.len(),
            self.total_payment()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_types::{Bundle, TaskId};

    fn outcome() -> AuctionOutcome {
        AuctionOutcome::new(
            Price::from_f64(40.0),
            vec![WorkerId(3), WorkerId(1), WorkerId(3)],
        )
    }

    #[test]
    fn winners_sorted_and_deduped() {
        let o = outcome();
        assert_eq!(o.winners(), &[WorkerId(1), WorkerId(3)]);
    }

    #[test]
    fn payments() {
        let o = outcome();
        assert_eq!(o.payment_to(WorkerId(1)), Price::from_f64(40.0));
        assert_eq!(o.payment_to(WorkerId(0)), Price::ZERO);
        assert_eq!(o.total_payment(), Price::from_f64(80.0));
        assert_eq!(
            o.payment_profile(4),
            vec![
                Price::ZERO,
                Price::from_f64(40.0),
                Price::ZERO,
                Price::from_f64(40.0)
            ]
        );
    }

    #[test]
    fn utilities_and_ir() {
        let o = outcome();
        let t_cheap = TrueType::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(30.0));
        let t_loser = TrueType::new(Bundle::new(vec![TaskId(0)]), Price::from_f64(99.0));
        assert_eq!(o.utility_of(WorkerId(1), &t_cheap), Price::from_f64(10.0));
        assert_eq!(o.utility_of(WorkerId(0), &t_loser), Price::ZERO);
        // IR holds when winners' costs are ≤ price.
        let types = vec![
            t_loser.clone(),
            t_cheap.clone(),
            t_loser.clone(),
            t_cheap.clone(),
        ];
        assert!(o.is_individually_rational(&types));
        // A winner with cost above the price violates IR.
        let types_bad = vec![t_cheap.clone(), t_loser, t_cheap.clone(), t_cheap];
        assert!(!o.is_individually_rational(&types_bad));
    }

    #[test]
    fn display() {
        let o = outcome();
        let s = o.to_string();
        assert!(s.contains("price 40"));
        assert!(s.contains("2 winners"));
    }
}
