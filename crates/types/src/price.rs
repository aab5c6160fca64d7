//! Exact fixed-point money amounts and candidate price grids.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use serde::{DeError, Deserialize, Reader, Serialize, Value};

use crate::McsError;

/// Number of fixed-point units per whole currency unit.
///
/// The paper's simulations space all costs and candidate prices at intervals
/// of 0.1, so one tenth is the natural atom. All arithmetic on [`Price`] is
/// exact integer arithmetic in these units.
pub const UNITS_PER_WHOLE: i64 = 10;

/// An exact money amount in tenths of a currency unit.
///
/// `Price` is used for bidding prices `ρ_i`, true costs `c_i`, candidate
/// single prices `p ∈ P`, payments, and total payments. Keeping prices in
/// integer tenths makes the 0.1-spaced grids of the paper's Table I exact,
/// gives prices a total order (needed to sort workers in Algorithm 1 and to
/// key the exponential-mechanism PMF), and avoids float round-off in payment
/// comparisons.
///
/// # Examples
///
/// ```
/// use mcs_types::Price;
///
/// let p = Price::from_f64(35.5);
/// assert_eq!(p.tenths(), 355);
/// assert_eq!(p.as_f64(), 35.5);
/// assert_eq!((p + Price::from_f64(0.1)).to_string(), "35.6");
/// assert_eq!(p * 3, Price::from_f64(106.5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Price(i64);

impl Price {
    /// The zero amount.
    pub const ZERO: Price = Price(0);

    /// Constructs a price from an integer number of tenths.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcs_types::Price;
    /// assert_eq!(Price::from_tenths(123).as_f64(), 12.3);
    /// ```
    #[inline]
    pub const fn from_tenths(tenths: i64) -> Self {
        Price(tenths)
    }

    /// Constructs a price from a float, rounding to the nearest tenth.
    ///
    /// This is intended for literals and configuration values that are
    /// already on (or near) the 0.1 grid; values are rounded half away from
    /// zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcs_types::Price;
    /// assert_eq!(Price::from_f64(10.0), Price::from_tenths(100));
    /// assert_eq!(Price::from_f64(0.25), Price::from_tenths(3));
    /// ```
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        Price((value * UNITS_PER_WHOLE as f64).round() as i64)
    }

    /// Returns the amount as an integer number of tenths.
    #[inline]
    pub const fn tenths(self) -> i64 {
        self.0
    }

    /// Returns the amount as a float number of whole currency units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / UNITS_PER_WHOLE as f64
    }

    /// Returns `true` if the amount is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Returns `true` if the amount is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction clamped at zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcs_types::Price;
    /// let a = Price::from_f64(1.0);
    /// let b = Price::from_f64(2.5);
    /// assert_eq!(a.saturating_sub_at_zero(b), Price::ZERO);
    /// ```
    #[inline]
    pub fn saturating_sub_at_zero(self, other: Price) -> Price {
        Price((self.0 - other.0).max(0))
    }

    /// Returns the smaller of two prices.
    #[inline]
    pub fn min(self, other: Price) -> Price {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two prices.
    #[inline]
    pub fn max(self, other: Price) -> Price {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Price {
    type Output = Price;
    #[inline]
    fn add(self, rhs: Price) -> Price {
        Price(self.0 + rhs.0)
    }
}

impl AddAssign for Price {
    #[inline]
    fn add_assign(&mut self, rhs: Price) {
        self.0 += rhs.0;
    }
}

impl Sub for Price {
    type Output = Price;
    #[inline]
    fn sub(self, rhs: Price) -> Price {
        Price(self.0 - rhs.0)
    }
}

impl SubAssign for Price {
    #[inline]
    fn sub_assign(&mut self, rhs: Price) {
        self.0 -= rhs.0;
    }
}

impl Neg for Price {
    type Output = Price;
    #[inline]
    fn neg(self) -> Price {
        Price(-self.0)
    }
}

/// Scales a price by an integer count, e.g. `p · |S(p)|` for a single-price
/// total payment.
impl Mul<usize> for Price {
    type Output = Price;
    #[inline]
    fn mul(self, rhs: usize) -> Price {
        Price(self.0 * rhs as i64)
    }
}

impl Sum for Price {
    fn sum<I: Iterator<Item = Price>>(iter: I) -> Price {
        iter.fold(Price::ZERO, |acc, p| acc + p)
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / UNITS_PER_WHOLE;
        let frac = (self.0 % UNITS_PER_WHOLE).abs();
        if frac == 0 {
            write!(f, "{whole}")
        } else if self.0 < 0 && whole == 0 {
            write!(f, "-0.{frac}")
        } else {
            write!(f, "{whole}.{frac}")
        }
    }
}

/// An inclusive, evenly spaced grid of candidate prices — the paper's price
/// set `P`.
///
/// The paper draws the single clearing price from
/// `P = {p_min, p_min + step, …, p_max}`; in the simulations
/// `P = [35, 60]` at step 0.1. The grid stores its endpoints and step in
/// exact tenths and yields each member without accumulation error.
///
/// # Examples
///
/// ```
/// use mcs_types::{Price, PriceGrid};
///
/// let grid = PriceGrid::from_f64(35.0, 60.0, 0.1).unwrap();
/// assert_eq!(grid.len(), 251);
/// assert_eq!(grid.get(0), Some(Price::from_f64(35.0)));
/// assert_eq!(grid.get(250), Some(Price::from_f64(60.0)));
/// assert!(grid.contains(Price::from_f64(42.7)));
/// assert!(!grid.contains(Price::from_f64(61.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct PriceGrid {
    min: Price,
    max: Price,
    step: Price,
}

impl PriceGrid {
    /// Creates a grid spanning `[min, max]` with the given step.
    ///
    /// The maximum is included only when `max − min` is an exact multiple of
    /// `step`; otherwise the last member is the largest grid point below
    /// `max` (matching how one would enumerate `{min, min+step, …} ∩ [min, max]`).
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidPriceGrid`] if `step` is not positive,
    /// `max < min`, or `max − min` does not fit in an `i64`.
    pub fn new(min: Price, max: Price, step: Price) -> Result<Self, McsError> {
        // `len` divides the span by the step.
        let span = max.tenths().checked_sub(min.tenths());
        if !step.is_positive() || span.is_none_or(|span| span < 0) {
            return Err(McsError::InvalidPriceGrid { min, max, step });
        }
        Ok(PriceGrid { min, max, step })
    }

    /// Creates a grid from float endpoints and step (rounded to tenths).
    ///
    /// # Errors
    ///
    /// Returns [`McsError::InvalidPriceGrid`] under the same conditions as
    /// [`PriceGrid::new`].
    pub fn from_f64(min: f64, max: f64, step: f64) -> Result<Self, McsError> {
        Self::new(
            Price::from_f64(min),
            Price::from_f64(max),
            Price::from_f64(step),
        )
    }

    /// Lowest grid member.
    #[inline]
    pub fn min(&self) -> Price {
        self.min
    }

    /// Upper bound of the grid (the highest member when aligned).
    #[inline]
    pub fn max(&self) -> Price {
        self.max
    }

    /// Grid spacing.
    #[inline]
    pub fn step(&self) -> Price {
        self.step
    }

    /// Number of grid members, i.e. `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        ((self.max.tenths() - self.min.tenths()) / self.step.tenths()) as usize + 1
    }

    /// Returns `true` if the grid has no members (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the `idx`-th member, if in range.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<Price> {
        if idx < self.len() {
            Some(Price::from_tenths(
                self.min.tenths() + idx as i64 * self.step.tenths(),
            ))
        } else {
            None
        }
    }

    /// Returns `true` if `p` is exactly a member of the grid.
    pub fn contains(&self, p: Price) -> bool {
        p >= self.min && p <= self.max && (p.tenths() - self.min.tenths()) % self.step.tenths() == 0
    }

    /// Iterates over all members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Price> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }

    /// Collects the members into a vector.
    pub fn to_vec(&self) -> Vec<Price> {
        self.iter().collect()
    }

    /// Returns the sub-grid of members `≥ p`, or `None` if empty.
    ///
    /// Used when restricting `P` to feasible prices: infeasibility is
    /// monotone (if no worker set at price `p` covers the tasks, neither
    /// does any at a lower price), so the feasible subset is a suffix.
    pub fn suffix_from(&self, p: Price) -> Option<PriceGrid> {
        if p <= self.min {
            return Some(self.clone());
        }
        if p > self.max {
            return None;
        }
        // Round p up to the next grid point.
        let offset = p.tenths() - self.min.tenths();
        let steps = (offset + self.step.tenths() - 1) / self.step.tenths();
        let new_min = Price::from_tenths(self.min.tenths() + steps * self.step.tenths());
        if new_min > self.max {
            None
        } else {
            Some(PriceGrid {
                min: new_min,
                max: self.max,
                step: self.step,
            })
        }
    }
}

/// The wire fields of a [`PriceGrid`], before [`PriceGrid::new`]'s rules.
#[derive(Deserialize)]
struct GridFields {
    min: Price,
    max: Price,
    step: Price,
}

impl GridFields {
    fn grid(self) -> Result<PriceGrid, McsError> {
        PriceGrid::new(self.min, self.max, self.step)
    }
}

impl Deserialize for PriceGrid {
    /// Reads the derived `{min, max, step}` shape and holds it to
    /// [`PriceGrid::new`]'s rules, so that a decoded grid never has a zero
    /// step to divide by.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        GridFields::from_value(v)?
            .grid()
            .map_err(|e| DeError::custom(e.to_string()))
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        GridFields::read(r)?.grid().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn price_from_f64_rounds_to_tenths() {
        assert_eq!(Price::from_f64(10.04), Price::from_tenths(100));
        assert_eq!(Price::from_f64(10.05), Price::from_tenths(101));
        assert_eq!(Price::from_f64(-1.25), Price::from_tenths(-13));
    }

    #[test]
    fn price_arithmetic_is_exact() {
        let mut acc = Price::ZERO;
        for _ in 0..1000 {
            acc += Price::from_f64(0.1);
        }
        assert_eq!(acc, Price::from_f64(100.0));
    }

    #[test]
    #[allow(clippy::erasing_op)] // p * 0 is exactly the case under test
    fn price_scaling_by_cardinality() {
        let p = Price::from_f64(35.5);
        assert_eq!(p * 10, Price::from_f64(355.0));
        assert_eq!(p * 0, Price::ZERO);
    }

    #[test]
    fn price_display() {
        assert_eq!(Price::from_f64(35.0).to_string(), "35");
        assert_eq!(Price::from_f64(35.5).to_string(), "35.5");
        assert_eq!(Price::from_f64(-0.5).to_string(), "-0.5");
        assert_eq!(Price::from_f64(-1.5).to_string(), "-1.5");
        assert_eq!(Price::ZERO.to_string(), "0");
    }

    #[test]
    fn price_sum() {
        let total: Price = [1.0, 2.0, 3.5].iter().map(|&v| Price::from_f64(v)).sum();
        assert_eq!(total, Price::from_f64(6.5));
    }

    #[test]
    fn saturating_sub() {
        let a = Price::from_f64(3.0);
        let b = Price::from_f64(5.0);
        assert_eq!(a.saturating_sub_at_zero(b), Price::ZERO);
        assert_eq!(b.saturating_sub_at_zero(a), Price::from_f64(2.0));
    }

    #[test]
    fn grid_matches_paper_setting() {
        // Paper setting I: P = [35, 60] spaced at 0.1 → 251 prices.
        let grid = PriceGrid::from_f64(35.0, 60.0, 0.1).unwrap();
        assert_eq!(grid.len(), 251);
        let v = grid.to_vec();
        assert_eq!(v.first().copied(), Some(Price::from_f64(35.0)));
        assert_eq!(v.last().copied(), Some(Price::from_f64(60.0)));
        assert_eq!(v[1] - v[0], Price::from_f64(0.1));
    }

    #[test]
    fn grid_rejects_bad_parameters() {
        assert!(PriceGrid::from_f64(35.0, 30.0, 0.1).is_err());
        assert!(PriceGrid::from_f64(35.0, 60.0, 0.0).is_err());
        assert!(PriceGrid::from_f64(35.0, 60.0, -0.1).is_err());
        // A span past i64 would overflow `len`.
        assert!(PriceGrid::new(
            Price::from_tenths(i64::MIN),
            Price::from_tenths(i64::MAX),
            Price::from_tenths(1)
        )
        .is_err());
    }

    #[test]
    fn grid_unaligned_max_truncates() {
        let grid = PriceGrid::from_f64(1.0, 1.95, 0.2).unwrap();
        // Members: 1.0, 1.2, 1.4, 1.6, 1.8 (1.95 unaligned, rounded to 2.0
        // max bound keeps 1.95 → tenths 19 vs min 10, step 2 → floor(9/2)=4 → 5 members).
        // from_f64(1.95) rounds to 2.0, so members go to 2.0 exactly.
        assert_eq!(grid.get(grid.len() - 1), Some(Price::from_f64(2.0)));
    }

    #[test]
    fn grid_suffix() {
        let grid = PriceGrid::from_f64(35.0, 60.0, 0.1).unwrap();
        let suffix = grid.suffix_from(Price::from_f64(50.05)).unwrap();
        assert_eq!(suffix.min(), Price::from_f64(50.1));
        assert_eq!(suffix.max(), Price::from_f64(60.0));
        assert!(grid.suffix_from(Price::from_f64(60.1)).is_none());
        assert_eq!(grid.suffix_from(Price::from_f64(10.0)), Some(grid.clone()));
    }

    #[test]
    fn grid_contains() {
        let grid = PriceGrid::from_f64(10.0, 20.0, 0.5).unwrap();
        assert!(grid.contains(Price::from_f64(10.5)));
        assert!(!grid.contains(Price::from_f64(10.4)));
        assert!(!grid.contains(Price::from_f64(9.5)));
        assert!(!grid.contains(Price::from_f64(20.5)));
    }

    proptest! {
        #[test]
        fn prop_grid_iter_members_all_contained(
            min in 0i64..500, extra in 1i64..500, step in 1i64..13
        ) {
            let grid = PriceGrid::new(
                Price::from_tenths(min),
                Price::from_tenths(min + extra),
                Price::from_tenths(step),
            ).unwrap();
            let v = grid.to_vec();
            prop_assert_eq!(v.len(), grid.len());
            for p in &v {
                prop_assert!(grid.contains(*p));
            }
            // Ascending and evenly spaced.
            for w in v.windows(2) {
                prop_assert_eq!(w[1] - w[0], Price::from_tenths(step));
            }
        }

        #[test]
        fn prop_price_roundtrip(t in -100_000i64..100_000) {
            let p = Price::from_tenths(t);
            prop_assert_eq!(Price::from_f64(p.as_f64()), p);
        }

        #[test]
        fn prop_suffix_members_subset(start in 0i64..300) {
            let grid = PriceGrid::from_f64(10.0, 30.0, 0.1).unwrap();
            if let Some(sub) = grid.suffix_from(Price::from_tenths(start)) {
                for p in sub.iter() {
                    prop_assert!(grid.contains(p));
                    prop_assert!(p >= Price::from_tenths(start));
                }
            }
        }
    }

    #[test]
    fn grid_serde_keeps_its_shape_and_rules() {
        let grid = PriceGrid::from_f64(35.0, 60.0, 0.1).unwrap();
        let v = grid.to_value();
        assert_eq!(PriceGrid::from_value(&v).unwrap(), grid);
        let step_zero = serde_json::from_str::<PriceGrid>(r#"{"min":350,"max":600,"step":0}"#);
        assert!(step_zero
            .unwrap_err()
            .to_string()
            .contains("non-positive step"));
        assert!(serde_json::from_str::<PriceGrid>(r#"{"min":600,"max":350,"step":1}"#).is_err());
        assert!(serde_json::from_str::<PriceGrid>(r#"{"min":350,"max":600}"#).is_err());
    }
}
