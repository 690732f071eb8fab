//! Exact rational arithmetic for structuredness values and thresholds.
//!
//! Structuredness functions return values in `[0,1] ∩ ℚ` and the threshold θ
//! of a sort refinement is required to be rational "for compatibility with the
//! reduction to the Integer Linear Programming instance" (Definition 4.2).
//! Using floating point here would make threshold comparisons — and therefore
//! feasibility answers — imprecise, so all comparisons in the toolkit go
//! through this small exact rational type.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An exact rational number backed by `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and the fraction is fully
/// reduced (gcd(|numer|, denom) = 1, and 0 is represented as 0/1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ratio {
    numer: i128,
    denom: i128,
}

const OVERFLOW_MSG: &str = "rational arithmetic overflowed i128; \
counts of this magnitude are outside the supported range";

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl Ratio {
    /// Creates the rational `numer / denom`.
    ///
    /// # Panics
    /// Panics if `denom == 0`.
    pub fn new(numer: i128, denom: i128) -> Self {
        assert!(denom != 0, "rational with zero denominator");
        let sign = if denom < 0 { -1 } else { 1 };
        let numer = numer.checked_mul(sign).expect(OVERFLOW_MSG);
        let denom = denom.checked_mul(sign).expect(OVERFLOW_MSG);
        if numer == 0 {
            return Ratio { numer: 0, denom: 1 };
        }
        let g = gcd(numer, denom);
        Ratio {
            numer: numer / g,
            denom: denom / g,
        }
    }

    /// The rational 0.
    pub const ZERO: Ratio = Ratio { numer: 0, denom: 1 };

    /// The rational 1.
    pub const ONE: Ratio = Ratio { numer: 1, denom: 1 };

    /// Creates a rational from an integer.
    pub fn from_integer(value: i128) -> Self {
        Ratio {
            numer: value,
            denom: 1,
        }
    }

    /// Creates a rational from unsigned counts, commonly `favorable / total`.
    ///
    /// # Panics
    /// Panics if either count exceeds `i128::MAX` or `total` is zero.
    pub fn from_counts(favorable: u128, total: u128) -> Self {
        let numer = i128::try_from(favorable).expect(OVERFLOW_MSG);
        let denom = i128::try_from(total).expect(OVERFLOW_MSG);
        Ratio::new(numer, denom)
    }

    /// The reduced numerator.
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// The reduced (strictly positive) denominator.
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Approximates the rational as `f64` (for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Parses a decimal string such as `"0.9"`, `"1"`, `".75"` or a fraction
    /// such as `"9/10"` into an exact rational.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.is_empty() {
            return Err("empty rational literal".to_owned());
        }
        if let Some((numer, denom)) = text.split_once('/') {
            let numer: i128 = numer
                .trim()
                .parse()
                .map_err(|_| format!("invalid numerator in '{text}'"))?;
            let denom: i128 = denom
                .trim()
                .parse()
                .map_err(|_| format!("invalid denominator in '{text}'"))?;
            if denom == 0 {
                return Err(format!("zero denominator in '{text}'"));
            }
            // `new` negates a negative denominator and `gcd` takes absolute
            // values; neither exists for i128::MIN.
            if numer == i128::MIN || denom == i128::MIN {
                return Err(format!("numerator or denominator out of range in '{text}'"));
            }
            return Ok(Ratio::new(numer, denom));
        }
        let (sign, digits) = match text.strip_prefix('-') {
            Some(rest) => (-1i128, rest),
            None => (1i128, text),
        };
        let (integer_part, fraction_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if integer_part.is_empty() && fraction_part.is_empty() {
            return Err(format!("invalid rational literal '{text}'"));
        }
        let int_value: i128 = if integer_part.is_empty() {
            0
        } else {
            integer_part
                .parse()
                .map_err(|_| format!("invalid integer part in '{text}'"))?
        };
        if fraction_part.is_empty() {
            return int_value
                .checked_mul(sign)
                .map(Ratio::from_integer)
                .ok_or_else(|| "overflow".to_owned());
        }
        if !fraction_part.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("invalid fraction part in '{text}'"));
        }
        if fraction_part.len() > 30 {
            return Err(format!("fraction part too long in '{text}'"));
        }
        let frac_value: i128 = fraction_part.parse().map_err(|_| "overflow".to_owned())?;
        let scale = 10i128
            .checked_pow(fraction_part.len() as u32)
            .ok_or_else(|| "overflow".to_owned())?;
        let numer = int_value
            .checked_mul(scale)
            .and_then(|v| v.checked_add(frac_value))
            .ok_or_else(|| "overflow".to_owned())?;
        Ok(Ratio::new(sign * numer, scale))
    }

    /// Returns the numerator/denominator pair `(θ1, θ2)` used by the ILP
    /// threshold constraint (`θ = θ1/θ2`).
    pub fn as_fraction(&self) -> (i128, i128) {
        (self.numer, self.denom)
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (denominators positive).
        let left = self.numer.checked_mul(other.denom).expect(OVERFLOW_MSG);
        let right = other.numer.checked_mul(self.denom).expect(OVERFLOW_MSG);
        left.cmp(&right)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        let numer = self
            .numer
            .checked_mul(rhs.denom)
            .and_then(|a| {
                rhs.numer
                    .checked_mul(self.denom)
                    .and_then(|b| a.checked_add(b))
            })
            .expect(OVERFLOW_MSG);
        let denom = self.denom.checked_mul(rhs.denom).expect(OVERFLOW_MSG);
        Ratio::new(numer, denom)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        let numer = self
            .numer
            .checked_mul(rhs.denom)
            .and_then(|a| {
                rhs.numer
                    .checked_mul(self.denom)
                    .and_then(|b| a.checked_sub(b))
            })
            .expect(OVERFLOW_MSG);
        let denom = self.denom.checked_mul(rhs.denom).expect(OVERFLOW_MSG);
        Ratio::new(numer, denom)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Cross-reduce before multiplying to keep intermediate values small.
        let g1 = gcd(self.numer, rhs.denom).max(1);
        let g2 = gcd(rhs.numer, self.denom).max(1);
        let numer = (self.numer / g1)
            .checked_mul(rhs.numer / g2)
            .expect(OVERFLOW_MSG);
        let denom = (self.denom / g2)
            .checked_mul(rhs.denom / g1)
            .expect(OVERFLOW_MSG);
        Ratio::new(numer, denom)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "division by zero rational");
        Ratio::new(
            self.numer.checked_mul(rhs.denom).expect(OVERFLOW_MSG),
            self.denom.checked_mul(rhs.numer).expect(OVERFLOW_MSG),
        )
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces_and_normalizes_sign() {
        let r = Ratio::new(6, -8);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 4);
        assert_eq!(Ratio::new(0, -5), Ratio::ZERO);
        assert_eq!(Ratio::new(10, 5), Ratio::from_integer(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let half = Ratio::new(1, 2);
        let third = Ratio::new(1, 3);
        assert_eq!(half + third, Ratio::new(5, 6));
        assert_eq!(half - third, Ratio::new(1, 6));
        assert_eq!(half * third, Ratio::new(1, 6));
        assert_eq!(half / third, Ratio::new(3, 2));
        assert_eq!(half + Ratio::ZERO, half);
        assert_eq!(half * Ratio::ONE, half);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Ratio::new(1, 3) < Ratio::new(34, 100));
        assert!(Ratio::new(9, 10) < Ratio::ONE);
        assert!(Ratio::new(773, 1000) > Ratio::new(77, 100));
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
    }

    #[test]
    fn parse_decimal_and_fraction_forms() {
        assert_eq!(Ratio::parse("0.9").unwrap(), Ratio::new(9, 10));
        assert_eq!(Ratio::parse(".75").unwrap(), Ratio::new(3, 4));
        assert_eq!(Ratio::parse("1").unwrap(), Ratio::ONE);
        assert_eq!(Ratio::parse("-0.5").unwrap(), Ratio::new(-1, 2));
        assert_eq!(Ratio::parse("9/10").unwrap(), Ratio::new(9, 10));
        assert_eq!(Ratio::parse(" 3 / 4 ").unwrap(), Ratio::new(3, 4));
        assert!(Ratio::parse("").is_err());
        assert!(Ratio::parse("1/0").is_err());
        assert!(Ratio::parse("a.b").is_err());
    }

    #[test]
    fn parse_refuses_i128_min_instead_of_panicking() {
        let min = i128::MIN.to_string();
        for text in [
            format!("1/{min}"),
            format!("{min}/-1"),
            format!("{min}/1"),
            format!("-{min}"),
        ] {
            assert!(Ratio::parse(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn from_counts_and_display() {
        let sigma = Ratio::from_counts(54, 100);
        assert_eq!(sigma, Ratio::new(27, 50));
        assert_eq!(sigma.to_string(), "27/50");
        assert_eq!(Ratio::from_integer(3).to_string(), "3");
        assert!((sigma.to_f64() - 0.54).abs() < 1e-12);
    }

    #[test]
    fn fraction_accessors_expose_theta_parts() {
        let theta = Ratio::parse("0.9").unwrap();
        assert_eq!(theta.as_fraction(), (9, 10));
    }
}
