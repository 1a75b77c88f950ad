//! Multiple-input signature registers (MISRs) and their linear
//! superposition model.
//!
//! A MISR over GF(2) is linear: the final signature is the XOR of the
//! contributions of every injected bit. The contribution of a bit
//! injected at stage `s` during clock `j` of a `T`-clock session is
//! `x^(s + T − 1 − j) mod p(x)`. This lets the diagnosis engine compute
//! *error signatures* (faulty XOR fault-free) directly from the sparse
//! set of error bits, without replaying entire response streams —
//! while [`Misr`] provides the bit-true stepwise register used for
//! cross-validation and hardware emulation.

use crate::error::BuildLfsrError;
use crate::lfsr::primitive_poly;

/// The linear model of a MISR: feedback polynomial and register width.
///
/// # Examples
///
/// ```
/// use scan_bist::{Misr, MisrModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = MisrModel::new(16)?;
/// // Superposition: the signature of a sparse error stream equals the
/// // XOR of per-bit contributions.
/// let sig = model.signature(100, [(3, 0), (97, 0)]);
/// let mut misr = Misr::from_model(model);
/// for clock in 0..100 {
///     let bit = u64::from(clock == 3 || clock == 97);
///     misr.clock(bit);
/// }
/// assert_eq!(misr.signature(), sig);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Eq, PartialEq, Hash, Debug)]
pub struct MisrModel {
    poly: u64,
    degree: u32,
}

impl MisrModel {
    /// Creates a model of the given width using the tabulated primitive
    /// polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLfsrError::UnsupportedDegree`] for widths outside
    /// `2..=32`.
    pub fn new(degree: u32) -> Result<Self, BuildLfsrError> {
        Ok(MisrModel {
            poly: primitive_poly(degree)?,
            degree,
        })
    }

    /// The feedback polynomial (coefficient bit mask, including the top
    /// term).
    #[must_use]
    pub fn poly(&self) -> u64 {
        self.poly
    }

    /// The register width in bits.
    #[must_use]
    pub fn degree(&self) -> u32 {
        self.degree
    }

    fn mask(&self) -> u64 {
        (1u64 << self.degree) - 1
    }

    /// Multiplies two polynomials modulo the feedback polynomial
    /// (carry-less multiply + reduction).
    #[must_use]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        let mut acc = 0u64;
        let mut a = a & self.mask();
        let mut b = b & self.mask();
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            b >>= 1;
            // a := a·x mod p
            let carry = a >> (self.degree - 1) & 1 != 0;
            a = (a << 1) & self.mask();
            if carry {
                a ^= self.poly & self.mask();
            }
        }
        acc
    }

    /// Computes `x^exp mod p(x)` by square-and-multiply.
    #[must_use]
    pub fn x_pow_mod(&self, exp: u64) -> u64 {
        let mut result = 1u64;
        let mut base = 2u64; // the polynomial `x` (degree is always ≥ 2)
        let mut e = exp;
        while e != 0 {
            if e & 1 != 0 {
                result = self.mul_mod(result, base);
            }
            base = self.mul_mod(base, base);
            e >>= 1;
        }
        result
    }

    /// Contribution of a single injected bit to the final signature of a
    /// `total_clocks`-clock session: bit injected at `stage` during clock
    /// `clock` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `clock >= total_clocks` or `stage >= degree`.
    #[must_use]
    pub fn contribution(&self, total_clocks: u64, clock: u64, stage: u32) -> u64 {
        assert!(clock < total_clocks, "clock index beyond session length");
        assert!(stage < self.degree, "injection stage beyond register");
        self.x_pow_mod(u64::from(stage) + (total_clocks - 1 - clock))
    }

    /// Signature of a sparse bit stream by superposition: XOR of the
    /// contributions of every `(clock, stage)` pair with an injected `1`.
    ///
    /// An empty stream yields the zero signature, which is exactly the
    /// *error signature* semantics used in diagnosis: a BIST session's
    /// group passes iff the error signature of its masked error bits is
    /// zero (signature aliasing — a nonempty stream summing to zero — is
    /// faithfully modelled).
    ///
    /// # Panics
    ///
    /// Panics if any pair is out of range (see
    /// [`MisrModel::contribution`]).
    #[must_use]
    pub fn signature<I>(&self, total_clocks: u64, bits: I) -> u64
    where
        I: IntoIterator<Item = (u64, u32)>,
    {
        bits.into_iter()
            .fold(0u64, |acc, (clock, stage)| {
                acc ^ self.contribution(total_clocks, clock, stage)
            })
    }
}

/// A bit-true stepwise MISR.
///
/// Inputs are injected at consecutive stages: bit `i` of the word passed
/// to [`Misr::clock`] is `XORed` into stage `i`. Use one input bit for a
/// single scan chain, or `w` bits for `w` parallel meta scan chains.
#[derive(Clone, Copy, Eq, PartialEq, Hash, Debug)]
pub struct Misr {
    model: MisrModel,
    state: u64,
}

impl Misr {
    /// Creates a zero-initialized MISR of the given width.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLfsrError::UnsupportedDegree`] for widths outside
    /// `2..=32`.
    pub fn new(degree: u32) -> Result<Self, BuildLfsrError> {
        Ok(Misr {
            model: MisrModel::new(degree)?,
            state: 0,
        })
    }

    /// Creates a zero-initialized MISR from an existing model.
    #[must_use]
    pub fn from_model(model: MisrModel) -> Self {
        Misr { model, state: 0 }
    }

    /// The linear model of this register.
    #[must_use]
    pub fn model(&self) -> MisrModel {
        self.model
    }

    /// Advances one clock, injecting `inputs` (bit `i` → stage `i`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has bits at or above the register width.
    pub fn clock(&mut self, inputs: u64) {
        assert_eq!(
            inputs & !self.model.mask(),
            0,
            "input bits beyond register width"
        );
        let carry = self.state >> (self.model.degree - 1) & 1 != 0;
        self.state = (self.state << 1) & self.model.mask();
        if carry {
            self.state ^= self.model.poly & self.model.mask();
        }
        self.state ^= inputs;
    }

    /// The current signature.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// Resets the register to zero for a new session.
    pub fn reset(&mut self) {
        self.state = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepwise_signature(model: MisrModel, total: u64, bits: &[(u64, u32)]) -> u64 {
        let mut misr = Misr::from_model(model);
        for clock in 0..total {
            let mut word = 0u64;
            for &(c, s) in bits {
                if c == clock {
                    word ^= 1 << s;
                }
            }
            misr.clock(word);
        }
        misr.signature()
    }

    #[test]
    fn superposition_matches_stepwise_single_input() {
        let model = MisrModel::new(16).unwrap();
        let bits = [(0u64, 0u32), (5, 0), (99, 0), (100, 0)];
        let total = 321;
        assert_eq!(
            model.signature(total, bits.iter().copied()),
            stepwise_signature(model, total, &bits)
        );
    }

    #[test]
    fn superposition_matches_stepwise_multi_input() {
        let model = MisrModel::new(8).unwrap();
        let bits = [(0u64, 3u32), (1, 7), (2, 0), (17, 5), (17, 6), (40, 1)];
        let total = 41;
        assert_eq!(
            model.signature(total, bits.iter().copied()),
            stepwise_signature(model, total, &bits)
        );
    }

    #[test]
    fn superposition_randomized_cross_check() {
        let model = MisrModel::new(12).unwrap();
        // Simple deterministic pseudo-random bit placement.
        let mut x = 0x1234_5678u64;
        let total = 500u64;
        let mut bits = Vec::new();
        for _ in 0..64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            bits.push(((x >> 16) % total, ((x >> 40) % 12) as u32));
        }
        assert_eq!(
            model.signature(total, bits.iter().copied()),
            stepwise_signature(model, total, &bits)
        );
    }

    #[test]
    fn duplicate_bits_cancel() {
        // Injecting the same bit twice XOR-cancels: signature is zero.
        let model = MisrModel::new(16).unwrap();
        let sig = model.signature(10, [(4, 0), (4, 0)]);
        assert_eq!(sig, 0);
    }

    #[test]
    fn empty_stream_zero_signature() {
        let model = MisrModel::new(16).unwrap();
        assert_eq!(model.signature(1000, std::iter::empty()), 0);
    }

    #[test]
    fn x_pow_mod_small_cases() {
        let model = MisrModel::new(4).unwrap(); // p = x^4 + x^3 + 1
        assert_eq!(model.x_pow_mod(0), 1);
        assert_eq!(model.x_pow_mod(1), 2);
        assert_eq!(model.x_pow_mod(3), 8);
        // x^4 ≡ x^3 + 1 (mod x^4 + x^3 + 1)
        assert_eq!(model.x_pow_mod(4), 0b1001);
        // The multiplicative order of x is 15 for a primitive degree-4 p.
        assert_eq!(model.x_pow_mod(15), 1);
    }

    #[test]
    fn mul_mod_is_commutative_and_distributive() {
        let model = MisrModel::new(8).unwrap();
        let (a, b, c) = (0x5A, 0x3C, 0x81);
        assert_eq!(model.mul_mod(a, b), model.mul_mod(b, a));
        assert_eq!(
            model.mul_mod(a, b ^ c),
            model.mul_mod(a, b) ^ model.mul_mod(a, c)
        );
    }

    #[test]
    #[should_panic(expected = "input bits beyond register width")]
    fn wide_input_rejected() {
        let mut misr = Misr::new(4).unwrap();
        misr.clock(0x10);
    }

    #[test]
    #[should_panic(expected = "clock index beyond session length")]
    fn late_clock_rejected() {
        let model = MisrModel::new(8).unwrap();
        let _ = model.contribution(10, 10, 0);
    }
}
