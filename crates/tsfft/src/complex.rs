//! Minimal complex arithmetic.
//!
//! The engine needs only a handful of operations (add/sub/mul, conjugate,
//! polar conversions), so we implement them directly rather than pulling in
//! an external numerics crate; this keeps the whole frequency-domain path
//! auditable and dependency-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (the paper writes `j = √−1`).
    pub const J: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{jθ}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// The magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared magnitude `|z|²` (cheaper than [`abs`](Self::abs)).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The phase angle in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `(magnitude, angle)` — the representation the index stores.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// True when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_basics() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        // (1+2j)(3-j) = 3 - j + 6j - 2j² = 5 + 5j
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn division_and_recip() {
        let a = Complex64::new(5.0, 5.0);
        let b = Complex64::new(3.0, -1.0);
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < EPS);

        let r = Complex64::ONE / b;
        assert!((r * b - Complex64::ONE).abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(-1.5, 2.5);
        let (r, th) = z.to_polar();
        let back = Complex64::from_polar(r, th);
        assert!((back - z).abs() < EPS);
        assert!((z.abs() - (1.5f64 * 1.5 + 2.5 * 2.5).sqrt()).abs() < EPS);
    }

    #[test]
    fn unit_circle_and_conj() {
        let z = Complex64::cis(std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 1.0).abs() < EPS);
        assert!((z * z.conj() - Complex64::ONE).abs() < EPS);
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert!((Complex64::J * Complex64::J - Complex64::new(-1.0, 0.0)).abs() < EPS);
    }

    #[test]
    fn sum_folds() {
        let s: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(s, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex64::new(1.0, -2.0)), "1-2j");
        assert_eq!(format!("{}", Complex64::new(1.0, 2.0)), "1+2j");
    }
}
