//! Double-precision complex numbers.
//!
//! The allowed dependency set for this project contains no complex-number
//! crate, so [`Complex64`] provides the arithmetic the rest of the workspace
//! needs: field operations, polar forms, the complex exponential, conjugation
//! and the norms used by channel models and the MUSIC estimator.
//!
//! ```
//! use mpdf_rfmath::complex::Complex64;
//!
//! let unit = Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_2);
//! assert!((unit - Complex64::I).norm() < 1e-12);
//! ```

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// The type is `Copy` and all arithmetic operators are implemented for both
/// value and mixed `Complex64`/`f64` operands, so expressions read like the
/// formulas in the paper:
///
/// ```
/// use mpdf_rfmath::complex::Complex64;
/// let a = Complex64::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!((a * a.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit phasor — the workhorse of path superposition.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared modulus `|z|²`. Exact and cheaper than `norm()²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for robustness near overflow.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the polar decomposition `(r, θ)` such that `z = r·e^{iθ}`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.norm(), self.arg())
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let (r, theta) = self.to_polar();
        Complex64::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Scales the complex number by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// True when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// True when either part is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        Complex64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        rhs + self
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs * self
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        Complex64::from_re(self) / rhs
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl DivAssign<f64> for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |acc, z| acc + *z)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ONE, |acc, z| acc * z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).norm() < 1e-10
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Complex64::new(2.0, 0.0), Complex64::from_re(2.0));
        assert_eq!(Complex64::from(2.0), Complex64::from_re(2.0));
        assert_eq!(Complex64::from((2.0, 3.0)), Complex64::new(2.0, 3.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::new(-1.5, 2.25);
        let (r, t) = z.to_polar();
        assert!(close(Complex64::from_polar(r, t), z));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..32 {
            let theta = k as f64 * 0.2 - 3.0;
            let z = Complex64::cis(theta);
            assert!((z.norm() - 1.0).abs() < EPS);
            assert!(
                (z.arg() - theta.rem_euclid(2.0 * std::f64::consts::PI))
                    .abs()
                    .min(
                        (z.arg() + 2.0 * std::f64::consts::PI
                            - theta.rem_euclid(2.0 * std::f64::consts::PI))
                        .abs()
                    )
                    < 1e-9
            );
        }
    }

    #[test]
    fn field_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(a + b, Complex64::new(-2.0, 2.5)));
        assert!(close(a - b, Complex64::new(4.0, 1.5)));
        assert!(close(a * b, Complex64::new(-4.0, -5.5)));
        assert!(close((a / b) * b, a));
        assert!(close(a * a.inv(), Complex64::ONE));
    }

    #[test]
    fn mixed_real_ops() {
        let a = Complex64::new(1.0, -1.0);
        assert!(close(a + 2.0, Complex64::new(3.0, -1.0)));
        assert!(close(2.0 + a, Complex64::new(3.0, -1.0)));
        assert!(close(a - 1.0, Complex64::new(0.0, -1.0)));
        assert!(close(1.0 - a, Complex64::new(0.0, 1.0)));
        assert!(close(a * 3.0, Complex64::new(3.0, -3.0)));
        assert!(close(3.0 * a, Complex64::new(3.0, -3.0)));
        assert!(close(a / 2.0, Complex64::new(0.5, -0.5)));
        assert!(close(2.0 / a, Complex64::new(1.0, 1.0)));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        z -= Complex64::I;
        z *= Complex64::new(0.0, 2.0);
        z /= Complex64::new(2.0, 0.0);
        z *= 2.0;
        z /= 4.0;
        assert!(close(z, Complex64::new(0.0, 1.0)));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(0.3, -0.7);
        let b = Complex64::new(-1.1, 2.2);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < EPS);
        assert!((a * a.conj()).im.abs() < EPS);
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let theta = 0.731;
        assert!(close(
            Complex64::new(0.0, theta).exp(),
            Complex64::cis(theta)
        ));
    }

    #[test]
    fn exp_adds_exponents() {
        let a = Complex64::new(0.2, 1.3);
        let b = Complex64::new(-0.4, 0.9);
        assert!(close((a + b).exp(), a.exp() * b.exp()));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (3.0, -4.0)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z), "sqrt failed for {z}");
        }
    }

    #[test]
    fn sum_and_product_iterators() {
        let v = vec![
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 1.0),
            Complex64::new(-1.0, 2.0),
        ];
        let s: Complex64 = v.iter().sum();
        assert!(close(s, Complex64::new(0.0, 3.0)));
        let p: Complex64 = v.into_iter().product();
        assert!(close(p, Complex64::new(-2.0, -1.0)));
    }

    #[test]
    fn norm_is_robust() {
        let z = Complex64::new(3e200, 4e200);
        assert!((z.norm() - 5e200).abs() / 5e200 < 1e-12);
    }

    #[test]
    fn finite_and_nan_flags() {
        assert!(Complex64::new(1.0, 2.0).is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn debug_format_shows_components() {
        let z = Complex64::new(1.25, -0.5);
        assert!(format!("{z:?}").contains("1.25"));
    }
}
