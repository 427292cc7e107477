#![warn(missing_docs)]
//! # tsfft — Discrete Fourier Transform substrate
//!
//! A from-scratch implementation of the Discrete Fourier Transform used by
//! the similarity-query engine (`simquery`). The ICDE '99 paper maps time
//! sequences into the frequency domain (§2.2) and expresses similarity
//! transformations as linear operations on the Fourier coefficients; this
//! crate provides that machinery:
//!
//! * [`Complex64`] — minimal complex arithmetic with polar conversions
//!   (the index stores coefficients as magnitude/phase pairs);
//! * [`fft`]/[`ifft`] — O(n log n) transforms for any length (radix-2
//!   Cooley–Tukey for powers of two, Bluestein's chirp-z otherwise);
//! * [`dft_naive`] — the O(n²) textbook definition (Eq. 1 of the paper),
//!   kept as the oracle for property tests;
//! * [`rfft`]/[`RfftPlan`] — the two-for-one transform of a real sequence,
//!   one-shot or planned once per length for a caller that transforms many;
//! * [`RealDft`] — conveniences for real-valued sequences: the conjugate
//!   symmetry `X[n−f] = conj(X[f])` (Eq. 6) that the paper exploits to halve
//!   the effective search radius, energy (Eq. 2) and Parseval's relation
//!   (Eq. 7).
//!
//! ## Normalisation convention
//!
//! The paper defines the DFT with a `1/√n` factor in the *forward* direction
//! (Eq. 1), which makes the transform unitary together with a `1/√n` inverse.
//! We follow that convention so that Parseval's relation holds with equal
//! energies (`E(x) = E(X)`) and the Euclidean distance is preserved exactly
//! between domains (Eq. 8) — that preservation is what makes the truncated-
//! coefficient index lower-bound the true distance.

mod bluestein;
mod complex;
mod dft;
mod fft;
mod real;
mod rfft;
mod spectrum;

pub use bluestein::bluestein_fft;
pub use complex::Complex64;
pub use dft::{dft_naive, idft_naive};
pub use fft::{fft, fft_in_place, ifft, is_power_of_two};
pub use real::{energy, energy_complex, RealDft};
pub use rfft::{rfft, RfftPlan};
pub use spectrum::{convolve_circular, cross_spectrum, Spectrum};

#[cfg(test)]
mod proptests;
