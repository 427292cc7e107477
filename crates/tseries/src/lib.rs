#![warn(missing_docs)]
//! # tseries — time-series toolkit
//!
//! Sequences, their statistics and normal forms (§3.2 of the paper), the
//! similarity measures (Euclidean distance and cross-correlation, related by
//! Eq. 9), the time-domain operators that the paper expresses as linear
//! transformations (moving average, momentum, time shift, scaling,
//! inversion), and the data generators used by the experiments:
//!
//! * the paper's synthetic workload — random walks `x_t = x_{t−1} + z_t`,
//!   `z_t ~ U[−500, 500]` (§5);
//! * a seeded synthetic stock market standing in for the no-longer-available
//!   `ftp.ai.mit.edu` corpus of 1068 stocks × 128 daily closes (see
//!   DESIGN.md §2.1 for the substitution rationale).

mod dataset;
mod distance;
mod gen;
mod ops;
pub mod rng;
mod series;

pub use dataset::{Corpus, CorpusKind};
pub use distance::{
    city_block, cross_correlation, distance_threshold_for_correlation, euclidean, euclidean_sq,
};
pub use gen::{random_walk, spiky_pair, Market, MarketConfig};
pub use ops::{
    add_scalar, invert, momentum, momentum_circular, moving_average_circular,
    moving_average_sliding, scale, shift_right,
};
pub use series::{normalize_in_place, NormalForm, TimeSeries};

#[cfg(test)]
mod proptests;
