//! The three query-processing algorithms of §4–§5 plus joins and k-NN.
//!
//! | module | paper name | index traversals | comparisons |
//! |--------|-----------|------------------|-------------|
//! | [`seqscan`] | sequential-scan | 0 (full relation scan) | `|S|·|T|` |
//! | [`stindex`] | ST-index | `|T|` (one singleton rectangle each) | `Σ_t cands(t)` |
//! | [`mtindex`] | MT-index (Algorithm 1) | `k` (number of MBRs) | `Σ_r cands(r)·NT(r)` |
//!
//! The two index rows are one executor: ST-index is MT-index over the
//! singleton partitioning (`k = |T|`, `NT(rᵢ) = 1`), because Eq. 12 over a
//! one-member rectangle reduces to the member's own `apply_rect`. The
//! traverse → fetch → verify loop lives once, in
//! [`mtindex::range_query_features`] (and [`join::mt_join_with_mbrs`] for
//! Query 2); [`seqscan`] stays apart as the oracle the suites compare
//! against. The traversal counts in the table are the paper's, and they
//! are what the engines report; physically a range query's rectangles
//! share one masked descent, each node read once per 64 rectangles
//! ([`mtindex`]).
//!
//! Step 5 (fetch → verify) has one implementation, `VerifyKernel`, for
//! every index engine — range queries (ST, MT, partitioned, ordered),
//! [`knn`]'s refine step and both joins — whatever the family, mode or
//! length. Range queries and joins fetch each distinct candidate once, in
//! heap-page order, and then verify in the paper's order, reading the
//! kernel's rows by index; k-NN's best-first refine order is the
//! algorithm, so it fills one row per candidate as it goes. The kernel's
//! distances equal the naive law-of-cosines ones of
//! [`Transform::transformed_distance`] / [`Transform::distance_data_only`]
//! to `1e-12·max(1, d)` wherever that formula does not itself cancel, with
//! the same pair sets, match order and counters; [`seqscan`],
//! [`join::scan_join`] and [`join::scan_join_paired`] keep the naive
//! formulas on purpose, as the tolerance oracles an error in the kernel
//! must not be able to hide in.
//!
//! Between steps 4 and 5 of a symmetric query sits one more exact test,
//! `LeafBound`: a leaf entry's point is its sequence's coefficients 1
//! and 2, so the kernel's first two terms bound every member's distance
//! from below. Under the sound policies a range query turns each entry's
//! two terms into the bitset of members the bound admits, fetches no
//! record and verifies no member outside it, and
//! [`knn`] ranks its leaf entries by it. `Paper` keeps the paper's step 5,
//! and the candidates of every policy stay Eq. 12's.
//!
//! All three return identical result sets (property-tested under
//! [`FilterPolicy::Safe`](crate::query::FilterPolicy)); they differ only in
//! cost, which is the paper's entire point.

pub mod join;
pub mod knn;
pub mod mtindex;
pub mod seqscan;
pub mod stindex;

use crate::feature::{FeatureVec, SeqFeatures, ANGLE_DIMS, MAG_DIMS};
use crate::index::SeqIndex;
use crate::query::QueryMode;
use crate::report::QueryError;
use crate::tmbr::TransformMbr;
use crate::transform::{Family, Transform};
use pagestore::PageError;
use tsfft::{Complex64, RfftPlan};

/// Validates that a family targets the indexed sequence length.
pub(crate) fn check_family(family: &Family, indexed_len: usize) -> Result<(), QueryError> {
    let fam_len = family.transforms()[0].seq_len();
    if fam_len != indexed_len {
        return Err(QueryError::FamilyLengthMismatch {
            family: fam_len,
            indexed: indexed_len,
        });
    }
    Ok(())
}

/// Terms summed between two early-abandon checks of [`sum_below`].
const ABANDON_STRIDE: usize = 8;

/// `sqrt` of the sum of `chunks`' terms when it is below `eps`, else
/// `None`; the chunks hold the terms in order, [`ABANDON_STRIDE`] apiece.
///
/// The sum is checked after every chunk: it stops once `acc ≥ ε²` and
/// `√acc ≥ ε` — the second test keeps the decision exact whatever `ε²`
/// rounded to, and the terms are ≥ 0, so the full sum is at least `acc`
/// and would have been rejected too. A reported distance is always the
/// full sum. Chunks of slice iterators, not a term per index, keep bounds
/// checks out of the inner loop.
#[inline]
fn sum_below<C: IntoIterator<Item = f64>>(
    eps: f64,
    chunks: impl Iterator<Item = C>,
) -> Option<f64> {
    let eps2 = eps * eps;
    let mut acc = 0.0;
    for chunk in chunks {
        for term in chunk {
            acc += term;
        }
        if acc >= eps2 && acc.sqrt() >= eps {
            return None;
        }
    }
    let d = acc.sqrt();
    (d < eps).then_some(d)
}

/// Member tables of the symmetric distance over `span` coefficients:
/// member `t`'s `W_f` at `span·t`, so that `D(t(x), t(y))² = Σ_f
/// W_f·|X_f − Y_f|²`. Over all `n` coefficients `W_f = a_f²`. Over the
/// half spectrum `f ∈ 0..=n/2` coefficient `n − f` folds onto `f` (Eq. 6;
/// `0` and `n/2` stand alone): `2·a_f²` for a conjugate-symmetric member,
/// whose `a_{n−f}` is `a_f` only to rounding — folding through it would
/// move distances in the last bit — and `a_f² + a_{n−f}²` for any other.
fn weights(family: &Family, span: usize) -> Vec<f64> {
    let n = family.transforms()[0].seq_len();
    let mut w = Vec::with_capacity(span * family.len());
    for t in family.transforms() {
        w.extend((0..span).map(|f| {
            let a = t.magnitude_multiplier(f);
            if span == n || f == 0 || 2 * f == n {
                a * a
            } else if t.is_symmetric() {
                2.0 * a * a
            } else {
                let mirror = t.magnitude_multiplier(n - f);
                a * a + mirror * mirror
            }
        }));
    }
    w
}

/// A family's coefficient factors over all `n` coefficients: member `t`'s
/// `m_f` at `n·t`, and whether it conjugates before scaling.
struct Factors {
    n: usize,
    m: Vec<Complex64>,
    conj: Vec<bool>,
}

impl Factors {
    fn of(family: &Family) -> Self {
        let (members, n) = (family.transforms(), family.transforms()[0].seq_len());
        let m = members.iter().flat_map(|t| (0..n).map(|f| t.factor(f)));
        let conj = members.iter().map(Transform::conjugates);
        Self {
            n,
            m: m.collect(),
            conj: conj.collect(),
        }
    }

    /// `t(X)_f` for member `t`, with `x = X_f`.
    fn apply(&self, t: usize, f: usize, x: Complex64) -> Complex64 {
        self.m[self.n * t + f] * if self.conj[t] { x.conj() } else { x }
    }
}

/// What a kernel verifies: how a member's squared distance is summed and
/// what a row holds.
enum Arm {
    /// A symmetric query: `Σ_f W_f·P_f` over [`weights`] and the target
    /// `Q`, a row a candidate's `P_f = |X_f − Q_f|²`.
    Query(Vec<f64>, Vec<Complex64>),
    /// A self-join: `Σ_f W_f·P_f` over [`weights`], a row a candidate's
    /// `X_f`; [`VerifyKernel::pair`] writes the pair's `|X_f − Y_f|²` to
    /// the second field.
    SelfJoin(Vec<f64>, Vec<f64>),
    /// A data-only query: `Σ_{f<n} |m_f·X̃_f − Q_f|²` over the family's
    /// factors and the target, a row a candidate's `X_f`.
    DataOnly(Factors, Vec<Complex64>),
    /// The paired join: `Σ_{f<n} |l_f·X̃_f − r_f·Ỹ_f|²` over the left and
    /// right families' factors, a row a candidate's `X_f`.
    Paired(Factors, Factors),
}

/// Algorithm 1 step 5 for one query or one join: fetch each distinct
/// candidate once, in heap order, and verify every member without
/// trigonometry.
///
/// Every transformation maps coefficient `f` to `m_f·X_f` or
/// `m_f·conj(X_f)`, `m_f = a_f·e^{iφ_f}` (see [`Transform`]). In a
/// symmetric distance the phase cancels: per member one table `W_f`
/// ([`weights`]), per distinct candidate one row `P_f = |X_f − Q_f|²`,
/// and each touch of it (another of ST's singleton rectangles, another
/// member, another partition) is one multiply-add per coefficient. A
/// self-join keeps each candidate's half spectrum and builds
/// `|X_f − Y_f|²` once per pair. A data-only query and the paired join
/// keep full spectra and take one complex product per coefficient and
/// transformed side. Every sum stops exactly at ε ([`sum_below`]).
///
/// A caller numbers the rows as it discovers its candidates and hands the
/// kernel the list ([`Self::fill_rows`]); the kernel fetches them in
/// ordinal order, which is heap-page order, so each page a query needs is
/// read once while it is in the pool, and the caller then reads rows by
/// index in whatever order its algorithm verifies. Rows come straight
/// from the record heap ([`SeqIndex::normal_form_into`]) through a
/// planned real FFT; no `SeqFeatures` is built for a candidate, and
/// nothing outlives the kernel — a feature cache that did would answer
/// without a heap page access and so change the paper's cost unit.
pub(crate) struct VerifyKernel<'a> {
    index: &'a SeqIndex,
    arm: Arm,
    /// Coefficients per table, row and target: `n/2 + 1` where Eq. 6 lets
    /// the half spectrum stand for the whole, else `n`.
    span: usize,
    /// [`Arm::Query`]: row `i` at `span·i`, `|X_f − Q_f|²`.
    arena: Vec<f64>,
    /// Every other arm: row `i` at `span·i`, the candidate's `X_f`.
    spectra: Vec<Complex64>,
    plan: RfftPlan,
    samples: Vec<f64>,
    spectrum: Vec<Complex64>,
}

impl<'a> VerifyKernel<'a> {
    /// The kernel for `(family, q, mode)` over `index`: `D(t(x), t(q))`
    /// for a symmetric query, `D(t(x), q)` for a data-only one.
    pub fn for_query(
        index: &'a SeqIndex,
        family: &Family,
        q: &SeqFeatures,
        mode: QueryMode,
    ) -> Self {
        let n = index.seq_len();
        debug_assert_eq!(q.len(), n);
        let span = match mode {
            QueryMode::Symmetric if q.conj_symmetric => n / 2 + 1,
            _ => n,
        };
        let target = q.spectrum[..span].to_vec();
        let arm = match mode {
            QueryMode::Symmetric => Arm::Query(weights(family, span), target),
            QueryMode::DataOnly => Arm::DataOnly(Factors::of(family), target),
        };
        Self::new(index, arm, span)
    }

    /// The kernel of a self-join under `family`: `D(t(x), t(y))`, see
    /// [`Self::pair`].
    pub fn for_self_join(index: &'a SeqIndex, family: &Family) -> Self {
        let span = index.seq_len() / 2 + 1;
        let arm = Arm::SelfJoin(weights(family, span), vec![0.0; span]);
        Self::new(index, arm, span)
    }

    /// The kernel of a paired join: `D(L_t(x), R_t(y))`, see
    /// [`Self::paired_below`].
    pub fn for_paired_join(index: &'a SeqIndex, left: &Family, right: &Family) -> Self {
        let arm = Arm::Paired(Factors::of(left), Factors::of(right));
        Self::new(index, arm, index.seq_len())
    }

    fn new(index: &'a SeqIndex, arm: Arm, span: usize) -> Self {
        let n = index.seq_len();
        Self {
            index,
            arm,
            span,
            arena: Vec::new(),
            spectra: Vec::new(),
            plan: RfftPlan::new(n),
            samples: Vec::with_capacity(n),
            spectrum: vec![Complex64::ZERO; span],
        }
    }

    /// Rows the kernel holds.
    pub fn rows(&self) -> usize {
        match self.arm {
            Arm::Query(..) => self.arena.len() / self.span,
            _ => self.spectra.len() / self.span,
        }
    }

    /// Grows or shrinks the arena of the arm to `rows` rows.
    fn resize(&mut self, rows: usize) {
        match self.arm {
            Arm::Query(..) => self.arena.resize(self.span * rows, 0.0),
            _ => self.spectra.resize(self.span * rows, Complex64::ZERO),
        }
    }

    /// Appends a row per entry of `seqs` — row `r + i` holds candidate
    /// `seqs[i]`, `r` the rows held before — and fills them in ordinal
    /// order, which is heap-page order: each record is one counted fetch,
    /// and the records of one page are read one after another. A sequence
    /// listed twice is fetched once and its row copied. A damaged record
    /// or leaf payload is a typed corrupt error.
    pub fn fill_rows(&mut self, seqs: &[usize]) -> Result<(), PageError> {
        let first = self.rows();
        self.resize(first + seqs.len());
        let mut order: Vec<(usize, usize)> = seqs.iter().copied().zip(first..).collect();
        order.sort_unstable();
        let mut last = None;
        for (seq, row) in order {
            match last {
                Some((filled, from)) if filled == seq => self.copy_row(from, row),
                _ => {
                    self.fill(seq, row)?;
                    last = Some((seq, row));
                }
            }
        }
        Ok(())
    }

    /// The row of candidate `seq` for a caller that meets every candidate
    /// once and must score it before it knows the next (k-NN's refine
    /// step): the one row there is, refilled in place of the candidate
    /// before.
    pub fn touch_once(&mut self, seq: usize) -> Result<usize, PageError> {
        self.resize(1);
        self.fill(seq, 0)?;
        Ok(0)
    }

    /// Fetches candidate `seq` and writes row `row`: `|X_f − Q_f|²` for a
    /// symmetric query, `X_f` itself otherwise.
    fn fill(&mut self, seq: usize, row: usize) -> Result<(), PageError> {
        self.index.normal_form_into(seq, &mut self.samples)?;
        let (n, slot) = (self.samples.len(), self.slot(row));
        let target = match &self.arm {
            Arm::Query(_, q) => Some(q),
            _ => None,
        };
        let x = match target {
            Some(_) => &mut self.spectrum[..],
            None => &mut self.spectra[slot.clone()],
        };
        // Coefficients past n/2 are the mirrors (Eq. 6).
        self.plan.forward_half(&self.samples, &mut x[..n / 2 + 1]);
        for f in n / 2 + 1..self.span {
            x[f] = x[n - f].conj();
        }
        if let Some(q) = target {
            let p = &mut self.arena[slot];
            for ((p, &x), &q) in p.iter_mut().zip(&self.spectrum).zip(q) {
                *p = (x - q).norm_sqr();
            }
        }
        Ok(())
    }

    /// Row `to` becomes a copy of row `from`.
    fn copy_row(&mut self, from: usize, to: usize) {
        let (from, to) = (self.slot(from), self.span * to);
        match self.arm {
            Arm::Query(..) => self.arena.copy_within(from, to),
            _ => self.spectra.copy_within(from, to),
        }
    }

    /// The candidate in `row` under family member `member`: its distance
    /// to the target when that is below `eps`, else `None`. A self-join's
    /// one row is its current [`Self::pair`].
    pub fn distance_below(&self, row: usize, member: usize, eps: f64) -> Option<f64> {
        let (t, r) = (self.slot(member), self.slot(row));
        let (w, p) = match &self.arm {
            Arm::Query(w, _) => (&w[t], &self.arena[r]),
            Arm::SelfJoin(w, pair) => (&w[t], &pair[..]),
            Arm::DataOnly(m, q) => return complex_below(m, None, &self.spectra[r], q, member, eps),
            Arm::Paired(..) => unreachable!("a paired join has no target; see `paired_below`"),
        };
        let chunks = p.chunks(ABANDON_STRIDE).zip(w.chunks(ABANDON_STRIDE));
        sum_below(
            eps,
            chunks.map(|(p, w)| p.iter().zip(w).map(|(p, w)| w * p)),
        )
    }

    /// [`Self::distance_below`] with nothing to abandon on: the distance
    /// itself (∞ only where the sum is not finite).
    pub fn distance(&self, row: usize, member: usize) -> f64 {
        self.distance_below(row, member, f64::INFINITY)
            .unwrap_or(f64::INFINITY)
    }

    /// A self-join's pair: the candidates in rows `x` and `y`, whose
    /// `|X_f − Y_f|²` goes to the row this returns, which
    /// [`Self::distance_below`] then reads as `D(t(x), t(y))`.
    pub fn pair(&mut self, x: usize, y: usize) -> usize {
        let (x, y) = (self.slot(x), self.slot(y));
        let Arm::SelfJoin(_, pair) = &mut self.arm else {
            unreachable!("only a self-join pairs two candidates")
        };
        for ((p, &x), &y) in pair.iter_mut().zip(&self.spectra[x]).zip(&self.spectra[y]) {
            *p = (x - y).norm_sqr();
        }
        0
    }

    /// The paired join's `D(L_t(x), R_t(y))` for the candidates in rows
    /// `x` and `y` under member `member` when it is below `eps`.
    pub fn paired_below(&self, x: usize, y: usize, member: usize, eps: f64) -> Option<f64> {
        let Arm::Paired(left, right) = &self.arm else {
            unreachable!("only a paired join has a right family")
        };
        let (x, y) = (&self.spectra[self.slot(x)], &self.spectra[self.slot(y)]);
        complex_below(left, Some(right), x, y, member, eps)
    }

    /// Where row or member table `i` lies in its arena.
    fn slot(&self, i: usize) -> std::ops::Range<usize> {
        self.span * i..self.span * (i + 1)
    }

    /// The exact per-member bound a leaf entry's point gives on this
    /// kernel's distances — `None` but for a symmetric query, the one arm
    /// whose terms are `W_f·|X_f − Q_f|²`.
    pub fn leaf_bound(&self) -> Option<LeafBound> {
        let Arm::Query(w, q) = &self.arm else {
            return None;
        };
        Some(LeafBound {
            weights: w.chunks(self.span).map(|w| [w[1], w[2]]).collect(),
            target: [q[1].to_polar(), q[2].to_polar()],
        })
    }
}

/// Slack of every [`LeafBound`] decision, relative to the threshold
/// (`ε²`, or a k-NN key `d`) and to the coefficient magnitudes. The leaf
/// point is the polar form of the very coefficients a kernel row holds,
/// so the bound and the kernel's terms differ by a few ulps of
/// `(r_x + r_q)²` and the kernel's sum by a few ulps per term; `1e-9`
/// leaves five orders of magnitude over both, and costs nothing
/// measurable in pruning.
pub(crate) const LEAF_BOUND_MARGIN: f64 = 1e-9;

/// Lemma 1 on the leaf points (GEMINI's lower-bounding lemma): a leaf
/// entry is a sequence's coefficients 1 and 2 in polar form, exact, and by
/// Parseval the first two terms of the kernel's own sum, `Σ_{f∈{1,2}}
/// W_f·|X_f − Q_f|²`, bound member `t`'s squared distance from below. Per
/// entry [`Self::terms`] takes two sines, and per member
/// [`Self::admitted`] / [`Self::nearest`] two multiply-adds. `W_f` are the
/// kernel's tables, folded mirrors included, so the bound is the kernel's
/// sum cut short.
pub(crate) struct LeafBound {
    /// `[W_1, W_2]` of every member.
    weights: Vec<[f64; 2]>,
    /// The target's coefficients 1 and 2 as `(r_q, θ_q)`.
    target: [(f64, f64); 2],
}

impl LeafBound {
    /// An entry's `P̂_f = (r_x − r_q)² + 4·r_x·r_q·sin²((θ_x − θ_q)/2)`,
    /// `|X_f − Q_f|²` in polar form, less the margin's absolute part. A
    /// term that is not a number (a damaged point) is 0: it bounds
    /// nothing, so it drops nothing.
    pub fn terms(&self, point: &FeatureVec) -> [f64; 2] {
        std::array::from_fn(|k| {
            let (rx, ax) = (point[MAG_DIMS[k]], point[ANGLE_DIMS[k]]);
            let (rq, aq) = self.target[k];
            let chord = ((ax - aq) * 0.5).sin();
            let p = (rx - rq) * (rx - rq) + 4.0 * rx * rq * chord * chord;
            (p - LEAF_BOUND_MARGIN * (rx + rq) * (rx + rq)).max(0.0)
        })
    }

    /// Member `t`'s bound on its squared distance, `W_1·P̂_1 + W_2·P̂_2`.
    fn squared(w: &[f64; 2], p: &[f64; 2]) -> f64 {
        w[0] * p[0] + w[1] * p[1]
    }

    /// The squared bound a range query at `ε` admits up to: `ε²` and the
    /// margin, computed once per query.
    pub fn limit(eps: f64) -> f64 {
        eps * eps * (1.0 + LEAF_BOUND_MARGIN)
    }

    /// Words of a member bitset over this bound's family.
    pub fn words(&self) -> usize {
        self.weights.len().div_ceil(64)
    }

    /// The members not surely at `ε` or beyond for the entry with terms
    /// `p`, as a bitset into `out` ([`Self::words`] long): bit `t % 64` of
    /// word `t / 64` when member `t`'s bound is at most `limit`
    /// ([`Self::limit`]). One pass over `[W_1, W_2]`.
    pub fn admitted(&self, p: &[f64; 2], limit: f64, out: &mut [u64]) {
        for (word, w) in out.iter_mut().zip(self.weights.chunks(64)) {
            *word = w.iter().enumerate().fold(0, |bits, (b, w)| {
                bits | u64::from(Self::squared(w, p) <= limit) << b
            });
        }
    }

    /// Member `t`'s bit of [`Self::admitted`] at `limit(eps)`, alone —
    /// the oracle the suites hold the bitset to.
    #[cfg(test)]
    pub fn admits(&self, t: usize, p: &[f64; 2], eps: f64) -> bool {
        Self::squared(&self.weights[t], p) <= eps * eps * (1.0 + LEAF_BOUND_MARGIN)
    }

    /// A lower bound on `min_t D(t(x), t(q))` for the entry with terms
    /// `p`: `√(min_t W_1·P̂_1 + W_2·P̂_2)`, shrunk by the margin.
    pub fn nearest(&self, p: &[f64; 2]) -> f64 {
        let least = self
            .weights
            .iter()
            .map(|w| Self::squared(w, p))
            .fold(f64::INFINITY, f64::min);
        least.sqrt() * (1.0 - LEAF_BOUND_MARGIN)
    }
}

/// The members of one mask group's rectangles (at most 64, bit `j` for
/// the `j`-th), for the leaf gate: rectangle `j` keeps an entry when its
/// members meet the entry's [`LeafBound::admitted`] bitset.
pub(crate) enum GroupMembers {
    /// Rectangle `j` is member `64·w + j` alone — an ST plan, whose
    /// singletons are the family in order: the rectangles kept are
    /// `mask & admitted[w]`.
    Singletons(usize),
    /// Rectangle `j`'s members as a bitset of `words` words from
    /// `words·j`.
    Sets { words: usize, bits: Vec<u64> },
}

impl GroupMembers {
    /// The members of `group`, the mask group starting at rectangle
    /// `first` of its plan.
    pub fn of(group: &[TransformMbr], first: usize) -> Self {
        let aligned = first.is_multiple_of(64)
            && group
                .iter()
                .enumerate()
                .all(|(j, mbr)| mbr.members == [first + j]);
        if aligned {
            return Self::Singletons(first / 64);
        }
        let members = || {
            group
                .iter()
                .enumerate()
                .flat_map(|(j, mbr)| mbr.members.iter().map(move |&t| (j, t)))
        };
        let words = members().map(|(_, t)| t / 64 + 1).max().unwrap_or(0);
        let mut bits = vec![0; words * group.len()];
        for (j, t) in members() {
            bits[words * j + t / 64] |= 1 << (t % 64);
        }
        Self::Sets { words, bits }
    }

    /// The rectangles of `mask` with a member in `admitted`.
    #[inline]
    pub fn kept(&self, mask: u64, admitted: &[u64]) -> u64 {
        match self {
            Self::Singletons(w) => mask & admitted[*w],
            Self::Sets { words, bits } => rstartree::mask_bits(mask)
                .filter(|&j| {
                    let set = &bits[words * j..words * (j + 1)];
                    set.iter().zip(admitted).any(|(s, a)| s & a != 0)
                })
                .fold(0, |kept, j| kept | 1 << j),
        }
    }
}

/// `sqrt(Σ_{f<n} |l_f·X̃_f − r_f·Ỹ_f|²)` under member `t` when below `eps`;
/// `Ỹ = Y` untransformed when there is no right family.
fn complex_below(
    left: &Factors,
    right: Option<&Factors>,
    x: &[Complex64],
    y: &[Complex64],
    t: usize,
    eps: f64,
) -> Option<f64> {
    let term = |f: usize| {
        let ty = right.map_or(y[f], |right| right.apply(t, f, y[f]));
        (left.apply(t, f, x[f]) - ty).norm_sqr()
    };
    let n = x.len();
    let chunks = (0..n).step_by(ABANDON_STRIDE);
    sum_below(
        eps,
        chunks.map(|f| (f..n.min(f + ABANDON_STRIDE)).map(&term)),
    )
}
