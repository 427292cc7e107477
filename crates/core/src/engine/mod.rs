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
//! Step 5 (fetch → verify) has two implementations, chosen per query from
//! what the query is — never by an option:
//!
//! * `VerifyKernel` — when the query is symmetric (`D(t(x), t(q))`), the
//!   sequence length even, the query target conjugate-symmetric and every
//!   family member linear in the paper's sense: conjugate-symmetric,
//!   coefficient `f` times `a_f·e^{iφ_f}` (every convolution-derived
//!   operator, scaling, inversion, band-pass and their compositions).
//!   Then the phase cancels and a coefficient contributes
//!   `a_f²·|X_f − Q_f|²`: one half-spectrum row `|X_f − Q_f|²` per
//!   distinct candidate, one multiply-add per coefficient per member, an
//!   exact early abandon on ε, no trigonometry and no `SeqFeatures` per
//!   candidate. Range queries (ST, MT, partitioned MT) and [`knn`] run on
//!   it.
//! * `CandidateCache` + `verify_candidate` over full [`SeqFeatures`] —
//!   for everything else: data-only queries, `time_reverse`,
//!   `paper_shift`, prepared asymmetric targets, odd lengths,
//!   `VerifyMode::Ordered`, and both joins (a pair needs both sides'
//!   features and has no query side to hoist).
//!
//! The kernel's distance is the law-of-cosines distance of
//! [`Transform::transformed_distance`] rounded differently: the two agree
//! to `1e-12·max(1, d)`, and the pair sets, match order and every counter
//! are the same. [`seqscan`]'s exhaustive path deliberately keeps calling
//! `transformed_distance` per pair: it is the tolerance oracle, and an
//! error in the kernel must not be able to hide in both.
//!
//! All three return identical result sets (property-tested under
//! [`FilterPolicy::Safe`](crate::query::FilterPolicy)); they differ only in
//! cost, which is the paper's entire point.

pub mod join;
pub mod knn;
pub mod mtindex;
pub mod seqscan;
pub mod stindex;

use crate::feature::SeqFeatures;
use crate::index::{decode_samples, SeqIndex};
use crate::ordering::OrderedFamily;
use crate::query::QueryMode;
use crate::report::{Match, QueryError};
use crate::transform::{Family, Transform};
use pagestore::PageError;
use std::collections::HashMap;
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

/// How candidate verification walks the member transformations.
#[derive(Clone, Copy)]
pub(crate) enum VerifyMode<'a> {
    /// Try every member (the general case — moving averages are provably
    /// unordered, Lemmas 3–4).
    Exhaustive,
    /// Binary-search an ordered family (§4.4): `log|T|` comparisons find
    /// the maximal qualifying member; everything below it qualifies.
    Ordered(&'a OrderedFamily),
}

/// A per-query cache of fetched candidate features.
///
/// Within one query the same sequence may surface as a candidate many times
/// (once per ST traversal / per transformation rectangle / per join pair);
/// any real system's buffer manager serves the repeats from memory. The
/// cache fetches each distinct candidate once and counts every *touch* —
/// the logical access count the paper's figures report.
pub(crate) struct CandidateCache<'a> {
    index: &'a SeqIndex,
    cache: HashMap<usize, std::rc::Rc<SeqFeatures>>,
    /// Logical record touches (≥ distinct fetches).
    pub touches: u64,
}

impl<'a> CandidateCache<'a> {
    pub fn new(index: &'a SeqIndex) -> Self {
        Self {
            index,
            cache: HashMap::new(),
            touches: 0,
        }
    }

    pub fn get(&mut self, seq: usize) -> Result<std::rc::Rc<SeqFeatures>, PageError> {
        self.touches += 1;
        if let Some(f) = self.cache.get(&seq) {
            return Ok(std::rc::Rc::clone(f));
        }
        let f = std::rc::Rc::new(self.index.fetch(seq)?);
        self.cache.insert(seq, std::rc::Rc::clone(&f));
        Ok(f)
    }
}

/// Coefficients summed between two early-abandon checks of
/// [`VerifyKernel::distance_below`].
const ABANDON_STRIDE: usize = 8;

/// Algorithm 1 step 5 for one symmetric query, in the paper's linear form.
///
/// A member the kernel serves multiplies coefficient `f` by
/// `a_f·e^{iφ_f}`, so in `D(t(x), t(q))` the phase cancels and the
/// coefficient contributes `a_f²·|X_f − Q_f|²`: a member factor times a
/// (candidate, query) factor. The kernel keeps, per member, one table
/// `w_f·a_f²` with `w = 1, 2, …, 2, 1` over the half spectrum
/// `f ∈ 0..=n/2` — coefficients `1..n/2` stand for their mirrors too
/// (Eq. 6), and that is all a real sequence has — and, per distinct
/// candidate, one arena row `P_f = |X_f − Q_f|²` filled at first touch.
/// Each touch after that — another of ST's singleton rectangles, another
/// member, another partition — is one multiply-add per coefficient and a
/// square root.
///
/// Every term is ≥ 0, so the running sum never decreases and
/// [`Self::distance_below`] stops as soon as it reaches ε: a pair it
/// rejects is exactly one the full sum rejects, and a distance it reports
/// is always the full sum. That sum rounds differently from the
/// law-of-cosines tree of [`Transform::transformed_distance`]; the two
/// agree to `1e-12·max(1, d)`
/// (`proptests::kernel_distance_is_the_naive_distance`).
///
/// A row is filled straight from the record heap: borrowed page bytes →
/// samples and normal form in one reused buffer → a planned real FFT →
/// `|X_f − Q_f|²`. No `SeqFeatures` is built for a candidate, and nothing
/// outlives the query: a feature cache that did would answer without a
/// heap page access and so change the paper's cost unit.
pub(crate) struct VerifyKernel<'a> {
    index: &'a SeqIndex,
    /// Coefficients per table and per row: `n/2 + 1`.
    half: usize,
    /// Member `t`'s table at `half·t`: `w_f·a_f²`.
    members: Vec<f64>,
    /// `Q_f` over the half spectrum.
    query: Vec<Complex64>,
    /// Ordinal → row of `arena`.
    rows: HashMap<usize, usize>,
    /// Row `i` at `half·i`: `|X_f − Q_f|²`.
    arena: Vec<f64>,
    plan: RfftPlan,
    samples: Vec<f64>,
    spectrum: Vec<Complex64>,
    /// Logical record touches (≥ distinct fetches), counted as
    /// [`CandidateCache`] counts them.
    pub touches: u64,
}

impl<'a> VerifyKernel<'a> {
    /// The kernel for `(family, q, mode)` over `index`, or `None` when the
    /// identity above does not hold for this query: a data-only query, an
    /// odd sequence length (the general FFT path vouches for no
    /// symmetry), a prepared target that lost conjugate symmetry, or a
    /// member that is asymmetric (`paper_shift`) or scales angles
    /// (`time_reverse`). Those run [`CandidateCache`] +
    /// [`verify_candidate`], the only correct path for them.
    pub fn for_query(
        index: &'a SeqIndex,
        family: &Family,
        q: &SeqFeatures,
        mode: QueryMode,
    ) -> Option<Self> {
        let n = index.seq_len();
        debug_assert_eq!(q.len(), n);
        let applies = mode == QueryMode::Symmetric
            && n.is_multiple_of(2)
            && q.conj_symmetric
            && family
                .transforms()
                .iter()
                .all(Transform::half_spectrum_linear);
        if !applies {
            return None;
        }
        let half = n / 2 + 1;
        let mut members = Vec::with_capacity(half * family.len());
        for t in family.transforms() {
            members.extend((0..half).map(|f| {
                let a = t.magnitude_multiplier(f);
                let w = if f == 0 || f == half - 1 { 1.0 } else { 2.0 };
                w * a * a
            }));
        }
        Some(Self {
            index,
            half,
            members,
            query: q.spectrum[..half].to_vec(),
            rows: HashMap::new(),
            arena: Vec::new(),
            plan: RfftPlan::new(n),
            samples: Vec::with_capacity(n),
            spectrum: vec![Complex64::ZERO; half],
            touches: 0,
        })
    }

    /// The arena row of candidate `seq`, fetched (one counted record
    /// access) and filled the first time the query meets it.
    ///
    /// # Panics
    ///
    /// Panics when the record decodes to a degenerate sequence, as
    /// [`SeqIndex::fetch`] does.
    pub fn touch(&mut self, seq: usize) -> Result<usize, PageError> {
        self.touches += 1;
        if let Some(&row) = self.rows.get(&seq) {
            return Ok(row);
        }
        let row = self.rows.len();
        self.fill(seq, row)?;
        self.rows.insert(seq, row);
        Ok(row)
    }

    /// [`Self::touch`] for a caller that meets every candidate once
    /// (k-NN's refine step): the row goes into the arena's first slot, in
    /// place of the candidate before, and nothing is remembered — the
    /// arena stays one row long however many candidates are scored.
    pub fn touch_once(&mut self, seq: usize) -> Result<usize, PageError> {
        self.touches += 1;
        self.rows.clear();
        self.fill(seq, 0)?;
        Ok(0)
    }

    /// Fetches candidate `seq` and writes `|X_f − Q_f|²` into arena row
    /// `row`, which is an existing row or the next one.
    fn fill(&mut self, seq: usize, row: usize) -> Result<(), PageError> {
        let samples = &mut self.samples;
        self.index.with_record(seq, |bytes| {
            samples.clear();
            samples.extend(decode_samples(bytes));
        })?;
        tseries::normalize_in_place(samples)
            .unwrap_or_else(|| panic!("fetched degenerate sequence {seq}"));
        self.plan.forward_half(samples, &mut self.spectrum);

        let base = self.half * row;
        if self.arena.len() == base {
            self.arena.resize(base + self.half, 0.0);
        }
        let p = &mut self.arena[base..base + self.half];
        for ((p, &x), &q) in p.iter_mut().zip(&self.spectrum).zip(&self.query) {
            *p = (x - q).norm_sqr();
        }
        Ok(())
    }

    /// `D(t(x), t(q))` for the candidate in `row` under family member
    /// `member` when it is below `eps`, else `None`.
    ///
    /// The sum runs in coefficient order and is checked every
    /// [`ABANDON_STRIDE`] coefficients: it stops once `acc ≥ ε²` and
    /// `√acc ≥ ε` — the second test keeps the decision exact whatever `ε²`
    /// rounded to, and the terms are ≥ 0, so the full sum is at least
    /// `acc` and would have been rejected too.
    pub fn distance_below(&self, row: usize, member: usize, eps: f64) -> Option<f64> {
        let h = self.half;
        let p = &self.arena[h * row..h * (row + 1)];
        let w = &self.members[h * member..h * (member + 1)];
        let eps2 = eps * eps;
        let mut acc = 0.0;
        for (p, w) in p.chunks(ABANDON_STRIDE).zip(w.chunks(ABANDON_STRIDE)) {
            for (p, w) in p.iter().zip(w) {
                acc += w * p;
            }
            if acc >= eps2 && acc.sqrt() >= eps {
                return None;
            }
        }
        let d = acc.sqrt();
        (d < eps).then_some(d)
    }

    /// [`verify_candidate`]'s exhaustive arm over the kernel: every
    /// member in `members` against candidate `seq`, in order, each
    /// distance one comparison however early it is abandoned.
    pub fn verify(
        &mut self,
        seq: usize,
        members: &[usize],
        eps: f64,
        comparisons: &mut u64,
        out: &mut Vec<Match>,
    ) -> Result<(), PageError> {
        let row = self.touch(seq)?;
        for &ti in members {
            *comparisons += 1;
            if let Some(dist) = self.distance_below(row, ti, eps) {
                out.push(Match {
                    seq,
                    transform: ti,
                    dist,
                });
            }
        }
        Ok(())
    }
}

/// The distance of one candidate/query pair under one transformation,
/// respecting the query mode.
pub(crate) fn pair_distance(
    t: &Transform,
    x: &SeqFeatures,
    q: &SeqFeatures,
    mode: QueryMode,
) -> f64 {
    match mode {
        QueryMode::Symmetric => t.transformed_distance(x, q),
        QueryMode::DataOnly => t.distance_data_only(x, q),
    }
}

/// Algorithm 1 step 5: apply member transformations to a candidate and keep
/// those within ε. `members` are indices into `family`; every distance
/// computation increments `comparisons`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidate(
    family: &Family,
    members: &[usize],
    mode: VerifyMode<'_>,
    query_mode: QueryMode,
    seq: usize,
    x: &SeqFeatures,
    q: &SeqFeatures,
    eps: f64,
    comparisons: &mut u64,
    out: &mut Vec<Match>,
) {
    match mode {
        VerifyMode::Exhaustive => {
            for &ti in members {
                let d = pair_distance(&family.transforms()[ti], x, q, query_mode);
                *comparisons += 1;
                if d < eps {
                    out.push(Match {
                        seq,
                        transform: ti,
                        dist: d,
                    });
                }
            }
        }
        VerifyMode::Ordered(ordered) => {
            // Orderings (Definition 1) are stated for symmetric
            // application; binary search is only sound there.
            assert_eq!(
                query_mode,
                QueryMode::Symmetric,
                "ordered verification requires symmetric queries"
            );
            // The members of an MBR over an ordered family are contiguous
            // ranks; binary-search the maximal qualifying rank, then emit
            // every member at or below it (their distances are computed for
            // the report but NOT counted — the decision needed only
            // log|T| comparisons, matching §4.4's accounting).
            let Some(max_rank) = ordered.max_qualifying_in(members, x, q, eps, comparisons) else {
                return;
            };
            for &ti in members {
                if ti <= max_rank {
                    let d = family.transforms()[ti].transformed_distance(x, q);
                    if d < eps {
                        out.push(Match {
                            seq,
                            transform: ti,
                            dist: d,
                        });
                    }
                }
            }
        }
    }
}
