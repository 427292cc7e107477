//! Experiment corpora: the two data sets of §5, plus CSV I/O for anyone
//! holding the original stock data.

use crate::gen::{random_walk, Market, MarketConfig};
use crate::rng::SeededRng;
use crate::series::TimeSeries;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Which of the paper's two corpora to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusKind {
    /// Random walks with uniform ±500 steps (§5's synthetic data).
    SyntheticWalks,
    /// The synthetic stand-in for the 1068-stock close-price corpus.
    StockCloses,
}

/// A named collection of equal-length sequences.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    names: Vec<String>,
    series: Vec<TimeSeries>,
}

impl Corpus {
    /// Builds a corpus of `count` sequences of length `len`, deterministic
    /// in `seed`.
    pub fn generate(kind: CorpusKind, count: usize, len: usize, seed: u64) -> Self {
        match kind {
            CorpusKind::SyntheticWalks => {
                let mut rng = SeededRng::seed_from_u64(seed);
                let series = (0..count)
                    .map(|_| random_walk(&mut rng, len, 500.0))
                    .collect();
                let names = (0..count).map(|i| format!("W{i:05}")).collect();
                Self { names, series }
            }
            CorpusKind::StockCloses => {
                let cfg = MarketConfig {
                    stocks: count,
                    days: len,
                    ..MarketConfig::default()
                };
                let market = Market::new(cfg, seed);
                Self {
                    names: market.names(),
                    series: market.closes(),
                }
            }
        }
    }

    /// Wraps explicit data.
    ///
    /// # Panics
    ///
    /// Panics when names and series counts differ or lengths are ragged.
    pub fn from_parts(names: Vec<String>, series: Vec<TimeSeries>) -> Self {
        assert_eq!(names.len(), series.len(), "one name per series");
        if let Some(first) = series.first() {
            assert!(
                series.iter().all(|s| s.len() == first.len()),
                "all series must share one length"
            );
        }
        Self { names, series }
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the corpus holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Length of each sequence (0 for an empty corpus).
    pub fn series_len(&self) -> usize {
        self.series.first().map_or(0, TimeSeries::len)
    }

    /// The sequences.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// One sequence with its name.
    pub fn get(&self, i: usize) -> (&str, &TimeSeries) {
        (&self.names[i], &self.series[i])
    }

    /// Keeps only the first `n` sequences (for the Fig. 5 size sweep).
    pub fn truncated(&self, n: usize) -> Self {
        Self {
            names: self.names.iter().take(n).cloned().collect(),
            series: self.series.iter().take(n).cloned().collect(),
        }
    }

    /// Writes `name,v0,v1,…` lines.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, s) in self.names.iter().zip(&self.series) {
            write!(out, "{name}")?;
            for v in s.values() {
                write!(out, ",{v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Reads the format written by [`Self::save_csv`]. Rows with ragged
    /// lengths or unparsable numbers are an error.
    pub fn load_csv(path: &Path) -> std::io::Result<Self> {
        let reader = BufReader::new(std::fs::File::open(path)?);
        let mut names = Vec::new();
        let mut series: Vec<TimeSeries> = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let name = fields.next().unwrap_or_default().to_string();
            let values: Result<Vec<f64>, _> = fields.map(str::parse).collect();
            let values = values.map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })?;
            if let Some(first) = series.first() {
                if first.len() != values.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("line {}: ragged row", lineno + 1),
                    ));
                }
            }
            names.push(name);
            series.push(TimeSeries::new(values));
        }
        Ok(Self { names, series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_corpus_shape_and_determinism() {
        let a = Corpus::generate(CorpusKind::SyntheticWalks, 50, 128, 3);
        let b = Corpus::generate(CorpusKind::SyntheticWalks, 50, 128, 3);
        assert_eq!(a.len(), 50);
        assert_eq!(a.series_len(), 128);
        assert_eq!(a.series(), b.series());
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 50, 128, 4);
        assert_ne!(a.series(), c.series(), "different seeds differ");
    }

    #[test]
    fn stock_corpus_shape() {
        let c = Corpus::generate(CorpusKind::StockCloses, 30, 64, 1);
        assert_eq!(c.len(), 30);
        assert_eq!(c.series_len(), 64);
        assert_eq!(c.get(0).0, "S0000");
    }

    #[test]
    fn truncation() {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, 20, 32, 0);
        let t = c.truncated(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.series()[4], c.series()[4]);
    }

    #[test]
    fn csv_roundtrip() {
        let c = Corpus::generate(CorpusKind::StockCloses, 7, 16, 11);
        let dir = std::env::temp_dir().join("tseries_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.csv");
        c.save_csv(&path).unwrap();
        let back = Corpus::load_csv(&path).unwrap();
        assert_eq!(back.names(), c.names());
        for (a, b) in back.series().iter().zip(c.series()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_ragged_rows() {
        let dir = std::env::temp_dir().join("tseries_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.csv");
        std::fs::write(&path, "a,1,2,3\nb,1,2\n").unwrap();
        assert!(Corpus::load_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "one name per series")]
    fn from_parts_checks_counts() {
        Corpus::from_parts(vec!["a".into()], vec![]);
    }
}
