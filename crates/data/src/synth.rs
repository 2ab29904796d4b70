//! Seeded synthetic dataset generators.
//!
//! The paper's datasets are not redistributable inside this repository, so
//! we generate synthetic equivalents with matching *shape*: dimension,
//! sparsity pattern, and a linear ground-truth labelling with additive noise
//! (the evaluation solves least squares, so a linear generative model is the
//! faithful choice). Row counts are scaled down by a configurable factor;
//! DESIGN.md §2 records the substitution argument.

use async_linalg::{CsrMatrix, DenseMatrix, Matrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::Result;

/// Specification for a synthetic least-squares dataset.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Dataset name carried into [`Dataset::name`].
    pub name: String,
    /// Number of examples.
    pub rows: usize,
    /// Feature dimension.
    pub cols: usize,
    /// Mean nonzeros per row; `None` generates dense rows.
    pub nnz_per_row: Option<usize>,
    /// Standard deviation of the label noise ε in `y = x·w* + ε`.
    pub noise_std: f64,
    /// RNG seed — every byte of the dataset is a pure function of the spec.
    pub seed: u64,
}

impl SynthSpec {
    /// A dense spec with the given shape.
    pub fn dense(name: impl Into<String>, rows: usize, cols: usize, seed: u64) -> Self {
        Self {
            name: name.into(),
            rows,
            cols,
            nnz_per_row: None,
            noise_std: 0.1,
            seed,
        }
    }

    /// A sparse spec with the given shape and mean row sparsity.
    pub fn sparse(
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        nnz_per_row: usize,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            rows,
            cols,
            nnz_per_row: Some(nnz_per_row),
            noise_std: 0.1,
            seed,
        }
    }

    /// Shaped like `rcv1_full.binary` (697,641 × 47,236, ~73 nnz/row) at
    /// `scale` of the original row count.
    pub fn rcv1_like(scale: f64, seed: u64) -> Self {
        Self::sparse("rcv1-like", scaled(697_641, scale), 47_236, 73, seed)
    }

    /// Shaped like `mnist8m` (8,100,000 × 784, dense) at `scale` of the
    /// original row count.
    pub fn mnist8m_like(scale: f64, seed: u64) -> Self {
        Self::dense("mnist8m-like", scaled(8_100_000, scale), 784, seed)
    }

    /// Shaped like `epsilon` (400,000 × 2,000, dense) at `scale` of the
    /// original row count.
    pub fn epsilon_like(scale: f64, seed: u64) -> Self {
        Self::dense("epsilon-like", scaled(400_000, scale), 2_000, seed)
    }

    /// Like [`SynthSpec::generate`], but relabels into ±1 classes by the
    /// sign of the planted model's margin `x·w*` — the shape of the
    /// paper's logistic-regression workload. The dataset name gains a
    /// `-pm1` suffix.
    pub fn generate_classification(&self) -> Result<(Dataset, Vec<f64>)> {
        let (base, w_star) = self.generate()?;
        let labels: Vec<f64> = (0..base.rows())
            .map(|i| {
                if base.features().row_dot(i, &w_star) >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let d = Dataset::new(
            format!("{}-pm1", self.name),
            base.features().clone(),
            labels,
        )?;
        Ok((d, w_star))
    }

    /// Generates the dataset along with the planted model `w*`.
    ///
    /// Features: dense entries are `N(0,1)`-ish (via the sum-of-uniforms
    /// approximation, adequate for benchmarks and cheap); sparse rows draw a
    /// Poisson-ish nonzero count around `nnz_per_row` with distinct sorted
    /// column indices. Each is stored rounded to `f32`. Labels:
    /// `y = x·w* + ε` over the stored rows.
    pub fn generate(&self) -> Result<(Dataset, Vec<f64>)> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let w_star: Vec<f64> = (0..self.cols)
            .map(|_| normal_ish(&mut rng) / (self.cols as f64).sqrt())
            .collect();

        // Each feature is rounded to `f32` as it enters storage; no
        // whole-dataset buffer of another type exists on the way.
        let features = match self.nnz_per_row {
            None => {
                let mut flat = Vec::with_capacity(self.rows * self.cols);
                for _ in 0..self.rows * self.cols {
                    flat.push(normal_ish(&mut rng) as f32);
                }
                Matrix::Dense(DenseMatrix::from_flat(flat, self.rows, self.cols)?)
            }
            Some(k) => {
                let mut indptr = Vec::with_capacity(self.rows + 1);
                let mut indices = Vec::with_capacity(self.rows * k);
                let mut data = Vec::with_capacity(self.rows * k);
                let mut pairs: Vec<(u32, f32)> = Vec::new();
                indptr.push(0);
                for _ in 0..self.rows {
                    let nnz = sample_row_nnz(&mut rng, k, self.cols);
                    pairs.clear();
                    for c in sample_distinct(&mut rng, nnz, self.cols) {
                        pairs.push((c as u32, normal_ish(&mut rng) as f32));
                    }
                    pairs.sort_unstable_by_key(|p| p.0);
                    indices.extend(pairs.iter().map(|p| p.0));
                    data.extend(pairs.iter().map(|p| p.1));
                    indptr.push(indices.len());
                }
                let m = CsrMatrix::new(indptr, indices, data, self.rows, self.cols)?;
                Matrix::Sparse(m)
            }
        };

        let mut labels = vec![0.0; self.rows];
        features.matvec(&w_star, &mut labels);
        for yi in labels.iter_mut() {
            *yi += self.noise_std * normal_ish(&mut rng);
        }

        Ok((Dataset::new(self.name.clone(), features, labels)?, w_star))
    }
}

fn scaled(rows: usize, scale: f64) -> usize {
    assert!(scale > 0.0, "scale must be positive");
    ((rows as f64 * scale) as usize).max(1)
}

/// Approximately standard-normal variate: Irwin–Hall sum of 12 uniforms.
/// Exactly seeded, no rejection loop, and plenty Gaussian for data
/// generation purposes.
fn normal_ish(rng: &mut SmallRng) -> f64 {
    let mut s = 0.0;
    for _ in 0..12 {
        s += rng.gen::<f64>();
    }
    s - 6.0
}

/// Row nonzero count: geometric-ish jitter around `k`, clamped to
/// `[1, cols]`.
fn sample_row_nnz(rng: &mut SmallRng, k: usize, cols: usize) -> usize {
    let jitter = (k as f64 * (0.5 + rng.gen::<f64>())) as usize;
    jitter.clamp(1, cols)
}

/// `k` distinct column indices from `0..cols` via Floyd's algorithm.
fn sample_distinct(rng: &mut SmallRng, k: usize, cols: usize) -> Vec<usize> {
    debug_assert!(k <= cols);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in cols - k..cols {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_generation_has_exact_shape() {
        let (d, w) = SynthSpec::dense("d", 50, 8, 7).generate().unwrap();
        assert_eq!(d.rows(), 50);
        assert_eq!(d.cols(), 8);
        assert_eq!(w.len(), 8);
        assert!(matches!(d.features(), Matrix::Dense(_)));
    }

    #[test]
    fn sparse_generation_respects_sparsity() {
        let spec = SynthSpec::sparse("s", 200, 1000, 20, 11);
        let (d, _) = spec.generate().unwrap();
        assert!(matches!(d.features(), Matrix::Sparse(_)));
        let mean_nnz = d.features().nnz() as f64 / 200.0;
        assert!(
            mean_nnz > 10.0 && mean_nnz < 40.0,
            "mean nnz/row {mean_nnz} far from requested 20"
        );
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = SynthSpec::dense("d", 30, 5, 42).generate().unwrap();
        let b = SynthSpec::dense("d", 30, 5, 42).generate().unwrap();
        assert_eq!(a.0.labels(), b.0.labels());
        assert_eq!(a.1, b.1);
        let c = SynthSpec::dense("d", 30, 5, 43).generate().unwrap();
        assert_ne!(a.0.labels(), c.0.labels());
    }

    #[test]
    fn classification_labels_are_margin_signs() {
        let (d, w_star) = SynthSpec::sparse("c", 50, 100, 8, 9)
            .generate_classification()
            .unwrap();
        assert_eq!(d.name(), "c-pm1");
        for i in 0..d.rows() {
            let y = d.labels()[i];
            assert!(y == 1.0 || y == -1.0);
            let margin = d.features().row_dot(i, &w_star);
            assert_eq!(y, if margin >= 0.0 { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn labels_follow_planted_model() {
        // With zero noise, residual at w* must vanish.
        let mut spec = SynthSpec::dense("d", 40, 6, 3);
        spec.noise_std = 0.0;
        let (d, w_star) = spec.generate().unwrap();
        let obj = async_linalg::parallel::par_residual_sq(
            async_linalg::ParallelismCfg::sequential(),
            d.features(),
            &w_star,
            d.labels(),
        );
        assert!(obj < 1e-16, "objective at planted model: {obj}");
    }

    #[test]
    fn presets_match_paper_dims() {
        let r = SynthSpec::rcv1_like(0.001, 1);
        assert_eq!(r.cols, 47_236);
        let m = SynthSpec::mnist8m_like(0.0001, 1);
        assert_eq!(m.cols, 784);
        let e = SynthSpec::epsilon_like(0.001, 1);
        assert_eq!(e.cols, 2_000);
        assert_eq!(e.rows, 400);
    }

    #[test]
    fn sample_distinct_returns_distinct_indices() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let v = sample_distinct(&mut rng, 10, 30);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(v.iter().all(|&c| c < 30));
        }
    }
}
