//! Datasets and row-range shards.

use std::sync::Arc;

use async_linalg::Matrix;

use crate::{Error, Result};

/// A supervised dataset: feature matrix (rows are examples) plus labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    features: Arc<Matrix>,
    labels: Arc<Vec<f64>>,
}

/// Summary statistics matching the columns of the paper's Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Row count (`m` in Table 2).
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Fraction of entries stored (1.0 for dense).
    pub density: f64,
    /// Approximate in-memory size in megabytes.
    pub size_mb: f64,
}

impl Dataset {
    /// Builds a dataset; `labels.len()` must equal `features.nrows()`.
    pub fn new(name: impl Into<String>, features: Matrix, labels: Vec<f64>) -> Result<Self> {
        if labels.len() != features.nrows() {
            return Err(Error::Invalid(format!(
                "labels length {} != feature rows {}",
                labels.len(),
                features.nrows()
            )));
        }
        Ok(Self {
            name: name.into(),
            features: Arc::new(features),
            labels: Arc::new(labels),
        })
    }

    /// Dataset name (e.g. `"rcv1-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The full label vector.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Number of examples.
    pub fn rows(&self) -> usize {
        self.features.nrows()
    }

    /// Feature dimension.
    pub fn cols(&self) -> usize {
        self.features.ncols()
    }

    /// Table 2 statistics for this dataset.
    pub fn stats(&self) -> DatasetStats {
        let rows = self.rows();
        let cols = self.cols();
        let nnz = self.features.nnz();
        let entries = (rows * cols).max(1);
        let bytes = self.features.bytes() + (self.labels.len() * 8) as u64;
        DatasetStats {
            name: self.name.clone(),
            rows,
            cols,
            nnz,
            density: nnz as f64 / entries as f64,
            size_mb: bytes as f64 / (1024.0 * 1024.0),
        }
    }

    /// Splits the dataset into `parts` contiguous row blocks (the paper uses
    /// 32 partitions for every dataset). Each block is a row window over this
    /// dataset's feature and label storage: `O(parts)` pointer work, no copy.
    ///
    /// # Panics
    /// Panics if `parts == 0`.
    pub fn partition(&self, parts: usize) -> Vec<Block> {
        assert!(parts > 0, "partition: parts must be positive");
        let ranges = async_linalg::parallel::split_ranges(self.rows(), parts);
        ranges
            .into_iter()
            .enumerate()
            .map(|(part_id, r)| Block {
                features: Arc::new(self.features.slice_rows(r.start, r.end)),
                labels: Arc::clone(&self.labels),
                first_label: r.start,
                row_offset: r.start,
                total_rows: self.rows(),
                part_id,
            })
            .collect()
    }

    /// The same logical dataset with features as dense row-major storage
    /// (rebuilt if sparse, shared if already dense). Labels are shared.
    pub fn densified(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            features: Arc::new(self.features.densified()),
            labels: Arc::clone(&self.labels),
        }
    }

    /// The same logical dataset with features rebuilt as CSR storage
    /// (exact zeros dropped). With [`Dataset::densified`] this pins one
    /// logical workload while switching gradient paths — how the
    /// dense-vs-sparse fast-path benchmark holds the data fixed.
    pub fn sparsified(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            features: Arc::new(self.features.sparsified()),
            labels: Arc::clone(&self.labels),
        }
    }
}

/// A contiguous row-range shard of a [`Dataset`], cheap to clone (internally
/// `Arc`-shared). One `Block` is the single element of one sparklet
/// partition, which makes "per-partition local reduction" (the paper's
/// `ASYNCreduce` semantics) a natural fold over the block.
#[derive(Debug, Clone)]
pub struct Block {
    features: Arc<Matrix>,
    labels: Arc<Vec<f64>>,
    /// Index in `labels` of local row 0's label.
    first_label: usize,
    row_offset: usize,
    total_rows: usize,
    part_id: usize,
}

impl Block {
    /// Assembles a block from its parts — the wire-transfer constructor:
    /// networked workers receive a block's rows once per worker incarnation
    /// and rebuild it locally with the same geometry over storage it owns
    /// ([`Dataset::partition`] remains the in-process path).
    ///
    /// # Panics
    /// Panics if `labels` is not parallel to `features`' rows or the block
    /// extends past `total_rows`.
    pub fn from_parts(
        features: Matrix,
        labels: Vec<f64>,
        row_offset: usize,
        total_rows: usize,
        part_id: usize,
    ) -> Self {
        assert_eq!(
            features.nrows(),
            labels.len(),
            "labels must be parallel to feature rows"
        );
        assert!(
            row_offset + features.nrows() <= total_rows,
            "block rows exceed the declared dataset size"
        );
        Self {
            features: Arc::new(features),
            labels: Arc::new(labels),
            first_label: 0,
            row_offset,
            total_rows,
            part_id,
        }
    }

    /// Feature rows local to this block.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Labels local to this block (parallel to the feature rows).
    pub fn labels(&self) -> &[f64] {
        &self.labels[self.first_label..self.first_label + self.features.nrows()]
    }

    /// Number of rows in this block.
    pub fn rows(&self) -> usize {
        self.features.nrows()
    }

    /// Feature dimension.
    pub fn cols(&self) -> usize {
        self.features.ncols()
    }

    /// Global row id of local row `i` — stable across partitioning, used as
    /// the SAGA sample identity.
    pub fn global_row(&self, i: usize) -> u64 {
        debug_assert!(i < self.rows());
        (self.row_offset + i) as u64
    }

    /// Global row id of this block's first row (its offset into the parent
    /// dataset).
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Total rows of the parent dataset (`n` in the algorithms).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Partition index this block was created for.
    pub fn part_id(&self) -> usize {
        self.part_id
    }

    /// Stored nonzeros — the cost hint for task-duration modelling.
    pub fn nnz(&self) -> usize {
        self.features.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_linalg::CsrMatrix;

    fn tiny() -> Dataset {
        let m = CsrMatrix::from_triplets(
            &(0..10)
                .map(|i| (i, (i % 3) as u32, 1.0 + i as f64))
                .collect::<Vec<_>>(),
            10,
            3,
        )
        .unwrap();
        Dataset::new(
            "tiny",
            Matrix::Sparse(m),
            (0..10).map(|i| i as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_label_mismatch() {
        let m = CsrMatrix::from_rows(&[], 3).unwrap();
        assert!(Dataset::new("bad", Matrix::Sparse(m), vec![1.0]).is_err());
    }

    #[test]
    fn stats_reports_shape() {
        let s = tiny().stats();
        assert_eq!(s.rows, 10);
        assert_eq!(s.cols, 3);
        assert_eq!(s.nnz, 10);
        assert!((s.density - 10.0 / 30.0).abs() < 1e-12);
        assert!(s.size_mb > 0.0);
    }

    #[test]
    fn sizes_count_four_bytes_per_stored_value() {
        // CSR: `indptr` (8 B per row + 1) and 4 B index + 4 B value per
        // nonzero; labels are `f64`.
        let sparse = tiny();
        assert_eq!(sparse.features().bytes(), 8 * 11 + 8 * 10);
        let mib = 1024.0 * 1024.0;
        assert_eq!(
            sparse.stats().size_mb,
            (8 * 11 + 8 * 10 + 8 * 10) as f64 / mib
        );
        // Dense: 4 B per entry.
        let dense = sparse.densified();
        assert_eq!(dense.features().bytes(), 4 * 10 * 3);
        assert_eq!(dense.stats().size_mb, (4 * 10 * 3 + 8 * 10) as f64 / mib);
    }

    #[test]
    fn partition_covers_all_rows_without_overlap() {
        let d = tiny();
        let blocks = d.partition(4);
        assert_eq!(blocks.len(), 4);
        let total: usize = blocks.iter().map(Block::rows).sum();
        assert_eq!(total, 10);
        let mut seen = [false; 10];
        for b in &blocks {
            for i in 0..b.rows() {
                let g = b.global_row(i) as usize;
                assert!(!seen[g], "row {g} appears twice");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_preserves_rows_and_labels() {
        let d = tiny();
        let blocks = d.partition(3);
        for b in &blocks {
            for i in 0..b.rows() {
                let g = b.global_row(i) as usize;
                assert_eq!(b.labels()[i], d.labels()[g]);
                let w = vec![1.0; 3];
                assert_eq!(b.features().row_dot(i, &w), d.features().row_dot(g, &w));
            }
        }
    }

    #[test]
    fn partition_hands_out_windows_of_the_datasets_own_storage() {
        // `parts > rows` included: one single-row window per row.
        for d in [tiny(), tiny().densified()] {
            for parts in [1, 4, 32] {
                let blocks = d.partition(parts);
                assert_eq!(blocks.len(), parts.min(d.rows()));
                for b in &blocks {
                    let g = b.row_offset();
                    assert_eq!(b.labels().as_ptr(), d.labels()[g..].as_ptr());
                    let (block_row, dataset_row) = match (b.features(), d.features()) {
                        (Matrix::Dense(b), Matrix::Dense(d)) => (b.row(0), d.row(g)),
                        (Matrix::Sparse(b), Matrix::Sparse(d)) => (b.row(0).1, d.row(g).1),
                        _ => panic!("a block keeps its dataset's storage kind"),
                    };
                    assert_eq!(block_row.as_ptr(), dataset_row.as_ptr());
                    assert_eq!(b.global_row(b.rows() - 1) as usize, g + b.rows() - 1);
                    let nnz: usize = (g..g + b.rows()).map(|i| d.features().row_nnz(i)).sum();
                    assert_eq!(b.nnz(), nnz);
                }
            }
        }
    }

    #[test]
    fn more_parts_than_rows_is_fine() {
        let d = tiny();
        let blocks = d.partition(32);
        let total: usize = blocks.iter().map(Block::rows).sum();
        assert_eq!(total, 10);
        assert!(blocks.len() <= 32);
    }

    #[test]
    fn storage_conversions_preserve_the_dataset() {
        let d = tiny();
        let dense = d.densified();
        assert!(matches!(dense.features(), Matrix::Dense(_)));
        assert_eq!(dense.labels(), d.labels());
        let back = dense.sparsified();
        assert!(matches!(back.features(), Matrix::Sparse(_)));
        assert_eq!(back.features().nnz(), d.features().nnz());
        let w = vec![0.5; 3];
        for i in 0..d.rows() {
            assert!((back.features().row_dot(i, &w) - d.features().row_dot(i, &w)).abs() < 1e-15);
        }
    }
}
