//! LIBSVM text-format IO.
//!
//! The paper's datasets ship in LIBSVM format (`label idx:val idx:val ...`
//! with 1-based indices). This module parses that format so the
//! real `rcv1_full.binary` / `mnist8m` / `epsilon` files can be used in
//! place of the synthetic analogues.

use std::io::BufReader;
use std::path::Path;

use async_linalg::{CsrMatrix, Matrix, SparseVec};

use crate::dataset::Dataset;
use crate::{Error, Result};

/// Parses LIBSVM text. `dim` forces the feature dimension; pass `None` to
/// infer it from the largest index seen. Values are stored rounded to the
/// nearest `f32`, as [`CsrMatrix::from_rows`] stores them; a value that is
/// not finite, or would overflow `f32`, is an [`Error::Parse`] at its line.
pub fn parse_str(name: &str, text: &str, dim: Option<usize>) -> Result<Dataset> {
    let mut labels = Vec::new();
    let mut rows: Vec<Vec<(u32, f64)>> = Vec::new();
    let mut max_idx = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let label_tok = parts.next().ok_or_else(|| Error::Parse {
            line: lineno + 1,
            msg: "missing label".to_string(),
        })?;
        let label: f64 = label_tok.parse().map_err(|_| Error::Parse {
            line: lineno + 1,
            msg: format!("bad label {label_tok:?}"),
        })?;
        let mut pairs = Vec::new();
        for tok in parts {
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| Error::Parse {
                line: lineno + 1,
                msg: format!("expected idx:val, got {tok:?}"),
            })?;
            let idx: usize = idx_s.parse().map_err(|_| Error::Parse {
                line: lineno + 1,
                msg: format!("bad index {idx_s:?}"),
            })?;
            if idx == 0 {
                return Err(Error::Parse {
                    line: lineno + 1,
                    msg: "LIBSVM indices are 1-based; found 0".to_string(),
                });
            }
            let val: f64 = val_s.parse().map_err(|_| Error::Parse {
                line: lineno + 1,
                msg: format!("bad value {val_s:?}"),
            })?;
            if !(val as f32).is_finite() {
                return Err(Error::Parse {
                    line: lineno + 1,
                    msg: format!("value {val_s:?} is not a finite f32"),
                });
            }
            max_idx = max_idx.max(idx);
            pairs.push(((idx - 1) as u32, val));
        }
        labels.push(label);
        rows.push(pairs);
    }

    let dim = match dim {
        Some(d) => {
            if max_idx > d {
                return Err(Error::Invalid(format!(
                    "declared dim {d} smaller than max index {max_idx}"
                )));
            }
            d
        }
        None => max_idx,
    };

    let sparse_rows = rows
        .into_iter()
        .map(|p| SparseVec::from_pairs(p, dim))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let m = CsrMatrix::from_rows(&sparse_rows, dim)?;
    Dataset::new(name, Matrix::Sparse(m), labels)
}

/// Reads a LIBSVM file from disk.
pub fn read_file(path: impl AsRef<Path>, dim: Option<usize>) -> Result<Dataset> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("libsvm")
        .to_string();
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut text = String::new();
    use std::io::Read;
    reader.read_to_string(&mut text)?;
    parse_str(&name, &text, dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1 1:0.5 3:1.25
-1 2:2.0
# a comment line

1 1:1.0 4:4.0
";

    #[test]
    fn parses_basic_file() {
        let d = parse_str("sample", SAMPLE, None).unwrap();
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 4);
        assert_eq!(d.labels(), &[1.0, -1.0, 1.0]);
        assert_eq!(d.features().row_dot(0, &[1.0, 0.0, 1.0, 0.0]), 0.5 + 1.25);
    }

    #[test]
    fn forced_dim_is_respected() {
        let d = parse_str("sample", SAMPLE, Some(10)).unwrap();
        assert_eq!(d.cols(), 10);
        assert!(parse_str("sample", SAMPLE, Some(2)).is_err());
    }

    #[test]
    fn rejects_zero_index_and_garbage() {
        assert!(parse_str("x", "1 0:1.0", None).is_err());
        assert!(parse_str("x", "abc 1:1.0", None).is_err());
        assert!(parse_str("x", "1 1-2", None).is_err());
        assert!(parse_str("x", "1 1:xyz", None).is_err());
    }

    #[test]
    fn values_are_stored_as_the_nearest_f32() {
        let d = parse_str("x", "1 1:0.1 3:-2.5e-3", None).unwrap();
        let Matrix::Sparse(m) = d.features() else {
            panic!("LIBSVM parses to CSR");
        };
        assert_eq!(m.row(0).1, &[0.1f32, -2.5e-3]);
        assert_eq!(d.features().row_dot(0, &[1.0, 0.0, 0.0]), f64::from(0.1f32));
    }

    #[test]
    fn non_finite_and_overflowing_values_are_refused_at_their_line() {
        // Each hostile token on line 3, behind a comment and a good row.
        for tok in ["1e300", "-3.5e38", "inf", "-inf", "nan", "NaN", "infinity"] {
            let text = format!("# header\n1 1:0.5\n-1 2:1.0 3:{tok}\n1 1:2.0\n");
            match parse_str("x", &text, None) {
                Err(Error::Parse { line, .. }) => assert_eq!(line, 3, "{tok}"),
                other => panic!("{tok}: {other:?}"),
            }
        }
        // The largest f32 and a subnormal are representable.
        assert!(parse_str("x", "1 1:3.4028234e38 2:1e-40", None).is_ok());
    }

    #[test]
    fn duplicate_indices_are_summed() {
        let d = parse_str("x", "1 2:1.0 2:3.0", None).unwrap();
        assert_eq!(d.features().row_dot(0, &[0.0, 1.0]), 4.0);
    }

    #[test]
    fn round_trips_through_disk() {
        let d = parse_str("sample", SAMPLE, None).unwrap();
        let dir =
            std::env::temp_dir().join(format!("async_data_libsvm_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.svm");
        std::fs::write(&path, SAMPLE).unwrap();
        let back = read_file(&path, Some(d.cols())).unwrap();
        assert_eq!(back.rows(), d.rows());
        assert_eq!(back.labels(), d.labels());
        for i in 0..d.rows() {
            let w: Vec<f64> = (0..d.cols()).map(|j| (j + 1) as f64).collect();
            assert!((back.features().row_dot(i, &w) - d.features().row_dot(i, &w)).abs() < 1e-12);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_input_gives_empty_dataset() {
        let d = parse_str("empty", "", Some(5)).unwrap();
        assert_eq!(d.rows(), 0);
        assert_eq!(d.cols(), 5);
    }
}
