//! Deterministic mini-batch sampling.
//!
//! Every algorithm in the paper samples a fraction `b` of rows per task
//! (§2, eq. 5). For reproducibility we derive the sampling RNG from
//! `(seed, iteration, partition)` with a splitmix-style hash, so a run is a
//! pure function of its configuration regardless of execution interleaving.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mixes `(seed, iteration, partition)` into an independent RNG stream.
///
/// Uses the splitmix64 finalizer twice, which is the standard way to derive
/// uncorrelated streams from structured keys.
pub fn derive_rng(seed: u64, iteration: u64, partition: u64) -> SmallRng {
    let mut z = seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ partition.rotate_left(32);
    z = splitmix64(z);
    z = splitmix64(z);
    SmallRng::seed_from_u64(z)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples exactly `k ≤ n` distinct rows from `0..n`, sorted ascending.
/// Uses Floyd's algorithm: `O(k)` draws, no `O(n)` shuffle.
pub fn sample_k(rng: &mut SmallRng, n: usize, k: usize) -> Vec<u32> {
    assert!(k <= n, "sample_k: k={k} > n={n}");
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in n - k..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut rows: Vec<u32> = chosen.into_iter().map(|i| i as u32).collect();
    rows.sort_unstable();
    rows
}

/// Samples `⌈fraction·n⌉` distinct rows from `0..n` without replacement
/// (at least 1 when `n > 0`) into a caller-owned buffer, sorted ascending:
/// `rows` is cleared and refilled, so a warm buffer makes per-task sampling
/// allocation-free. `fraction` is clamped to `[0, 1]`.
pub fn sample_fraction_into(rng: &mut SmallRng, n: usize, fraction: f64, rows: &mut Vec<u32>) {
    if n == 0 {
        rows.clear();
        return;
    }
    let fraction = fraction.clamp(0.0, 1.0);
    let k = ((fraction * n as f64).ceil() as usize).clamp(1, n);
    sample_k_into(rng, n, k, rows);
}

/// [`sample_k`] into a caller-owned buffer, identical in draws, set and
/// order but allocation-free once warm. Floyd's membership set is a 512-byte
/// stack bitmap for `n ≤ 4096` (read back sorted word by word), else the
/// sorted output itself (an `O(k)` ordered insert per draw); batches past
/// 1024 rows delegate to [`sample_k`], whose one allocation is noise then.
pub fn sample_k_into(rng: &mut SmallRng, n: usize, k: usize, rows: &mut Vec<u32>) {
    assert!(k <= n, "sample_k_into: k={k} > n={n}");
    const BITMAP_MAX: usize = 64 * 64;
    const INSERT_SORT_MAX: usize = 1024;
    rows.clear();
    if n <= BITMAP_MAX {
        let mut chosen = [0u64; BITMAP_MAX / 64];
        for j in n - k..n {
            // `t` already chosen: Floyd's replacement picks `j`.
            let t = rng.gen_range(0..=j);
            let taken = chosen[t / 64] >> (t % 64) & 1 == 1;
            let pick = if taken { j } else { t };
            chosen[pick / 64] |= 1 << (pick % 64);
        }
        for (w, &word) in chosen[..n.div_ceil(64)].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                rows.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        return;
    }
    if k > INSERT_SORT_MAX {
        rows.extend_from_slice(&sample_k(rng, n, k));
        return;
    }
    for j in n - k..n {
        let t = rng.gen_range(0..=j) as u32;
        match rows.binary_search(&t) {
            // `t` already chosen: Floyd's replacement picks `j`, which is
            // strictly greater than every element chosen so far.
            Ok(_) => rows.push(j as u32),
            Err(pos) => rows.insert(pos, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_rng_is_deterministic_and_key_sensitive() {
        let a = sample_k(&mut derive_rng(1, 2, 3), 100, 10);
        let b = sample_k(&mut derive_rng(1, 2, 3), 100, 10);
        assert_eq!(a, b);
        let c = sample_k(&mut derive_rng(1, 2, 4), 100, 10);
        let d = sample_k(&mut derive_rng(1, 3, 3), 100, 10);
        assert!(
            a != c || a != d,
            "distinct keys should give distinct streams"
        );
    }

    #[test]
    fn sample_k_gives_distinct_sorted_in_range() {
        let mut rng = derive_rng(7, 0, 0);
        for _ in 0..100 {
            let rows = sample_k(&mut rng, 50, 12);
            assert_eq!(rows.len(), 12);
            for w in rows.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(rows.iter().all(|&r| (r as usize) < 50));
        }
    }

    #[test]
    fn sample_k_full_population() {
        let mut rng = derive_rng(7, 0, 0);
        assert_eq!(sample_k(&mut rng, 10, 10), (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn sample_fraction_sizes() {
        let mut rng = derive_rng(9, 0, 0);
        let mut len = |n, fraction| {
            let mut rows = vec![u32::MAX];
            sample_fraction_into(&mut rng, n, fraction, &mut rows);
            rows.len()
        };
        assert_eq!(len(100, 0.1), 10);
        assert_eq!(len(100, 0.0), 1); // min 1
        assert_eq!(len(100, 1.0), 100);
        assert_eq!(len(0, 0.5), 0);
        assert_eq!(len(7, 0.01), 1);
    }

    #[test]
    fn into_variants_match_allocating_samplers_exactly() {
        let mut buf = Vec::new();
        // Spans every regime of sample_k_into: the stack bitmap up to
        // n = 4096 (word boundaries at 63/64/65), the ordered insert past
        // it, and the large-batch hash-set delegation past k = 1024.
        for n in [1usize, 10, 63, 64, 65, 97, 200, 1024, 4096, 4097, 5_000] {
            for k in [0, 1, 3, n / 3, n / 2, n - 1, n] {
                if k > n {
                    continue;
                }
                for seed in 0..8u64 {
                    let a = sample_k(&mut derive_rng(seed, 0, 0), n, k);
                    sample_k_into(&mut derive_rng(seed, 0, 0), n, k, &mut buf);
                    assert_eq!(a, buf, "n={n} k={k} seed={seed}");
                }
            }
        }
        // The fraction form is `sample_k` at `k = ⌈fraction·n⌉`, at least 1.
        for (frac, k) in [(0.0, 1), (0.05, 4), (0.3, 22), (1.0, 73)] {
            for seed in 0..10u64 {
                let a = sample_k(&mut derive_rng(seed, 1, 2), 73, k);
                sample_fraction_into(&mut derive_rng(seed, 1, 2), 73, frac, &mut buf);
                assert_eq!(a, buf, "frac={frac} seed={seed}");
            }
        }
        sample_fraction_into(&mut derive_rng(0, 0, 0), 0, 0.5, &mut buf);
        assert!(buf.is_empty());
    }
}
