//! Property test of the history broadcast's flat per-sample version table
//! against a `HashMap` oracle written from the table's rules: random
//! `record_use` / `pin` / `unpin` / `push` sequences, on fresh and re-seated
//! (`new_at`) tables, must agree on every sample's version and on which
//! versions are live after every step — so on the order they are pruned in —
//! and the table may hold no slot below the oldest live version.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use async_core::AsyncBcast;
use proptest::prelude::*;

/// What the table must behave like: a `HashMap` from sample to the version
/// it last saw (absent = the base), per-version pins (ordered, so a case
/// replays exactly), and the live set every version leaves the moment
/// nothing can reference it any more.
struct Oracle {
    base: u64,
    universe: u64,
    latest: u64,
    index_version: HashMap<u64, u64>,
    pins: BTreeMap<u64, u64>,
    live: BTreeSet<u64>,
}

impl Oracle {
    fn new(base: u64, universe: u64) -> Self {
        Self {
            base,
            universe,
            latest: base,
            index_version: HashMap::new(),
            pins: BTreeMap::new(),
            live: BTreeSet::from([base]),
        }
    }

    fn version_for_index(&self, idx: u64) -> u64 {
        self.index_version.get(&idx).copied().unwrap_or(self.base)
    }

    /// A version goes once it is not the latest, no sample references it
    /// (never-recorded samples reference the base), and no pin holds it.
    fn prunable(&self, v: u64) -> bool {
        let implicit_base = v == self.base && (self.index_version.len() as u64) < self.universe;
        v != self.latest
            && !implicit_base
            && !self.index_version.values().any(|&iv| iv == v)
            && self.pins.get(&v).copied().unwrap_or(0) == 0
    }

    fn settle(&mut self) {
        let gone: Vec<u64> = self
            .live
            .iter()
            .copied()
            .filter(|&v| self.prunable(v))
            .collect();
        for v in gone {
            self.live.remove(&v);
        }
    }

    /// The `pick`-th live version, cycling.
    fn live_version(&self, pick: u64) -> u64 {
        let live: Vec<u64> = self.live.iter().copied().collect();
        live[(pick % live.len() as u64) as usize]
    }
}

fn check(b: &AsyncBcast<Vec<f64>>, o: &Oracle, step: usize) -> Result<(), String> {
    let stats = b.stats();
    prop_assert!(
        stats.versions_live == o.live.len() as u64,
        "step {}: {} live versions, oracle {:?}",
        step,
        stats.versions_live,
        o.live
    );
    // The table holds the live span, not the history: pruned slots below
    // the oldest live version are gone.
    let span = o.latest - o.live.first().copied().unwrap_or(o.latest) + 1;
    prop_assert!(
        stats.version_slots <= span,
        "step {}: {} slots, live span {} of oracle {:?}",
        step,
        stats.version_slots,
        span,
        o.live
    );
    for v in o.base..=o.latest {
        let live = b.try_pin_read_at(v).is_some();
        prop_assert!(
            live == o.live.contains(&v),
            "step {}: version {} live = {}, oracle {:?}",
            step,
            v,
            live,
            o.live
        );
    }
    let all: Vec<u64> = (0..o.universe).collect();
    let mut batch = Vec::new();
    b.versions_for_indices(all.iter().copied(), &mut batch);
    for &idx in &all {
        let want = o.version_for_index(idx);
        prop_assert!(
            b.version_for_index(idx) == want && batch[idx as usize] == want,
            "step {}: sample {} reads {} / {} in a batch, oracle {}",
            step,
            idx,
            b.version_for_index(idx),
            batch[idx as usize],
            want
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn flat_version_table_matches_a_hashmap_oracle(
        base_pick in 0usize..3,
        universe in 0u64..7,
        ops in proptest::collection::vec((0u8..4, 0u64..u64::MAX, 0u64..u64::MAX), 0usize..60),
    ) {
        let base = [0, 7, 1_000][base_pick];
        let b: AsyncBcast<Vec<f64>> = AsyncBcast::new_at(0, vec![0.0; 2], universe, base);
        let mut o = Oracle::new(base, universe);
        check(&b, &o, 0)?;
        for (step, &(kind, a, pick)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    o.latest = b.push(vec![o.latest as f64; 2]);
                    o.live.insert(o.latest);
                }
                1 => {
                    // The samples whose bit is set in `a`, at a live version.
                    let indices: Vec<u64> = (0..universe).filter(|i| a >> i & 1 == 1).collect();
                    let v = o.live_version(pick);
                    b.record_use(&indices, v);
                    for idx in indices {
                        o.index_version.insert(idx, v);
                    }
                }
                2 => {
                    let v = o.live_version(pick);
                    b.pin(v);
                    *o.pins.entry(v).or_insert(0) += 1;
                }
                _ => {
                    let pinned: Vec<u64> =
                        o.pins.iter().filter(|&(_, &n)| n > 0).map(|(&v, _)| v).collect();
                    if pinned.is_empty() {
                        continue;
                    }
                    let v = pinned[(pick % pinned.len() as u64) as usize];
                    b.unpin(v);
                    *o.pins.get_mut(&v).expect("pinned") -= 1;
                }
            }
            o.settle();
            check(&b, &o, step + 1)?;
        }
    }
}
