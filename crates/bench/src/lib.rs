//! # async-bench
//!
//! Experiment harnesses reproducing the paper's measurements on the
//! simulated cluster. Every bench runs a [`workload::Scenario`] — data,
//! objective, cluster, solver configuration — through one run path, and a
//! `doc()` lays the outcome out as a [`BenchDoc`]. The one printer in
//! [`doc`] turns that into the bytes of a committed `BENCH_<name>.json`;
//! every number is on the modeled clock, so for a fixed configuration
//! every byte is deterministic, which is what makes the files diffable
//! across PRs. Host wall clock is measured in one place, the `benchmark/`
//! harness at the repository root. The JSON is the record: the library
//! prints nothing.
//!
//! Adding a bench: a module with a `scenario()` returning its committed
//! [`workload::Scenario`], the few values only it varies (a `Params` and
//! its `PARAMS`), a `run_*` whose arms override only what they vary
//! ([`workload::Scenario::arm`]), and a `doc()`; one row in [`BENCHES`];
//! one committed `BENCH_<name>.json` — CI regenerates and diffs every
//! row. Its tests run at `workload::small` of the scenario.

pub mod async_vs_bsp;
pub mod comm_compress;
pub mod doc;
pub mod durable_recovery;
pub mod elastic_chaos;
pub mod fault_recovery;
pub mod hotpath;
pub mod serve_qps;
pub mod server_scaling;
pub mod sparse_fastpath;
pub mod workload;

pub use doc::BenchDoc;

/// A bench's name and its run at the committed configuration.
pub type Bench = (&'static str, fn() -> BenchDoc);

/// Every bench, sorted by name: the `bench` binary's subcommand table.
pub const BENCHES: [Bench; 9] = [
    ("async_vs_bsp", || {
        use async_vs_bsp::*;
        run_async_vs_bsp(scenario(), PARAMS).doc()
    }),
    ("comm_compress", || {
        use comm_compress::*;
        run_comm_compress(scenario(), PARAMS).doc()
    }),
    ("durable_recovery", || {
        use durable_recovery::*;
        run_durable_recovery(scenario(), PARAMS).doc()
    }),
    ("elastic_chaos", || {
        use elastic_chaos::*;
        run_elastic_chaos(scenario(), PARAMS).doc()
    }),
    ("fault_recovery", || {
        use fault_recovery::*;
        run_fault_recovery(scenario(), PARAMS).doc()
    }),
    ("hotpath", || {
        use hotpath::*;
        run_hotpath(scenario(), PARAMS).doc()
    }),
    ("serve_qps", || {
        use serve_qps::*;
        run_serve_qps(scenario(), PARAMS).doc()
    }),
    ("server_scaling", || {
        use server_scaling::*;
        run_server_scaling(scenario()).doc()
    }),
    ("sparse_fastpath", || {
        use sparse_fastpath::*;
        run_sparse_fastpath(scenario(), PARAMS).doc()
    }),
];

#[cfg(test)]
mod tests {
    use super::BENCHES;

    /// CI byte-gates `bench all` against the committed files; a table row
    /// without a file (or a file without a row) would be ungated.
    #[test]
    fn the_table_and_the_committed_files_name_the_same_benches() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut committed: Vec<String> = std::fs::read_dir(root)
            .expect("workspace root")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        committed.sort();
        let table: Vec<String> = BENCHES
            .iter()
            .map(|(name, _)| format!("BENCH_{name}.json"))
            .collect();
        assert_eq!(table, committed, "BENCHES is sorted by name");
    }
}
