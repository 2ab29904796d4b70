//! # async-bench
//!
//! Experiment harnesses reproducing the paper's measurements on the
//! simulated cluster. Each bench is one module: its `Cfg`, its run
//! function, and a `doc()` that lays the outcome out as a [`BenchDoc`].
//! The one printer in [`doc`] turns that into the bytes of a committed
//! `BENCH_<name>.json`; every number is on the modeled clock, so for a
//! fixed configuration every byte is deterministic, which is what makes
//! the files diffable across PRs. Host wall clock is measured in one
//! place, the `benchmark/` harness at the repository root.
//!
//! Adding a bench: a module with a `doc()`, one row in [`BENCHES`], one
//! committed `BENCH_<name>.json` — CI regenerates and diffs every row.

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

/// A bench's name and its run at the default (committed) configuration.
pub type Bench = (&'static str, fn() -> BenchDoc);

/// Every bench, sorted by name: the `bench` binary's subcommand table.
pub const BENCHES: [Bench; 9] = [
    ("async_vs_bsp", || {
        async_vs_bsp::run_async_vs_bsp(Default::default()).doc()
    }),
    ("comm_compress", || {
        comm_compress::run_comm_compress(Default::default()).doc()
    }),
    ("durable_recovery", || {
        durable_recovery::run_durable_recovery(Default::default()).doc()
    }),
    ("elastic_chaos", || {
        elastic_chaos::run_elastic_chaos(Default::default()).doc()
    }),
    ("fault_recovery", || {
        fault_recovery::run_fault_recovery(Default::default()).doc()
    }),
    ("hotpath", || hotpath::run_hotpath(Default::default()).doc()),
    ("serve_qps", || {
        serve_qps::run_serve_qps(Default::default()).doc()
    }),
    ("server_scaling", || {
        server_scaling::run_server_scaling(Default::default()).doc()
    }),
    ("sparse_fastpath", || {
        sparse_fastpath::run_sparse_fastpath(Default::default()).doc()
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
