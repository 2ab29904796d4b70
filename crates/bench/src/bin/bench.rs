//! Regenerates the committed `BENCH_<name>.json` datapoints.
//!
//! Usage: `cargo run --release -p async-bench --bin bench -- <name> [out.json]`
//! (default `BENCH_<name>.json` in the current directory), or
//! `... --bin bench -- all [dir]` for every bench into `dir` (default the
//! current directory). Each bench prints its headline to stderr; every
//! byte written is deterministic — CI gates each file with a plain `diff`.

use std::path::{Path, PathBuf};

use async_bench::{BenchDoc, BENCHES};

fn emit(name: &str, run: fn() -> BenchDoc, out: &Path) {
    std::fs::write(out, run().render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    eprintln!("{name}: -> {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, path) = match &args[..] {
        [name] => (name.as_str(), None),
        [name, path] => (name.as_str(), Some(PathBuf::from(path))),
        _ => ("", None),
    };
    if name == "all" {
        let dir = path.unwrap_or_else(|| PathBuf::from("."));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        for (name, run) in BENCHES {
            emit(name, run, &dir.join(format!("BENCH_{name}.json")));
        }
    } else if let Some(&(name, run)) = BENCHES.iter().find(|(n, _)| *n == name) {
        let out = path.unwrap_or_else(|| PathBuf::from(format!("BENCH_{name}.json")));
        emit(name, run, &out);
    } else {
        let known: Vec<&str> = BENCHES.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "usage: bench <name>|all [path]\nknown benches: {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
}
