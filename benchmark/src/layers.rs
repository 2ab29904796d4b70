//! The traced run of one workload: the per-layer metrics.
//!
//! Three sources, all outside `crates/`: the microbenchmarks
//! ([`crate::micro`]), the solver run with host accounting around it, and
//! — on the simulator workloads — the reference loop run untraced and
//! traced in alternating rounds with the solver.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

use async_linalg::ParallelismCfg;
use async_optim::SolverCfg;

use crate::measure::{check_threads, window_spent, Ledger, Outcome, MIN_REPS};
use crate::metrics::{Measured, PER_LAYER};
use crate::micro::{self, Effort};
use crate::refloop::{self, LoopRun};
use crate::trace::{self, PhaseTotal, Span, PHASES};
use crate::workloads::{EngineSel, SolverKind, Workload};
use crate::{host, stats};

/// Fewest rounds of (solver, untraced loop, traced loop).
const MIN_ROUNDS: usize = 3;
/// Steps whose spans are written to `out/trace-<workload>.json`.
const SPAN_FILE_STEPS: u32 = 2000;
/// `trace.loop_fidelity` outside this range means the reference loop does
/// not cost what the solver costs, and its phase shares are not trusted.
pub const FIDELITY_RANGE: (f64, f64) = (0.8, 1.25);

fn steps_per_s(run: &LoopRun) -> f64 {
    run.steps as f64 / run.wall_s
}

/// The prefix of the last traced run that covers [`SPAN_FILE_STEPS`]
/// steps; a prefix keeps every parent index valid.
fn write_span_file(w: &Workload, seed: u64, run: &LoopRun) -> Result<(), String> {
    let cut = run
        .spans
        .iter()
        .position(|s| s.step >= SPAN_FILE_STEPS)
        .unwrap_or(run.spans.len());
    let trainer = &run.spans[..cut];
    let until_ns = trainer.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let reader_cut = run
        .reader_spans
        .iter()
        .position(|s| s.start_ns > until_ns)
        .unwrap_or(run.reader_spans.len());
    let threads: [(&str, &[Span]); 2] = [
        ("trainer", trainer),
        ("reader", &run.reader_spans[..reader_cut]),
    ];
    let used = if run.reader_spans.is_empty() { 1 } else { 2 };
    let path = host::out_dir()
        .map_err(|e| format!("cannot create out/: {e}"))?
        .join(format!("trace-{}.json", w.name));
    fs::write(&path, trace::to_json(w.name, seed, &threads[..used]))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `w` traced for about `seconds` and returns every per-layer metric.
pub fn run(w: &Workload, seed: u64, seconds: f64, effort: Effort) -> Result<Outcome, String> {
    check_threads(w)?;
    let t0 = Instant::now();
    let prep = w.prepare(seed);
    let mut value: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut failures = Vec::new();

    value.extend(micro::run(seed, prep.data.cols(), effort));
    let zero = vec![0.0; prep.data.cols()];
    let seq = ParallelismCfg::sequential();
    value.insert(
        "optim.eval_objective_ms",
        effort.ns_per_call(|| {
            std::hint::black_box(w.objective.full_objective(seq, &prep.data, &zero));
        }) / 1e6,
    );

    // ---- rounds: solver, then the reference loop untraced and traced ---
    let has_loop = w.engine == EngineSel::Sim;
    let mut ledger = Ledger::new();
    let (mut plain, mut traced): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    // Self-time totals over everything either thread recorded (the reader
    // records `serve.predict` only).
    let mut totals = [PhaseTotal::default(); PHASES.len()];
    let mut last_traced = None;
    let (mut loop_tasks, mut loop_entries, mut dropped) = (0u64, 0u64, 0u64);
    let least = if has_loop { MIN_ROUNDS } else { MIN_REPS };
    loop {
        let rep = w.run_rep(&prep);
        let solver_objective = rep.report.final_objective;
        ledger.push(w, &prep, None, rep);
        if has_loop {
            for record in [false, true] {
                let run = refloop::run(w, &prep, record);
                if run.final_objective.to_bits() != solver_objective.to_bits() {
                    failures.push(format!(
                        "reference loop ended on objective {} but the solver on {solver_objective}",
                        run.final_objective
                    ));
                }
                if !record {
                    plain.push(steps_per_s(&run));
                    continue;
                }
                traced.push(steps_per_s(&run));
                trace::add_totals(&mut totals, &run.spans);
                trace::add_totals(&mut totals, &run.reader_spans);
                loop_tasks += run.tasks;
                loop_entries += run.entries;
                dropped += run.dropped_spans;
                last_traced = Some(run);
            }
        }
        if window_spent(t0, ledger.reps.len(), least, seconds) {
            break;
        }
    }

    // ---- the solver runs: what the run report and the host can tell ----
    let reps = &ledger.reps;
    let speeds = ledger.speeds();
    for speed in &speeds {
        value.insert(speed.name, speed.value);
    }
    let first = &reps[0].report;
    let tasks = ledger.tasks() as f64;
    value.insert(
        "core.collect_wait_us_per_task",
        reps.iter().map(|r| r.blocked_s).sum::<f64>() * 1e6 / tasks,
    );
    let max_of = |f: &dyn Fn(&crate::workloads::Rep) -> u64| reps.iter().map(f).max().unwrap_or(0);
    value.insert(
        "core.max_staleness",
        max_of(&|r| r.report.max_staleness) as f64,
    );
    value.insert("cluster.modeled_wall_ms", first.wall_clock.as_millis_f64());
    value.insert("cluster.modeled_bytes_shipped", first.bytes_shipped as f64);
    value.insert("cluster.modeled_wait_ms", first.mean_wait.as_millis_f64());
    if w.reader {
        let reads: u64 = reps.iter().map(|r| r.report.serve.reads).sum();
        let refreshes: u64 = reps.iter().map(|r| r.report.serve.refreshes).sum();
        value.insert(
            "serve.refreshes_per_read",
            refreshes as f64 / reads.max(1) as f64,
        );
        value.insert(
            "serve.max_version_lag",
            max_of(&|r| r.report.serve.max_version_lag) as f64,
        );
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| r.reader.rows as f64 / r.wall_s)
            .collect();
        value.insert("serve.read_rows_per_s", stats::median(&rates));
    }
    if w.solver == SolverKind::Asaga {
        // Only the variance-reduced solver closes the gap far enough for
        // the paper's time-to-target; one extra run records the trace.
        let cfg = SolverCfg {
            eval_every: 50,
            ..prep.cfg.clone()
        };
        let report = w.run_plain(&prep, EngineSel::Sim, &cfg);
        match report.trace.time_to_reach(1e-6 * prep.gap0()) {
            Some(t) => {
                value.insert("cluster.modeled_time_to_target_ms", t.as_millis_f64());
            }
            None => failures.push("never reached 1e-6 of the initial gap".to_string()),
        }
    }

    // ---- the traced reference loop -------------------------------------
    if let Some(run) = &last_traced {
        let fidelity = stats::median(&plain) / stats::median(&speeds[0].samples);
        value.insert("trace.loop_fidelity", fidelity);
        value.insert(
            "trace.overhead",
            stats::median(&plain) / stats::median(&traced),
        );
        if !(FIDELITY_RANGE.0..=FIDELITY_RANGE.1).contains(&fidelity) {
            println!(
                "warning: trace.loop_fidelity {fidelity:.3} outside [{}, {}]: phase shares untrusted",
                FIDELITY_RANGE.0, FIDELITY_RANGE.1
            );
        }
        if dropped > 0 {
            println!("warning: {dropped} spans did not fit the preallocated buffers");
        }
        let us = |ns: u64, per: u64| ns as f64 / 1e3 / per.max(1) as f64;
        let of = |phase: u8| totals[phase as usize];
        value.insert(
            "core.submit_us_per_task",
            us(of(trace::SUBMIT).self_ns, loop_tasks),
        );
        let collect = of(trace::COLLECT);
        value.insert(
            "core.collect_us_per_task",
            us(collect.self_ns, collect.count),
        );
        let push = of(trace::PUSH_SNAPSHOT);
        value.insert("core.push_snapshot_us", us(push.total_ns, push.count));
        let resolve = of(trace::BCAST_RESOLVE);
        value.insert("core.bcast_resolve_us", us(resolve.total_ns, resolve.count));
        let kernel = of(trace::GRAD_KERNEL);
        value.insert(
            "optim.grad_kernel_us_per_task",
            us(kernel.total_ns, kernel.count),
        );
        value.insert(
            "optim.grad_ns_per_entry",
            kernel.total_ns as f64 / loop_entries.max(1) as f64,
        );
        let absorb = of(trace::ABSORB);
        value.insert(
            "optim.absorb_us_per_step",
            us(absorb.total_ns, absorb.count),
        );
        value.insert(
            "optim.history_us_per_step",
            us(of(trace::HISTORY).total_ns, absorb.count),
        );

        let h = run.history;
        value.insert(
            "core.patch_share",
            h.incremental_fetches as f64 / h.fetches.max(1) as f64,
        );
        value.insert(
            "core.patch_bytes_per_resolve",
            h.incremental_bytes as f64 / h.incremental_fetches.max(1) as f64,
        );
        value.insert(
            "core.snapshot_fallbacks",
            (h.fetches - h.incremental_fetches) as f64,
        );
        let staleness: Vec<f64> = run.staleness.iter().map(|&s| s as f64).collect();
        value.insert(
            "core.mean_staleness",
            staleness.iter().sum::<f64>() / staleness.len().max(1) as f64,
        );
        value.insert("core.staleness_p99", stats::percentile(&staleness, 99.0));

        let all: u64 = totals.iter().map(|t| t.self_ns).sum();
        for (phase, t) in PHASES.iter().zip(&totals) {
            let name = if *phase == "loop" { "other" } else { phase };
            *value
                .get_mut(format!("trace.phase_share.{name}").as_str())
                .expect("every phase has a share metric") = t.self_ns as f64 / all.max(1) as f64;
        }
        write_span_file(w, seed, run)?;
    }

    let loops = (plain.len() + traced.len()) as u64;
    failures.extend(ledger.failures.iter().cloned());
    Ok(Outcome {
        workload: w.name,
        seed,
        threads: w.threads,
        timed_reps: ledger.reps.len(),
        warmup_reps: 0,
        attempted: ledger.attempted() + loops,
        failed: ledger.failed() + failures.len().saturating_sub(ledger.failures.len()) as u64,
        failures,
        metrics: PER_LAYER
            .iter()
            .map(|m| Measured::single(m.name, m.unit, value[m.name]))
            .collect(),
        reported: Vec::new(),
    })
}
