//! `asyncbench`: the repo's benchmark. See `benchmark/README.md`.
//!
//! Two ways in. The driver's contract form measures one workload:
//! `asyncbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! and ends its standard output with one JSON line. The subcommands `run`,
//! `trace`, `compare` and `smoke` are the same measurements for people:
//! every workload in a fresh process each, a result file, a comparison.

mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod micro;
mod refloop;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use measure::Outcome;
use metrics::{Measured, END_TO_END, PER_LAYER};
use micro::Effort;
use workloads::Scale;

const USAGE: &str = "usage:
  asyncbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  asyncbench run   [--seed <n>] [--seconds <s>]   all workloads untraced, result file in out/
  asyncbench trace [--seed <n>] [--seconds <s>]   all workloads traced, span files in out/
  asyncbench compare <A.json> <B.json>            B against baseline A
  asyncbench smoke                                tiny budgets, every check, name check
  asyncbench manifest                             print BENCHMARK.json from the program's tables";

/// Seconds one workload measures under `run` and `trace` by default; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

/// The detail object of one outcome: provenance, every metric with its
/// quartiles and samples, the failure accounting.
fn detail_json(o: &Outcome, traced: bool) -> String {
    let object = |metrics: &[Measured]| -> String {
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                let head = format!(
                    "{}: {{\"unit\": {}, \"value\": {}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    json::num(m.value)
                );
                if m.samples.len() == 1 {
                    return format!("{head}}}");
                }
                let values: Vec<String> = m.samples.iter().map(|&v| json::num(v)).collect();
                format!(
                    "{head}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                    json::num(m.q1),
                    json::num(m.q3),
                    m.samples.len(),
                    values.join(", "),
                )
            })
            .collect();
        fields.join(", ")
    };
    let failures: Vec<String> = o.failures.iter().map(|f| json::quote(f)).collect();
    format!(
        "{{\"workload\": {}, \"traced\": {traced}, {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"correct\": {}, \"failures\": [{}], \"metrics\": {{{}}}, \"reported\": {{{}}}}}",
        json::quote(o.workload),
        host::provenance_fields(o.seed, o.timed_reps, o.warmup_reps, o.threads),
        o.attempted,
        o.failed,
        json::num(o.failed as f64 / o.attempted.max(1) as f64),
        o.correct(),
        failures.join(", "),
        object(&o.metrics),
        object(&o.reported),
    )
}

/// The contract's result line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn print_outcome(o: &Outcome) {
    println!(
        "workload {} seed {}: {} timed reps, {} warm-up reps discarded, {} threads",
        o.workload, o.seed, o.timed_reps, o.warmup_reps, o.threads
    );
    for m in o.metrics.iter().chain(&o.reported) {
        print!("  {:<40} {:>16.6} {:<6}", m.name, m.value, m.unit);
        match m.samples.len() {
            1 => println!(),
            n => println!(
                " of {n}: median {:.6}, quartiles [{:.6}, {:.6}]",
                stats::median(&m.samples),
                m.q1,
                m.q3
            ),
        }
    }
    println!(
        "  failed {} of {} attempted; checks {}",
        o.failed,
        o.attempted,
        if o.correct() { "pass" } else { "FAIL" }
    );
    for f in &o.failures {
        println!("  check failed: {f}");
    }
}

/// The contract form: human-readable lines, the detail line, the result
/// line last.
fn contract(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let seed = flag(args, "--seed")?.unwrap_or(1u64);
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let w = workloads::by_name(&name, Scale::Full)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let outcome = if traced {
        layers::run(&w, seed, seconds, Effort::FULL)?
    } else {
        measure::run(&w, seed, seconds)?
    };
    print_outcome(&outcome);
    println!("{}", detail_json(&outcome, traced));
    println!("{}", result_json(&outcome));
    Ok(outcome.correct())
}

/// `run` / `trace`: each workload in a fresh process (so peak memory and
/// allocator state do not carry over), details gathered into one file.
fn all_workloads(args: &[String], traced: bool) -> Result<bool, String> {
    let seed = flag(args, "--seed")?.unwrap_or(1u64);
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut details = Vec::new();
    let mut correct = true;
    for w in workloads::all(Scale::Full) {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        correct &= out.status.success();
        // The last two lines are the detail and the contract result.
        lines.pop();
        match lines.pop() {
            Some(detail) if detail.starts_with('{') => {
                details.push(format!("{}: {detail}", json::quote(w.name)));
            }
            _ => return Err(format!("workload {} printed no result", w.name)),
        }
        println!("{}", lines.join("\n"));
    }
    let kind = if traced { "trace" } else { "run" };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = host::out_dir()
        .map_err(|e| format!("cannot create out/: {e}"))?
        .join(format!("{kind}-seed{seed}-{stamp}.json"));
    let doc = format!(
        "{{\"kind\": {}, \"seed\": {seed}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        json::quote(kind),
        json::num(seconds),
        details.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// `smoke`: every workload, check and metric name at tiny budgets, and
/// the names against `BENCHMARK.json`.
fn smoke() -> Result<bool, String> {
    let mut correct = true;
    for w in workloads::all(Scale::Smoke) {
        for outcome in [
            measure::run(&w, 7, 0.1)?,
            layers::run(&w, 7, 0.1, Effort::SMOKE)?,
        ] {
            print_outcome(&outcome);
            correct &= outcome.correct();
        }
    }
    check_names()?;
    println!("names, units, directions and bounds match BENCHMARK.json");
    Ok(correct)
}

/// `manifest`: the text of `BENCHMARK.json`, from the tables this program
/// measures by, so the two cannot drift apart unnoticed (`smoke` checks).
fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        rows(workloads::all(Scale::Full)
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", json::quote(w.name), json::quote(w.why)))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::num(m.bound)
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            ))
            .collect()),
    )
}

/// `BENCHMARK.json` must list exactly the workloads and metrics this
/// program emits, within the driver's caps.
fn check_names() -> Result<(), String> {
    let path = host::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .map_or(&[][..], json::Value::as_arr)
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| match entry.get(f) {
                        Some(json::Value::Str(s)) => s.clone(),
                        Some(json::Value::Num(n)) => json::num(*n),
                        _ => String::new(),
                    })
                    .collect()
            })
            .collect()
    };
    let expect = |what: &str, listed: Vec<Vec<String>>, ours: Vec<Vec<String>>, cap: usize| {
        if listed != ours {
            return Err(format!(
                "BENCHMARK.json {what} differ from the program's:\n{listed:?}\n{ours:?}"
            ));
        }
        if ours.len() > cap {
            return Err(format!("{} {what}, cap is {cap}", ours.len()));
        }
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        match ours
            .iter()
            .find(|row| !row[0].chars().all(legal) || row[0].len() > 64 || row[1].len() > 200)
        {
            Some(row) => Err(format!("illegal name or over-long text in {row:?}")),
            None => Ok(()),
        }
    };
    expect(
        "workloads",
        listed("workloads", &["name", "why"]),
        workloads::all(Scale::Full)
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect(),
        8,
    )?;
    expect(
        "end_to_end metrics",
        listed("end_to_end", &["name", "unit", "better", "bound"]),
        END_TO_END
            .iter()
            .map(|m| {
                vec![
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    json::num(m.bound),
                ]
            })
            .collect(),
        16,
    )?;
    expect(
        "per_layer metrics",
        listed("per_layer", &["name", "unit", "better"]),
        PER_LAYER
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.as_str().into()])
            .collect(),
        128,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("smoke") => smoke(),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => contract(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The whole benchmark at tiny budgets: every workload, every check,
    /// a traced run each, and the metric names against `BENCHMARK.json`.
    #[test]
    fn smoke_passes() {
        assert_eq!(super::smoke(), Ok(true));
    }
}
