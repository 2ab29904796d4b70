//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! with a verdict against the metric's bound. A is the baseline.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, CPU_US_PER_STEP, END_TO_END, SPEED_BOUND, STEPS_PER_S};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between repetitions is wider than the bound and the two
    /// sides overlap: neither "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric from each side's samples.
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = match def.better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let spread = |v: &[f64], med: f64| {
        let (q1, q3) = stats::quartiles(v);
        (q3 - q1) / med.abs()
    };
    if spread(a, med_a).max(spread(b, med_b)) <= def.bound {
        return if worse_by > def.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // Too noisy for the bound: only a clean separation decides.
    let lo_hi = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((lo_a, hi_a), (lo_b, hi_b)) = (lo_hi(a), lo_hi(b));
    let (b_all_better, b_all_worse) = match def.better {
        Better::Lower => (hi_b < lo_a, lo_b > hi_a),
        Better::Higher => (lo_b > hi_a, hi_b < lo_a),
    };
    if b_all_better {
        Verdict::Ok
    } else if b_all_worse && worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// A metric's samples in a result file (a single-valued metric has only
/// its `value`).
fn samples(workload: &Value, group: &str, metric: &str) -> Vec<f64> {
    let Some(m) = workload.get(group).and_then(|g| g.get(metric)) else {
        return Vec::new();
    };
    match m.get("values") {
        Some(values) => values.as_arr().iter().filter_map(Value::as_f64).collect(),
        None => m.get("value").and_then(Value::as_f64).into_iter().collect(),
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison table; `Ok(true)` when nothing regressed and no
/// workload's failed share rose.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads_a = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{path_a}: no \"workloads\" object"))?;
    let mut clean = true;
    println!(
        "{:<26} {:<24} {:>13} {:>25} {:>13} {:>25} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound"
    );
    for (name, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<26} missing from {path_b}");
            clean = false;
            continue;
        };
        // The gated metrics, then the two speed figures, which are
        // judged the same way but never fail the comparison.
        let speeds = [STEPS_PER_S, CPU_US_PER_STEP].map(|m| EndToEnd {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: SPEED_BOUND,
        });
        let rows = END_TO_END
            .iter()
            .map(|def| (def, "metrics", true))
            .chain(speeds.iter().map(|def| (def, "reported", false)));
        for (def, group, gated) in rows {
            let (sa, sb) = (samples(wa, group, def.name), samples(wb, group, def.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{name:<26} {:<24} missing on one side", def.name);
                clean &= !gated;
                continue;
            }
            let v = verdict(def, &sa, &sb);
            clean &= !gated || v != Verdict::Regressed;
            let (qa, qb) = (stats::quartiles(&sa), stats::quartiles(&sb));
            println!(
                "{name:<26} {:<24} {:>13.6} {:>25} {:>13.6} {:>25} {:>6}  {}{}",
                def.name,
                stats::median(&sa),
                format!("[{:.6}, {:.6}]", qa.0, qa.1),
                stats::median(&sb),
                format!("[{:.6}, {:.6}]", qb.0, qb.1),
                def.bound,
                v.as_str(),
                if gated { "" } else { " (not gated)" },
            );
        }
        let share = |w: &Value| w.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (share(wa), share(wb));
        let failed_verdict = if fb > fa { "regressed" } else { "ok" };
        clean &= fb <= fa;
        println!(
            "{name:<26} {:<24} {fa:>13.6} {:>25} {fb:>13.6} {:>25} {:>6}  {failed_verdict}",
            "failed_share", "", "", 0
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEPS: EndToEnd = EndToEnd {
        name: STEPS_PER_S.name,
        unit: STEPS_PER_S.unit,
        better: STEPS_PER_S.better,
        bound: SPEED_BOUND,
    };

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(
            verdict(&STEPS, &a, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&STEPS, &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Ok
        );
        // Tight runs, median worse by more than the bound.
        assert_eq!(
            verdict(&STEPS, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Regressed
        );
        // Spread wider than the bound and overlapping: nothing can be said.
        let noisy = [100.0, 60.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&STEPS, &noisy, &[90.0, 50.0, 130.0, 70.0, 110.0]),
            Verdict::Unresolved
        );
        // Noisy but cleanly separated.
        assert_eq!(
            verdict(&STEPS, &noisy, &[300.0, 200.0, 400.0, 250.0, 350.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&STEPS, &noisy, &[30.0, 20.0, 40.0, 25.0, 35.0]),
            Verdict::Regressed
        );
    }
}
