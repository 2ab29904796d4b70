//! Span recording for the traced reference loop.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! nothing inside `crates/` is instrumented. A thread records into its own
//! preallocated buffer through a thread-local, so task closures (which the
//! engine requires to be `'static + Send + Sync`) can open spans without
//! capturing a recorder; the simulator runs them on the submitting thread,
//! which nests them under the `core.submit` span that caused them.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names. `LOOP` is the root of one reference-loop run; the rest are
/// one per public call the loop makes into a layer.
pub const PHASES: [&str; 11] = [
    "loop",
    "core.submit",
    "core.collect",
    "core.bcast_resolve",
    "data.sample",
    "optim.grad_kernel",
    "optim.absorb",
    "core.push_snapshot",
    "serve.predict",
    "optim.history",
    "optim.eval_objective",
];
pub const LOOP: u8 = 0;
pub const SUBMIT: u8 = 1;
pub const COLLECT: u8 = 2;
pub const BCAST_RESOLVE: u8 = 3;
pub const SAMPLE: u8 = 4;
pub const GRAD_KERNEL: u8 = 5;
pub const ABSORB: u8 = 6;
pub const PUSH_SNAPSHOT: u8 = 7;
pub const PREDICT: u8 = 8;
pub const HISTORY: u8 = 9;
pub const EVAL_OBJECTIVE: u8 = 10;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub phase: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, `u32::MAX` for a
    /// root.
    pub parent: u32,
    /// Server update the span belongs to: the identifier spans of one
    /// step share.
    pub step: u32,
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    limit: usize,
    open: Vec<u32>,
    step: u32,
    dropped: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on this thread into a buffer of `capacity` spans,
/// timed from `origin` (shared by every thread of one run so their spans
/// line up). Spans past the capacity are counted, not stored.
pub fn start(origin: Instant, capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            origin: Some(origin),
            spans: Vec::with_capacity(capacity),
            limit: capacity,
            ..Recorder::default()
        };
    });
}

/// Stops recording on this thread and returns `(spans, dropped)`.
pub fn finish() -> (Vec<Span>, u64) {
    RECORDER.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        (rec.spans, rec.dropped)
    })
}

/// Tags the spans that follow with server update `step`.
pub fn set_step(step: u32) {
    RECORDER.with(|r| r.borrow_mut().step = step);
}

/// Runs `f` inside a span of `phase`. With recording off this is one
/// thread-local read and a branch.
pub fn span<T>(phase: u8, f: impl FnOnce() -> T) -> T {
    let slot = RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let origin = rec.origin?;
        if rec.spans.len() == rec.limit {
            rec.dropped += 1;
            return None;
        }
        let id = rec.spans.len() as u32;
        let span = Span {
            phase,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.open.last().copied().unwrap_or(NO_PARENT),
            step: rec.step,
        };
        rec.spans.push(span);
        rec.open.push(id);
        Some((id, origin))
    });
    let out = f();
    if let Some((id, origin)) = slot {
        RECORDER.with(|r| {
            let mut rec = r.borrow_mut();
            rec.spans[id as usize].end_ns = origin.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    out
}

/// Per-phase totals over one buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Adds the totals of one buffer to `sums`, indexed like [`PHASES`].
pub fn add_totals(sums: &mut [PhaseTotal; PHASES.len()], spans: &[Span]) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = &mut sums[s.phase as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
}

/// Renders one run's spans as JSON: each thread's buffer is a list of
/// `[phase, start_ns, end_ns, parent, step]` rows, `parent` indexing the
/// same list (`-1` for a root).
pub fn to_json(workload: &str, seed: u64, threads: &[(&str, &[Span])]) -> String {
    let mut out = String::new();
    let phases: Vec<String> = PHASES.iter().map(|p| crate::json::quote(p)).collect();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"phases\": [{}], \"columns\": [\"phase\", \"start_ns\", \"end_ns\", \"parent\", \"step\"], \"threads\": {{",
        crate::json::quote(workload),
        phases.join(", "),
    );
    for (k, (name, spans)) in threads.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: [", crate::json::quote(name));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n[{},{},{},{},{}]",
                s.phase, s.start_ns, s.end_ns, parent, s.step
            );
        }
        out.push(']');
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        assert_eq!(span(SUBMIT, || 7), 7);
        assert!(finish().0.is_empty());

        start(Instant::now(), 8);
        span(SUBMIT, || {
            span(SAMPLE, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (spans, dropped) = finish();
        assert_eq!((spans.len(), dropped), (2, 0));
        assert_eq!(spans[1].parent, 0);
        let mut t = [PhaseTotal::default(); PHASES.len()];
        add_totals(&mut t, &spans);
        assert_eq!(t[SUBMIT as usize].count, 1);
        assert!(t[SAMPLE as usize].self_ns >= 2_000_000);
        assert_eq!(
            t[SUBMIT as usize].self_ns,
            t[SUBMIT as usize].total_ns - t[SAMPLE as usize].total_ns
        );
    }

    #[test]
    fn a_full_buffer_counts_drops() {
        start(Instant::now(), 1);
        span(SUBMIT, || span(SAMPLE, || ()));
        let (spans, dropped) = finish();
        assert_eq!((spans.len(), dropped), (1, 1));
    }
}
