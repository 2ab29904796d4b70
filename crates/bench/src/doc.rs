//! The one document type behind every committed `BENCH_<name>.json`, and
//! its one printer.
//!
//! A [`BenchDoc`] is an ordered JSON object; a bench builds it one
//! `"key": value` line per emitted key (`bench_doc!`, or `.put` where the
//! key is computed), so every key sits next to its value. The whole
//! layout of the committed files is three rules:
//!
//! 1. an **object** under a key is multi-line at a 2-space indent;
//! 2. an **inline** array ([`Value::inline`]) is one line, and everything
//!    inside it is compact — `worker_clocks`, the `[[ms, err], ..]`
//!    traces, the `{"at_ms": .., "action": "kill", "worker": 6}` rows;
//! 3. a **block** array ([`Value::block`]) holds one multi-line object per
//!    element — `sim_arms`.
//!
//! Every value is a pure function of the bench's configuration — no key
//! carries a host-clock reading — so CI gates each file with a plain
//! `diff` against a fresh run.

use async_cluster::VTime;
use async_optim::RunReport;

/// `bench_doc! { "key": value, .. }` is `BenchDoc::new().put("key", value)..`,
/// written the way it prints: one line per emitted key.
macro_rules! bench_doc {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::doc::BenchDoc::new()$(.put($key, $value))*
    };
}
pub(crate) use bench_doc;

/// A JSON value in one of the layouts the committed files use.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned count.
    U64(u64),
    /// A signed integer (`"worker": -1` on a join).
    I64(i64),
    /// A measurement: `{:.6}`, non-finite as `null` (JSON has neither NaN
    /// nor infinity).
    F64(f64),
    /// A verdict.
    Bool(bool),
    /// A string; `"`, `\` and control characters are escaped.
    Str(String),
    /// An object: multi-line under a key, compact inside an inline array.
    Obj(BenchDoc),
    /// A one-line array; everything inside it renders compact.
    Inline(Vec<Value>),
    /// An array of one multi-line object per element.
    Block(Vec<BenchDoc>),
}

impl Value {
    /// A one-line array of `items`.
    pub fn inline<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Self {
        Value::Inline(items.into_iter().map(Into::into).collect())
    }

    /// An array of one multi-line object per element of `items`.
    pub fn block(items: impl IntoIterator<Item = BenchDoc>) -> Self {
        Value::Block(items.into_iter().collect())
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

value_from! {
    u64 => |v| Value::U64(v),
    u32 => |v| Value::U64(v.into()),
    usize => |v| Value::U64(v as u64),
    i64 => |v| Value::I64(v),
    f64 => |v| Value::F64(v),
    bool => |v| Value::Bool(v),
    &str => |v| Value::Str(v.to_string()),
    String => |v| Value::Str(v),
    BenchDoc => |v| Value::Obj(v),
}

/// A [`RunReport`] field a bench can print: each variant renders the field
/// of the same name under its snake-case key (`VTime`s as `_ms` floats).
/// A bench passes the fields it prints, in its own order, to
/// [`BenchDoc::report`] — a typo in the list is a compile error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportField {
    WallClockMs,
    MeanWaitMs,
    Updates,
    TasksCompleted,
    LostTasks,
    RetriedTasks,
    MaxStaleness,
    GradEntries,
    ResultBytes,
    BytesShipped,
    /// The trace's last sample; `null` on an empty trace.
    FinalError,
    FinalObjective,
    WorkerClocks,
    /// The trace as inline `[ms, value]` pairs.
    TraceMsError,
    /// The same points under the name runs without a baseline use.
    TraceMsObjective,
}

impl ReportField {
    fn entry(self, r: &RunReport) -> (&'static str, Value) {
        use ReportField::*;
        let trace = || {
            let pair = |&(t, e): &(VTime, f64)| Value::inline([t.as_millis_f64(), e]);
            Value::inline(r.trace.points().iter().map(pair))
        };
        match self {
            WallClockMs => ("wall_clock_ms", r.wall_clock.as_millis_f64().into()),
            MeanWaitMs => ("mean_wait_ms", r.mean_wait.as_millis_f64().into()),
            Updates => ("updates", r.updates.into()),
            TasksCompleted => ("tasks_completed", r.tasks_completed.into()),
            LostTasks => ("lost_tasks", r.lost_tasks.into()),
            RetriedTasks => ("retried_tasks", r.retried_tasks.into()),
            MaxStaleness => ("max_staleness", r.max_staleness.into()),
            GradEntries => ("grad_entries", r.grad_entries.into()),
            ResultBytes => ("result_bytes", r.result_bytes.into()),
            BytesShipped => ("bytes_shipped", r.bytes_shipped.into()),
            FinalError => {
                let last = r.trace.final_error().unwrap_or(f64::NAN);
                ("final_error", last.into())
            }
            FinalObjective => ("final_objective", r.final_objective.into()),
            WorkerClocks => {
                let clocks = Value::inline(r.worker_clocks.iter().copied());
                ("worker_clocks", clocks)
            }
            TraceMsError => ("trace_ms_error", trace()),
            TraceMsObjective => ("trace_ms_objective", trace()),
        }
    }
}

/// An ordered JSON object: the unit every bench emits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDoc(Vec<(String, Value)>);

impl BenchDoc {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    pub fn put(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// Appends the listed fields of `r`, in order, under their own names.
    pub fn report(self, r: &RunReport, fields: &[ReportField]) -> Self {
        fields.iter().fold(self, |doc, f| {
            let (key, value) = f.entry(r);
            doc.put(key, value)
        })
    }

    /// Renders the document: the bytes of a `BENCH_<name>.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, self, Some(0));
        out.push('\n');
        out
    }
}

/// Writes `open`, the items, `close`: on one line, `, `-separated, when
/// `indent` is `None` (or there are no items); else one item per line at
/// `indent + 2`. `item` gets the indent its own children break at.
fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    indent: Option<usize>,
    items: &[T],
    item: impl Fn(&mut String, &T, Option<usize>),
) {
    let indent = indent.filter(|_| !items.is_empty());
    let pad = |out: &mut String, n| out.extend(std::iter::repeat_n(' ', n));
    out.push(open);
    for (i, it) in items.iter().enumerate() {
        match indent {
            Some(n) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                pad(out, n + 2);
            }
            None if i > 0 => out.push_str(", "),
            None => {}
        }
        item(out, it, indent.map(|n| n + 2));
    }
    if let Some(n) = indent {
        out.push('\n');
        pad(out, n);
    }
    out.push(close);
}

fn write_object(out: &mut String, doc: &BenchDoc, indent: Option<usize>) {
    write_seq(
        out,
        ('{', '}'),
        indent,
        &doc.0,
        |out, (key, value), inner| {
            write_string(out, key);
            out.push_str(": ");
            write_value(out, value, inner);
        },
    );
}

/// `indent` is where a multi-line form of `value` breaks; `None` inside
/// an inline array, where everything is compact.
fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => out.push_str(&format!("{v:.6}")),
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => write_string(out, s),
        Value::Obj(d) => write_object(out, d, indent),
        Value::Inline(items) => write_seq(out, ('[', ']'), None, items, write_value),
        Value::Block(docs) => write_seq(out, ('[', ']'), indent, docs, write_object),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The printer's oracle, shared by every bench module's format and
/// determinism tests: a strict parser of exactly the layout [`BenchDoc`]
/// renders, plus the checks CI's byte gate relies on.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{BenchDoc, Value};

    struct Parser<'a> {
        text: &'a str,
        pos: usize,
    }

    type Parsed<T> = Result<T, String>;

    impl<'a> Parser<'a> {
        fn rest(&self) -> &'a str {
            &self.text[self.pos..]
        }

        fn take(&mut self, lit: &str) -> bool {
            let hit = self.rest().starts_with(lit);
            if hit {
                self.pos += lit.len();
            }
            hit
        }

        fn expect(&mut self, lit: &str) -> Parsed<()> {
            if self.take(lit) {
                return Ok(());
            }
            let near: String = self.rest().chars().take(24).collect();
            Err(format!("byte {}: expected {lit:?} at {near:?}", self.pos))
        }

        fn pad(&mut self, indent: usize) -> Parsed<()> {
            self.expect(&" ".repeat(indent))
        }

        /// `{}` or one `"key": value` per line at `indent + 2`.
        fn object(&mut self, indent: usize) -> Parsed<BenchDoc> {
            let mut doc = BenchDoc::new();
            if self.take("{}") {
                return Ok(doc);
            }
            self.expect("{\n")?;
            loop {
                self.pad(indent + 2)?;
                let key = self.string()?;
                self.expect(": ")?;
                let value = if self.rest().starts_with("{\n") || self.rest().starts_with("{}") {
                    Value::Obj(self.object(indent + 2)?)
                } else if self.take("[\n") {
                    let mut docs = Vec::new();
                    loop {
                        self.pad(indent + 4)?;
                        docs.push(self.object(indent + 4)?);
                        if !self.take(",\n") {
                            break;
                        }
                    }
                    self.expect("\n")?;
                    self.pad(indent + 2)?;
                    self.expect("]")?;
                    Value::Block(docs)
                } else {
                    self.compact()?
                };
                doc = doc.put(key, value);
                if !self.take(",\n") {
                    break;
                }
            }
            self.expect("\n")?;
            self.pad(indent)?;
            self.expect("}")?;
            Ok(doc)
        }

        /// A comma-space separated list up to `close`.
        fn list<T>(&mut self, close: &str, item: fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
            let mut items = Vec::new();
            if self.take(close) {
                return Ok(items);
            }
            loop {
                items.push(item(self)?);
                if !self.take(", ") {
                    break;
                }
            }
            self.expect(close)?;
            Ok(items)
        }

        fn compact(&mut self) -> Parsed<Value> {
            if self.take("[") {
                return Ok(Value::Inline(self.list("]", Self::compact)?));
            }
            if self.take("{") {
                let pairs = self.list("}", |p| {
                    let key = p.string()?;
                    p.expect(": ")?;
                    Ok((key, p.compact()?))
                })?;
                let doc = pairs
                    .into_iter()
                    .fold(BenchDoc::new(), |d, (k, v)| d.put(k, v));
                return Ok(Value::Obj(doc));
            }
            if self.rest().starts_with('"') {
                return Ok(Value::Str(self.string()?));
            }
            for (lit, value) in [
                ("null", Value::F64(f64::NAN)),
                ("true", Value::Bool(true)),
                ("false", Value::Bool(false)),
            ] {
                if self.take(lit) {
                    return Ok(value);
                }
            }
            let len = self
                .rest()
                .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.'))
                .unwrap_or(self.rest().len());
            let num = &self.rest()[..len];
            let bad = |e: &dyn std::fmt::Display| format!("byte {}: number {num:?}: {e}", self.pos);
            let value = if num.contains('.') {
                Value::F64(num.parse().map_err(|e| bad(&e))?)
            } else if num.starts_with('-') {
                Value::I64(num.parse().map_err(|e| bad(&e))?)
            } else {
                Value::U64(num.parse().map_err(|e| bad(&e))?)
            };
            self.pos += len;
            Ok(value)
        }

        fn string(&mut self) -> Parsed<String> {
            self.expect("\"")?;
            let mut out = String::new();
            loop {
                let mut chars = self.rest().chars();
                let c = chars.next().ok_or("unterminated string")?;
                self.pos += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let e = chars.next().ok_or("unterminated escape")?;
                        self.pos += e.len_utf8();
                        out.push(match e {
                            '"' | '\\' => e,
                            'n' => '\n',
                            't' => '\t',
                            'u' => {
                                let hex = self.rest().get(..4).ok_or("short \\u escape")?;
                                self.pos += 4;
                                u32::from_str_radix(hex, 16)
                                    .ok()
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?
                            }
                            other => return Err(format!("unknown escape \\{other}")),
                        });
                    }
                    c if (c as u32) < 0x20 => return Err("raw control character".into()),
                    c => out.push(c),
                }
            }
        }
    }

    /// Parses exactly what [`BenchDoc::render`] emits — the layout included,
    /// so the tree renders back to the same bytes — and nothing else.
    pub(crate) fn parse(text: &str) -> Result<BenchDoc, String> {
        let mut p = Parser { text, pos: 0 };
        let doc = p.object(0)?;
        p.expect("\n")?;
        if p.rest().is_empty() {
            Ok(doc)
        } else {
            Err(format!("byte {}: trailing bytes", p.pos))
        }
    }

    /// The value at a dotted path of keys; the segment after a block
    /// array's key is an element index (`sim_arms.0.final_objective`).
    pub(crate) fn lookup<'a>(doc: &'a BenchDoc, path: &str) -> Option<&'a Value> {
        let (key, rest) = path
            .split_once('.')
            .map_or((path, None), |(k, r)| (k, Some(r)));
        let value = &doc.0.iter().find(|(k, _)| k == key)?.1;
        match (value, rest) {
            (_, None) => Some(value),
            (Value::Obj(d), Some(rest)) => lookup(d, rest),
            (Value::Block(docs), Some(rest)) => {
                let (i, rest) = rest.split_once('.')?;
                lookup(docs.get(i.parse::<usize>().ok()?)?, rest)
            }
            _ => None,
        }
    }

    /// Every key of `doc`, at any depth.
    fn keys(doc: &BenchDoc) -> Vec<&str> {
        fn of_value<'a>(v: &'a Value, out: &mut Vec<&'a str>) {
            match v {
                Value::Obj(d) => of_doc(d, out),
                Value::Inline(items) => items.iter().for_each(|v| of_value(v, out)),
                Value::Block(docs) => docs.iter().for_each(|d| of_doc(d, out)),
                _ => {}
            }
        }
        fn of_doc<'a>(doc: &'a BenchDoc, out: &mut Vec<&'a str>) {
            for (key, value) in &doc.0 {
                out.push(key);
                of_value(value, out);
            }
        }
        let mut out = Vec::new();
        of_doc(doc, &mut out);
        out
    }

    /// Whether `key` names a reading of the host's clock: the retired
    /// `wc` prefix, or a rate or duration in host seconds. Modeled time is
    /// `wall_clock_ms` / `*_ms` and stays legal.
    pub(crate) fn names_a_host_clock(key: &str) -> bool {
        key.split('_').next() == Some("wc")
            || ["per_sec", "elapsed", "secs", "qps"]
                .iter()
                .any(|w| key.contains(w))
    }

    /// The format contract of one rendered document: it parses, the parsed
    /// tree renders back to the same bytes, it names its `benchmark`, every
    /// probed path exists, no non-finite number leaked, and no key at any
    /// depth names a host-clock quantity — every line is byte-gated, so
    /// such a number could never reproduce.
    pub(crate) fn well_formed(doc: &BenchDoc, name: &str, probes: &[&str]) {
        let text = doc.render();
        let parsed = parse(&text).unwrap_or_else(|e| panic!("document does not parse: {e}"));
        assert_eq!(
            parsed.render(),
            text,
            "parse then render must be the identity"
        );
        assert_eq!(lookup(&parsed, "benchmark"), Some(&Value::Str(name.into())));
        for path in probes {
            assert!(lookup(&parsed, path).is_some(), "missing {path}");
        }
        assert!(!text.contains("NaN") && !text.contains("inf"));
        for key in keys(&parsed) {
            assert!(
                !names_a_host_clock(key),
                "host-clock key {key:?} in a byte-gated document"
            );
        }
    }

    /// The whole contract of one bench: [`well_formed`], and a second run
    /// of the same configuration renders the same bytes.
    pub(crate) fn check(run: impl Fn() -> BenchDoc, name: &str, probes: &[&str]) {
        let doc = run();
        well_formed(&doc, name, probes);
        assert_eq!(doc.render(), run().render(), "two runs, two documents");
    }
}

#[cfg(test)]
mod tests {
    use async_cluster::{ConvergenceTrace, VDur};

    use super::oracle::{lookup, names_a_host_clock, parse, well_formed};
    use super::*;

    /// The `asp` run of `BENCH_async_vs_bsp.json` as committed with PR 16,
    /// by hand: the golden's `RunReport` case is that file's block, pasted.
    fn asp_report() -> RunReport {
        let mut trace = ConvergenceTrace::new();
        for (us, err) in [
            (0, 1.056077),
            (6_349, 0.002781),
            (12_698, 0.001060),
            (18_140, 0.000855),
            (24_489, 0.000832),
            (29_931, 0.001010),
            (36_280, 0.000923),
            (42_629, 0.000986),
            (48_071, 0.000996),
            (48_071, 0.000996),
        ] {
            trace.push(VTime::from_micros(us), err);
        }
        RunReport {
            trace,
            updates: 400,
            tasks_completed: 400,
            max_staleness: 14,
            wall_clock: VTime::from_micros(48_071),
            mean_wait: VDur::ZERO,
            bytes_shipped: 842_112,
            grad_entries: 0,
            result_bytes: 0,
            worker_clocks: vec![54, 54, 54, 54, 54, 54, 53, 31],
            final_w: Vec::new(),
            final_objective: 0.0,
            serve: Default::default(),
            lost_tasks: 0,
            retried_tasks: 0,
            durable: Default::default(),
        }
    }

    /// One tree through every layout form the committed files use.
    fn golden_doc() -> BenchDoc {
        use ReportField::*;
        BenchDoc::new()
            .put("benchmark", "golden")
            .put("description", "a \"quoted\" back\\slash, a tab\t and §")
            .put(
                "config",
                BenchDoc::new()
                    .put("workers", 8usize)
                    .put("step", 0.05)
                    .put("arms", Value::inline(["1x1", "4x1"]))
                    .put("nested", BenchDoc::new().put("deep", true)),
            )
            .put(
                "asp",
                BenchDoc::new().put("mode", "asp").report(
                    &asp_report(),
                    &[
                        WallClockMs,
                        MeanWaitMs,
                        Updates,
                        TasksCompleted,
                        MaxStaleness,
                        BytesShipped,
                        FinalError,
                        WorkerClocks,
                        TraceMsError,
                    ],
                ),
            )
            .put(
                "chaos_events",
                Value::inline([
                    BenchDoc::new()
                        .put("at_ms", 1.5)
                        .put("action", "kill")
                        .put("worker", 6i64),
                    BenchDoc::new()
                        .put("at_ms", 2.25)
                        .put("action", "join")
                        .put("worker", -1i64),
                ]),
            )
            .put("no_events", Value::Inline(Vec::new()))
            .put(
                "sim_arms",
                Value::block([
                    BenchDoc::new()
                        .put("arm", "1x1")
                        .report(&asp_report(), &[Updates]),
                    BenchDoc::new()
                        .put("arm", "4x1")
                        .put("ratio", f64::INFINITY),
                ]),
            )
            .put("verdict", false)
            .put("mean_wait_ratio", f64::NAN)
    }

    const GOLDEN: &str = r#"{
  "benchmark": "golden",
  "description": "a \"quoted\" back\\slash, a tab\t and §",
  "config": {
    "workers": 8,
    "step": 0.050000,
    "arms": ["1x1", "4x1"],
    "nested": {
      "deep": true
    }
  },
  "asp": {
    "mode": "asp",
    "wall_clock_ms": 48.071000,
    "mean_wait_ms": 0.000000,
    "updates": 400,
    "tasks_completed": 400,
    "max_staleness": 14,
    "bytes_shipped": 842112,
    "final_error": 0.000996,
    "worker_clocks": [54, 54, 54, 54, 54, 54, 53, 31],
    "trace_ms_error": [[0.000000, 1.056077], [6.349000, 0.002781], [12.698000, 0.001060], [18.140000, 0.000855], [24.489000, 0.000832], [29.931000, 0.001010], [36.280000, 0.000923], [42.629000, 0.000986], [48.071000, 0.000996], [48.071000, 0.000996]]
  },
  "chaos_events": [{"at_ms": 1.500000, "action": "kill", "worker": 6}, {"at_ms": 2.250000, "action": "join", "worker": -1}],
  "no_events": [],
  "sim_arms": [
    {
      "arm": "1x1",
      "updates": 400
    },
    {
      "arm": "4x1",
      "ratio": null
    }
  ],
  "verdict": false,
  "mean_wait_ratio": null
}
"#;

    #[test]
    fn golden_document_renders_to_the_literal() {
        assert_eq!(golden_doc().render(), GOLDEN);
    }

    #[test]
    fn parse_inverts_render_and_finds_every_layout_form() {
        let doc = golden_doc();
        let probes = ["config.nested.deep", "sim_arms.1.ratio", "no_events"];
        well_formed(&doc, "golden", &probes);
        let parsed = parse(&doc.render()).expect("golden parses");
        assert_eq!(lookup(&parsed, "config.workers"), Some(&Value::U64(8)));
        assert_eq!(
            lookup(&parsed, "description"),
            lookup(&doc, "description"),
            "escapes survive the round trip"
        );
        assert_eq!(
            lookup(&parsed, "sim_arms.0.updates"),
            Some(&Value::U64(400))
        );
        assert!(lookup(&parsed, "sim_arms.2.arm").is_none());
        assert!(lookup(&parsed, "config.missing").is_none());
    }

    #[test]
    fn parser_rejects_what_brace_counting_accepted() {
        for (why, text) in [
            ("trailing comma", "{\n  \"a\": 1,\n}\n"),
            ("wrong indent", "{\n    \"a\": 1\n}\n"),
            ("bare NaN", "{\n  \"a\": NaN\n}\n"),
            ("missing colon", "{\n  \"a\" 1\n}\n"),
            ("crossed brackets", "{\n  \"a\": [1, 2}\n]\n"),
            ("unclosed string", "{\n  \"a\": \"b\n}\n"),
            ("no final newline", "{\n  \"a\": 1\n}"),
            ("trailing bytes", "{\n  \"a\": 1\n}\n}\n"),
            ("multi-line inline array", "{\n  \"a\": [1,\n  2]\n}\n"),
        ] {
            assert!(parse(text).is_err(), "{why} must not parse");
        }
        assert!(parse("{\n  \"a\": [1, 2]\n}\n").is_ok());
    }

    /// A host-timed number cannot come back into a gated file unnoticed.
    /// The retired prefix is spelled in two pieces so that a `git grep` for
    /// it over this crate stays empty.
    #[test]
    fn no_bench_key_names_a_host_clock() {
        let retired = ["wc", "updates"].join("_");
        for key in [
            retired.as_str(),
            "steps_per_sec",
            "recover_mb_per_sec",
            "elapsed",
            "recover_secs",
            "read_qps",
        ] {
            assert!(names_a_host_clock(key), "{key}");
        }
        for key in ["wall_clock_ms", "mean_wait_ms", "at_ms", "wcs", "updates"] {
            assert!(!names_a_host_clock(key), "{key}");
        }
        // `well_formed` applies the rule at any depth.
        let leaky = |key: &str| {
            let arm = BenchDoc::new().put("config", BenchDoc::new().put(key, 1.0));
            BenchDoc::new()
                .put("benchmark", "leaky")
                .put("sim_arms", Value::block([arm]))
        };
        well_formed(&leaky("wall_clock_ms"), "leaky", &[]);
        let refused = std::panic::catch_unwind(|| well_formed(&leaky("read_qps"), "leaky", &[]));
        assert!(refused.is_err(), "a nested host-clock key must be refused");
    }
}
