//! The `BENCH.json` artifact and the bench-regression gate.
//!
//! Every quality and speed number the compiler cares about becomes a
//! machine-checked artifact: `plimc bench --json` emits one [`BenchRecord`]
//! per suite circuit, CI diffs the fresh run against the committed
//! `benchmarks/baseline.json` with [`gate`], and the job fails when a
//! deterministic quality column regresses or the pipeline slows down past
//! the tolerance. The JSON reader/writer is hand-rolled for exactly this
//! flat schema so the workspace stays dependency-free and offline.
//!
//! One `columns!` row in this file declares each column: its name, what it
//! measures, its kind and its gate [`Rule`]. The rows emit the
//! [`BenchRecord`] fields and the [`COLUMNS`] table that [`to_json`],
//! [`from_json`] and [`gate`] loop over, so adding a column is one row here
//! plus the line in [`crate::bench`] that measures it. A few rules relate
//! two columns of the current run itself (`-O2` may never cost more than
//! `-O0`; the e-graph may never lose to `-O2`); they are the
//! `INVARIANTS` table, checked whether or not a baseline exists.
//!
//! A record that skipped a [`Rule::Annotated`] column keeps the field's
//! default, and that `0` means "not measured".
//!
//! Parsing is built on the shared [`plim_compiler::json`] layer, so syntax
//! errors carry byte positions and schema errors name the missing or
//! mistyped field and the record it belongs to — `plimc bench-diff`
//! surfaces them verbatim as one-line diagnostics.

use std::fmt::{self, Write as _};

use plim_compiler::json::Value;

/// How [`gate`] compares one column of a baseline record with the same
/// circuit's current record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A count that must not grow: an increase is a regression, a decrease
    /// an improvement note, both reported under the label.
    Hard(&'static str),
    /// Like `Hard`, but only where both runs measured the column: `0` means
    /// the annotation was skipped, so a change to or from `0` is a coverage
    /// note.
    Annotated,
    /// A verdict that must not be lost: `true → false` is a regression, and
    /// `false → true` gives the note.
    Proof(&'static str),
    /// Any change is a note, so intentional trade-offs need no baseline
    /// refresh.
    Note,
    /// Wall-clock, gated only in aggregate: the sum over every `Time`
    /// column of the circuits in both runs may not grow beyond the
    /// tolerance.
    Time,
}

/// One column's value; the variant is the column's kind.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum Cell {
    /// A count, compared exactly.
    Count(u64),
    /// Milliseconds of wall-clock, printed to the microsecond.
    Ms(f64),
    /// A measured rate, printed to six places and compared within
    /// `f64::EPSILON`.
    Rate(f64),
    /// A yes/no verdict.
    Flag(bool),
}

impl Cell {
    /// Reads a JSON value as a cell of the same kind as `self`.
    fn read(self, value: &Value) -> Option<Cell> {
        Some(match self {
            Cell::Count(_) => Cell::Count(value.as_f64()? as u64),
            Cell::Ms(_) => Cell::Ms(value.as_f64()?),
            Cell::Rate(_) => Cell::Rate(value.as_f64()?),
            Cell::Flag(_) => Cell::Flag(value.as_bool()?),
        })
    }

    /// The JSON type a cell of this kind is written as.
    fn json_type(self) -> &'static str {
        match self {
            Cell::Flag(_) => "boolean",
            _ => "number",
        }
    }

    fn differs(self, other: Cell) -> bool {
        match (self, other) {
            (Cell::Rate(a), Cell::Rate(b)) => (a - b).abs() > f64::EPSILON,
            _ => self != other,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Count(v) => write!(f, "{v}"),
            Cell::Ms(v) => write!(f, "{v:.3}"),
            Cell::Rate(v) => write!(f, "{v:.6}"),
            Cell::Flag(v) => write!(f, "{v}"),
        }
    }
}

/// One `BENCH.json` column after `circuit`.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The JSON key, equal to the [`BenchRecord`] field name.
    pub name: &'static str,
    /// How [`gate`] compares the column against the baseline.
    pub rule: Rule,
    get: fn(&BenchRecord) -> Cell,
    set: fn(&mut BenchRecord, Cell),
}

/// The field type behind each cell kind.
macro_rules! kind_type {
    (Count) => {
        u64
    };
    (Ms) => {
        f64
    };
    (Rate) => {
        f64
    };
    (Flag) => {
        bool
    };
}

/// Emits [`BenchRecord`] and [`COLUMNS`] from one row per column:
/// `doc; name: Kind, Rule;`.
macro_rules! columns {
    ($($(#[doc = $doc:literal])+ $field:ident: $kind:ident, $rule:ident $(($arg:literal))?;)+) => {
        /// One circuit's row of a `BENCH.json` artifact: the circuit's name,
        /// then one field per [`COLUMNS`] row. `Default` is the record
        /// before any measurement, with every annotated column skipped.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct BenchRecord {
            /// Benchmark name.
            pub circuit: String,
            $($(#[doc = $doc])+ pub $field: kind_type!($kind),)+
        }

        /// Every column after `circuit`, in file order.
        pub const COLUMNS: &[Column] = &[$(Column {
            name: stringify!($field),
            rule: Rule::$rule$(($arg))?,
            get: |r| Cell::$kind(r.$field),
            set: |r, cell| {
                if let Cell::$kind(value) = cell {
                    r.$field = value;
                }
            },
        },)+];
    };
}

columns! {
    /// `#I` of the default compiler (priority scheduling, smart
    /// translation, FIFO allocation, `-O0`) on the rewritten MIG.
    instructions: Count, Hard("#I");
    /// `#R` of the default compiler on the rewritten MIG.
    rams: Count, Hard("#R");
    /// Highest per-cell write count under the default compiler.
    max_writes: Count, Note;
    /// `#R` under lookahead scheduling (lifetime-driven extension).
    lookahead_rams: Count, Note;
    /// Highest per-cell write count under the wear-budget allocator.
    wear_max_writes: Count, Note;
    /// `#I` of the default compiler at `-O2`.
    o2_instructions: Count, Hard("-O2 #I");
    /// `#R` of the default compiler at `-O2`.
    o2_rams: Count, Note;
    /// Highest per-cell write count of the default compiler at `-O2`.
    o2_max_writes: Count, Note;
    /// Trial edits the default `-O2` compile scored.
    o2_trials: Count, Note;
    /// Events the default `-O2` compile replayed to score its trials.
    o2_replayed: Count, Hard("-O2 replayed events");
    /// Instructions of the default compiler's IR emitted through the
    /// `ambit` (bulk-bitwise DRAM majority) backend.
    ambit_ops: Count, Annotated;
    /// Cost-model units of the `ambit` emission (row activations).
    ambit_cost: Count, Annotated;
    /// Instructions of the default compiler's IR emitted through the
    /// `magic` (memristive NOR) backend.
    magic_ops: Count, Annotated;
    /// Cost-model units of the `magic` emission (NOR pulses).
    magic_cost: Count, Annotated;
    /// `#I` of the equality-saturation engine's extraction compiled at
    /// `-O2`.
    egraph_instructions: Count, Annotated;
    /// `#R` of the equality-saturation engine's extraction compiled at
    /// `-O2`.
    egraph_rams: Count, Annotated;
    /// Wall-clock of the circuit's rewrite pass, in milliseconds.
    rewrite_ms: Ms, Time;
    /// Wall-clock of the circuit's compile jobs, in milliseconds.
    compile_ms: Ms, Time;
    /// Whether every opt level's compiled program was proven equal to the
    /// source MIG over the full input space (`false` for circuits beyond
    /// the exhaustive bound, or when annotation was skipped).
    verified_exhaustive: Flag, Proof("now verified exhaustively");
    /// Measured output-error rate (erroneous patterns / patterns) under
    /// the reference drifted-write fault model.
    fault_error_rate: Rate, Note;
    /// Simulated invocations until the first cell exceeds the reference
    /// endurance budget (0 when annotation was skipped).
    lifetime_invocations: Count, Note;
    /// Whether the static analyzer reported zero diagnostics on every
    /// artifact behind this record, with statically re-derived resources
    /// matching the recorded stats exactly.
    lint_clean: Flag, Proof("now lint-clean");
}

/// The rules every current record must satisfy on its own, baseline or not,
/// so they hold even right after a baseline refresh: `(high, low, wording)`
/// says column `high` may not exceed column `low`, and a `None` wording
/// reports "`high` exceeds `low`". `-O2` may never cost instructions,
/// cells or endurance relative to `-O0`, and the e-graph
/// extractor falls back to the arena result, so an e-graph worse than `-O2`
/// is a bug (a skipped `0` never exceeds anything).
#[rustfmt::skip]
const INVARIANTS: [(&str, &str, Option<&str>); 4] = [
    ("egraph_instructions", "o2_instructions", None),
    ("o2_instructions", "instructions", Some("-O2 produces more instructions than -O0")),
    ("o2_rams", "rams", Some("-O2 uses more RRAMs than -O0")),
    ("o2_max_writes", "max_writes", Some("-O2 wears cells harder than -O0")),
];

/// The value of the column called `name` in `record`.
fn value(record: &BenchRecord, name: &str) -> Cell {
    let column = COLUMNS
        .iter()
        .find(|column| column.name == name)
        .expect("declared column");
    (column.get)(record)
}

/// Serializes records as a stable, human-reviewable JSON document.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (index, record) in records.iter().enumerate() {
        // The shared JSON writer (full escaping, including control
        // characters) keeps the round-trip with `from_json` — which parses
        // through the same layer — airtight.
        out.push_str("  {\"circuit\": ");
        out.push_str(&Value::string(record.circuit.clone()).to_json());
        for column in COLUMNS {
            write!(out, ", \"{}\": {}", column.name, (column.get)(record))
                .expect("writing to a String cannot fail");
        }
        out.push_str(if index + 1 == records.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("]\n");
    out
}

/// Parses a `BENCH.json` document produced by [`to_json`] (or edited by
/// hand: unknown keys are ignored, field order is free).
///
/// # Errors
///
/// Returns a one-line description of the first problem: syntax errors with
/// their byte position (truncated input, duplicate keys, trailing
/// garbage — via [`plim_compiler::json`]), a type mismatch for a mistyped column,
/// or else a `missing field '<name>'` for an absent one.
pub fn from_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let document = Value::parse(text).map_err(|e| e.to_string())?;
    let Some(items) = document.as_array() else {
        return Err("expected a top-level array of records".to_string());
    };
    items
        .iter()
        .enumerate()
        .map(|(index, item)| parse_record(index, item))
        .collect()
}

fn parse_record(index: usize, item: &Value) -> Result<BenchRecord, String> {
    if item.as_object().is_none() {
        return Err(format!("record {}: expected an object", index + 1));
    }
    // `circuit` first: every later diagnostic names the record by it.
    let circuit = match item.get("circuit") {
        Some(value) => value
            .as_str()
            .ok_or_else(|| format!("field 'circuit' must be a string (record {})", index + 1))?
            .to_string(),
        None => return Err(format!("missing field 'circuit' (record {})", index + 1)),
    };
    let mut record = BenchRecord {
        circuit,
        ..BenchRecord::default()
    };
    // Type errors take precedence over missing columns.
    let mut missing = None;
    for column in COLUMNS {
        let Some(value) = item.get(column.name) else {
            missing = missing.or(Some(column.name));
            continue;
        };
        // The default value carries the column's kind.
        let kind = (column.get)(&record);
        let cell = kind.read(value).ok_or_else(|| {
            format!(
                "field '{}' must be a {} (circuit \"{}\")",
                column.name,
                kind.json_type(),
                record.circuit
            )
        })?;
        (column.set)(&mut record, cell);
    }
    match missing {
        Some(name) => Err(format!(
            "missing field '{name}' (circuit \"{}\")",
            record.circuit
        )),
        None => Ok(record),
    }
}

/// Outcome of diffing a fresh run against the committed baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human-readable per-circuit notes (improvements, informational
    /// changes, the timing summary).
    pub notes: Vec<String>,
    /// Hard failures: regressed columns, broken current-run invariants,
    /// missing circuits, or a wall-clock slowdown beyond the tolerance.
    /// Empty means the gate is green.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// `true` when no regression was detected.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Gates a count that must not grow, reported under `label`.
    fn compare(&mut self, circuit: &str, label: &str, old: Cell, new: Cell) {
        if new > old {
            self.regressions
                .push(format!("{circuit}: {label} regressed {old} → {new}"));
        } else if new < old {
            self.notes
                .push(format!("{circuit}: {label} improved {old} → {new}"));
        }
    }
}

/// Diffs `current` against `baseline`.
///
/// Every current record must first satisfy the current-run invariants (see
/// the module doc). Then each baseline circuit missing from the current run
/// is a regression, and each column of a circuit in both runs is compared
/// by its [`Rule`]. Wall-clock gates softly: only the total of the
/// [`Rule::Time`] columns over circuits present in both runs is compared,
/// and only a slowdown beyond `time_tolerance` (e.g. `0.25` for +25 %)
/// fails.
pub fn gate(baseline: &[BenchRecord], current: &[BenchRecord], time_tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for c in current {
        for (high_name, low_name, wording) in INVARIANTS {
            let (high, low) = (value(c, high_name), value(c, low_name));
            if high > low {
                report.regressions.push(match wording {
                    Some(rule) => format!("{}: {rule} ({low} → {high})", c.circuit),
                    None => format!(
                        "{}: {high_name} exceeds {low_name} ({high} > {low})",
                        c.circuit
                    ),
                });
            }
        }
    }
    let time = |record: &BenchRecord| -> f64 {
        COLUMNS
            .iter()
            .filter(|column| column.rule == Rule::Time)
            .map(|column| match (column.get)(record) {
                Cell::Ms(ms) => ms,
                other => unreachable!("a time column holds {other:?}"),
            })
            .sum()
    };
    let mut base_time = 0.0f64;
    let mut curr_time = 0.0f64;
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.circuit == b.circuit) else {
            report
                .regressions
                .push(format!("{}: missing from the current run", b.circuit));
            continue;
        };
        base_time += time(b);
        curr_time += time(c);
        for column in COLUMNS {
            let (old, new) = ((column.get)(b), (column.get)(c));
            let (circuit, name) = (&b.circuit, column.name);
            let skipped = Cell::Count(0);
            match column.rule {
                Rule::Hard(label) => report.compare(circuit, label, old, new),
                Rule::Annotated if old == skipped || new == skipped => {
                    if old != new {
                        report.notes.push(format!(
                            "{circuit}: {name} annotation coverage changed {old} → {new}"
                        ));
                    }
                }
                Rule::Annotated => report.compare(circuit, name, old, new),
                Rule::Proof(gained) => match (old, new) {
                    (Cell::Flag(true), Cell::Flag(false)) => report
                        .regressions
                        .push(format!("{circuit}: {name} regressed {old} → {new}")),
                    (Cell::Flag(false), Cell::Flag(true)) => {
                        report.notes.push(format!("{circuit}: {gained}"));
                    }
                    _ => {}
                },
                Rule::Note if old.differs(new) => report
                    .notes
                    .push(format!("{circuit}: {name} changed {old} → {new}")),
                Rule::Note | Rule::Time => {}
            }
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.circuit == c.circuit) {
            report
                .notes
                .push(format!("{}: new circuit (not in the baseline)", c.circuit));
        }
    }
    if base_time > 0.0 {
        let ratio = curr_time / base_time;
        let line = format!(
            "wall-clock: {base_time:.1} ms baseline vs {curr_time:.1} ms current ({:+.1} %)",
            (ratio - 1.0) * 100.0
        );
        if ratio > 1.0 + time_tolerance {
            report.regressions.push(format!(
                "{line} exceeds the +{:.0} % tolerance",
                time_tolerance * 100.0
            ));
        } else {
            report.notes.push(line);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../benchmarks/baseline.json");
    const BASELINE_FULL: &str = include_str!("../../../benchmarks/baseline-full.json");

    fn column(name: &str) -> &'static Column {
        COLUMNS.iter().find(|c| c.name == name).unwrap()
    }

    /// `records` with `column` rewritten by `edit` in every record.
    fn doctored(
        records: &[BenchRecord],
        column: &Column,
        edit: impl Fn(Cell) -> Cell,
    ) -> Vec<BenchRecord> {
        let mut records = records.to_vec();
        for record in &mut records {
            (column.set)(record, edit((column.get)(record)));
        }
        records
    }

    #[test]
    fn every_gated_column_and_invariant_fires_on_the_committed_baseline() {
        let baseline = from_json(BASELINE).unwrap();
        let clean = gate(&baseline, &baseline, 0.25);
        assert!(clean.passed(), "{:?}", clean.regressions);
        for column in COLUMNS {
            let name = column.name;
            match column.rule {
                Rule::Hard(_) | Rule::Annotated | Rule::Proof(_) => {
                    let worse = doctored(&baseline, column, |cell| match cell {
                        Cell::Count(v) => Cell::Count(v + 1),
                        Cell::Flag(_) => Cell::Flag(false),
                        other => panic!("{name}: no worse {other:?}"),
                    });
                    let (label, better) = match column.rule {
                        Rule::Hard(label) => (label, format!(": {label} improved")),
                        Rule::Proof(gained) => (name, format!(": {gained}")),
                        _ => (name, format!(": {name} improved")),
                    };
                    let report = gate(&baseline, &worse, 0.25);
                    assert!(
                        report
                            .regressions
                            .iter()
                            .any(|r| r.contains(&format!(": {label} regressed"))),
                        "{name}: {:?}",
                        report.regressions
                    );
                    // The opposite direction passes with a note.
                    let report = gate(&worse, &baseline, 0.25);
                    assert!(report.passed(), "{name}: {:?}", report.regressions);
                    assert!(
                        report.notes.iter().any(|n| n.contains(&better)),
                        "{name}: {:?}",
                        report.notes
                    );
                }
                Rule::Note => {
                    // Doctor the baseline side: current-run invariants
                    // stay out of it.
                    let moved = doctored(&baseline, column, |cell| match cell {
                        Cell::Count(v) => Cell::Count(v + 1),
                        Cell::Rate(v) => Cell::Rate(v + 0.5),
                        other => panic!("{name}: no move for {other:?}"),
                    });
                    let report = gate(&moved, &baseline, 0.25);
                    assert!(report.passed(), "{name}: {:?}", report.regressions);
                    assert!(
                        report
                            .notes
                            .iter()
                            .any(|n| n.contains(&format!(": {name} changed"))),
                        "{name}: {:?}",
                        report.notes
                    );
                }
                Rule::Time => {}
            }
            if column.rule == Rule::Annotated {
                // A skip on either side is a coverage note and nothing else.
                let skipped = doctored(&baseline, column, |_| Cell::Count(0));
                for (old, new) in [(&baseline, &skipped), (&skipped, &baseline)] {
                    let report = gate(old, new, 0.25);
                    assert!(report.passed(), "{name}: {:?}", report.regressions);
                    let mentions: Vec<_> =
                        report.notes.iter().filter(|n| n.contains(name)).collect();
                    assert!(!mentions.is_empty(), "{name}: {:?}", report.notes);
                    assert!(
                        mentions
                            .iter()
                            .all(|n| n.contains("annotation coverage changed")),
                        "{name}: {mentions:?}"
                    );
                }
            }
        }
        // Each invariant fires alone on a file diffed against itself.
        for (high, low, wording) in INVARIANTS {
            let mut broken = baseline.clone();
            for record in &mut broken {
                let Cell::Count(v) = value(record, low) else {
                    panic!("{low} is not a count")
                };
                (column(high).set)(record, Cell::Count(v + 1));
            }
            let report = gate(&broken, &broken, 0.25);
            let wording = wording.map_or_else(|| format!("{high} exceeds {low}"), str::to_string);
            assert_eq!(
                report.regressions.len(),
                broken.len(),
                "{:?}",
                report.regressions
            );
            assert!(
                report.regressions.iter().all(|r| r.contains(&wording)),
                "{wording}: {:?}",
                report.regressions
            );
        }
    }

    #[test]
    fn committed_baselines_pin_the_file_format() {
        for text in [BASELINE, BASELINE_FULL] {
            assert_eq!(to_json(&from_json(text).unwrap()), text);
        }
        let first = &from_json(BASELINE).unwrap()[..1];
        let text = to_json(first);
        for column in COLUMNS {
            let cell = (column.get)(&first[0]);
            let key = format!(", \"{}\": {cell}", column.name);
            assert_eq!(text.matches(&key).count(), 1, "{key}");
            let err = from_json(&text.replace(&key, "")).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "missing field '{}' (circuit \"{}\")",
                    column.name, first[0].circuit
                )
            );
            let wrong = if matches!(cell, Cell::Flag(_)) {
                "1"
            } else {
                "true"
            };
            let err = from_json(&text.replace(&key, &format!(", \"{}\": {wrong}", column.name)))
                .unwrap_err();
            assert_eq!(
                err,
                format!(
                    "field '{}' must be a {} (circuit \"{}\")",
                    column.name,
                    cell.json_type(),
                    first[0].circuit
                )
            );
        }
    }

    fn record(circuit: &str, instructions: u64, rams: u64) -> BenchRecord {
        BenchRecord {
            circuit: circuit.to_string(),
            instructions,
            rams,
            max_writes: 9,
            lookahead_rams: rams,
            wear_max_writes: 5,
            o2_instructions: instructions.saturating_sub(2),
            o2_rams: rams,
            o2_max_writes: 9,
            o2_trials: 4,
            o2_replayed: instructions * 3,
            ambit_ops: instructions * 5,
            ambit_cost: instructions * 11,
            magic_ops: instructions * 7,
            magic_cost: instructions * 7,
            egraph_instructions: instructions.saturating_sub(3),
            egraph_rams: rams,
            rewrite_ms: 1.5,
            compile_ms: 0.5,
            verified_exhaustive: true,
            fault_error_rate: 0.015625,
            lifetime_invocations: 111_111,
            lint_clean: true,
        }
    }

    #[test]
    fn json_round_trips() {
        // Quotes, backslashes, non-ASCII UTF-8, and control characters
        // must all survive (the strict parser rejects raw control bytes,
        // so the writer must escape them).
        let records = vec![
            record("adder", 120, 12),
            record("log2\"odd\\", 7, 3),
            record("Σ-µbench", 9, 2),
            record("tab\there\nand newline", 4, 1),
        ];
        let parsed = from_json(&to_json(&records)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn parser_ignores_unknown_fields_and_order() {
        let text = r#"[{"rams": 3, "note": "hi", "circuit": "x", "instructions": 9,
            "max_writes": 1, "lookahead_rams": 3, "wear_max_writes": 1,
            "o2_instructions": 8, "o2_rams": 3, "o2_max_writes": 1,
            "o2_trials": 2, "o2_replayed": 30,
            "ambit_ops": 45, "ambit_cost": 99, "magic_ops": 63, "magic_cost": 63,
            "egraph_instructions": 7, "egraph_rams": 3,
            "verified_exhaustive": false, "fault_error_rate": 0.25,
            "lifetime_invocations": 1000, "lint_clean": true,
            "compile_ms": 0.25, "rewrite_ms": 1.25, "extra": 42}]"#;
        let parsed = from_json(text).unwrap();
        assert_eq!(parsed[0].circuit, "x");
        assert_eq!(parsed[0].instructions, 9);
        assert_eq!(parsed[0].o2_instructions, 8);
        assert_eq!(parsed[0].rewrite_ms, 1.25);
        assert!(!parsed[0].verified_exhaustive);
        assert_eq!(parsed[0].fault_error_rate, 0.25);
        assert_eq!(parsed[0].lifetime_invocations, 1000);
    }

    #[test]
    fn fidelity_fields_are_required_and_typed() {
        let mut without = to_json(&[record("adder", 120, 12)]);
        without = without.replace("\"verified_exhaustive\": true, ", "");
        let err = from_json(&without).unwrap_err();
        assert!(err.contains("missing field 'verified_exhaustive'"), "{err}");
        let mistyped = to_json(&[record("adder", 120, 12)]).replace(
            "\"verified_exhaustive\": true",
            "\"verified_exhaustive\": 1",
        );
        let err = from_json(&mistyped).unwrap_err();
        assert!(
            err.contains("field 'verified_exhaustive' must be a boolean"),
            "{err}"
        );
        let without_rate =
            to_json(&[record("adder", 120, 12)]).replace("\"fault_error_rate\": 0.015625, ", "");
        let err = from_json(&without_rate).unwrap_err();
        assert!(err.contains("missing field 'fault_error_rate'"), "{err}");
        let without_lint =
            to_json(&[record("adder", 120, 12)]).replace(", \"lint_clean\": true", "");
        let err = from_json(&without_lint).unwrap_err();
        assert!(err.contains("missing field 'lint_clean'"), "{err}");
        let mistyped_lint = to_json(&[record("adder", 120, 12)])
            .replace("\"lint_clean\": true", "\"lint_clean\": \"yes\"");
        let err = from_json(&mistyped_lint).unwrap_err();
        assert!(
            err.contains("field 'lint_clean' must be a boolean"),
            "{err}"
        );
    }

    #[test]
    fn per_target_regressions_fail_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        for field in ["ambit_ops", "ambit_cost", "magic_ops", "magic_cost"] {
            let mut worse = record("adder", 120, 12);
            match field {
                "ambit_ops" => worse.ambit_ops += 1,
                "ambit_cost" => worse.ambit_cost += 1,
                "magic_ops" => worse.magic_ops += 1,
                _ => worse.magic_cost += 1,
            }
            let report = gate(&baseline, &[worse], 0.25);
            assert!(!report.passed(), "{field} increase must fail");
            assert!(
                report.regressions[0].contains(&format!("{field} regressed")),
                "{:?}",
                report.regressions
            );
        }
        // Improvements are notes.
        let mut better = record("adder", 120, 12);
        better.ambit_cost -= 1;
        let report = gate(&baseline, &[better], 0.25);
        assert!(report.passed());
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("ambit_cost improved")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn egraph_column_regressions_fail_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        for field in ["egraph_instructions", "egraph_rams"] {
            let mut worse = record("adder", 120, 12);
            match field {
                "egraph_instructions" => worse.egraph_instructions += 1,
                _ => worse.egraph_rams += 1,
            }
            let report = gate(&baseline, &[worse], 0.25);
            assert!(!report.passed(), "{field} increase must fail");
            assert!(
                report
                    .regressions
                    .iter()
                    .any(|r| r.contains(&format!("{field} regressed"))),
                "{:?}",
                report.regressions
            );
        }
        // A skipped annotation (0) on either side is a coverage note.
        let mut skipped = record("adder", 120, 12);
        skipped.egraph_instructions = 0;
        skipped.egraph_rams = 0;
        let report = gate(&baseline, &[skipped.clone()], 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("egraph_instructions annotation coverage changed")),
            "{:?}",
            report.notes
        );
        let report = gate(&[skipped], &[record("adder", 120, 12)], 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
    }

    #[test]
    fn egraph_worse_than_o2_fails_even_without_a_baseline_entry() {
        // The fallback guarantees egraph <= -O2; an annotated current
        // record violating that is a bug even on a brand-new circuit.
        let mut broken = record("fresh", 120, 12);
        broken.egraph_instructions = broken.o2_instructions + 1;
        let report = gate(&[], &[broken], 0.25);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("egraph_instructions exceeds o2_instructions"),
            "{:?}",
            report.regressions
        );
        // Unannotated records (0) are exempt from the rule.
        let mut skipped = record("fresh", 120, 12);
        skipped.egraph_instructions = 0;
        assert!(gate(&[], &[skipped], 0.25).passed());
    }

    #[test]
    fn per_target_annotation_coverage_changes_are_notes() {
        // Baseline annotated, current skipped: a note, not a regression —
        // and the reverse direction likewise (0 → measured must not read
        // as a cost explosion).
        let baseline = vec![record("adder", 120, 12)];
        let mut skipped = record("adder", 120, 12);
        skipped.ambit_ops = 0;
        skipped.ambit_cost = 0;
        let report = gate(&baseline, &[skipped.clone()], 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("ambit_ops annotation coverage changed")),
            "{:?}",
            report.notes
        );
        let report = gate(&[skipped], &[record("adder", 120, 12)], 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
    }

    #[test]
    fn lint_clean_regression_fails_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        let mut dirty = record("adder", 120, 12);
        dirty.lint_clean = false;
        let report = gate(&baseline, &[dirty], 0.25);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("lint_clean regressed true → false"),
            "{:?}",
            report.regressions
        );
        // Coming clean is a note, not a failure.
        let mut base_dirty = record("adder", 120, 12);
        base_dirty.lint_clean = false;
        let report = gate(&[base_dirty], &[record("adder", 120, 12)], 0.25);
        assert!(report.passed());
        assert!(
            report.notes.iter().any(|n| n.contains("now lint-clean")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn verified_exhaustive_regression_fails_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        let mut lost = record("adder", 120, 12);
        lost.verified_exhaustive = false;
        let report = gate(&baseline, &[lost], 0.25);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("verified_exhaustive regressed true → false"),
            "{:?}",
            report.regressions
        );
        // The opposite direction is a note, not a failure.
        let mut base_unverified = record("adder", 120, 12);
        base_unverified.verified_exhaustive = false;
        let report = gate(&[base_unverified], &[record("adder", 120, 12)], 0.25);
        assert!(report.passed());
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("now verified exhaustively")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn measured_fidelity_changes_are_notes() {
        let baseline = vec![record("adder", 120, 12)];
        let mut moved = record("adder", 120, 12);
        moved.fault_error_rate = 0.5;
        moved.lifetime_invocations = 7;
        let report = gate(&baseline, &[moved], 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("fault_error_rate changed")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("lifetime_invocations changed 111111 → 7")));
    }

    #[test]
    fn opt_level_monotonicity_gates_the_current_run() {
        let baseline = vec![record("adder", 120, 12)];
        // A record whose -O2 column exceeds -O0 fails even when it matches
        // the baseline exactly.
        let mut broken = record("adder", 120, 12);
        broken.o2_instructions = 121;
        let report = gate(&baseline, &[broken.clone()], 0.25);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("-O2 produces more instructions"),
            "{:?}",
            report.regressions
        );
        let report = gate(&[broken.clone()], &[broken], 0.25);
        assert!(!report.passed(), "monotonicity must not need a baseline");
        let mut wear = record("adder", 120, 12);
        wear.o2_max_writes = wear.max_writes + 1;
        assert!(!gate(&baseline, &[wear], 0.25).passed());
        let mut rams = record("adder", 120, 12);
        rams.o2_rams = rams.rams + 1;
        assert!(!gate(&baseline, &[rams], 0.25).passed());
    }

    #[test]
    fn optimized_instruction_regression_fails_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        let mut current = record("adder", 120, 12);
        current.o2_instructions += 1; // 119 → still ≤ 120, monotone
        let report = gate(&baseline, &[current], 0.25);
        assert!(!report.passed());
        assert!(
            report.regressions[0].contains("-O2 #I regressed"),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn parser_reports_missing_fields_and_syntax_errors() {
        let err = from_json(r#"[{"circuit": "x"}]"#).unwrap_err();
        assert!(err.contains("missing field 'instructions'"), "{err}");
        assert!(err.contains("circuit \"x\""), "{err}");
        assert!(from_json("[").is_err());
        assert!(from_json("[]extra").is_err());
        let err = from_json(r#"[{"instructions": 1}]"#).unwrap_err();
        assert!(err.contains("missing field 'circuit'"), "{err}");
        assert_eq!(from_json("[]").unwrap(), vec![]);
    }

    #[test]
    fn parser_rejects_truncated_documents_with_positions() {
        // Every prefix of a valid document must fail cleanly, never panic.
        let full = to_json(&[record("adder", 120, 12)]);
        for end in 0..full.len() {
            if let Err(err) = from_json(&full[..end]) {
                assert!(err.starts_with("byte "), "prefix {end}: {err}");
            }
            // Short prefixes that happen to parse (none do for this schema
            // except the empty-array-less ones) would be caught by the
            // missing-field checks above.
        }
        let err = from_json("[{\"circuit\": \"x\"").unwrap_err();
        assert!(err.starts_with("byte "), "{err}");
    }

    #[test]
    fn parser_rejects_duplicate_keys() {
        let err =
            from_json(r#"[{"circuit": "x", "instructions": 1, "instructions": 2}]"#).unwrap_err();
        assert!(err.contains("duplicate key \"instructions\""), "{err}");
        let err = from_json(r#"[{"circuit": "x", "circuit": "y"}]"#).unwrap_err();
        assert!(err.contains("duplicate key \"circuit\""), "{err}");
    }

    #[test]
    fn parser_rejects_non_numeric_counts() {
        let err = from_json(
            r#"[{"circuit": "x", "instructions": "lots", "rams": 3, "max_writes": 1,
                "lookahead_rams": 3, "wear_max_writes": 1, "rewrite_ms": 1.0,
                "compile_ms": 1.0}]"#,
        )
        .unwrap_err();
        assert!(
            err.contains("field 'instructions' must be a number"),
            "{err}"
        );
        let err = from_json(r#"[{"circuit": "x", "rams": true}]"#).unwrap_err();
        assert!(err.contains("field 'rams' must be a number"), "{err}");
        let err = from_json(r#"[{"circuit": 7}]"#).unwrap_err();
        assert!(err.contains("field 'circuit' must be a string"), "{err}");
    }

    #[test]
    fn parser_rejects_non_object_records_and_non_array_documents() {
        let err = from_json("[42]").unwrap_err();
        assert!(err.contains("record 1: expected an object"), "{err}");
        let err = from_json(r#"{"circuit": "x"}"#).unwrap_err();
        assert!(err.contains("top-level array"), "{err}");
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let records = vec![record("adder", 120, 12)];
        let report = gate(&records, &records, 0.25);
        assert!(report.passed(), "{:?}", report.regressions);
    }

    #[test]
    fn instruction_regression_fails_the_gate() {
        let baseline = vec![record("adder", 120, 12)];
        let current = vec![record("adder", 121, 12)];
        let report = gate(&baseline, &current, 0.25);
        assert!(!report.passed());
        assert!(report.regressions[0].contains("#I regressed 120 → 121"));
    }

    #[test]
    fn ram_regression_and_missing_circuit_fail_the_gate() {
        let baseline = vec![record("adder", 120, 12), record("bar", 50, 6)];
        let current = vec![record("adder", 120, 13)];
        let report = gate(&baseline, &current, 0.25);
        // The record helper annotates egraph_rams = rams, so a RAM bump
        // trips both the #R rule and the egraph column.
        assert_eq!(report.regressions.len(), 3);
        assert!(report.regressions.iter().any(|r| r.contains("#R")));
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("egraph_rams regressed")));
        assert!(report.regressions.iter().any(|r| r.contains("missing")));
    }

    #[test]
    fn improvements_and_endurance_changes_are_notes() {
        let baseline = vec![record("adder", 120, 12)];
        let mut improved = record("adder", 118, 12);
        improved.wear_max_writes = 4;
        let report = gate(&baseline, &[improved], 0.25);
        assert!(report.passed());
        assert!(report.notes.iter().any(|n| n.contains("#I improved")));
        assert!(report.notes.iter().any(|n| n.contains("wear_max_writes")));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_within_passes() {
        let baseline = vec![record("adder", 120, 12)];
        let mut slow = record("adder", 120, 12);
        slow.compile_ms = 10.0;
        let report = gate(&baseline, &[slow.clone()], 0.25);
        assert!(!report.passed());
        assert!(report.regressions[0].contains("tolerance"));
        // A generous tolerance lets the same run through.
        assert!(gate(&baseline, &[slow], 10.0).passed());
    }
}
