//! The `BENCH.json` artifact and the bench-regression gate.
//!
//! Every quality and speed number the compiler cares about becomes a
//! machine-checked artifact: `plimc bench --json` (and the `pipeline` bench
//! harness) emit one [`BenchRecord`] per suite circuit, CI diffs the fresh
//! run against the committed `benchmarks/baseline.json` with [`gate`], and
//! the job fails when `#I` or `#R` regress or the pipeline slows down past
//! the tolerance. The JSON reader/writer is hand-rolled for exactly this
//! flat schema so the workspace stays dependency-free and offline.
//!
//! A record carries, per circuit:
//!
//! * `instructions` / `rams` / `max_writes` — `#I`, `#R` and the
//!   endurance-limiting cell's write count of the **default** compiler
//!   (priority scheduling, smart translation, FIFO allocation, `-O0`) on
//!   the rewritten MIG; deterministic, diffed exactly;
//! * `lookahead_rams` / `wear_max_writes` — the same circuit under the
//!   lookahead scheduler and under the wear-budget allocator, recording
//!   what the lifetime-driven extensions buy;
//! * `o1_instructions` / `o1_rams` and `o2_instructions` / `o2_rams` /
//!   `o2_max_writes` — the default compiler with the IR pass pipeline at
//!   `-O1` and `-O2`. [`gate`] enforces that a higher level never costs
//!   instructions, cells, or endurance relative to `-O0` — on the current
//!   run itself, baseline or not;
//! * `ambit_ops` / `ambit_cost` and `magic_ops` / `magic_cost` — the
//!   **per-target axis**: instruction count and cost-model units of the
//!   default compiler's IR re-emitted through the `ambit` (bulk-bitwise
//!   DRAM majority) and `magic` (memristive NOR) backends. Filled in by
//!   the backend registry (`plim-backends::annotate_bench`), `0` when
//!   annotation was skipped; [`gate`] fails hard when an annotated column
//!   regresses against an annotated baseline and notes
//!   annotation-coverage changes;
//! * `egraph_instructions` / `egraph_rams` — the **equality-saturation
//!   axis**: `#I` and `#R` of the circuit re-optimized through the
//!   `plim-egraph` engine and compiled at `-O2`. Filled in by
//!   `plim-egraph::annotate_bench`, `0` when annotation was skipped;
//!   [`gate`] applies the same annotated-pairs rule as the per-target
//!   columns **and** checks, on the current run alone, that an annotated
//!   `egraph_instructions` never exceeds `o2_instructions` — the e-graph
//!   extractor falls back to the arena result, so being worse is a bug;
//! * `rewrite_ms` / `compile_ms` — wall-clock of the rewrite pass and of
//!   the circuit's compile jobs; gated only in aggregate, with a generous
//!   tolerance, because timings are machine-dependent;
//! * `verified_exhaustive` / `fault_error_rate` / `lifetime_invocations`
//!   — the **fidelity axis**, filled in by the scenario engine
//!   (`plim-scenario`): whether the circuit's compiled programs were
//!   proven equal to the source MIG over the *entire* input space at every
//!   opt level, the measured output-error rate under the reference
//!   drifted-write fault model, and the simulated invocations until the
//!   first cell exceeds its endurance budget. [`gate`] fails hard when
//!   `verified_exhaustive` regresses from `true` to `false`; the two
//!   measured columns are reported as notes;
//! * `lint_clean` — the **static-analysis axis**: whether every artifact
//!   behind the record came back from the `plim-analysis` lint engine
//!   with zero diagnostics and exactly matching statically re-derived
//!   resources. Like the proof column, [`gate`] fails hard on a
//!   `true → false` flip and notes the opposite direction.
//!
//! Parsing is built on the shared [`crate::json`] layer, so syntax errors
//! carry byte positions and schema errors name the missing or mistyped
//! field and the record it belongs to — `plimc bench-diff` surfaces them
//! verbatim as one-line diagnostics.

use std::fmt::Write as _;

use crate::json::Value;

/// One circuit's row of a `BENCH.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name.
    pub circuit: String,
    /// `#I` of the default compiler on the rewritten MIG.
    pub instructions: u64,
    /// `#R` of the default compiler on the rewritten MIG.
    pub rams: u64,
    /// Highest per-cell write count under the default compiler.
    pub max_writes: u64,
    /// `#R` under lookahead scheduling (lifetime-driven extension).
    pub lookahead_rams: u64,
    /// Highest per-cell write count under the wear-budget allocator.
    pub wear_max_writes: u64,
    /// `#I` of the default compiler at `-O1`.
    pub o1_instructions: u64,
    /// `#R` of the default compiler at `-O1`.
    pub o1_rams: u64,
    /// `#I` of the default compiler at `-O2`.
    pub o2_instructions: u64,
    /// `#R` of the default compiler at `-O2`.
    pub o2_rams: u64,
    /// Highest per-cell write count of the default compiler at `-O2`.
    pub o2_max_writes: u64,
    /// Instructions of the default compiler's IR emitted through the
    /// `ambit` backend (0 when per-target annotation was skipped).
    pub ambit_ops: u64,
    /// Cost-model units of the `ambit` emission (row activations).
    pub ambit_cost: u64,
    /// Instructions of the default compiler's IR emitted through the
    /// `magic` backend (0 when per-target annotation was skipped).
    pub magic_ops: u64,
    /// Cost-model units of the `magic` emission (NOR pulses).
    pub magic_cost: u64,
    /// `#I` of the equality-saturation engine's extraction compiled at
    /// `-O2` (0 when annotation was skipped).
    pub egraph_instructions: u64,
    /// `#R` of the equality-saturation engine's extraction compiled at
    /// `-O2` (0 when annotation was skipped).
    pub egraph_rams: u64,
    /// Wall-clock of the circuit's rewrite pass, in milliseconds.
    pub rewrite_ms: f64,
    /// Wall-clock of the circuit's compile jobs, in milliseconds.
    pub compile_ms: f64,
    /// Whether every opt level's compiled program was proven equal to the
    /// source MIG over the full input space (`false` for circuits beyond
    /// the exhaustive bound, or when annotation was skipped).
    pub verified_exhaustive: bool,
    /// Measured output-error rate (erroneous patterns / patterns) under
    /// the reference drifted-write fault model.
    pub fault_error_rate: f64,
    /// Simulated invocations until the first cell exceeds the reference
    /// endurance budget (0 when annotation was skipped).
    pub lifetime_invocations: u64,
    /// Whether the static analyzer reported zero diagnostics on every
    /// artifact behind this record, with statically re-derived resources
    /// matching the recorded stats exactly.
    pub lint_clean: bool,
}

/// Serializes records as a stable, human-reviewable JSON document.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (index, r) in records.iter().enumerate() {
        let comma = if index + 1 == records.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"circuit\": {}, \"instructions\": {}, \"rams\": {}, \"max_writes\": {}, \
             \"lookahead_rams\": {}, \"wear_max_writes\": {}, \"o1_instructions\": {}, \
             \"o1_rams\": {}, \"o2_instructions\": {}, \"o2_rams\": {}, \"o2_max_writes\": {}, \
             \"ambit_ops\": {}, \"ambit_cost\": {}, \"magic_ops\": {}, \"magic_cost\": {}, \
             \"egraph_instructions\": {}, \"egraph_rams\": {}, \
             \"rewrite_ms\": {:.3}, \"compile_ms\": {:.3}, \"verified_exhaustive\": {}, \
             \"fault_error_rate\": {:.6}, \"lifetime_invocations\": {}, \
             \"lint_clean\": {}}}{comma}",
            // The shared JSON writer (full escaping, including control
            // characters) keeps the round-trip with `from_json` — which
            // parses through the same layer — airtight.
            Value::string(r.circuit.clone()).to_json(),
            r.instructions,
            r.rams,
            r.max_writes,
            r.lookahead_rams,
            r.wear_max_writes,
            r.o1_instructions,
            r.o1_rams,
            r.o2_instructions,
            r.o2_rams,
            r.o2_max_writes,
            r.ambit_ops,
            r.ambit_cost,
            r.magic_ops,
            r.magic_cost,
            r.egraph_instructions,
            r.egraph_rams,
            r.rewrite_ms,
            r.compile_ms,
            r.verified_exhaustive,
            r.fault_error_rate,
            r.lifetime_invocations,
            r.lint_clean,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]\n");
    out
}

/// The twenty required numeric fields of a record, in schema order
/// (`circuit` and the booleans `verified_exhaustive` / `lint_clean` are
/// handled apart).
const NUMERIC_FIELDS: [&str; 20] = [
    "instructions",
    "rams",
    "max_writes",
    "lookahead_rams",
    "wear_max_writes",
    "o1_instructions",
    "o1_rams",
    "o2_instructions",
    "o2_rams",
    "o2_max_writes",
    "ambit_ops",
    "ambit_cost",
    "magic_ops",
    "magic_cost",
    "egraph_instructions",
    "egraph_rams",
    "rewrite_ms",
    "compile_ms",
    "fault_error_rate",
    "lifetime_invocations",
];

/// Parses a `BENCH.json` document produced by [`to_json`] (or edited by
/// hand: unknown keys are ignored, field order is free).
///
/// # Errors
///
/// Returns a one-line description of the first problem: syntax errors with
/// their byte position (truncated input, duplicate keys, trailing
/// garbage — via [`crate::json`]), a `missing field '<name>'` for an
/// absent required field, or a type mismatch for a non-numeric count.
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
    let Some(members) = item.as_object() else {
        return Err(format!("record {}: expected an object", index + 1));
    };
    // `circuit` first: every later diagnostic names the record by it.
    let circuit = match item.get("circuit") {
        Some(value) => value
            .as_str()
            .ok_or_else(|| format!("field 'circuit' must be a string (record {})", index + 1))?
            .to_string(),
        None => return Err(format!("missing field 'circuit' (record {})", index + 1)),
    };
    let mut numeric = [None::<f64>; NUMERIC_FIELDS.len()];
    for (key, value) in members {
        if let Some(slot) = NUMERIC_FIELDS.iter().position(|n| n == key) {
            numeric[slot] = Some(value.as_f64().ok_or_else(|| {
                format!("field '{key}' must be a number (circuit \"{circuit}\")")
            })?);
        }
        // Unknown fields (of any type) are ignored for forward compatibility.
    }
    let get = |name: &str| -> Result<f64, String> {
        let slot = NUMERIC_FIELDS
            .iter()
            .position(|n| *n == name)
            .expect("known field");
        numeric[slot].ok_or_else(|| format!("missing field '{name}' (circuit \"{circuit}\")"))
    };
    // Checked after the numeric fields so diagnostics keep their
    // long-standing precedence (type errors, then missing counts).
    let boolean = |name: &'static str| -> Result<bool, String> {
        match item.get(name) {
            Some(value) => value
                .as_bool()
                .ok_or_else(|| format!("field '{name}' must be a boolean (circuit \"{circuit}\")")),
            None => Err(format!("missing field '{name}' (circuit \"{circuit}\")")),
        }
    };
    Ok(BenchRecord {
        instructions: get("instructions")? as u64,
        rams: get("rams")? as u64,
        max_writes: get("max_writes")? as u64,
        lookahead_rams: get("lookahead_rams")? as u64,
        wear_max_writes: get("wear_max_writes")? as u64,
        o1_instructions: get("o1_instructions")? as u64,
        o1_rams: get("o1_rams")? as u64,
        o2_instructions: get("o2_instructions")? as u64,
        o2_rams: get("o2_rams")? as u64,
        o2_max_writes: get("o2_max_writes")? as u64,
        ambit_ops: get("ambit_ops")? as u64,
        ambit_cost: get("ambit_cost")? as u64,
        magic_ops: get("magic_ops")? as u64,
        magic_cost: get("magic_cost")? as u64,
        egraph_instructions: get("egraph_instructions")? as u64,
        egraph_rams: get("egraph_rams")? as u64,
        rewrite_ms: get("rewrite_ms")?,
        compile_ms: get("compile_ms")?,
        fault_error_rate: get("fault_error_rate")?,
        lifetime_invocations: get("lifetime_invocations")? as u64,
        verified_exhaustive: boolean("verified_exhaustive")?,
        lint_clean: boolean("lint_clean")?,
        circuit,
    })
}

/// Outcome of diffing a fresh run against the committed baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human-readable per-circuit notes (improvements, informational
    /// changes, the timing summary).
    pub notes: Vec<String>,
    /// Hard failures: `#I`/`#R` regressions, missing circuits, or a
    /// wall-clock slowdown beyond the tolerance. Empty means the gate is
    /// green.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// `true` when no regression was detected.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `current` against `baseline`.
///
/// Deterministic program-quality metrics gate hard: any increase of
/// `instructions`, `rams` or `o2_instructions` (on the default compiler)
/// for a baseline circuit, or a circuit disappearing from the run, is a
/// regression. Independently of the baseline, every *current* record must
/// satisfy opt-level monotonicity — a higher `-O` may never produce more
/// instructions than `-O0`, nor cost cells or endurance at `-O2` — so a
/// pass regression fails CI even right after a baseline refresh.
/// The per-target columns (`ambit_ops`/`ambit_cost`,
/// `magic_ops`/`magic_cost`) and the equality-saturation columns
/// (`egraph_instructions`/`egraph_rams`) gate hard whenever baseline
/// **and** current run annotated them (both nonzero); a `0` on either side
/// means annotation was skipped there, and the coverage change is a note.
/// Additionally, every annotated *current* record must satisfy
/// `egraph_instructions <= o2_instructions` — the extractor falls back to
/// the arena result, so being worse is a bug even after a baseline
/// refresh.
/// Wall-clock gates softly: only the **total** `rewrite_ms + compile_ms`
/// over circuits present in both runs is compared, and only a slowdown
/// beyond `time_tolerance` (e.g. `0.25` for +25 %) fails. The endurance
/// and extension columns (`max_writes`, `lookahead_rams`,
/// `wear_max_writes`, the remaining `o1`/`o2` columns) are reported as
/// notes so intentional trade-offs do not need a baseline refresh
/// ceremony.
///
/// The fidelity axis gates asymmetrically: a circuit whose
/// `verified_exhaustive` flips from `true` to `false` is a regression (a
/// formerly proven circuit lost its proof), the opposite flip is a note,
/// and changes of the measured `fault_error_rate` /
/// `lifetime_invocations` columns are notes (they move with the fault
/// model, not with compiler correctness). The static-analysis column
/// `lint_clean` gates the same way: a formerly clean circuit growing a
/// diagnostic is a regression, a circuit coming clean is a note.
pub fn gate(baseline: &[BenchRecord], current: &[BenchRecord], time_tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let mut base_time = 0.0f64;
    let mut curr_time = 0.0f64;
    for c in current {
        // The e-graph extractor falls back to the arena result whenever no
        // candidate wins, so an annotated record where it ends up *worse*
        // than plain `-O2` is a bug regardless of what the baseline says.
        if c.egraph_instructions != 0 && c.egraph_instructions > c.o2_instructions {
            report.regressions.push(format!(
                "{}: egraph_instructions exceeds o2_instructions ({} > {})",
                c.circuit, c.egraph_instructions, c.o2_instructions
            ));
        }
        for (rule, high, low) in [
            (
                "-O1 produces more instructions than -O0",
                c.o1_instructions,
                c.instructions,
            ),
            (
                "-O2 produces more instructions than -O0",
                c.o2_instructions,
                c.instructions,
            ),
            ("-O2 uses more RRAMs than -O0", c.o2_rams, c.rams),
            (
                "-O2 wears cells harder than -O0",
                c.o2_max_writes,
                c.max_writes,
            ),
        ] {
            if high > low {
                report
                    .regressions
                    .push(format!("{}: {rule} ({low} → {high})", c.circuit));
            }
        }
    }
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.circuit == b.circuit) else {
            report
                .regressions
                .push(format!("{}: missing from the current run", b.circuit));
            continue;
        };
        base_time += b.rewrite_ms + b.compile_ms;
        curr_time += c.rewrite_ms + c.compile_ms;
        for (metric, old, new) in [
            ("#I", b.instructions, c.instructions),
            ("#R", b.rams, c.rams),
            ("-O2 #I", b.o2_instructions, c.o2_instructions),
        ] {
            if new > old {
                report
                    .regressions
                    .push(format!("{}: {metric} regressed {old} → {new}", b.circuit));
            } else if new < old {
                report
                    .notes
                    .push(format!("{}: {metric} improved {old} → {new}", b.circuit));
            }
        }
        // Per-target columns gate hard, but only where both runs actually
        // annotated them: `0` means "annotation skipped", and comparing a
        // measured value against a skip would turn coverage changes into
        // phantom regressions.
        for (metric, old, new) in [
            ("ambit_ops", b.ambit_ops, c.ambit_ops),
            ("ambit_cost", b.ambit_cost, c.ambit_cost),
            ("magic_ops", b.magic_ops, c.magic_ops),
            ("magic_cost", b.magic_cost, c.magic_cost),
            (
                "egraph_instructions",
                b.egraph_instructions,
                c.egraph_instructions,
            ),
            ("egraph_rams", b.egraph_rams, c.egraph_rams),
        ] {
            if old == 0 || new == 0 {
                if old != new {
                    report.notes.push(format!(
                        "{}: {metric} annotation coverage changed {old} → {new}",
                        b.circuit
                    ));
                }
            } else if new > old {
                report
                    .regressions
                    .push(format!("{}: {metric} regressed {old} → {new}", b.circuit));
            } else if new < old {
                report
                    .notes
                    .push(format!("{}: {metric} improved {old} → {new}", b.circuit));
            }
        }
        match (b.verified_exhaustive, c.verified_exhaustive) {
            (true, false) => report.regressions.push(format!(
                "{}: verified_exhaustive regressed true → false",
                b.circuit
            )),
            (false, true) => report
                .notes
                .push(format!("{}: now verified exhaustively", b.circuit)),
            _ => {}
        }
        match (b.lint_clean, c.lint_clean) {
            (true, false) => report
                .regressions
                .push(format!("{}: lint_clean regressed true → false", b.circuit)),
            (false, true) => report.notes.push(format!("{}: now lint-clean", b.circuit)),
            _ => {}
        }
        if (b.fault_error_rate - c.fault_error_rate).abs() > f64::EPSILON {
            report.notes.push(format!(
                "{}: fault_error_rate changed {:.6} → {:.6}",
                b.circuit, b.fault_error_rate, c.fault_error_rate
            ));
        }
        if b.lifetime_invocations != c.lifetime_invocations {
            report.notes.push(format!(
                "{}: lifetime_invocations changed {} → {}",
                b.circuit, b.lifetime_invocations, c.lifetime_invocations
            ));
        }
        for (metric, old, new) in [
            ("max_writes", b.max_writes, c.max_writes),
            ("lookahead_rams", b.lookahead_rams, c.lookahead_rams),
            ("wear_max_writes", b.wear_max_writes, c.wear_max_writes),
            ("o1_instructions", b.o1_instructions, c.o1_instructions),
            ("o1_rams", b.o1_rams, c.o1_rams),
            ("o2_rams", b.o2_rams, c.o2_rams),
            ("o2_max_writes", b.o2_max_writes, c.o2_max_writes),
        ] {
            if new != old {
                report
                    .notes
                    .push(format!("{}: {metric} changed {old} → {new}", b.circuit));
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

    fn record(circuit: &str, instructions: u64, rams: u64) -> BenchRecord {
        BenchRecord {
            circuit: circuit.to_string(),
            instructions,
            rams,
            max_writes: 9,
            lookahead_rams: rams,
            wear_max_writes: 5,
            o1_instructions: instructions,
            o1_rams: rams,
            o2_instructions: instructions.saturating_sub(2),
            o2_rams: rams,
            o2_max_writes: 9,
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
            "o1_instructions": 9, "o1_rams": 3,
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
