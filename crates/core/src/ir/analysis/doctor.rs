//! Deliberate artifact corruption, for proving the analyzer has teeth.
//!
//! A lint gate that never fires is indistinguishable from one that is
//! wired up wrong. CI therefore dry-runs the analyzer on a *doctored*
//! event stream — a known-good compilation with one discipline violation
//! injected — and requires the run to fail with the expected lint. These
//! helpers perform the injections; each documents the lint it guarantees.

use crate::ir::{CellId, Event, IrProgram, Value};

/// Injects a write-after-release: releases the destination cell of the
/// first op event immediately before that op runs, so the op's write (and
/// any later use of the cell) lands on a released cell.
///
/// On any stream produced by the compiler this guarantees a `PA0002`
/// (use-after-release) finding — the lowering always requests a cell
/// before its first write, so at the injection point the destination is
/// requested-but-unwritten and the release itself is unremarkable.
///
/// Returns the sabotaged cell, or `None` if the stream has no op events
/// (nothing to corrupt).
pub fn inject_write_after_release(ir: &mut IrProgram) -> Option<CellId> {
    let pos = ir
        .events
        .iter()
        .position(|event| matches!(event, Event::Op(_)))?;
    let Event::Op(i) = ir.events[pos] else {
        unreachable!("position() matched an op event");
    };
    let z = ir.ops.get(i as usize)?.z;
    ir.events.insert(pos, Event::Release(z));
    Some(z)
}

/// Injects a stale complement: finds the first complement materialization
/// (`z` reset, then `z ← ⟨1 s̄ z⟩` under node `n`) whose source `s` was last
/// written by an op of the same node `n` and whose cache `z` is read
/// later, and re-emits that producing op right after the materialization.
/// The re-emitted op recomputes `s` under `n` while `z` still caches the
/// complement, so the next read of `z` observes a stale one.
///
/// This guarantees a `PA0005` (stale-complement) finding on `z`. The
/// re-emitted op may also read cells already released by then, and it
/// adds an instruction the recorded stats do not count, so other findings
/// can accompany it.
///
/// Returns the cache cell `z`, or `None` if the stream materializes no
/// such complement (nothing to corrupt).
pub fn inject_stale_complement(ir: &mut IrProgram) -> Option<CellId> {
    // The op that last wrote each cell.
    let mut last_write: Vec<Option<usize>> = vec![None; ir.cells.len()];
    let mut site = None;
    for (pos, &event) in ir.events.iter().enumerate() {
        let Event::Op(i) = event else {
            continue;
        };
        let op = ir.ops.get(i as usize)?;
        let writer = |c: CellId| last_write.get(c.index()).copied().flatten();
        if let (Value::Const(true), Value::Cell(source), Some(node)) = (op.a, op.b, op.node) {
            let reset = writer(op.z).is_some_and(|w| {
                (ir.ops[w].a, ir.ops[w].b) == (Value::Const(false), Value::Const(true))
            });
            let producer = writer(source).filter(|&w| {
                let p = &ir.ops[w];
                let identity = matches!((p.a, p.b), (Value::Const(x), Value::Const(y)) if x == y);
                p.node == Some(node) && !identity
            });
            if let Some(w) =
                producer.filter(|_| reset && source != op.z && read_later(ir, pos, op.z))
            {
                site = Some((pos, w, op.z));
                break;
            }
        }
        if let Some(slot) = last_write.get_mut(op.z.index()) {
            *slot = Some(i as usize);
        }
    }
    let (pos, producer, cache) = site?;
    ir.ops.push(ir.ops[producer]);
    ir.events
        .insert(pos + 1, Event::Op(ir.ops.len() as u32 - 1));
    Some(cache)
}

/// Whether the first event after `pos` that touches `z` is an op reading it
/// (not a release, and not a write that resets it first).
fn read_later(ir: &IrProgram, pos: usize, z: CellId) -> bool {
    for &event in &ir.events[pos + 1..] {
        match event {
            Event::Request(c) | Event::Release(c) if c == z => return false,
            Event::Op(i) => {
                let Some(op) = ir.ops.get(i as usize) else {
                    return false;
                };
                if op.reads().any(|c| c == z) {
                    return true;
                }
                if op.z == z {
                    return false;
                }
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::analysis::{analyze_events, AnalysisConfig, Lint};
    use crate::{compile_full, CompilerOptions};

    #[test]
    fn injection_trips_use_after_release() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, b, c);
        mig.add_output("m", m);
        let mut compilation = compile_full(&mig, CompilerOptions::new());

        let config = AnalysisConfig::structural();
        assert!(analyze_events(&compilation.ir, &config).is_empty());

        let cell = inject_write_after_release(&mut compilation.ir).expect("stream has ops");
        let diags = analyze_events(&compilation.ir, &config);
        assert!(
            diags
                .iter()
                .any(|d| d.lint == Lint::UseAfterRelease && d.cell == Some(cell)),
            "expected PA0002 on %{}, got: {diags:?}",
            cell.0
        );
    }

    #[test]
    fn injection_trips_stale_complement() {
        // Node `m`'s complement feeds both `p` and `q`, so the lowering
        // materializes and caches ¬m in a work cell.
        let mut mig = mig::Mig::new();
        let inputs: Vec<_> = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|name| mig.add_input(name))
            .collect();
        let m = mig.maj(inputs[0], inputs[1], inputs[2]);
        let p = mig.maj(!m, !inputs[3], inputs[4]);
        let q = mig.maj(!m, !inputs[4], inputs[3]);
        mig.add_output("p", p);
        mig.add_output("q", q);
        let mut compilation = compile_full(&mig, CompilerOptions::new());

        let config = AnalysisConfig::structural();
        assert!(analyze_events(&compilation.ir, &config).is_empty());

        let cell = inject_stale_complement(&mut compilation.ir).expect("a cached complement");
        let diags = analyze_events(&compilation.ir, &config);
        assert!(
            diags
                .iter()
                .any(|d| d.lint == Lint::StaleComplement && d.cell == Some(cell)),
            "expected PA0005 on %{}, got: {diags:?}",
            cell.0
        );
    }

    #[test]
    fn empty_stream_is_not_corruptible() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        mig.add_output("a", a);
        let mut compilation = compile_full(&mig, CompilerOptions::new());
        // A pass-through circuit lowers to zero ops.
        assert_eq!(inject_write_after_release(&mut compilation.ir), None);
        assert_eq!(inject_stale_complement(&mut compilation.ir), None);
    }
}
