//! Workload inputs: suite circuits and seeded control logic, serialised to
//! MIG text. The program under test only ever sees the text.

use mig::Mig;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::{CompilerOptions, OptLevel, RewriteMode};
use plim_service::pipeline::CompileSpec;

/// Input scale: the measured size, or a tiny one for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Full-scale suite circuits and control logic sized so the loaded
    /// layer dominates.
    Full,
    /// Reduced suite circuits and small control logic.
    Tiny,
}

/// The 13 mid-size circuits of the full-scale suite: every Table 1 circuit
/// except the five largest (`div`, `multiplier`, `mem_ctrl`, `sqrt`,
/// `square`).
pub const MID_SIZE: [&str; 13] = [
    "adder",
    "bar",
    "log2",
    "max",
    "sin",
    "cavlc",
    "ctrl",
    "dec",
    "i2c",
    "int2float",
    "priority",
    "router",
    "voter",
];

/// Suite circuits of the tiny size.
const TINY_SUITE: [&str; 4] = ["ctrl", "dec", "int2float", "router"];

/// One named input with the spec it is compiled under.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Display name.
    pub name: String,
    /// The circuit as MIG text.
    pub text: String,
    /// How it is compiled.
    pub spec: CompileSpec,
}

/// An independent sub-seed of the workload seed for input `stream`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    mig::simulate::XorShift64::for_stream(seed, stream).next_word()
}

/// A suite circuit at the given size.
pub fn suite_circuit(name: &str, size: Size) -> Mig {
    let scale = match size {
        Size::Full => Scale::Full,
        Size::Tiny => Scale::Reduced,
    };
    suite::build(name, scale).expect("suite circuit names are fixed")
}

/// Seeded random control logic (`inputs`, `outputs`, `nodes`) as text.
pub fn control_text(inputs: usize, outputs: usize, nodes: usize, seed: u64) -> String {
    mig::io::write_mig(&random_logic(&RandomLogicSpec::new(
        inputs, outputs, nodes, seed,
    )))
}

/// The `-O2` spec of the compile workloads: arena or e-graph rewrite,
/// verification on.
pub fn o2_spec(rewrite: RewriteMode) -> CompileSpec {
    CompileSpec {
        options: CompilerOptions::new().opt(OptLevel::O2).rewrite(rewrite),
        ..CompileSpec::default()
    }
}

/// Suite circuits plus seeded control logic of the given shapes, all under
/// one spec.
fn compile_inputs(
    suite_names: &[&str],
    control: &[(usize, usize, usize)],
    size: Size,
    seed: u64,
    spec: CompileSpec,
) -> Vec<Input> {
    let mut inputs: Vec<Input> = suite_names
        .iter()
        .map(|name| Input {
            name: (*name).to_string(),
            text: mig::io::write_mig(&suite_circuit(name, size)),
            spec,
        })
        .collect();
    for (index, &(pi, po, nodes)) in control.iter().enumerate() {
        inputs.push(Input {
            name: format!("control{index}_{pi}x{nodes}"),
            text: control_text(pi, po, nodes, mix(seed, index as u64)),
            spec,
        });
    }
    inputs
}

/// `compile-o2` inputs: the mid-size suite and the large arithmetic
/// `multiplier`, `sqrt` and `square` (full-scale `div` and `mem_ctrl`
/// would each take most of a run), plus seven seeded control circuits of
/// about 3k nodes after rewriting, large enough that `PassManager::run`
/// does most of their work. The draws are sized to fall between `sin` and
/// `voter`, so the median and the latency tail are fixed suite circuits:
/// with 23 inputs and three rounds both ranks sit in the middle of one
/// input's samples, and neither hangs on a seeded draw.
pub fn compile_o2(size: Size, seed: u64) -> Vec<Input> {
    let spec = o2_spec(RewriteMode::Arena);
    match size {
        Size::Full => compile_inputs(
            &[&MID_SIZE[..], &["multiplier", "sqrt", "square"]].concat(),
            &[(1024, 128, 5500); 7],
            size,
            seed,
            spec,
        ),
        Size::Tiny => compile_inputs(&TINY_SUITE, &[(32, 8, 120), (48, 8, 200)], size, seed, spec),
    }
}

/// `egraph-o2` inputs: the mid-size suite plus two smaller seeded control
/// circuits, under `--rewrite egraph` (15 inputs: with three rounds the
/// median and the tail rank fall in the middle of one input's samples).
pub fn egraph_o2(size: Size, seed: u64) -> Vec<Input> {
    let spec = o2_spec(RewriteMode::Egraph);
    match size {
        Size::Full => compile_inputs(
            &MID_SIZE,
            &[(256, 32, 1000), (256, 32, 1000)],
            size,
            seed,
            spec,
        ),
        Size::Tiny => compile_inputs(&TINY_SUITE, &[(24, 6, 80)], size, seed, spec),
    }
}

/// `table1` circuits: the mid-size suite but `ctrl` (56 nodes, nothing to
/// measure) plus full-scale `sqrt`, the large arithmetic circuit that makes
/// the batch's long pole real. 13 circuits and three rounds put the median
/// and the tail rank in the middle of one circuit's samples. The suite is
/// fixed; the seed does not apply.
pub fn table1(size: Size) -> Vec<(String, String)> {
    let names: Vec<&str> = match size {
        Size::Full => MID_SIZE
            .iter()
            .copied()
            .filter(|&name| name != "ctrl")
            .chain(["sqrt"])
            .collect(),
        Size::Tiny => TINY_SUITE.to_vec(),
    };
    names
        .into_iter()
        .map(|name| {
            (
                name.to_string(),
                mig::io::write_mig(&suite_circuit(name, size)),
            )
        })
        .collect()
}
