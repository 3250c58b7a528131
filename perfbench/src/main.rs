//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! perfbench daemon [plimd flags]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are notes for
//! a human reader. A traced run also writes its spans to
//! `.bench_tmp/traces/<workload>-seed<N>.json`. The exit code is 0 only
//! when every operation was correct.

use std::path::PathBuf;
use std::process::ExitCode;

use plim_perfbench::host::Sampler;
use plim_perfbench::inputs::Size;
use plim_perfbench::plimd::DAEMON_PROBE;
use plim_perfbench::{report, run, Config, Workload};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".to_string()),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        daemon_exe: std::env::current_exe()
            .map_err(|e| format!("locating this executable: {e}"))?,
        scratch: PathBuf::from(".bench_tmp"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        // The daemon samples its own host speed, so the client can rescale
        // what it measured against the process that did the work; the
        // median is the daemon's last line of output. One probe per 200 ms
        // keeps the sampler under 1 % of a core.
        let sampler = Sampler::start(std::time::Duration::from_millis(200));
        let result = plim_service::server::serve_cli(&args[1..]);
        if let Some(median) = sampler.median() {
            println!("{DAEMON_PROBE}{:.6}", median.as_secs_f64() * 1e3);
        }
        // Exit at once, as `plimd` does when its server returns: lingering
        // (say, to join the sampler) lets a pool worker drop the server's
        // last reference and try to join itself. The sampler holds nothing
        // that needs cleaning up.
        std::process::exit(match result {
            Ok(()) => 0,
            Err(message) => {
                eprintln!("perfbench daemon: {message}");
                1
            }
        });
    }
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&config) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", config.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in result
        .measured
        .latency_notes()
        .iter()
        .chain(&result.measured.notes)
    {
        println!("# {note}");
    }
    let metrics = result.metrics();
    for (name, unit, value) in &metrics {
        println!("# {name} = {value:.6} {unit}");
    }
    if let Some(tracer) = &result.tracer {
        let dir = config.scratch.join("traces");
        let file = dir.join(format!(
            "{}-seed{}.json",
            config.workload.name(),
            config.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tracer.to_json())) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                file.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", file.display()),
        }
    }
    let correct = result.correct();
    println!(
        "{}",
        report::result_line(correct, &result.measured.outcomes, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
