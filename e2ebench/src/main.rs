//! End-to-end benchmark of the vgen eval pipeline.
//!
//! ```text
//! e2ebench --workload <paper_sweep|serve_mixed|long_tb> --seed N
//!          --seconds S --trace 0|1 --vgen PATH
//! ```
//!
//! `run.sh` builds the `vgen` CLI and this binary from source and passes
//! `--vgen`. Each run makes its inputs from the seed, measures for about
//! `--seconds`, checks the program's outputs, prints a human-readable
//! table on stderr, and prints one JSON result line last on stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. Traced runs also leave the span file and the
//! self-time tables under `.bench_out/<workload>/`. See README.md.

mod layers;
mod long_tb;
mod paper_sweep;
mod serve_mixed;
mod spans;
mod stats;
mod tb;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Trace;
use vgen_serve::Json;

pub const WORKLOADS: [&str; 3] = ["paper_sweep", "serve_mixed", "long_tb"];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "items/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload's measured phase does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("lm.generate.calls", "count"),
    ("lm.generate.busy_ms", "ms"),
    ("lm.bank.builds", "count"),
    ("lm.bank.busy_ms", "ms"),
    ("lm.bank.keep_ratio", "ratio"),
    ("core.sweep.busy_ms", "ms"),
    ("core.sweep.self_ms", "ms"),
    ("core.check.calls", "count"),
    ("core.check.busy_ms", "ms"),
    ("core.check.self_ms", "ms"),
    ("core.dedup.hit_ratio", "ratio"),
    ("core.guard.overhead_us", "us"),
    ("core.pool.utilization", "ratio"),
    ("core.journal.writes", "count"),
    ("core.report.busy_ms", "ms"),
    ("verilog.parse.calls", "count"),
    ("verilog.parse.busy_ms", "ms"),
    ("verilog.parse.per_check", "ratio"),
    ("lint.calls", "count"),
    ("lint.busy_ms", "ms"),
    ("sim.elaborate.calls", "count"),
    ("sim.elaborate.busy_ms", "ms"),
    ("sim.simulate.calls", "count"),
    ("sim.simulate.busy_ms", "ms"),
    ("sim.lower.busy_ms", "ms"),
    ("sim.run.busy_ms", "ms"),
    ("sim.steps", "count"),
    ("sim.cycles", "count"),
    ("serve.check.busy_ms", "ms"),
    ("serve.eval.busy_ms", "ms"),
    ("serve.transport.busy_ms", "ms"),
    ("serve.threads_peak", "count"),
    ("serve.rss_growth_kb_per_req", "KB/req"),
    ("obs.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub vgen: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let vgen = PathBuf::from(get("--vgen")?);
    if !vgen.is_file() {
        return Err(format!("no vgen binary at {}", vgen.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        vgen,
    })
}

/// Everything a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, for `error_rate`.
    pub attempted: u64,
    pub failed: u64,
    /// What failed, one line per failure (the first 1000).
    pub failures: Vec<String>,
    /// The metrics of the result line, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: name, value, unit, sample note.
    pub report: Vec<(String, f64, String, String)>,
    /// Spans of a traced run, with the roots that get a table each.
    pub trace: Option<(Trace, Vec<usize>)>,
}

impl Outcome {
    pub fn note(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        self.report.push((
            name.to_string(),
            value,
            unit.to_string(),
            samples.to_string(),
        ));
    }

    /// Records `n` failed operations: a non-zero exit, an `error` event,
    /// a harness fault or a correctness-check mismatch. Every failure
    /// counts into `error_rate` and makes the run incorrect.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 1000 {
            self.failures.push(what);
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The items of a JSON array; `None` for any other value.
pub fn json_array(v: &Json) -> Option<&[Json]> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Where a workload keeps its scratch files, inside the checkout.
pub fn out_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out").join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let m = vec![
                ("value".to_string(), Json::Num(out.metrics[name])),
                ("unit".to_string(), Json::str(*unit)),
            ];
            (name.to_string(), Json::Obj(m))
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(out.failed == 0 && out.failures.is_empty()),
        ),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_before = stats::host_probe_ms();
    let result = match args.workload.as_str() {
        "paper_sweep" => paper_sweep::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        _ => long_tb::run(&args),
    };
    let probe_after = stats::host_probe_ms();
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some((mut trace, roots)) = out.trace.take() {
        if let Err(e) = write_trace(&args, &mut trace, &roots) {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    }
    if let Some((name, _)) = names.iter().find(|(n, _)| !out.metrics.contains_key(n)) {
        eprintln!(
            "e2ebench: {}: metric {name} was not measured",
            args.workload
        );
        return ExitCode::from(1);
    }
    eprintln!(
        "== {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit, samples) in &out.report {
        eprintln!("{name:<30} {value:>14.4} {unit:<10} {samples}");
    }
    eprintln!(
        "{:<30} {:>14.4} {:<10} host speed diagnostic, {:.4} ms after the run",
        "host_probe_ms", probe_before, "ms", probe_after
    );
    eprintln!(
        "{:<30} {:>14.6} {:<10} {} failed of {} attempted",
        "error_rate",
        out.error_rate(),
        "fraction",
        out.failed,
        out.attempted
    );
    for m in out.failures.iter().take(20) {
        eprintln!("FAILED: {m}");
    }
    println!("{}", result_line(&out, names));
    ExitCode::SUCCESS
}

/// Computes the self-time tables and writes the span file and the
/// tables. Every table's self times must sum to its root's wall time.
fn write_trace(args: &Args, trace: &mut Trace, roots: &[usize]) -> Result<(), String> {
    trace.clamp();
    let dir = out_dir(&args.workload)?;
    let mut text = String::new();
    for &root in roots {
        let table = trace.table(root);
        if (table.self_sum_ns() - table.wall_ns).abs() > 1e-6 * table.wall_ns.max(1.0) {
            return Err(format!(
                "self times of {} sum to {:.0} ns, not its wall {:.0} ns",
                table.title,
                table.self_sum_ns(),
                table.wall_ns
            ));
        }
        text.push_str(&table.render());
        text.push('\n');
    }
    let spans_path = dir.join(format!("spans-seed{}.jsonl", args.seed));
    let table_path = dir.join(format!("selftime-seed{}.txt", args.seed));
    std::fs::write(&spans_path, trace.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    std::fs::write(&table_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))?;
    eprint!("{text}");
    eprintln!(
        "wrote {} spans to {} and the tables to {}",
        trace.spans.len(),
        spans_path.display(),
        table_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(json_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let v = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(json_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.metrics.insert(name, 1.5 + i as f64);
        }
        let line = Json::parse(&result_line(&out, &END_TO_END)).expect("valid JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert!(matches!(metrics, Json::Obj(m) if m.len() == END_TO_END.len()));
    }

    #[test]
    fn a_failure_makes_the_result_incorrect() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.metrics.insert(name, 2.0);
        }
        out.fail(1, "injected".to_string());
        let line = Json::parse(&result_line(&out, &END_TO_END)).expect("valid JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(out.error_rate(), 0.25);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload nope --seed 1 --seconds 1 --trace 0 --vgen x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload long_tb --seed x --seconds 1 --trace 0 --vgen x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload long_tb --seed 1 --seconds 1 --trace 2 --vgen x"
        ))
        .is_err());
    }
}
