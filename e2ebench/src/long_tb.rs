//! `long_tb`: long reference-comparison testbenches for problems 1–25.
//!
//! Candidates are each problem's reference and alternates plus the
//! functional-fail mutants `build_bank` keeps for the seed. Every
//! candidate runs against a generated testbench (see [`crate::tb`]) that
//! compares it with a golden copy of the reference for [`CYCLES`] cycles.
//! The run is in process and single-threaded; passes over the whole
//! candidate set repeat until the time is up.

use std::time::Instant;

use vgen_lm::family::build_bank;
use vgen_problems::Problem;

use crate::layers::{self, BANK_SIZE};
use crate::spans::{now_ns, raw_events, Trace};
use crate::stats::{median, min_samples, proc_status, quantile, reset_peak_rss};
use crate::tb::{run_candidate, testbench, CandRun};
use crate::{Args, Outcome};

/// Testbench cycles per candidate.
pub const CYCLES: u32 = 2000;
/// The problems the workload covers: the paper's 17 and the held-out 8.
const PROBLEMS: std::ops::RangeInclusive<u8> = 1..=25;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// The tail percentile reported as `tail_ms`.
const TAIL: f64 = 0.9;

/// One candidate with the testbench it runs against.
pub struct Cand {
    pub problem: u8,
    /// A reference or alternate solution, which must pass.
    pub solution: bool,
    pub source: String,
}

/// The candidate set and one testbench per problem.
pub struct Inputs {
    pub cands: Vec<Cand>,
    pub testbenches: Vec<String>,
}

/// Builds the inputs for `seed`: banks, testbenches and candidates.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut cands = Vec::new();
    let mut testbenches = Vec::new();
    for id in PROBLEMS {
        let p: &Problem = vgen_problems::problem(id).ok_or(format!("no problem {id}"))?;
        testbenches.push(testbench(p, seed, CYCLES)?);
        for source in p.all_solutions() {
            cands.push(Cand {
                problem: id,
                solution: true,
                source,
            });
        }
        for source in build_bank(p, seed ^ u64::from(id), BANK_SIZE).functional_fail {
            cands.push(Cand {
                problem: id,
                solution: false,
                source,
            });
        }
    }
    Ok(Inputs { cands, testbenches })
}

/// One pass over every candidate.
struct Pass {
    runs: Vec<CandRun>,
    wall_ns: u64,
}

fn run_pass(inp: &Inputs) -> Pass {
    let t0 = Instant::now();
    let runs = inp
        .cands
        .iter()
        .map(|c| run_candidate(&c.source, &inp.testbenches[usize::from(c.problem - 1)]))
        .collect();
    Pass {
        runs,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

fn verdicts(pass: &Pass) -> Vec<&str> {
    pass.runs.iter().map(|r| r.verdict.as_str()).collect()
}

/// Checks one pass: solutions pass, nothing fails to build, and the
/// verdict vector repeats the first pass's exactly. Each candidate that
/// fails a check is one failed operation.
fn verify(out: &mut Outcome, inp: &Inputs, pass: &Pass, first: &[&str], k: usize) {
    out.attempted += pass.runs.len() as u64;
    for (i, (c, r)) in inp.cands.iter().zip(&pass.runs).enumerate() {
        let p = c.problem;
        let v = &r.verdict;
        if v.starts_with("parse-error") || v.starts_with("elab-error") {
            out.fail(1, format!("pass {k}: candidate {i} (problem {p}) {v}"));
        } else if c.solution && v != "pass" {
            out.fail(
                1,
                format!("pass {k}: solution {i} of problem {p} gave `{v}`"),
            );
        } else if *v != first[i] {
            out.fail(
                1,
                format!(
                    "pass {k}: candidate {i} (problem {p}) gave `{v}`, pass 0 gave `{}`",
                    first[i]
                ),
            );
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inp = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let built = inputs(args.seed.wrapping_add(k))?;
        setups.push(t0.elapsed().as_secs_f64());
        inp.get_or_insert(built);
    }
    let inp = inp.expect("at least one set-up");
    let setup_s = median(&setups).expect("set-ups ran");
    if inp.cands.len() < min_samples(TAIL) {
        return Err(format!(
            "only {} candidates: too few for a per-pass p90",
            inp.cands.len()
        ));
    }
    let solutions = inp.cands.iter().filter(|c| c.solution).count();
    eprintln!(
        "[long_tb] {} candidates ({} solutions, {} mutants) over {} problems, {} cycles each",
        inp.cands.len(),
        solutions,
        inp.cands.len() - solutions,
        PROBLEMS.count(),
        CYCLES
    );
    if args.trace {
        traced(args, &inp, &mut out)?;
    } else {
        untraced(args, &inp, setup_s, &mut out)?;
    }
    Ok(out)
}

fn untraced(args: &Args, inp: &Inputs, setup_s: f64, out: &mut Outcome) -> Result<(), String> {
    // `peak_rss_mb` covers the simulations only, not the set-up before.
    reset_peak_rss()?;
    let rss_at_reset_mb = proc_status(std::process::id()).map_or(0.0, |s| s.rss_kb as f64 / 1024.0);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(inp));
    }
    let first: Vec<&str> = verdicts(&passes[0]);
    for (k, pass) in passes.iter().enumerate() {
        verify(out, inp, pass, &first, k);
    }
    let lat_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| (r.marks[4] - r.marks[0]) as f64 / 1e6)
        .collect();
    // Candidates per pass over the median pass wall, robust to one pass
    // slowed by the host.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let wall_s = median(&walls).expect("passes ran");
    let cycles = passes[0].runs.iter().map(|r| r.cycles).sum::<u64>() as f64;
    let cands_per_pass = inp.cands.len() as f64;
    let n = lat_ms.len();
    // Percentiles per pass (each pass holds every candidate once), then
    // the median over passes.
    let per_pass = |q: f64| -> f64 {
        let v: Vec<f64> = lat_ms
            .chunks_exact(inp.cands.len())
            .filter_map(|c| quantile(c, q))
            .collect();
        median(&v).expect("passes ran")
    };
    let p50 = per_pass(0.5);
    let p90 = per_pass(TAIL);
    let hwm_mb = proc_status(std::process::id()).map_or(0.0, |s| s.hwm_kb as f64 / 1024.0);
    out.metrics.insert("items_per_s", cands_per_pass / wall_s);
    out.metrics.insert("p50_ms", p50);
    out.metrics.insert("tail_ms", p90);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", hwm_mb);
    let samples = format!("n={n} over {} passes", passes.len());
    out.note(
        "sim_cycles_per_s",
        cycles / wall_s,
        "cycles/s",
        "testbench cycles per host second",
    );
    out.note("cand_p50_ms", p50, "ms", &samples);
    out.note("cand_p90_ms", p90, "ms", &samples);
    out.note(
        "candidates_per_s",
        cands_per_pass / wall_s,
        "items/s",
        &samples,
    );
    out.note("setup_s", setup_s, "s", &format!("median of {SETUPS}"));
    out.note(
        "peak_rss_mb",
        hwm_mb,
        "MB",
        &format!("VmHWM over the passes, from {rss_at_reset_mb:.1} MB RSS after set-up"),
    );
    Ok(())
}

fn traced(args: &Args, inp: &Inputs, out: &mut Outcome) -> Result<(), String> {
    // Alternate untraced and traced passes: the first traced pass gives
    // the spans and counts, the pairs give the tracing overhead.
    let start = Instant::now();
    let mut trace = Trace::default();
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut root = None;
    let mut first: Vec<String> = Vec::new();
    loop {
        let p = run_pass(inp);
        if first.is_empty() {
            first = verdicts(&p).iter().map(|s| s.to_string()).collect();
        }
        let first_refs: Vec<&str> = first.iter().map(String::as_str).collect();
        verify(out, inp, &p, &first_refs, 2 * plain.len());
        plain.push(p.wall_ns as f64);
        vgen_obs::enable();
        let (t0, t) = (now_ns(), run_pass(inp));
        let t1 = now_ns();
        let report = vgen_obs::collect();
        verify(out, inp, &t, &first_refs, 2 * traced_walls.len() + 1);
        traced_walls.push(t.wall_ns as f64);
        if root.is_none() {
            root = Some(record_pass(&mut trace, &t, t0, t1, &report, out));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let root = root.expect("one traced pass ran");
    trace.clamp();
    layers::stage_metrics(&mut out.metrics, &trace.table(root), 0.0);
    let overhead =
        100.0 * (median(&traced_walls).expect("traced") / median(&plain).expect("plain") - 1.0);
    out.metrics.insert("obs.overhead_pct", overhead);
    out.note(
        "obs.overhead_pct",
        overhead,
        "%",
        &format!("{} untraced/traced pass pairs", plain.len()),
    );
    out.trace = Some((trace, vec![root]));
    Ok(())
}

/// Records one traced pass: a span per candidate with its four stages,
/// the program's own spans underneath, and the sim counters.
fn record_pass(
    trace: &mut Trace,
    pass: &Pass,
    t0: u64,
    t1: u64,
    report: &vgen_obs::ObsReport,
    out: &mut Outcome,
) -> usize {
    let root = trace.push("long_tb", None, 0, 0, t0, t1);
    for (i, run) in pass.runs.iter().enumerate() {
        let m = run.marks;
        let c = trace.push("candidate", Some(root), i as u64, 0, m[0], m[4]);
        for (k, name) in ["verilog.parse", "sim.elaborate", "sim.lower", "sim.run"]
            .iter()
            .enumerate()
        {
            trace.push(name, Some(c), i as u64, 0, m[k], m[k + 1]);
        }
    }
    trace.adopt(raw_events(report), root);
    let stage_ms = |k: usize| {
        pass.runs
            .iter()
            .map(|x| (x.marks[k + 1] - x.marks[k]) as f64)
            .sum::<f64>()
            / 1e6
    };
    out.metrics.extend(layers::zeroed());
    out.metrics.insert("sim.lower.busy_ms", stage_ms(2));
    out.metrics.insert("sim.run.busy_ms", stage_ms(3));
    out.metrics.insert(
        "sim.cycles",
        pass.runs.iter().map(|x| x.cycles as f64).sum(),
    );
    out.metrics
        .insert("sim.steps", layers::counter(&report.counters, "sim.steps"));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_solution_or_changed_verdict_counts_into_error_rate() {
        let p = vgen_problems::problem(2).expect("p2");
        let cand = |solution: bool, source: String| Cand {
            problem: 2,
            solution,
            source,
        };
        let inp = Inputs {
            cands: vec![
                cand(true, p.reference_source()),
                cand(false, p.assemble("assign y = a | b;\nendmodule\n")),
            ],
            testbenches: vec![String::new(); 2],
        };
        let run = |verdict: &str| CandRun {
            verdict: verdict.to_string(),
            steps: 0,
            cycles: 0,
            marks: [0; 5],
        };
        let first = ["pass", "MISMATCHES: 3"];
        let good = Pass {
            runs: vec![run("pass"), run("MISMATCHES: 3")],
            wall_ns: 1,
        };
        let mut out = Outcome::default();
        verify(&mut out, &inp, &good, &first, 0);
        assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.failures);
        let bad = Pass {
            runs: vec![run("MISMATCHES: 1"), run("MISMATCHES: 4")],
            wall_ns: 1,
        };
        verify(&mut out, &inp, &bad, &first, 1);
        assert_eq!((out.attempted, out.failed), (4, 2), "{:?}", out.failures);
        assert_eq!(out.error_rate(), 0.5);
    }
}
