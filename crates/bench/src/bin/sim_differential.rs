//! `sim_differential` — the bytecode backend's differential oracle gate.
//!
//! Runs every design we can get our hands on through both simulation
//! backends and demands *byte-identical* observable behaviour:
//!
//! 1. **Problem catalog** — the reference body and every alternate body of
//!    every problem (core + extended), assembled exactly like the eval
//!    harness does and simulated against the problem's testbench. The full
//!    [`SimOutput`] must match: stdout, stop reason, final time, step
//!    count, and VCD text.
//! 2. **Hostile corpus** — adversarial completions (parser bombs,
//!    elaboration bombs, infinite loops, display floods) run through the
//!    full checker. Resource budgets must trip at the same point and the
//!    [`CheckOutcome`] classification must be identical.
//! 3. **Slow corpus** — legal-but-expensive completions; both backends
//!    must reach the same verdict within the same budgets.
//!
//! Prints a deterministic per-case report and exits non-zero on any
//! divergence, so CI can gate merges on interpreter/bytecode parity.

use std::process::ExitCode;

use vgen_core::check::{assemble, check_source};
use vgen_lm::mutate::{hostile_corpus, slow_corpus};
use vgen_problems::{extended_problems, problem, problems, PromptLevel};
use vgen_sim::{SimBackend, SimConfig, SimOutput};

fn config(backend: SimBackend) -> SimConfig {
    SimConfig {
        backend,
        ..SimConfig::default()
    }
}

/// One-line description of where two otherwise-equal outputs differ.
fn describe_divergence(a: &SimOutput, b: &SimOutput) -> String {
    if a.stdout != b.stdout {
        format!(
            "stdout diverged ({} vs {} bytes)",
            a.stdout.len(),
            b.stdout.len()
        )
    } else if a.reason != b.reason {
        format!("stop reason diverged ({:?} vs {:?})", a.reason, b.reason)
    } else if a.time != b.time {
        format!("final time diverged ({} vs {})", a.time, b.time)
    } else if a.steps != b.steps {
        format!("step count diverged ({} vs {})", a.steps, b.steps)
    } else if a.vcd != b.vcd {
        "VCD text diverged".to_string()
    } else {
        "outputs diverged".to_string()
    }
}

/// Simulates `full` (candidate + testbench) on one backend; errors become
/// their display text so parse/elaborate failures also get compared.
fn run(full: &str, backend: SimBackend) -> Result<SimOutput, String> {
    vgen_sim::simulate(full, Some("tb"), config(backend)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut cases = 0usize;
    let mut failures = 0usize;
    let fail = |name: &str, detail: String| {
        println!("FAIL {name}: {detail}");
    };

    // Phase 1: problem catalog, reference + alternate bodies, full SimOutput.
    for prob in problems().iter().chain(extended_problems()) {
        let bodies =
            std::iter::once(prob.reference_body).chain(prob.alternate_bodies.iter().copied());
        for (bi, body) in bodies.enumerate() {
            let name = format!("problem-{}-body-{}", prob.id, bi);
            let source = assemble(prob, PromptLevel::Low, body);
            let full = format!("{source}\n{}", prob.testbench);
            cases += 1;
            match (
                run(&full, SimBackend::Interp),
                run(&full, SimBackend::Bytecode),
            ) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(a), Ok(b)) => {
                    failures += 1;
                    fail(&name, describe_divergence(&a, &b));
                }
                (Err(a), Err(b)) if a == b => {}
                (a, b) => {
                    failures += 1;
                    fail(
                        &name,
                        format!(
                            "front-end/verdict split: interp={:?} bytecode={:?}",
                            a.as_ref().map(|o| &o.reason),
                            b.as_ref().map(|o| &o.reason)
                        ),
                    );
                }
            }
        }
    }
    println!(
        "catalog: {} reference/alternate runs byte-identical across backends",
        cases
    );

    // Phases 2 & 3: adversarial and slow corpora through the full checker.
    // These target problem 2's harness shape (inputs `a`, `b`, output `y`).
    let p2 = problem(2).expect("problem 2 exists");
    let corpora: Vec<(String, String)> = hostile_corpus()
        .into_iter()
        .map(|(op, c)| (format!("hostile-{op:?}"), c))
        .chain(
            slow_corpus()
                .into_iter()
                .map(|(op, c)| (format!("slow-{op:?}"), c)),
        )
        .collect();
    let mut corpus_cases = 0usize;
    for (i, (tag, completion)) in corpora.iter().enumerate() {
        let name = format!("{tag}-{i}");
        let source = assemble(p2, PromptLevel::Low, completion);
        cases += 1;
        corpus_cases += 1;
        let a = check_source(p2, &source, config(SimBackend::Interp));
        let b = check_source(p2, &source, config(SimBackend::Bytecode));
        if a != b {
            failures += 1;
            fail(&name, format!("checker verdict diverged: {a:?} vs {b:?}"));
        }
    }
    println!("corpora: {corpus_cases} hostile/slow completions classified identically");

    if failures == 0 {
        println!("sim_differential: {cases} cases, zero divergences");
        ExitCode::SUCCESS
    } else {
        println!("sim_differential: {failures}/{cases} cases diverged");
        ExitCode::FAILURE
    }
}
