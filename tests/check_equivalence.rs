//! The functional check elaborates the candidate's AST together with the
//! problem's testbench AST, parsed once per process. It is defined as
//! simulating the two texts concatenated, `{source}\n{testbench}`, and
//! must give exactly that path's verdicts and messages. The old path is
//! kept here, test-local, as the reference.

use vgen::core::check::{assemble, check_source_with_lint, CheckOutcome, LintCounts};
use vgen::lm::family::build_bank;
use vgen::lm::mutate::hostile_corpus;
use vgen::problems::{problem, Problem, PromptLevel, PASS_MARKER};
use vgen::sim::{SimConfig, StopReason};
use vgen::verilog::lexer::tokenize;
use vgen::verilog::parser::MAX_TOKENS;

/// The check as it was defined before the testbench was shared: parse,
/// lint, elaborate the DUT alone, then parse and simulate the DUT and
/// testbench texts as one file.
fn concatenated_check(
    problem: &Problem,
    source: &str,
    config: SimConfig,
) -> (CheckOutcome, Option<LintCounts>) {
    let file = match vgen::verilog::parse(source) {
        Ok(f) => f,
        Err(e) => return (CheckOutcome::CompileFail(e.to_string()), None),
    };
    let lint = Some(LintCounts::from_report(&vgen::lint::lint_file(&file)));
    if file.module(problem.module_name).is_none() {
        let msg = format!(
            "completion does not define module `{}`",
            problem.module_name
        );
        return (CheckOutcome::CompileFail(msg), lint);
    }
    if let Err(e) = vgen::sim::elab::elaborate(&file, problem.module_name) {
        return (CheckOutcome::CompileFail(e.to_string()), lint);
    }
    let full = format!("{source}\n{}", problem.testbench);
    let outcome = match vgen::sim::simulate(&full, Some("tb"), config) {
        Ok(out) if !out.reason.is_clean() => match out.reason {
            StopReason::RuntimeError(m) => CheckOutcome::SimulationFail(m),
            other => CheckOutcome::SimulationFail(format!("{other:?}")),
        },
        Ok(out) if out.stdout.contains(PASS_MARKER) => CheckOutcome::Pass,
        Ok(_) => CheckOutcome::FunctionalFail,
        Err(e) => CheckOutcome::CompileFail(e.to_string()),
    };
    (outcome, lint)
}

fn assert_same(problem: &Problem, source: &str, what: &str) -> CheckOutcome {
    let config = SimConfig::default();
    let new = check_source_with_lint(problem, source, config);
    let old = concatenated_check(problem, source, config);
    assert_eq!(new, old, "problem {} {what}", problem.id);
    new.0
}

fn all_problems() -> Vec<&'static Problem> {
    (1..=25).map(|id| problem(id).expect("problem")).collect()
}

#[test]
fn catalog_and_bank_members_match_the_concatenated_check() {
    let mut outcomes = std::collections::BTreeSet::new();
    for p in all_problems() {
        let bank = build_bank(p, 42 ^ u64::from(p.id), 10);
        let pools = [
            ("correct", &bank.correct),
            ("functional-fail", &bank.functional_fail),
            ("syntax-fail", &bank.syntax_fail),
        ];
        for (pool, sources) in pools {
            for (i, source) in sources.iter().enumerate() {
                let outcome = assert_same(p, source, &format!("{pool} #{i}"));
                outcomes.insert(format!("{outcome:?}").chars().take(12).collect::<String>());
            }
        }
        // A DUT whose ports do not match the testbench's instance: the
        // DUT alone elaborates, the pair does not.
        let bare = format!("module {}; endmodule\n", p.module_name);
        assert_same(p, &bare, "port-less DUT");
    }
    assert!(
        outcomes.len() >= 3,
        "too few kinds of verdict: {outcomes:?}"
    );
}

#[test]
fn hostile_corpus_matches_the_concatenated_check() {
    // Every entry is shaped for a two-input, one-output problem. Checks
    // run on checker-sized stacks in the harness; so do these.
    let p = problem(2).expect("and_gate");
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            for (op, completion) in hostile_corpus() {
                let source = assemble(p, PromptLevel::Low, &completion);
                assert_same(p, &source, &format!("hostile {op:?}"));
            }
        })
        .expect("spawn")
        .join()
        .expect("hostile inputs give the same verdicts");
}

/// An AND gate padded to exactly `tokens` tokens, the trailing `Eof`
/// included: a long `localparam` list (four tokens per entry) and up to
/// three unary `+` on `b`.
fn padded_dut(p: &Problem, tokens: usize) -> String {
    let dut = |params: usize, plus: usize| {
        let list: String = (1..=params).map(|i| format!(", P{i} = 0")).collect();
        p.assemble(&format!(
            "localparam P0 = 0{list};\nassign y = a & {}b;\nendmodule\n",
            "+ ".repeat(plus)
        ))
    };
    let extra = tokens - tokenize(&dut(0, 0)).expect("lex").len();
    let dut = dut(extra / 4, extra % 4);
    assert_eq!(tokenize(&dut).expect("lex").len(), tokens);
    dut
}

#[test]
fn a_dut_that_pushes_the_pair_over_the_token_cap_still_fails_to_compile() {
    let p = problem(2).expect("and_gate");
    // Without its Eof, the testbench adds this many tokens to the DUT's.
    let tb_tokens = tokenize(p.testbench).expect("lex").len() - 1;
    // Exactly at the cap, the pair parses and passes.
    let at_cap = padded_dut(p, MAX_TOKENS - tb_tokens);
    assert_eq!(assert_same(p, &at_cap, "at the cap"), CheckOutcome::Pass);
    // One token more and the pair is over it, though the DUT is not.
    for extra in [1, tb_tokens / 2] {
        let over = padded_dut(p, MAX_TOKENS - tb_tokens + extra);
        let outcome = assert_same(p, &over, &format!("{extra} over the cap"));
        assert!(
            matches!(&outcome, CheckOutcome::CompileFail(m) if m.contains("tokens")),
            "{outcome:?}"
        );
    }
}
