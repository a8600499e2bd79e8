//! Per-layer measurements shared by the workloads: the timed
//! `CompletionEngine` wrapper, the bank keep ratio, the guard-overhead
//! probe, and the mapping from a self-time table to layer metrics.

use std::collections::{BTreeMap, HashSet};

use vgen_core::{check_completion, supervised_check_completion, CheckOutcome, CheckPolicy};
use vgen_lm::family::{build_bank, MutantBank};
use vgen_lm::mutate::{semantic_mutants, syntax_mutants};
use vgen_lm::{Completion, CompletionEngine, FamilyEngine, Tuning};
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::spans::{now_ns, Table, Trace};
use crate::PER_LAYER;

/// Candidates per bank pool, as the family engine builds them.
pub const BANK_SIZE: usize = 10;

/// Every per-layer metric at 0: the value of a layer the measured phase
/// does not reach.
pub fn zeroed() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect()
}

/// The `--tuning`/`"tuning"` value that selects `t`.
pub fn tuning_flag(t: Tuning) -> &'static str {
    match t {
        Tuning::Pretrained => "pt",
        Tuning::FineTuned => "ft",
    }
}

/// One `generate` call seen by [`TimedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct GenCall {
    /// Whether this was the engine's first call for the problem, the call
    /// that builds the problem's mutant bank.
    pub first: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Wraps a `FamilyEngine` and times each `generate` call.
pub struct TimedEngine {
    pub inner: FamilyEngine,
    seen: HashSet<u8>,
    pub calls: Vec<GenCall>,
}

impl TimedEngine {
    pub fn new(inner: FamilyEngine) -> TimedEngine {
        TimedEngine {
            inner,
            seen: HashSet::new(),
            calls: Vec::new(),
        }
    }

    /// Records the calls as `lm.generate` spans (first calls as
    /// `lm.bank_build`) under `parent`.
    pub fn record(&self, trace: &mut Trace, parent: usize, item: u64, lane: u32) {
        for c in &self.calls {
            let name = if c.first {
                "lm.bank_build"
            } else {
                "lm.generate"
            };
            trace.push(name, Some(parent), item, lane, c.start_ns, c.end_ns);
        }
    }
}

impl CompletionEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let first = self.seen.insert(problem.id);
        let start_ns = now_ns();
        let out = self.inner.generate(problem, level, temperature, n);
        self.calls.push(GenCall {
            first,
            start_ns,
            end_ns: now_ns(),
        });
        out
    }
}

/// Bank builds and their busy time, from the wrapped engines' calls.
pub fn bank_metrics(m: &mut BTreeMap<&'static str, f64>, engines: &[TimedEngine]) {
    let first: Vec<&GenCall> = engines
        .iter()
        .flat_map(|e| &e.calls)
        .filter(|c| c.first)
        .collect();
    m.insert("lm.bank.builds", first.len() as f64);
    m.insert(
        "lm.bank.busy_ms",
        first
            .iter()
            .map(|c| (c.end_ns - c.start_ns) as f64)
            .sum::<f64>()
            / 1e6,
    );
}

/// How many of `seq` the bank loop examined before `kept` (a
/// subsequence of `seq`, in order) filled the pool to `full`.
fn tried(seq: &[String], kept: &[String], full: bool) -> usize {
    if !full || kept.is_empty() {
        return seq.len();
    }
    let mut at = 0;
    for (i, m) in seq.iter().enumerate() {
        if *m == kept[at] {
            at += 1;
            if at == kept.len() {
                return i + 1;
            }
        }
    }
    seq.len()
}

/// The mutant sequences `build_bank(problem, seed, BANK_SIZE)` draws
/// from: semantic mutants, then syntax mutants.
///
/// This mirrors `build_bank`'s draw policy (`3 × per_pool` semantic
/// mutants from `seed`, `per_pool` syntax mutants from `seed ^ 0xBAD`),
/// which the lm crate does not expose, and must change along with it.
/// `keep_replay_matches_build_bank` fails when the two drift apart.
fn bank_draws(problem: &Problem, seed: u64) -> (Vec<String>, Vec<String>) {
    let reference = problem.reference_source();
    let sem = semantic_mutants(&reference, seed, BANK_SIZE * 3)
        .into_iter()
        .map(|(m, _)| m)
        .collect();
    let syn = syntax_mutants(&reference, seed ^ 0xBAD, BANK_SIZE)
        .into_iter()
        .map(|(m, _)| m)
        .collect();
    (sem, syn)
}

/// Mutants kept ÷ mutants tried for one bank, replaying the public
/// mutant generators in the order `build_bank` draws them (see
/// [`bank_draws`]). The always-present empty-body and torn-header entries
/// are not mutants and are not counted.
pub fn keep_counts(problem: &Problem, seed: u64, bank: &MutantBank) -> (usize, usize) {
    let (sem, syn) = bank_draws(problem, seed);
    let kept_f = &bank.functional_fail[1.min(bank.functional_fail.len())..];
    let kept_s = &bank.syntax_fail[1.min(bank.syntax_fail.len())..];
    let tried_f = tried(&sem, kept_f, bank.functional_fail.len() >= BANK_SIZE);
    let tried_s = tried(&syn, kept_s, bank.syntax_fail.len() >= BANK_SIZE);
    (kept_f.len() + kept_s.len(), tried_f + tried_s)
}

/// `lm.bank.keep_ratio` over the banks the family engine builds for
/// `problems` under engine seed `seed`.
pub fn keep_ratio(problems: &[&'static Problem], seed: u64) -> f64 {
    let (mut kept, mut tried) = (0, 0);
    for p in problems {
        let bank_seed = seed ^ u64::from(p.id);
        let (k, t) = keep_counts(p, bank_seed, &build_bank(p, bank_seed, BANK_SIZE));
        kept += k;
        tried += t;
    }
    kept as f64 / tried.max(1) as f64
}

/// `core.guard.overhead_us`: the mean extra wall time of
/// `supervised_check_completion` over `check_completion` on the same
/// inputs, both run `reps` times in alternating order. Records both calls
/// as spans under `parent`. Returns the overhead and the number of inputs
/// whose two verdicts differ.
pub fn guard_probe(
    inputs: &[(&'static Problem, PromptLevel, String)],
    reps: usize,
    trace: &mut Trace,
    parent: usize,
) -> (f64, usize) {
    let policy = CheckPolicy::default();
    let (mut plain_ns, mut guarded_ns, mut differ) = (0u64, 0u64, 0usize);
    for rep in 0..reps {
        for (i, (p, level, src)) in inputs.iter().enumerate() {
            let mut outcomes: [Option<CheckOutcome>; 2] = [None, None];
            for k in 0..2 {
                let guarded = (k + rep) % 2 == 1;
                let t0 = now_ns();
                let outcome = if guarded {
                    supervised_check_completion(p, *level, src, SimConfig::default(), &policy)
                        .outcome
                } else {
                    check_completion(p, *level, src, SimConfig::default()).outcome
                };
                let t1 = now_ns();
                let name = if guarded {
                    guarded_ns += t1 - t0;
                    "core.supervised_check"
                } else {
                    plain_ns += t1 - t0;
                    "core.check_completion"
                };
                trace.push(name, Some(parent), i as u64, 0, t0, t1);
                outcomes[usize::from(guarded)] = Some(outcome);
            }
            if rep == 0 && outcomes[0] != outcomes[1] {
                differ += 1;
            }
        }
    }
    let n = (inputs.len() * reps).max(1) as f64;
    ((guarded_ns as f64 - plain_ns as f64) / n / 1e3, differ)
}

/// Stage metrics from the program's own spans in a self-time table.
/// `checks` is the number of checks the phase ran, for the per-check
/// parse count.
pub fn stage_metrics(m: &mut BTreeMap<&'static str, f64>, table: &Table, checks: f64) {
    let ms = |ns: f64| ns / 1e6;
    for (stage, calls, busy) in [
        ("generate", "lm.generate.calls", "lm.generate.busy_ms"),
        ("check", "core.check.calls", "core.check.busy_ms"),
        ("parse", "verilog.parse.calls", "verilog.parse.busy_ms"),
        ("lint", "lint.calls", "lint.busy_ms"),
        ("elaborate", "sim.elaborate.calls", "sim.elaborate.busy_ms"),
        ("simulate", "sim.simulate.calls", "sim.simulate.busy_ms"),
    ] {
        let row = table.row(stage);
        m.insert(calls, row.calls as f64);
        m.insert(busy, ms(row.incl_ns));
    }
    m.insert("core.check.self_ms", ms(table.row("check").self_ns));
    let parses = table.row("parse").calls as f64;
    m.insert(
        "verilog.parse.per_check",
        if checks > 0.0 { parses / checks } else { 0.0 },
    );
}

/// Counter `name` of an obs report, as f64.
pub fn counter(counters: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tried_counts_up_to_the_mutant_that_filled_the_pool() {
        let seq: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let kept: Vec<String> = ["b", "d"].iter().map(|s| s.to_string()).collect();
        assert_eq!(tried(&seq, &kept, true), 4);
        assert_eq!(tried(&seq, &kept, false), 5);
    }

    /// Whether `kept` appears in `seq` in order.
    fn in_order(kept: &[String], seq: &[String]) -> bool {
        let mut rest = seq.iter();
        kept.iter().all(|k| rest.any(|m| m == k))
    }

    #[test]
    fn keep_replay_matches_build_bank() {
        for seed in [42, 7 ^ 3] {
            for p in vgen_problems::problems() {
                let bank_seed = seed ^ u64::from(p.id);
                let bank = build_bank(p, bank_seed, BANK_SIZE);
                let (sem, syn) = bank_draws(p, bank_seed);
                assert!(
                    in_order(&bank.functional_fail[1..], &sem),
                    "problem {}: kept semantic mutants are not the replayed draws",
                    p.id
                );
                assert!(
                    in_order(&bank.syntax_fail[1..], &syn),
                    "problem {}: kept syntax mutants are not the replayed draws",
                    p.id
                );
            }
        }
    }

    #[test]
    fn keep_ratio_is_a_fraction_and_repeats() {
        let problems: Vec<&'static Problem> = (1..=3)
            .map(|i| vgen_problems::problem(i).expect("p"))
            .collect();
        let r = keep_ratio(&problems, 42);
        assert!(r > 0.0 && r <= 1.0, "{r}");
        assert_eq!(r, keep_ratio(&problems, 42));
    }
}
