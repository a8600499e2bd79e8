//! Equivalence coverage for the completion-dedup check cache.
//!
//! The cache short-circuits checking when the same source recurs for the
//! same problem: one check per distinct *assembled* source, so two texts
//! that assemble alike (a whole module at any prompt level, with or
//! without a tail that truncation cuts) share a check. Its contract is
//! strict: reports and journals must be
//! **byte-identical** with the cache on or off, at any worker count, and
//! across kill/resume — the cache may only change how fast answers arrive,
//! never what they are.

use std::path::PathBuf;

use std::collections::HashSet;

use vgen::core::check::assemble;
use vgen::core::{
    render_eval_summary, run_engine_sweep, run_engine_sweep_stats, EvalConfig, EvalRun,
    SweepOptions, SweepStats,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::problems::{Problem, PromptLevel};
use vgen::sim::SimConfig;

/// An engine that cycles through a tiny fixed palette of completions, so
/// every (problem, level) cell sees plenty of exact-duplicate texts. The
/// palette mixes a passing AND-gate body, a compile error, and noise, so
/// cached outcomes span pass/fail/no-compile.
struct CyclingEngine {
    palette: Vec<String>,
    cursor: usize,
}

impl CyclingEngine {
    fn new() -> Self {
        CyclingEngine {
            palette: vec![
                "assign y = a & b;\nendmodule\n".to_string(),
                "assign y = a | ;\nendmodule\n".to_string(),
                "always @(*) begin\nend\nendmodule\n".to_string(),
            ],
            cursor: 0,
        }
    }
}

impl CompletionEngine for CyclingEngine {
    fn name(&self) -> String {
        "dedup-cycling".into()
    }

    fn generate(
        &mut self,
        _problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        (0..n)
            .map(|_| {
                let text = self.palette[self.cursor % self.palette.len()].clone();
                self.cursor += 1;
                Completion {
                    text,
                    latency_s: 0.002,
                }
            })
            .collect()
    }
}

/// 2 problems × 2 levels × 9 completions = 36 checks over a 3-text palette:
/// each (problem, level) cell holds 9 completions with only 3 distinct
/// texts, so at least 24 of the 36 checks are cache hits.
fn cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.5],
        ns: vec![9],
        levels: vec![PromptLevel::Low, PromptLevel::Medium],
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vgen-dedup-cache");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{}.log", std::process::id()))
}

/// Runs the sweep with a fresh engine, journaling to `tag`, and returns the
/// run, its stats, and the raw journal bytes.
fn sweep(tag: &str, opts: &SweepOptions) -> (EvalRun, SweepStats, Vec<u8>) {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let (run, stats) = run_engine_sweep_stats(
        &mut CyclingEngine::new(),
        &cfg(),
        Some((&path, false)),
        opts,
    )
    .expect("sweep");
    let journal = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);
    (run, stats, journal)
}

#[test]
fn serial_cache_output_is_byte_identical_to_uncached() {
    let on = SweepOptions::default();
    let off = SweepOptions {
        dedup: false,
        ..SweepOptions::default()
    };
    let (run_on, stats_on, journal_on) = sweep("serial-on", &on);
    let (run_off, stats_off, journal_off) = sweep("serial-off", &off);

    assert_eq!(run_on, run_off, "cached run diverged from uncached run");
    assert_eq!(journal_on, journal_off, "journals differ with cache on/off");
    assert_eq!(
        render_eval_summary(&run_on, "j"),
        render_eval_summary(&run_off, "j"),
        "rendered reports differ with cache on/off"
    );

    let total = run_on.records.len();
    assert_eq!(total, 36, "grid must flatten to 36 items");
    assert!(
        stats_on.cache_hits >= 24,
        "3-text palette over 9-deep cells must hit at least 24 times, got {}",
        stats_on.cache_hits
    );
    assert_eq!(stats_on.checks_run + stats_on.cache_hits, total);
    assert!(stats_on.hit_rate() > 0.5);
    assert_eq!(stats_off.cache_hits, 0, "dedup=false must never hit");
    assert_eq!(stats_off.checks_run, total);
}

#[test]
fn parallel_cache_output_is_byte_identical_across_jobs_and_cache_settings() {
    let (baseline, _, baseline_journal) = sweep("par-baseline", &SweepOptions::default());
    for jobs in [1usize, 4] {
        for dedup in [true, false] {
            let opts = SweepOptions {
                dedup,
                ..SweepOptions::parallel(jobs)
            };
            let (run, stats, journal) = sweep(&format!("par-{jobs}-{dedup}"), &opts);
            assert_eq!(run, baseline, "run diverged at jobs={jobs} dedup={dedup}");
            assert_eq!(
                journal, baseline_journal,
                "journal bytes diverged at jobs={jobs} dedup={dedup}"
            );
            assert_eq!(stats.checks_run + stats.cache_hits, run.records.len());
            if dedup {
                assert!(
                    stats.cache_hits >= 24,
                    "expected heavy hit rate at jobs={jobs}, got {}",
                    stats.cache_hits
                );
            } else {
                assert_eq!(stats.cache_hits, 0);
            }
        }
    }
}

#[test]
fn cached_parallel_run_resumes_cleanly() {
    // Kill/resume with the cache on, resuming at a different worker count:
    // the rebuilt run must match an uncached serial run byte for byte.
    let (full, _, full_journal) = sweep("resume-full", &SweepOptions::default());
    let path = journal_path("resume-torn");
    std::fs::write(&path, &full_journal).expect("seed journal");
    let text = String::from_utf8(full_journal).expect("utf8 journal");
    let kept: Vec<&str> = text.lines().take(9).collect();
    std::fs::write(&path, kept.join("\n")).expect("truncate");
    let resumed = run_engine_sweep(
        &mut CyclingEngine::new(),
        &cfg(),
        Some((&path, true)),
        &SweepOptions::parallel(4),
    )
    .expect("resumed cached run");
    assert_eq!(
        resumed, full,
        "resume with cache on lost or altered records"
    );
    let _ = std::fs::remove_file(&path);
}

/// Text a model appends after the module it was asked for; the harness
/// truncation cuts it off.
const TAIL: &str = "\n// continued output\nmodule scratch(input t_unused);\nendmodule\n";

/// An engine that emits whole modules, as the calibrated family engine
/// does: per problem, the reference solution, a wrong-output variant and a
/// compile error, in turn, each alternately with and without [`TAIL`]. The
/// same texts come back at every prompt level.
struct WholeModuleEngine {
    cursor: usize,
}

impl WholeModuleEngine {
    fn palette(problem: &Problem) -> [String; 3] {
        let reference = problem.reference_source();
        let wrong = problem.assemble("endmodule\n");
        let broken = format!("module {}(input a;\nendmodule\n", problem.module_name);
        [reference, wrong, broken]
    }
}

impl CompletionEngine for WholeModuleEngine {
    fn name(&self) -> String {
        "dedup-whole-module".into()
    }

    fn generate(
        &mut self,
        problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let palette = Self::palette(problem);
        (0..n)
            .map(|_| {
                let i = self.cursor;
                self.cursor += 1;
                let mut text = palette[i % 3].clone();
                if (i / 3) % 2 == 1 {
                    text.push_str(TAIL);
                }
                Completion {
                    text,
                    latency_s: 0.002,
                }
            })
            .collect()
    }
}

/// 2 problems × 3 levels × 12 completions = 72 items.
fn whole_module_cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.5],
        ns: vec![12],
        levels: PromptLevel::ALL.to_vec(),
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

#[test]
fn whole_modules_are_checked_once_per_assembled_source() {
    let cfg = whole_module_cfg();
    // The distinct (problem, assembled source) pairs of the grid, counted
    // here from the engine's own output.
    let mut distinct = HashSet::new();
    let mut engine = WholeModuleEngine { cursor: 0 };
    for &pid in &cfg.problem_ids {
        let p = vgen::problems::problem(pid).expect("problem");
        for &level in &cfg.levels {
            for c in engine.generate(p, level, 0.5, 12) {
                distinct.insert((pid, assemble(p, level, &c.text)));
            }
        }
    }
    assert_eq!(distinct.len(), 6, "3 sources per problem, tails cut");

    let run = |tag: &str, opts: &SweepOptions| {
        let path = journal_path(tag);
        let _ = std::fs::remove_file(&path);
        let (run, stats) = run_engine_sweep_stats(
            &mut WholeModuleEngine { cursor: 0 },
            &cfg,
            Some((&path, false)),
            opts,
        )
        .expect("sweep");
        let journal = std::fs::read(&path).expect("journal bytes");
        let _ = std::fs::remove_file(&path);
        (run, stats, journal)
    };
    let uncached = SweepOptions {
        dedup: false,
        ..SweepOptions::default()
    };
    let (baseline, base_stats, base_journal) = run("whole-off-1", &uncached);
    assert_eq!(base_stats.checks_run, 72);
    // Every outcome class is present, so a wrong replay would show.
    assert!(baseline.records.iter().any(|r| r.passed));
    assert!(baseline.records.iter().any(|r| r.compiled && !r.passed));
    assert!(baseline.records.iter().any(|r| !r.compiled));
    for jobs in [1usize, 4] {
        for dedup in [true, false] {
            let opts = SweepOptions {
                dedup,
                ..SweepOptions::parallel(jobs)
            };
            let (run, stats, journal) = run(&format!("whole-{jobs}-{dedup}"), &opts);
            assert_eq!(run, baseline, "run diverged at jobs={jobs} dedup={dedup}");
            assert_eq!(
                journal, base_journal,
                "journal diverged at jobs={jobs} dedup={dedup}"
            );
            assert_eq!(
                render_eval_summary(&run, "j"),
                render_eval_summary(&baseline, "j")
            );
            let expect = if dedup { distinct.len() } else { 72 };
            assert_eq!(stats.checks_run, expect, "jobs={jobs} dedup={dedup}");
            assert_eq!(stats.checks_run + stats.cache_hits, 72);
        }
    }
}
