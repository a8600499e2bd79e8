//! Deadline-free checks run on the threads that pool workers, the serial
//! sweep loop and daemon requests already are; only a check with a
//! deadline gets a thread of its own. The `guard.spawn` counter tells the
//! two apart. One test in its own binary: obs recording is process-wide.

use std::time::Duration;

use vgen::core::{run_engine_sweep_stats, CheckPolicy, EvalConfig, SweepOptions};
use vgen::corpus::CorpusSource;
use vgen::lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen::problems::PromptLevel;
use vgen::sim::SimConfig;

/// Runs a small family-engine sweep under obs recording; returns the
/// journal-equivalent records, the checks run and `guard.spawn`.
fn sweep(opts: &SweepOptions) -> (Vec<String>, usize, u64) {
    let cfg = EvalConfig {
        temperatures: vec![0.1, 0.7],
        ns: vec![10],
        levels: vec![PromptLevel::Low, PromptLevel::High],
        problem_ids: vec![1, 2, 6, 13],
        sim: SimConfig::default(),
    };
    let model = ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned);
    let mut engine = FamilyEngine::new(model, CorpusSource::GithubOnly, 42);
    vgen::obs::enable();
    let (run, stats) = run_engine_sweep_stats(&mut engine, &cfg, None, opts).expect("sweep");
    let report = vgen::obs::collect();
    let spawns = report.counters.get("guard.spawn").copied().unwrap_or(0);
    let lines = run.records.iter().map(|r| r.to_journal_line()).collect();
    (lines, stats.checks_run, spawns)
}

#[test]
fn only_checks_with_a_deadline_spawn_a_thread() {
    for jobs in [1, 2] {
        let inline = SweepOptions::parallel(jobs);
        let (records, checks, spawns) = sweep(&inline);
        assert!(checks > 0);
        assert_eq!(
            spawns, 0,
            "jobs {jobs}: deadline-free checks spawned threads"
        );

        let deadline = SweepOptions {
            policy: CheckPolicy::default().with_timeout(Some(Duration::from_secs(30))),
            ..SweepOptions::parallel(jobs)
        };
        let (timed_records, timed_checks, timed_spawns) = sweep(&deadline);
        assert_eq!(timed_checks, checks);
        assert_eq!(
            timed_spawns, checks as u64,
            "jobs {jobs}: one spawn per check with a deadline"
        );
        assert_eq!(
            timed_records, records,
            "jobs {jobs}: spawned and inline checks must agree"
        );
    }
}
