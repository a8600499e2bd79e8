//! Fault isolation and deadline supervision for the checking pipeline.
//!
//! The parser, elaborator and simulator are all exercised with arbitrary
//! model output. Two failure shapes threaten a sweep:
//!
//! * **Panics** — a bug anywhere in that stack (an unchecked index, an
//!   arithmetic overflow) would abort an entire evaluation on a single
//!   hostile completion. [`catch_harness_fault`] maps any panic to
//!   [`CheckOutcome::HarnessFault`], so one bad candidate costs one record.
//! * **Stalls** — a completion that is *legal under every budget* but
//!   merely slow (a zero-delay oscillator sized just under the step cap, a
//!   near-token-cap parse) wedges a worker for seconds to minutes.
//!   [`supervised_check_completion`] runs the check under a [`CheckPolicy`]
//!   with an optional wall-clock deadline, escalating through a state
//!   machine:
//!
//!   1. **budgets** — the step/size/token caps from PR 1 bound memory and
//!      classify genuinely infinite work; they never read a clock.
//!   2. **cancel** — a [`CancelToken`] armed with the deadline is threaded
//!      through parse/elaborate/simulate; when it trips, the stage unwinds
//!      cooperatively and the outcome is a *soft timeout*.
//!   3. **watchdog** — the guard waits `deadline + grace` for the checker
//!      thread's result. Cooperative exit lands here.
//!   4. **detach** — no result inside the grace period means the checker is
//!      hard-hung (stuck outside any poll site). The thread is detached —
//!      abandoned, never joined — and the outcome is a *hard timeout*. The
//!      calling worker continues immediately; the pool never loses a
//!      worker to a hang.
//!   5. **retry** — timeouts are transient by nature (machine load, cache
//!      state), so the policy may retry them with exponential backoff
//!      before the record is finalized. Panics are deterministic and are
//!      never retried.
//!
//! Without a deadline there is nothing to watch or detach, so a check on a
//! *checker thread* — one started by [`spawn_checker`] with the checker's
//! stack, as pool workers, the serial sweep loop and the daemon's request
//! threads are — runs inline under [`catch_harness_fault`]. Only checks
//! with a deadline, or from other threads, get a thread of their own
//! (counted by the `guard.spawn` obs counter).
//!
//! While a guarded check is running, the default "thread panicked at ..."
//! report is suppressed (per thread) so sweeps don't spray backtraces; the
//! panic message is preserved in the outcome instead.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

use vgen_obs::CancelToken;
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{check_completion_cancellable, CheckOutcome, CheckResult, TimeoutKind};

thread_local! {
    /// Set while a guarded closure runs on this thread.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    /// Set on threads started by [`spawn_checker`]: they have the
    /// checker's stack, so deadline-free checks run on them inline.
    static CHECKER: Cell<bool> = const { Cell::new(false) };
}

static INSTALL_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent while a
/// guarded check is running on the panicking thread and defers to the
/// previous hook otherwise.
fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, converting any panic into `Err(message)`.
///
/// The default panic report is suppressed for the duration; the payload
/// (the `panic!` message, when it is a string) is returned instead.
pub fn catch_harness_fault<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    // Guards nest (a pool task runs an inline check), so restore rather
    // than clear.
    let outer = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(outer));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Stack size for checker threads. The parser's recursion guard
/// ([`vgen_verilog::parser::MAX_NEST_DEPTH`]) is sized so the worst legal
/// nesting fits in a fraction of this even in unoptimised builds.
const CHECK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// A thread builder with the checker's name and stack.
fn checker_builder(name: String) -> std::thread::Builder {
    std::thread::Builder::new()
        .name(name)
        .stack_size(CHECK_STACK_BYTES)
}

/// Runs `f` with the current thread marked as a checker.
fn as_checker<T>(f: impl FnOnce() -> T) -> T {
    CHECKER.with(|c| c.set(true));
    f()
}

/// Whether the current thread was started by [`spawn_checker`] (or is
/// running [`run_on_checker`]'s closure).
fn is_checker_thread() -> bool {
    CHECKER.with(|c| c.get())
}

/// Spawns a long-lived thread with the checker's [8 MiB
/// stack](CHECK_STACK_BYTES), marked so that deadline-free checks run on
/// it inline instead of on a thread of their own. Pool workers and the
/// daemon's request threads are started this way.
///
/// # Errors
///
/// As [`std::thread::Builder::spawn`].
pub fn spawn_checker<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<T>> {
    checker_builder(name).spawn(move || as_checker(f))
}

/// Runs `f` on a checker thread and returns its result: inline when the
/// current thread already is one, else on a scoped thread started and
/// joined here (the serial sweep runs its whole check loop this way, on
/// the caller's obs lane). A panic in `f` resumes on the caller.
pub(crate) fn run_on_checker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if is_checker_thread() {
        return f();
    }
    let lane = vgen_obs::current_lane();
    std::thread::scope(|scope| {
        let handle = checker_builder("vgen-check".into())
            .spawn_scoped(scope, move || {
                vgen_obs::adopt_lane(lane);
                let out = as_checker(f);
                vgen_obs::flush();
                out
            })
            .expect("spawn checker thread");
        handle.join().unwrap_or_else(|e| panic::resume_unwind(e))
    })
}

/// How one check is supervised: deadline, grace period, retry budget and
/// fault injection. The [`Default`] policy has no deadline and no chaos —
/// behaviourally identical to the unsupervised guard, and what every
/// determinism-gated CI run uses (wall-clock timeouts are inherently
/// nondeterministic; see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckPolicy {
    /// Wall-clock deadline per check attempt. `None` disables supervision:
    /// the guard blocks until the check finishes, as before.
    pub timeout: Option<Duration>,
    /// Extra wait past the deadline for the cooperative cancel to unwind
    /// before the watchdog declares a hard hang and detaches the thread.
    pub grace: Duration,
    /// How many times a timed-out attempt is retried before the timeout is
    /// recorded. Panics are never retried.
    pub retries: u32,
    /// Base backoff between retries; doubles per attempt.
    pub backoff: Duration,
    /// Deterministic fault injection (see [`crate::chaos`]).
    pub chaos: ChaosSpec,
}

impl Default for CheckPolicy {
    fn default() -> Self {
        CheckPolicy {
            timeout: None,
            grace: Duration::from_millis(200),
            retries: 0,
            backoff: Duration::from_millis(25),
            chaos: ChaosSpec::default(),
        }
    }
}

impl CheckPolicy {
    /// Returns the policy with the per-attempt deadline replaced.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Returns the policy with the retry budget replaced.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Returns the policy with the chaos spec replaced.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = chaos;
        self
    }
}

/// [`check_completion`](crate::check::check_completion) with fault
/// isolation and the default (deadline-less) [`CheckPolicy`]: the check
/// runs on a thread with a known [8 MiB stack](CHECK_STACK_BYTES) — the
/// calling thread when [`spawn_checker`] started it, else a dedicated one
/// — so classification never depends on how much stack an arbitrary
/// caller happens to have left, and a panic anywhere in the
/// assemble/parse/elaborate/simulate stack yields
/// [`CheckOutcome::HarnessFault`] instead of unwinding into the caller.
///
/// ```
/// use vgen_core::guard::guarded_check_completion;
/// use vgen_problems::{problem, PromptLevel};
/// use vgen_sim::SimConfig;
///
/// let p = problem(2).expect("problem");
/// let r = guarded_check_completion(p, PromptLevel::Low, "endmodule", SimConfig::default());
/// assert!(!r.outcome.passed());
/// ```
pub fn guarded_check_completion(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
) -> CheckResult {
    supervised_check_completion(problem, level, completion, config, &CheckPolicy::default())
}

/// [`guarded_check_completion`] under an explicit [`CheckPolicy`]: adds
/// wall-clock deadline supervision (soft/hard timeout classification, see
/// the module docs), bounded retry for timeouts, and deterministic fault
/// injection.
///
/// `problem` is `&'static` because on a hard hang the checker thread is
/// detached and may touch its inputs long after this call returns —
/// borrowed data must therefore live forever (problems do: they come from
/// the static problem table) or be owned by the thread (the completion is
/// copied in).
pub fn supervised_check_completion(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> CheckResult {
    let mut attempt: u32 = 0;
    loop {
        let result = attempt_check(problem, level, completion, config, policy, attempt);
        if matches!(result.outcome, CheckOutcome::Timeout(_)) {
            vgen_obs::counter_add("guard.timeout", 1);
            if attempt < policy.retries {
                vgen_obs::counter_add("guard.retry", 1);
                let backoff = policy.backoff.saturating_mul(1u32 << attempt.min(6));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                continue;
            }
        }
        return result;
    }
}

/// One supervised attempt. Without a deadline, on a checker thread (see
/// [`spawn_checker`]), the check runs inline. Otherwise it runs on a
/// detachable thread of its own, and the result is awaited up to
/// deadline + grace and classified.
fn attempt_check(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
    attempt: u32,
) -> CheckResult {
    // Injected soft timeout: synthesized before any work, without reading
    // a clock — deterministic in (seed, completion, attempt) so chaos runs
    // byte-compare across jobs counts and kill/resume.
    if policy
        .chaos
        .fires_check_timeout(completion.as_bytes(), attempt)
    {
        vgen_obs::counter_add("guard.chaos", 1);
        return no_verdict(CheckOutcome::Timeout(TimeoutKind::Soft));
    }

    if policy.timeout.is_none() && is_checker_thread() {
        let unlimited = CancelToken::unlimited();
        verdict(run_check(
            problem,
            level,
            completion,
            config,
            &policy.chaos,
            &unlimited,
        ))
    } else {
        spawn_attempt(problem, level, completion, config, policy)
    }
}

/// The record of a finished attempt: its result, or a harness fault.
fn verdict(caught: Result<CheckResult, String>) -> CheckResult {
    caught.unwrap_or_else(|msg| {
        vgen_obs::counter_add("guard.fault", 1);
        no_verdict(CheckOutcome::HarnessFault(msg))
    })
}

/// The check proper, with the checker-panic and checker-delay chaos sites,
/// under [`catch_harness_fault`].
fn run_check(
    problem: &Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    chaos: &ChaosSpec,
    cancel: &CancelToken,
) -> Result<CheckResult, String> {
    let caught = catch_harness_fault(|| {
        if chaos
            .fires(ChaosSite::CheckPanic, completion.as_bytes())
            .is_some()
        {
            panic!("chaos: injected checker panic");
        }
        if let Some(ms) = chaos.fires(ChaosSite::CheckDelayMs, completion.as_bytes()) {
            // A real, uncancellable stall — exercises the hard-timeout
            // detach path.
            std::thread::sleep(Duration::from_millis(ms));
        }
        check_completion_cancellable(problem, level, completion, config, cancel)
    });
    // Flush this thread's obs buffers *now*, not at thread exit: after a
    // hard timeout the supervisor has already detached a per-attempt
    // thread, and exit may come after the session's collect() — flushing
    // at the cancel point keeps the partial stage spans a hard-timed-out
    // check did complete.
    vgen_obs::flush();
    caught
}

/// Runs one attempt on a detachable thread of its own and waits for it:
/// forever without a deadline, else up to deadline + grace.
fn spawn_attempt(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> CheckResult {
    let cancel = match policy.timeout {
        Some(t) => CancelToken::with_deadline(t),
        None => CancelToken::unlimited(),
    };

    // The per-attempt thread records onto the spawning thread's obs lane,
    // so a sweep's trace shows one timeline per worker rather than one
    // per check.
    let lane = vgen_obs::current_lane();
    let chaos = policy.chaos.clone();
    let owned = completion.to_string();
    let thread_cancel = cancel.clone();
    let (tx, rx) = mpsc::channel();
    let spawned = checker_builder("vgen-check".into()).spawn(move || {
        vgen_obs::adopt_lane(lane);
        let caught = run_check(problem, level, &owned, config, &chaos, &thread_cancel);
        let _ = tx.send(caught);
    });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return verdict(Err(format!("cannot spawn checker thread: {e}"))),
    };
    vgen_obs::counter_add("guard.spawn", 1);

    let caught = match policy.timeout {
        None => rx
            .recv()
            .unwrap_or_else(|_| Err("checker thread died".to_string())),
        Some(t) => match rx.recv_timeout(t + policy.grace) {
            Ok(c) => c,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Hard hang: the deadline armed the token at `t`, the
                // grace period passed, and the checker never reached a
                // poll site. Detach the thread (drop its handle without
                // joining) and abandon it; the worker moves on.
                cancel.cancel();
                vgen_obs::counter_add("guard.hard_timeout", 1);
                // Make the verdict visible to live snapshots before the
                // worker moves on — the detached thread may hold its lane
                // hostage for a long time.
                vgen_obs::flush();
                drop(handle);
                return no_verdict(CheckOutcome::Timeout(TimeoutKind::Hard));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err("checker thread died".to_string()),
        },
    };
    // The result is in hand, so the thread is exiting; reap it.
    let _ = handle.join();
    verdict(caught)
}

/// A [`CheckResult`] for outcomes that never produced a candidate verdict
/// (faults and timeouts): no source, no lint.
fn no_verdict(outcome: CheckOutcome) -> CheckResult {
    CheckResult {
        outcome,
        source: String::new(),
        lint: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::FaultKind;
    use vgen_problems::problem;

    fn p() -> &'static Problem {
        problem(2).expect("problem")
    }

    #[test]
    fn passthrough_on_success() {
        assert_eq!(catch_harness_fault(|| 42), Ok(42));
    }

    #[test]
    fn panic_becomes_error_message() {
        let r = catch_harness_fault(|| -> u32 { panic!("boom {}", 7) });
        assert_eq!(r, Err("boom 7".to_string()));
    }

    #[test]
    fn str_payloads_are_captured() {
        let r = catch_harness_fault(|| -> u32 { panic!("static message") });
        assert_eq!(r, Err("static message".to_string()));
    }

    #[test]
    fn normal_checks_are_unaffected() {
        let r = guarded_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
        );
        assert!(r.outcome.passed());
    }

    #[test]
    fn guard_is_reentrant_across_calls() {
        for _ in 0..3 {
            assert!(catch_harness_fault(|| -> u32 { panic!("again") }).is_err());
            assert_eq!(catch_harness_fault(|| 1), Ok(1));
        }
    }

    #[test]
    fn inline_and_spawned_attempts_agree() {
        let run_all = || -> Vec<CheckResult> {
            let panicky = ChaosSpec::parse("check.panic%2", 3).unwrap();
            let policies = [
                CheckPolicy::default(),
                CheckPolicy::default().with_chaos(panicky),
            ];
            let bodies = [
                "assign y = a & b;\nendmodule",
                "assign y = a | b;",
                "endmodule",
            ];
            policies
                .iter()
                .flat_map(|policy| {
                    bodies.iter().map(move |body| {
                        let config = SimConfig::default();
                        supervised_check_completion(p(), PromptLevel::Low, body, config, policy)
                    })
                })
                .collect()
        };
        // This test thread is not a checker: every attempt is spawned.
        assert!(!is_checker_thread());
        let spawned = run_all();
        let inline = spawn_checker("vgen-test-checker".into(), move || {
            assert!(is_checker_thread());
            run_all()
        })
        .expect("spawn")
        .join()
        .expect("checker thread");
        assert_eq!(inline, spawned);
        assert!(spawned
            .iter()
            .any(|r| matches!(r.outcome, CheckOutcome::HarnessFault(_))));
    }

    #[test]
    fn run_on_checker_marks_only_its_closure_and_resumes_panics() {
        assert!(!is_checker_thread());
        assert!(run_on_checker(is_checker_thread));
        assert!(!is_checker_thread());
        let caught = catch_harness_fault(|| run_on_checker(|| panic!("checker loop died")));
        assert_eq!(caught, Err("checker loop died".to_string()));
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let policy = CheckPolicy::default().with_timeout(Some(Duration::from_secs(60)));
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert!(r.outcome.passed(), "got {:?}", r.outcome);
    }

    #[test]
    fn injected_panic_is_a_panic_fault() {
        let chaos = ChaosSpec::parse("check.panic%1", 0).unwrap();
        let policy = CheckPolicy::default().with_chaos(chaos);
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(
            r.outcome,
            CheckOutcome::HarnessFault("chaos: injected checker panic".into())
        );
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::Panic));
    }

    #[test]
    fn injected_timeout_is_clockless_and_soft() {
        let chaos = ChaosSpec::parse("check.timeout%1", 0).unwrap();
        let policy = CheckPolicy::default().with_chaos(chaos);
        // No policy.timeout: the injected timeout never arms a deadline.
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Soft));
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::SoftTimeout));
    }

    #[test]
    fn attempt_limited_injection_heals_on_retry() {
        // Fires on attempt 0 only; one retry reaches the real outcome.
        let chaos = ChaosSpec::parse("check.timeout:1%1", 0).unwrap();
        let policy = CheckPolicy {
            backoff: Duration::ZERO,
            ..CheckPolicy::default()
        }
        .with_chaos(chaos.clone())
        .with_retries(1);
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert!(r.outcome.passed(), "retry must heal: {:?}", r.outcome);
        // Without the retry budget the injected timeout is recorded.
        let no_retry = CheckPolicy::default().with_chaos(chaos);
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &no_retry,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Soft));
    }

    #[test]
    fn detached_checker_flushes_stages_at_cancel_point() {
        // Regression: a hard-timed-out checker used to drain its obs
        // buffers only at thread exit — which could land after collect(),
        // silently losing every span of a `guard.hard_timeout` run. The
        // checker now flushes at its cancel point and the supervisor
        // flushes before detaching, so partial stage coverage survives.
        vgen_obs::enable();
        let chaos = ChaosSpec::parse("check.delay:400%1", 0).unwrap();
        let policy = CheckPolicy {
            timeout: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(chaos);
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Hard));
        // The supervisor flushed before detaching: the verdict counter is
        // visible to a live snapshot immediately, mid-hang.
        let snap = vgen_obs::snapshot();
        assert!(
            snap.counters
                .get("guard.hard_timeout")
                .copied()
                .unwrap_or(0)
                >= 1,
            "hard-timeout counter must be snapshot-visible: {:?}",
            snap.counters
        );
        // Wait out the injected stall so the detached checker wakes, runs
        // its cancelled check, and flushes at the cancel point.
        std::thread::sleep(Duration::from_millis(1200));
        let report = vgen_obs::collect();
        let stage_samples: u64 = report.hists.values().map(|h| h.count).sum();
        assert!(
            stage_samples > 0,
            "detached checker must flush partial stage spans, got hists {:?}",
            report.hists.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn hard_hang_is_detached_within_grace() {
        // An injected 2 s uncancellable sleep against a 50 ms deadline and
        // 100 ms grace: the watchdog must detach and return hard-timeout
        // long before the sleep finishes.
        let chaos = ChaosSpec::parse("check.delay:2000%1", 0).unwrap();
        let policy = CheckPolicy {
            timeout: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(chaos);
        let start = std::time::Instant::now();
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Hard));
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::HardTimeout));
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "watchdog must not wait out the hang"
        );
        // The caller's thread keeps working: a fresh check succeeds while
        // the abandoned one is still asleep.
        let r = guarded_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
        );
        assert!(r.outcome.passed());
    }
}
