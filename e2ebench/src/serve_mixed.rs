//! `serve_mixed`: a long-lived `vgen serve --socket` daemon driven
//! closed loop by two clients.
//!
//! Each client keeps one connection open for as long as its daemon runs
//! and sends its next request only after the reply to the previous one.
//! A daemon serves at most [`MAX_REQUESTS`] requests; then a fresh daemon
//! and two fresh clients carry on until the time is up. Thirty requests
//! in 31 are `check` requests. Each carries a completion that the
//! calibrated `FamilyEngine` of a model row generates for a problem,
//! level and temperature of the paper grid, so the checks fail to
//! compile, fail the testbench and pass at the paper's calibrated rates.
//! The 31st is a small `eval`: one problem × all levels × one temperature
//! × n=10 for one model row, `jobs: 1`, with the workload seed as engine
//! seed. A small eval grades 30 completions, so both kinds of request
//! grade the same number of completions.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vgen_core::{check_completion, render_eval_summary, CheckOutcome, EvalConfig};
use vgen_corpus::CorpusSource;
use vgen_lm::{CompletionEngine, FamilyEngine, ModelId};
use vgen_problems::{Problem, PromptLevel};
use vgen_serve::{parse_request, EventSink, Json, NullSink, Request, Service};
use vgen_sim::SimConfig;

use crate::layers::{self, tuning_flag, TimedEngine};
use crate::spans::{now_ns, raw_events, Trace};
use crate::stats::{median, min_samples, proc_status, quantile, task_count, Rng};
use crate::{out_dir, Args, Outcome};

/// Load-generating clients, each on its own persistent connection.
pub const CLIENTS: usize = 2;
/// Completions per generated query and per small eval cell: the paper's n.
const N: usize = 10;
/// One request in this many is a small eval. A small eval grades
/// 3 levels × [`N`] = 30 completions; with 30 checks between two evals,
/// checks and evals grade the same number of completions.
const EVAL_EVERY: usize = 3 * N + 1;
/// Distinct small evals a run draws from: each paper problem twice.
const EVAL_MENU: usize = 34;
/// `peak_rss_mb` is the daemon's peak RSS once this many requests have
/// completed, so that it does not grow with the run's throughput.
const RSS_AT: usize = 2000;
/// Requests per chunk for the chunked throughput and latency medians.
const CHUNK: usize = 250;
/// Requests one daemon serves before the run shuts it down and carries
/// on against a fresh one. The daemon keeps two memory mappings per
/// finished request thread on a persistent connection and aborts once
/// `vm.max_map_count` (65,530 by default) is exhausted, after about
/// 32,700 requests; the cap keeps each daemon on the growth side of that
/// abort.
const MAX_REQUESTS: usize = 20_000;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 10;
/// The tail percentile reported as `tail_ms`.
const TAIL: f64 = 0.9;
/// Requests per client in a traced run: fixed, so counts repeat.
const TRACED_REQUESTS: usize = 400;
/// A reply slower than this counts as a hung daemon.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How often the daemon's RSS and threads are sampled.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// One check of the menu: a completion that the calibrated engine of
/// `model` generated for `problem`, `level` and `temperature`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSpec {
    pub model: ModelId,
    pub problem: u8,
    pub level: PromptLevel,
    pub temperature: f64,
    pub completion: String,
}

/// One small eval of the menu.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSpec {
    pub model: ModelId,
    pub problem: u8,
    pub temperature: f64,
}

/// One request of a client's stream: an index into a menu.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Req {
    Check { menu: usize },
    Eval { menu: usize },
}

/// The generated inputs of one run.
pub struct Inputs {
    pub seed: u64,
    pub checks: Vec<CheckSpec>,
    pub evals: Vec<EvalSpec>,
}

/// `len` indices into `0..n`, each value equally often (to within one),
/// in an order `rng` shuffles.
fn spread(rng: &mut Rng, len: usize, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).map(|k| k % n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Builds the check and eval menus for `seed`.
///
/// The check menu is every completion of the paper grid: for each model
/// row, problem, level and temperature, the [`N`] completions the row's
/// `FamilyEngine` (engine seed `seed`) generates, as the paper sweep
/// grades them. On the eval menu every problem, row and temperature
/// appears equally often, to within one; the seed decides how they are
/// combined.
pub fn inputs(seed: u64) -> Inputs {
    let rows = ModelId::all_evaluated();
    let temps = EvalConfig::paper_n10().temperatures;
    let mut rng = Rng::new(seed, 0xE7A1);
    let (ps, rs, ts) = (
        spread(&mut rng, EVAL_MENU, 17),
        spread(&mut rng, EVAL_MENU, rows.len()),
        spread(&mut rng, EVAL_MENU, temps.len()),
    );
    let evals = (0..EVAL_MENU)
        .map(|k| EvalSpec {
            model: rows[rs[k]],
            problem: 1 + ps[k] as u8,
            temperature: temps[ts[k]],
        })
        .collect();
    let mut checks = Vec::new();
    for &model in &rows {
        let mut engine = FamilyEngine::new(model, CorpusSource::GithubOnly, seed);
        for p in vgen_problems::problems() {
            for level in PromptLevel::ALL {
                for &temperature in &temps {
                    for c in engine.generate(p, level, temperature, N) {
                        checks.push(CheckSpec {
                            model,
                            problem: p.id,
                            level,
                            temperature,
                            completion: c.text,
                        });
                    }
                }
            }
        }
    }
    Inputs {
        seed,
        checks,
        evals,
    }
}

/// The request stream of client `client`: every [`EVAL_EVERY`]th request
/// is a small eval, the rest are checks, each drawn from its menu.
pub fn stream(inp: &Inputs, client: usize) -> impl Iterator<Item = Req> + '_ {
    let mut rng = Rng::new(inp.seed, 100 + client as u64);
    (0..).map(move |i: usize| {
        if i % EVAL_EVERY == EVAL_EVERY - 1 {
            Req::Eval {
                menu: rng.below(inp.evals.len()),
            }
        } else {
            Req::Check {
                menu: rng.below(inp.checks.len()),
            }
        }
    })
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    Json::str(s).render()
}

/// The protocol line of one request.
pub fn request_line(inp: &Inputs, id: u64, req: Req, journal: &str) -> String {
    match req {
        Req::Check { menu } => {
            let c = &inp.checks[menu];
            format!(
                "{{\"id\": {id}, \"cmd\": \"check\", \"problem\": {}, \"level\": \"{}\", \"source\": {}}}",
                c.problem,
                c.level.tag(),
                quote(&c.completion)
            )
        }
        Req::Eval { menu } => {
            let e = inp.evals[menu];
            format!(
                "{{\"id\": {id}, \"cmd\": \"eval\", \"journal\": {}, \"model\": {}, \"tuning\": \"{}\", \
                 \"full\": true, \"jobs\": 1, \"seed\": {}, \"problems\": [{}], \"temperatures\": [{}], \
                 \"ns\": [{N}], \"levels\": \"LMH\"}}",
                quote(journal),
                quote(e.model.family.name()),
                tuning_flag(e.model.tuning),
                inp.seed,
                e.problem,
                e.temperature
            )
        }
    }
}

/// One answered request.
struct Reply {
    /// The client, numbered across the run: the clients of the `k`th
    /// daemon are `k * CLIENTS..(k + 1) * CLIENTS`.
    client: usize,
    index: usize,
    req: Req,
    line: String,
    journal: String,
    start_ns: u64,
    end_ns: u64,
    /// The `done` payload, or the error message.
    result: Result<Json, String>,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn item(&self) -> u64 {
        (self.client as u64) << 32 | self.index as u64
    }
}

fn remove_journal(path: &str) {
    for suffix in ["", ".stats.json", ".metrics.json"] {
        let _ = std::fs::remove_file(format!("{path}{suffix}"));
    }
}

/// Sends one line and reads events until the request's terminal event.
fn roundtrip(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    id: u64,
    line: &str,
) -> Result<Json, String> {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
        let ev = Json::parse(buf.trim_end()).map_err(|e| format!("bad reply line: {e}"))?;
        if ev.get("id").and_then(Json::as_f64) != Some(id as f64) {
            continue;
        }
        match ev.get("event").and_then(Json::as_str) {
            Some("done") => return Ok(ev.get("payload").cloned().unwrap_or(Json::Null)),
            Some("error") => {
                let msg = ev.get("message").and_then(Json::as_str).unwrap_or("?");
                return Err(format!("error event: {msg}"));
            }
            Some("cancelled") => return Err("request was cancelled".to_string()),
            _ => {}
        }
    }
}

fn connect(socket: &Path) -> Result<(UnixStream, BufReader<UnixStream>), String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// A running daemon.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `vgen serve` and returns it with the time from spawn to the
    /// first `ping` reply.
    fn start(vgen: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let socket = dir.join("daemon.sock");
        let t0 = Instant::now();
        let child = Command::new(vgen)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start vgen serve: {e}"))?;
        let mut daemon = Daemon { child, socket };
        let (mut w, mut r) = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(s) => {
                    s.set_read_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
                    break (s, r);
                }
                Err(_) if t0.elapsed() < Duration::from_secs(10) => {
                    if let Ok(Some(st)) = daemon.child.try_wait() {
                        return Err(format!("vgen serve exited early with {st}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    daemon.stop();
                    return Err(format!("daemon socket never came up: {e}"));
                }
            }
        };
        let pong = roundtrip(&mut w, &mut r, 1, "{\"id\": 1, \"cmd\": \"ping\"}");
        let setup = t0.elapsed().as_secs_f64();
        if let Err(e) = pong {
            daemon.stop();
            return Err(format!("ping failed: {e}"));
        }
        Ok((daemon, setup))
    }

    /// Asks the daemon to shut down and waits for it; kills it if that
    /// does not work.
    fn stop(&mut self) {
        let asked = connect(&self.socket).and_then(|(mut w, mut r)| {
            roundtrip(&mut w, &mut r, 1, "{\"id\": 1, \"cmd\": \"shutdown\"}")
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon still running here (an early return or a panic) is killed
    /// and reaped, so that no run leaves one behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Figures sampled from `/proc` while the clients run.
#[derive(Debug, Default, Clone, Copy)]
struct Samples {
    rss_start_kb: u64,
    rss_end_kb: u64,
    hwm_kb: u64,
    /// The peak RSS when [`RSS_AT`] requests had completed.
    hwm_at_kb: Option<u64>,
    threads_peak: u64,
}

/// When the clients of one daemon stop.
enum Stop {
    /// At the deadline, or at [`MAX_REQUESTS`]. With `floor`, not before
    /// both latency classes have enough samples for their tail percentile
    /// and [`RSS_AT`] requests have completed.
    Time { deadline: Instant, floor: bool },
    /// After this many requests per client.
    Count(usize),
}

/// One daemon's share of a run: the replies of its clients, the client
/// loop's start and end, the daemon samples, and whether a client lost
/// its connection.
struct Session {
    replies: Vec<Reply>,
    span: (u64, u64),
    samples: Samples,
    lost: bool,
}

/// Runs clients `first_client..first_client + CLIENTS` against `daemon`
/// while the calling thread samples the daemon.
fn drive(
    inp: &Inputs,
    dir: &Path,
    daemon: &Daemon,
    stop: &Stop,
    first_client: usize,
) -> Result<Session, String> {
    let pid = daemon.child.id();
    let checks = AtomicUsize::new(0);
    let evals = AtomicUsize::new(0);
    let running = AtomicUsize::new(CLIENTS);
    let abort = AtomicBool::new(false);
    let need = min_samples(TAIL);
    let mut samples = Samples {
        rss_start_kb: proc_status(pid).map_or(0, |s| s.rss_kb),
        ..Samples::default()
    };
    let t0 = now_ns();
    let results: Vec<Result<(Vec<Reply>, bool), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (first_client..first_client + CLIENTS)
            .map(|c| {
                let (checks, evals, running, abort) = (&checks, &evals, &running, &abort);
                s.spawn(move || {
                    let out = client(
                        inp,
                        dir,
                        daemon,
                        c,
                        |i| {
                            if abort.load(Ordering::SeqCst) {
                                return true;
                            }
                            match stop {
                                Stop::Count(n) => i >= *n,
                                Stop::Time { deadline, floor } => {
                                    let (c, e) = (
                                        checks.load(Ordering::SeqCst),
                                        evals.load(Ordering::SeqCst),
                                    );
                                    c + e >= MAX_REQUESTS
                                        || (Instant::now() >= *deadline
                                            && (!floor
                                                || (c >= need
                                                    && e >= need
                                                    && c + e >= RSS_AT.max(4 * CHUNK))))
                                }
                            }
                        },
                        |req| {
                            let n = if matches!(req, Req::Eval { .. }) {
                                evals
                            } else {
                                checks
                            };
                            n.fetch_add(1, Ordering::SeqCst);
                        },
                    );
                    if !matches!(out, Ok((_, false))) {
                        abort.store(true, Ordering::SeqCst);
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        while running.load(Ordering::SeqCst) > 0 {
            let completed = checks.load(Ordering::SeqCst) + evals.load(Ordering::SeqCst);
            if let Some(st) = proc_status(pid) {
                samples.hwm_kb = samples.hwm_kb.max(st.hwm_kb);
                samples.rss_end_kb = st.rss_kb;
                if completed >= RSS_AT && samples.hwm_at_kb.is_none() {
                    samples.hwm_at_kb = Some(st.hwm_kb);
                }
            }
            if let Some(n) = task_count(pid) {
                samples.threads_peak = samples.threads_peak.max(n);
            }
            std::thread::sleep(SAMPLE_EVERY);
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let t1 = now_ns();
    if let Some(st) = proc_status(pid) {
        samples.hwm_kb = samples.hwm_kb.max(st.hwm_kb);
        samples.rss_end_kb = st.rss_kb;
    }
    let mut replies = Vec::new();
    let mut lost = false;
    for r in results {
        let (rs, l) = r?;
        replies.extend(rs);
        lost |= l;
    }
    Ok(Session {
        replies,
        span: (t0, t1),
        samples,
        lost,
    })
}

/// One client: a persistent connection, one request in flight.
fn client(
    inp: &Inputs,
    dir: &Path,
    daemon: &Daemon,
    c: usize,
    done: impl Fn(usize) -> bool,
    count: impl Fn(&Req),
) -> Result<(Vec<Reply>, bool), String> {
    let (mut w, mut r) = connect(&daemon.socket)?;
    let mut replies = Vec::new();
    for (index, req) in stream(inp, c).enumerate() {
        if done(index) {
            break;
        }
        let id = index as u64 + 1;
        let journal = dir
            .join(format!("c{c}-{index}.log"))
            .to_string_lossy()
            .into_owned();
        let line = request_line(inp, id, req, &journal);
        let start_ns = now_ns();
        let result = roundtrip(&mut w, &mut r, id, &line);
        let end_ns = now_ns();
        if matches!(req, Req::Eval { .. }) {
            remove_journal(&journal);
        }
        let lost = result
            .as_ref()
            .is_err_and(|e| !e.starts_with("error event"));
        count(&req);
        replies.push(Reply {
            client: c,
            index,
            req,
            line,
            journal,
            start_ns,
            end_ns,
            result,
        });
        if lost {
            // The failed reply is recorded; the run stops and reports it.
            return Ok((replies, true));
        }
    }
    Ok((replies, false))
}

/// The fields of a check reply the in-process check must reproduce.
fn check_summary(outcome: &CheckOutcome, lint: Option<(u32, u32)>) -> String {
    let (tag, detail) = match outcome {
        CheckOutcome::Pass => ("pass", None),
        CheckOutcome::FunctionalFail => ("functional_fail", None),
        CheckOutcome::SimulationFail(m) => ("simulation_fail", Some(m.clone())),
        CheckOutcome::CompileFail(m) => ("compile_fail", Some(m.clone())),
        CheckOutcome::HarnessFault(m) => ("harness_fault", Some(m.clone())),
        CheckOutcome::Timeout(k) => ("timeout", Some(format!("{k:?}"))),
    };
    format!("{tag} {detail:?} {lint:?}")
}

fn reply_summary(payload: &Json) -> String {
    let tag = payload.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let detail = payload
        .get("detail")
        .and_then(Json::as_str)
        .map(str::to_string);
    let lint = payload.get("lint").map(|l| {
        let n = |k: &str| l.get(k).and_then(Json::as_f64).unwrap_or(-1.0) as u32;
        (n("errors"), n("warnings"))
    });
    format!("{tag} {detail:?} {lint:?}")
}

/// An eval report with its journal path replaced, so that reports of
/// the same request made under different journal names compare equal.
fn normalize(report: &str, journal: &str) -> String {
    report.replace(journal, "<journal>")
}

/// The in-process eval of one protocol line, under journal `journal`.
fn service_eval(line: &str, journal: &str) -> Result<(String, vgen_core::EvalRun), String> {
    let Request::Eval(mut req) = parse_request(line)?.body else {
        return Err("not an eval request".to_string());
    };
    req.journal = journal.to_string();
    remove_journal(journal);
    let sink: Arc<dyn EventSink> = Arc::new(NullSink);
    let outcome = Service.eval(&req, &vgen_obs::CancelToken::unlimited(), &sink);
    remove_journal(journal);
    let outcome = outcome?;
    match (outcome.report, outcome.run) {
        (Some(report), Some(run)) => Ok((normalize(&report, journal), run)),
        _ => Err("in-process eval was cancelled".to_string()),
    }
}

/// Checks every reply against the program run in process: check
/// verdicts against `check_completion`, eval reports against
/// `Service::eval` of the same request. Each request that fails a check,
/// or whose reply is an error or reports a harness fault, is one failed
/// operation.
fn verify(inp: &Inputs, dir: &Path, replies: &[Reply], out: &mut Outcome) {
    let mut expect_check: HashMap<(u8, PromptLevel, &str), String> = HashMap::new();
    let mut expect_eval: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    for r in replies {
        out.attempted += 1;
        let payload = match &r.result {
            Ok(p) => p,
            Err(e) => {
                out.fail(1, format!("client {} request {}: {e}", r.client, r.index));
                continue;
            }
        };
        let wrong = match r.req {
            Req::Check { menu } => {
                let c = &inp.checks[menu];
                let key = (c.problem, c.level, c.completion.as_str());
                let want = expect_check.entry(key).or_insert_with(|| {
                    let p = vgen_problems::problem(c.problem).expect("paper problem");
                    let res = check_completion(p, c.level, &c.completion, SimConfig::default());
                    let lint = res.lint.map(|l| (l.errors, l.warnings));
                    check_summary(&res.outcome, lint)
                });
                let got = reply_summary(payload);
                if got != *want {
                    Some(format!("daemon `{got}`, in process `{want}`"))
                } else if got.starts_with("harness_fault") {
                    Some(format!("harness fault `{got}`"))
                } else {
                    None
                }
            }
            Req::Eval { menu } => {
                let want = expect_eval.entry(menu).or_insert_with(|| {
                    let journal = dir.join(format!("verify-{menu}.log"));
                    service_eval(&r.line, &journal.to_string_lossy()).map(|(rep, _)| rep)
                });
                let got = payload
                    .get("report")
                    .and_then(Json::as_str)
                    .map(|rep| normalize(rep, &r.journal));
                match (want, got) {
                    (Ok(w), Some(g)) if *w == g => match harness_faults(&g) {
                        0 => None,
                        n => Some(format!("{n} harness faults")),
                    },
                    (Ok(_), Some(_)) => {
                        Some("daemon report differs from in-process Service::eval".to_string())
                    }
                    (Ok(_), None) => Some("reply has no report".to_string()),
                    (Err(e), _) => Some(format!("in-process eval failed: {e}")),
                }
            }
        };
        if let Some(what) = wrong {
            out.fail(
                1,
                format!(
                    "client {} request {} {:?}: {what}",
                    r.client, r.index, r.req
                ),
            );
        }
    }
}

/// The `harness faults:` count of an eval report.
fn harness_faults(report: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix("harness faults:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = out_dir("serve_mixed")?;
    let inp = inputs(args.seed);
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup = Vec::new();
    let mut daemon = None;
    for k in 0..setups {
        let (mut d, s) = Daemon::start(&args.vgen, &dir)?;
        setup.push(s);
        if k + 1 < setups {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("one daemon set up");
    // Daemons serve in turn until the time is up, each at most
    // MAX_REQUESTS requests on its clients' persistent connections.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        let stop = if args.trace {
            Stop::Count(TRACED_REQUESTS)
        } else {
            Stop::Time {
                deadline,
                floor: sessions.is_empty(),
            }
        };
        let driven = drive(&inp, &dir, &daemon, &stop, sessions.len() * CLIENTS);
        daemon.stop();
        sessions.push(driven?);
        if args.trace || sessions.iter().any(|s| s.lost) || Instant::now() >= deadline {
            break;
        }
        daemon = Daemon::start(&args.vgen, &dir)?.0;
    }
    let replies: Vec<Reply> = sessions
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.replies))
        .collect();
    let daemons: Vec<((u64, u64), Samples)> =
        sessions.iter().map(|s| (s.span, s.samples)).collect();
    verify(&inp, &dir, &replies, &mut out);
    if args.trace {
        let (span, samples) = daemons[0];
        traced(&inp, &dir, &replies, span, samples, &mut out)?;
    } else {
        report(
            &replies,
            &daemons,
            median(&setup).expect("set-ups ran"),
            &mut out,
        );
    }
    Ok(out)
}

fn report(replies: &[Reply], daemons: &[((u64, u64), Samples)], setup_s: f64, out: &mut Outcome) {
    // Chunked medians: each daemon's requests are cut into consecutive
    // chunks of CHUNK completions, each chunk gives a rate and its check
    // percentiles, and the medians over all chunks are reported, so a few
    // seconds in which the host stalls the whole machine do not decide
    // the result.
    let mut rates = Vec::new();
    let mut check_chunks: Vec<Vec<f64>> = Vec::new();
    for (k, (span, _)) in daemons.iter().enumerate() {
        let mut done: Vec<&Reply> = replies.iter().filter(|r| r.client / CLIENTS == k).collect();
        done.sort_by_key(|r| r.end_ns);
        let mut prev = span.0;
        for chunk in done.chunks_exact(CHUNK) {
            let last = chunk[CHUNK - 1].end_ns;
            rates.push(CHUNK as f64 / ((last - prev) as f64 / 1e9));
            prev = last;
        }
        let checks: Vec<f64> = done
            .iter()
            .filter(|r| matches!(r.req, Req::Check { .. }))
            .map(|r| r.latency_ms())
            .collect();
        check_chunks.extend(checks.chunks_exact(CHUNK).map(<[f64]>::to_vec));
    }
    let chunked = |q: f64| -> f64 {
        let per: Vec<f64> = check_chunks.iter().filter_map(|c| quantile(c, q)).collect();
        median(&per).unwrap_or(0.0)
    };
    let evals: Vec<f64> = replies
        .iter()
        .filter(|r| matches!(r.req, Req::Eval { .. }))
        .map(Reply::latency_ms)
        .collect();
    let n_checks = replies.len() - evals.len();
    let rps = median(&rates).unwrap_or(0.0);
    let c50 = chunked(0.5);
    let c90 = chunked(TAIL);
    let e50 = median(&evals).unwrap_or(0.0);
    let e90 = quantile(&evals, TAIL).unwrap_or(0.0);
    let hwm_at: Vec<f64> = daemons
        .iter()
        .filter_map(|(_, s)| s.hwm_at_kb)
        .map(|kb| kb as f64 / 1024.0)
        .collect();
    let peak_mb = median(&hwm_at).unwrap_or(daemons[0].1.hwm_kb as f64 / 1024.0);
    let hwm_end_kb = daemons.iter().map(|(_, s)| s.hwm_kb).max().unwrap_or(0);
    let threads_peak = daemons
        .iter()
        .map(|(_, s)| s.threads_peak)
        .max()
        .unwrap_or(0);
    let growth_kb: f64 = daemons
        .iter()
        .map(|(_, s)| s.rss_end_kb as f64 - s.rss_start_kb as f64)
        .sum();
    out.metrics.insert("items_per_s", rps);
    out.metrics.insert("p50_ms", c50);
    out.metrics.insert("tail_ms", c90);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", peak_mb);
    let cn = format!(
        "n={n_checks} checks, {CLIENTS} closed-loop clients, median over chunks of {CHUNK}"
    );
    let en = format!("n={} evals", evals.len());
    out.note("check_p50_ms", c50, "ms", &cn);
    out.note("check_p90_ms", c90, "ms", &cn);
    out.note("eval_p50_ms", e50, "ms", &en);
    out.note("eval_p90_ms", e90, "ms", &en);
    out.note(
        "requests_per_s",
        rps,
        "req/s",
        &format!(
            "{} requests to {} daemons, median over chunks of {CHUNK}",
            replies.len(),
            daemons.len()
        ),
    );
    out.note(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} daemon spawns to first pong"),
    );
    out.note(
        "peak_rss_mb",
        peak_mb,
        "MB",
        &format!("daemon VmHWM after {RSS_AT} requests, median over daemons"),
    );
    out.note(
        "daemon_vmhwm_end_mb",
        hwm_end_kb as f64 / 1024.0,
        "MB",
        &format!("largest daemon VmHWM, up to {MAX_REQUESTS} requests each"),
    );
    out.note(
        "serve.rss_growth_kb_per_req",
        growth_kb / replies.len().max(1) as f64,
        "KB/req",
        &format!("VmRSS growth summed over {} daemons", daemons.len()),
    );
    out.note(
        "serve.threads_peak",
        threads_peak as f64,
        "count",
        "OS threads of the daemon",
    );
}

fn traced(
    inp: &Inputs,
    dir: &Path,
    replies: &[Reply],
    span: (u64, u64),
    samples: Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut trace = Trace::default();
    let root = trace.push("serve_mixed", None, 0, 0, span.0, span.1);
    for r in replies {
        let name = match r.req {
            Req::Check { .. } => "client.check",
            Req::Eval { .. } => "client.eval",
        };
        trace.push(
            name,
            Some(root),
            r.item(),
            1 + r.client as u32,
            r.start_ns,
            r.end_ns,
        );
    }
    let client_ns: f64 = replies.iter().map(|r| (r.end_ns - r.start_ns) as f64).sum();

    // Replay every request in process, traced and then untraced.
    let journal = dir.join("replay.log").to_string_lossy().into_owned();
    let replay = |trace: Option<&mut Trace>,
                  parent: usize|
     -> Result<(f64, Vec<vgen_core::EvalRun>), String> {
        let mut runs = Vec::new();
        let mut spans = Vec::new();
        let t0 = now_ns();
        for r in replies {
            let s0 = now_ns();
            let name = match parse_request(&r.line)?.body {
                Request::Check(req) => {
                    Service.check(&req)?;
                    "serve.check"
                }
                _ => {
                    runs.push(service_eval(&r.line, &journal)?.1);
                    "serve.eval"
                }
            };
            spans.push((name, r.item(), s0, now_ns()));
        }
        let wall = (now_ns() - t0) as f64;
        if let Some(trace) = trace {
            for (name, item, s, e) in spans {
                trace.push(name, Some(parent), item, 0, s, e);
            }
        }
        Ok((wall, runs))
    };
    let replay_root = trace.begin("serve_mixed.replay", None, 0, 0);
    vgen_obs::enable();
    let traced_replay = replay(Some(&mut trace), replay_root);
    let report = vgen_obs::collect();
    trace.end(replay_root);
    let (traced_wall, runs) = traced_replay?;
    trace.adopt(raw_events(&report), replay_root);
    let (plain_wall, _) = replay(None, replay_root)?;

    // Probes: bank builds through a timed engine, report rendering, and
    // the guard's overhead on the distinct checked inputs.
    let probe_root = trace.begin("serve_mixed.probes", None, 0, 0);
    let mut engines = Vec::new();
    for (r, run) in replies
        .iter()
        .filter(|r| matches!(r.req, Req::Eval { .. }))
        .zip(&runs)
    {
        let Req::Eval { menu } = r.req else { continue };
        let e = inp.evals[menu];
        let problem = vgen_problems::problem(e.problem).expect("paper problem");
        // The eval's generation phase: one fresh engine, one call per level.
        let s = trace.begin("lm_probe", Some(probe_root), r.item(), 0);
        let mut engine = TimedEngine::new(FamilyEngine::new(
            e.model,
            CorpusSource::GithubOnly,
            inp.seed,
        ));
        for level in PromptLevel::ALL {
            let _ = engine.generate(problem, level, e.temperature, 10);
        }
        engine.record(&mut trace, s, r.item(), 0);
        trace.end(s);
        engines.push(engine);
        let s = trace.begin("core.report", Some(probe_root), r.item(), 0);
        let _ = render_eval_summary(run, &journal);
        trace.end(s);
    }
    let mut seen = std::collections::HashSet::new();
    let probe: Vec<(&'static Problem, PromptLevel, String)> = replies
        .iter()
        .filter_map(|r| match r.req {
            Req::Check { menu } => {
                let c = &inp.checks[menu];
                seen.insert((c.problem, c.level, c.completion.as_str()))
                    .then(|| {
                        let p = vgen_problems::problem(c.problem).expect("paper problem");
                        (p, c.level, c.completion.clone())
                    })
            }
            _ => None,
        })
        .collect();
    let guard = trace.begin("guard_probe", Some(probe_root), 0, 0);
    let (guard_us, differ) = layers::guard_probe(&probe, 2, &mut trace, guard);
    trace.end(guard);
    trace.end(probe_root);
    out.attempted += probe.len() as u64;
    if differ > 0 {
        out.fail(
            differ as u64,
            format!("{differ} guard-probe inputs: supervised and plain checks disagree"),
        );
    }

    trace.clamp();
    let table = trace.table(replay_root);
    let m = &mut out.metrics;
    m.extend(layers::zeroed());
    let check_requests = table.row("serve.check").calls as f64;
    layers::stage_metrics(m, &table, check_requests + table.row("check").calls as f64);
    layers::bank_metrics(m, &engines);
    let menu_problems: Vec<&'static Problem> = vgen_problems::problems()
        .iter()
        .filter(|p| inp.evals.iter().any(|e| e.problem == p.id))
        .collect();
    m.insert(
        "lm.bank.keep_ratio",
        layers::keep_ratio(&menu_problems, inp.seed),
    );
    let eval = table.row("serve.eval");
    m.insert("core.sweep.busy_ms", eval.incl_ns / 1e6);
    m.insert("core.sweep.self_ms", eval.self_ns / 1e6);
    let hits = layers::counter(&report.counters, "dedup.hit");
    m.insert(
        "core.dedup.hit_ratio",
        hits / (hits + table.row("check").calls as f64).max(1.0),
    );
    m.insert("core.guard.overhead_us", guard_us);
    m.insert(
        "core.pool.utilization",
        vgen_obs::Snapshot::from_report(&report).utilization(),
    );
    m.insert(
        "core.journal.writes",
        layers::counter(&report.counters, "journal.write"),
    );
    let report_ms: f64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "core.report")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    m.insert("core.report.busy_ms", report_ms);
    m.insert("sim.steps", layers::counter(&report.counters, "sim.steps"));
    let check = table.row("serve.check");
    m.insert("serve.check.busy_ms", check.incl_ns / 1e6);
    m.insert("serve.eval.busy_ms", eval.incl_ns / 1e6);
    m.insert(
        "serve.transport.busy_ms",
        (client_ns - check.incl_ns - eval.incl_ns) / 1e6,
    );
    m.insert("serve.threads_peak", samples.threads_peak as f64);
    let growth = samples.rss_end_kb as f64 - samples.rss_start_kb as f64;
    m.insert(
        "serve.rss_growth_kb_per_req",
        growth / replies.len().max(1) as f64,
    );
    let overhead = 100.0 * (traced_wall / plain_wall - 1.0);
    m.insert("obs.overhead_pct", overhead);
    out.note(
        "obs.overhead_pct",
        overhead,
        "%",
        "traced vs untraced in-process replay",
    );
    out.note(
        "serve.rss_growth_kb_per_req",
        growth / replies.len().max(1) as f64,
        "KB/req",
        &format!(
            "RSS {} KB -> {} KB over {} requests",
            samples.rss_start_kb,
            samples.rss_end_kb,
            replies.len()
        ),
    );
    out.trace = Some((trace, vec![root, replay_root, probe_root]));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_beyond;

    #[test]
    fn every_chunk_tail_has_ten_samples_beyond_it() {
        assert!(samples_beyond(CHUNK, TAIL) >= 10);
        assert!(RSS_AT.max(4 * CHUNK) < MAX_REQUESTS);
    }

    #[test]
    fn workload_generation_is_deterministic_in_its_seed() {
        let (a, b, c) = (inputs(5), inputs(5), inputs(6));
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.evals, b.evals);
        assert_ne!(a.checks, c.checks);
        let take = |inp: &Inputs, client| -> Vec<String> {
            stream(inp, client)
                .take(200)
                .enumerate()
                .map(|(i, r)| request_line(inp, i as u64, r, "j.log"))
                .collect()
        };
        assert_eq!(take(&a, 0), take(&b, 0));
        assert_ne!(take(&a, 0), take(&a, 1));
        assert_ne!(take(&a, 0), take(&c, 0));
    }

    #[test]
    fn checks_are_the_engine_completions_of_the_whole_grid() {
        let inp = inputs(3);
        let rows = ModelId::all_evaluated();
        let temps = EvalConfig::paper_n10().temperatures;
        assert_eq!(inp.checks.len(), rows.len() * 17 * 3 * temps.len() * N);
        for cell in inp.checks.chunks(N).step_by(97) {
            let c = &cell[0];
            assert!(cell
                .iter()
                .all(|x| (x.model, x.problem, x.level, x.temperature)
                    == (c.model, c.problem, c.level, c.temperature)));
            let mut engine = FamilyEngine::new(c.model, CorpusSource::GithubOnly, 3);
            let p = vgen_problems::problem(c.problem).expect("paper problem");
            let batch = engine.generate(p, c.level, c.temperature, N);
            let texts: Vec<&str> = batch.iter().map(|g| g.text.as_str()).collect();
            let menu: Vec<&str> = cell.iter().map(|x| x.completion.as_str()).collect();
            assert_eq!(texts, menu);
        }
    }

    #[test]
    fn request_lines_parse_as_protocol_requests() {
        let inp = inputs(3);
        let mut kinds = [0usize; 2];
        for (i, req) in stream(&inp, 0).take(300).enumerate() {
            let line = request_line(&inp, i as u64 + 1, req, "x.log");
            let env = parse_request(&line).expect("valid request");
            assert_eq!(env.id, i as u64 + 1);
            match (env.body, req) {
                (Request::Check(c), Req::Check { menu }) => {
                    kinds[0] += 1;
                    assert_eq!(c.source, inp.checks[menu].completion);
                    assert_eq!(c.problem, inp.checks[menu].problem);
                }
                (Request::Eval(e), Req::Eval { menu }) => {
                    kinds[1] += 1;
                    assert_eq!(e.seed, 3);
                    assert_eq!(e.problems, Some(vec![inp.evals[menu].problem]));
                    assert_eq!(e.temperatures, Some(vec![inp.evals[menu].temperature]));
                }
                _ => panic!("request kind changed in transit"),
            }
        }
        assert_eq!(kinds, [300 - 300 / EVAL_EVERY, 300 / EVAL_EVERY]);
    }

    #[test]
    fn a_wrong_or_failed_reply_counts_into_error_rate() {
        let p = vgen_problems::problem(2).expect("problem 2");
        let inp = Inputs {
            seed: 1,
            checks: vec![CheckSpec {
                model: ModelId::all_evaluated()[0],
                problem: 2,
                level: PromptLevel::Low,
                temperature: 0.1,
                completion: p.reference_source(),
            }],
            evals: Vec::new(),
        };
        let reply = |index: usize, result: Result<Json, String>| Reply {
            client: 0,
            index,
            req: Req::Check { menu: 0 },
            line: String::new(),
            journal: String::new(),
            start_ns: 0,
            end_ns: 1,
            result,
        };
        let pass = Json::parse(r#"{"outcome": "pass", "lint": {"errors": 0, "warnings": 0}}"#);
        let wrong = Json::parse(r#"{"outcome": "compile_fail", "detail": "injected"}"#);
        let mut out = Outcome::default();
        verify(&inp, Path::new("."), &[reply(0, pass.clone())], &mut out);
        assert_eq!((out.attempted, out.failed), (1, 0), "{:?}", out.failures);
        let replies = [
            reply(0, pass),
            reply(1, wrong),
            reply(2, Err("error event: injected".to_string())),
        ];
        let mut out = Outcome::default();
        verify(&inp, Path::new("."), &replies, &mut out);
        assert_eq!((out.attempted, out.failed), (3, 2), "{:?}", out.failures);
        assert!(out.error_rate() > 0.6);
    }
}
