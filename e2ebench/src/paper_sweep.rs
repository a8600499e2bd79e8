//! `paper_sweep`: the paper grid, one-shot, the way a user reproduces
//! Tables III and IV.
//!
//! A pass starts one fresh `vgen eval --full --model M --tuning T
//! --jobs <nproc> --journal <fresh>` process per model row, one after
//! the other: 11 rows, 2,550 records each. Passes repeat until the time
//! is up. The CLI pins the engine seed at 42, so this workload ignores
//! `--seed`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vgen_core::{render_eval_summary, run_engine, EvalConfig, EvalRun, Record};
use vgen_corpus::CorpusSource;
use vgen_lm::{FamilyEngine, ModelId};
use vgen_problems::{Problem, PromptLevel};
use vgen_serve::Json;

use crate::layers::{self, tuning_flag, TimedEngine};
use crate::spans::{now_ns, Raw, Trace};
use crate::stats::{median, proc_status, quantile};
use crate::{json_array, out_dir, Args, Outcome};

/// The engine seed `vgen eval` uses.
const CLI_SEED: u64 = 42;
/// Passes every run makes at least, so that `tail_ms` has ten rows
/// beyond it.
const MIN_PASSES: usize = 5;
/// The tail percentile reported as `tail_ms`: the highest with ten
/// samples beyond it at [`MIN_PASSES`] passes of 11 rows.
const TAIL: f64 = 0.8;
/// How often the row's peak RSS is sampled.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// One row process of one pass.
struct RowRun {
    row: usize,
    start_ns: u64,
    end_ns: u64,
    /// `None` when the process exited with success.
    error: Option<String>,
    stdout: String,
    journal: Vec<u8>,
    hwm_kb: u64,
}

impl RowRun {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Ctx {
    vgen: PathBuf,
    dir: PathBuf,
    rows: Vec<ModelId>,
    jobs: usize,
}

fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

fn journal_path(ctx: &Ctx, row: usize) -> PathBuf {
    ctx.dir.join(format!("row-{row}.log"))
}

fn trace_path(ctx: &Ctx, row: usize) -> PathBuf {
    ctx.dir.join(format!("row-{row}.trace.json"))
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Runs a child to completion while sampling its peak RSS; returns the
/// start and end on the benchmark clock, the exit error and the peak.
fn run_sampled(cmd: &mut Command) -> Result<(u64, u64, Option<String>, u64), String> {
    let start_ns = now_ns();
    let mut child = cmd.spawn().map_err(|e| format!("cannot start vgen: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let status = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(st) = proc_status(pid) {
                    peak.fetch_max(st.hwm_kb as usize, Ordering::SeqCst);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        status
    });
    let end_ns = now_ns();
    let error = match status {
        Ok(s) if s.success() => None,
        Ok(s) => Some(format!("exited with {s}")),
        Err(e) => Some(format!("wait failed: {e}")),
    };
    Ok((start_ns, end_ns, error, peak.load(Ordering::SeqCst) as u64))
}

fn run_row(ctx: &Ctx, row: usize, traced: bool) -> Result<RowRun, String> {
    let model = ctx.rows[row];
    let journal = journal_path(ctx, row);
    for p in [
        journal.clone(),
        with_suffix(&journal, ".stats.json"),
        with_suffix(&journal, ".metrics.json"),
        trace_path(ctx, row),
    ] {
        remove(&p);
    }
    let out_path = ctx.dir.join(format!("row-{row}.out"));
    let err_path = ctx.dir.join(format!("row-{row}.err"));
    let file =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()));
    let mut cmd = Command::new(&ctx.vgen);
    cmd.args(["eval", "--full", "--model", model.family.name()])
        .args(["--tuning", tuning_flag(model.tuning)])
        .args(["--jobs", &ctx.jobs.to_string()])
        .arg("--journal")
        .arg(&journal)
        .stdin(Stdio::null())
        .stdout(file(&out_path)?)
        .stderr(file(&err_path)?);
    if traced {
        cmd.arg("--trace")
            .arg(trace_path(ctx, row))
            .arg("--metrics");
    }
    let (start_ns, end_ns, mut error, hwm_kb) = run_sampled(&mut cmd)?;
    if let Some(e) = &mut error {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        e.push_str(&format!(": {}", stderr.trim()));
    }
    Ok(RowRun {
        row,
        start_ns,
        end_ns,
        error,
        stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
        journal: std::fs::read(&journal).unwrap_or_default(),
        hwm_kb,
    })
}

fn run_pass(ctx: &Ctx, traced: bool) -> Result<Vec<RowRun>, String> {
    (0..ctx.rows.len())
        .map(|r| run_row(ctx, r, traced))
        .collect()
}

fn pass_wall_ns(pass: &[RowRun]) -> f64 {
    pass.iter().map(|r| r.wall_ns() as f64).sum()
}

/// `setup_s`: the median wall time of the smallest one-shot eval, one
/// reference solution checked by a fresh `vgen eval <file> --problem P`,
/// over problems 1–17.
fn one_shot_setup(ctx: &Ctx, out: &mut Outcome) -> Result<f64, String> {
    let mut walls = Vec::new();
    for p in vgen_problems::problems() {
        let path = ctx.dir.join(format!("ref-{}.v", p.id));
        std::fs::write(&path, p.reference_source())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut cmd = Command::new(&ctx.vgen);
        cmd.arg("eval")
            .arg(&path)
            .args(["--problem", &p.id.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let (start, end, error, _) = run_sampled(&mut cmd)?;
        out.attempted += 1;
        if let Some(e) = error {
            out.fail(
                1,
                format!("one-shot eval of problem {} reference {e}", p.id),
            );
        }
        walls.push((end - start) as f64 / 1e9);
    }
    Ok(median(&walls).expect("17 problems"))
}

/// The in-process serial reference run of one row, through a timed
/// engine, with the time `render_eval_summary` took.
struct Reference {
    run: EvalRun,
    engine: TimedEngine,
    report: String,
    report_span: (u64, u64),
    span: (u64, u64),
}

/// Runs the reference of every row on up to `jobs` threads.
fn references(ctx: &Ctx) -> Vec<Reference> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Reference)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..ctx.jobs.min(ctx.rows.len()) {
            s.spawn(|| loop {
                let row = next.fetch_add(1, Ordering::SeqCst);
                let Some(&model) = ctx.rows.get(row) else {
                    break;
                };
                let t0 = now_ns();
                let mut engine =
                    TimedEngine::new(FamilyEngine::new(model, CorpusSource::GithubOnly, CLI_SEED));
                let run = run_engine(&mut engine, &EvalConfig::paper_n10());
                let r0 = now_ns();
                let report = render_eval_summary(&run, &journal_path(ctx, row).to_string_lossy());
                let r1 = now_ns();
                let reference = Reference {
                    run,
                    engine,
                    report,
                    report_span: (r0, r1),
                    span: (t0, r1),
                };
                done.lock()
                    .expect("no reference thread panics")
                    .push((row, reference));
            });
        }
    });
    let mut done = done.into_inner().expect("no reference thread panics");
    done.sort_by_key(|(row, _)| *row);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Checks every pass against the in-process references: each pass's
/// records and report equal the reference's, and every later pass's
/// report and journal are byte-identical to pass 0's. A row that fails
/// any check fails all its records.
fn verify(ctx: &Ctx, passes: &[Vec<RowRun>], refs: &[Reference], out: &mut Outcome) {
    for (row, reference) in refs.iter().enumerate() {
        let records = reference.run.records.len() as u64;
        let faults = reference.run.records.iter().filter(|r| r.fault).count() as u64;
        let first = &passes[0][row];
        for (k, pass) in passes.iter().enumerate() {
            let r = &pass[row];
            out.attempted += records;
            let wrong = if let Some(e) = &r.error {
                Some(e.clone())
            } else if journal_records(&r.journal).as_ref() != Some(&reference.run.records) {
                Some("journal records differ from the in-process serial run".to_string())
            } else if r.stdout != reference.report {
                Some("report differs from render_eval_summary of the serial run".to_string())
            } else if r.stdout != first.stdout || r.journal != first.journal {
                Some("report or journal differs from pass 0".to_string())
            } else {
                None
            };
            let name = ctx.rows[row];
            match wrong {
                Some(what) => out.fail(records, format!("pass {k} row {row} ({name}): {what}")),
                None if faults > 0 => out.fail(
                    faults,
                    format!("pass {k} row {row} ({name}): {faults} harness-fault records"),
                ),
                None => {}
            }
        }
    }
}

/// The records of a journal's bytes; `None` if any record line is
/// malformed.
fn journal_records(bytes: &[u8]) -> Option<Vec<Record>> {
    std::str::from_utf8(bytes)
        .ok()?
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(Record::from_journal_line)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx {
        vgen: args.vgen.clone(),
        dir: out_dir("paper_sweep")?,
        rows: ModelId::all_evaluated(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut out = Outcome::default();
    let setup_s = one_shot_setup(&ctx, &mut out)?;
    if args.trace {
        traced(args, &ctx, &mut out)?;
    } else {
        untraced(args, &ctx, setup_s, &mut out)?;
    }
    Ok(out)
}

fn untraced(args: &Args, ctx: &Ctx, setup_s: f64, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(run_pass(ctx, false)?);
    }
    let refs = references(ctx);
    verify(ctx, &passes, &refs, out);
    let row_ms: Vec<f64> = passes
        .iter()
        .flatten()
        .map(|r| r.wall_ns() as f64 / 1e6)
        .collect();
    // Records per pass over the median pass: the wall time of all 11 row
    // processes, robust to one pass slowed by the host.
    let records: usize = refs.iter().map(|r| r.run.records.len()).sum();
    let pass_walls: Vec<f64> = passes.iter().map(|p| pass_wall_ns(p)).collect();
    let wall_s = median(&pass_walls).expect("passes ran") / 1e9;
    // The largest row's peak RSS, as the median over passes of each row's
    // peak: in the odd pass one row's peak comes out half as large again
    // (6.9 MB → 10–12 MB on the reference host), and one such pass should
    // not decide the figure. The largest single peak goes to stderr.
    let peak_mb = (0..ctx.rows.len())
        .map(|row| {
            let peaks: Vec<f64> = passes.iter().map(|p| p[row].hwm_kb as f64).collect();
            median(&peaks).expect("passes ran")
        })
        .fold(0.0, f64::max)
        / 1024.0;
    let p50 = median(&row_ms).expect("rows ran");
    let tail = quantile(&row_ms, TAIL).expect("rows ran");
    out.metrics.insert("items_per_s", records as f64 / wall_s);
    out.metrics.insert("p50_ms", p50);
    out.metrics.insert("tail_ms", tail);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", peak_mb);
    let samples = format!(
        "n={} rows over {} passes, jobs={}",
        row_ms.len(),
        passes.len(),
        ctx.jobs
    );
    out.note(
        "items_per_s",
        records as f64 / wall_s,
        "records/s",
        &format!(
            "{records} records per pass over the median of {} passes",
            passes.len()
        ),
    );
    out.note("row_p50_ms", p50, "ms", &samples);
    out.note("row_p80_ms", tail, "ms", &samples);
    out.note(
        "setup_s",
        setup_s,
        "s",
        "median one-shot eval of 17 references",
    );
    let max_mb = passes.iter().flatten().map(|r| r.hwm_kb).max().unwrap_or(0) as f64 / 1024.0;
    out.note(
        "peak_rss_mb",
        peak_mb,
        "MB",
        "largest row process, median over passes",
    );
    out.note(
        "row_vmhwm_max_mb",
        max_mb,
        "MB",
        "largest row process in any pass",
    );
    Ok(())
}

/// One row's `<journal>.metrics.json` figures.
#[derive(Default)]
struct RowMetrics {
    counters: Vec<(String, f64)>,
    utilization: f64,
    wall_ns: f64,
}

fn read_row_metrics(path: &Path) -> Result<RowMetrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let counters = match v.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(RowMetrics {
        counters,
        utilization: v.get("utilization").and_then(Json::as_f64).unwrap_or(0.0),
        wall_ns: v.get("wall_ns").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// The `X` events of a Chrome trace, placed on the benchmark clock from
/// the row process's start.
fn read_chrome_trace(path: &Path, start_ns: u64) -> Result<Vec<Raw>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = v
        .get("traceEvents")
        .and_then(json_array)
        .ok_or(format!("{}: no traceEvents", path.display()))?;
    let mut out = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let (Some(name), Some(ts), Some(dur), Some(tid)) = (
            e.get("name").and_then(Json::as_str),
            e.get("ts").and_then(Json::as_f64),
            e.get("dur").and_then(Json::as_f64),
            e.get("tid").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let s = start_ns + (ts * 1e3) as u64;
        out.push(Raw {
            name: name.to_string(),
            lane: tid as u32,
            start_ns: s,
            end_ns: s + (dur * 1e3) as u64,
        });
    }
    Ok(out)
}

fn traced(args: &Args, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    // Alternate untraced and traced passes: the first traced pass gives
    // the spans and counts, the pairs give the tracing overhead.
    let start = Instant::now();
    let mut trace = Trace::default();
    let mut passes = Vec::new();
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first_traced: Option<(usize, Vec<RowMetrics>)> = None;
    loop {
        let p = run_pass(ctx, false)?;
        plain.push(pass_wall_ns(&p));
        passes.push(p);
        let t = run_pass(ctx, true)?;
        traced_walls.push(pass_wall_ns(&t));
        if first_traced.is_none() {
            let root = trace.push(
                "paper_sweep",
                None,
                0,
                0,
                t[0].start_ns,
                t[t.len() - 1].end_ns,
            );
            let mut metrics = Vec::new();
            for r in &t {
                let span = trace.push("row", Some(root), r.row as u64, 0, r.start_ns, r.end_ns);
                if r.error.is_none() {
                    trace.adopt(
                        read_chrome_trace(&trace_path(ctx, r.row), r.start_ns)?,
                        span,
                    );
                    metrics.push(read_row_metrics(&with_suffix(
                        &journal_path(ctx, r.row),
                        ".metrics.json",
                    ))?);
                }
            }
            first_traced = Some((root, metrics));
        }
        passes.push(t);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (root, row_metrics) = first_traced.expect("one traced pass ran");

    let verify_root = trace.begin("paper_sweep.verify", None, 0, 0);
    let refs = references(ctx);
    for (row, r) in refs.iter().enumerate() {
        let lane = 1 + row as u32 % ctx.jobs as u32;
        let span = trace.push(
            "reference_row",
            Some(verify_root),
            row as u64,
            lane,
            r.span.0,
            r.span.1,
        );
        r.engine.record(&mut trace, span, row as u64, lane);
        trace.push(
            "core.report",
            Some(span),
            row as u64,
            lane,
            r.report_span.0,
            r.report_span.1,
        );
    }
    verify(ctx, &passes, &refs, out);
    let probe: Vec<(&'static Problem, PromptLevel, String)> = vgen_problems::problems()
        .iter()
        .flat_map(|p| PromptLevel::ALL.map(|l| (p, l, p.reference_source())))
        .collect();
    let guard_root = trace.begin("guard_probe", Some(verify_root), 0, 0);
    let (guard_us, differ) = layers::guard_probe(&probe, 3, &mut trace, guard_root);
    trace.end(guard_root);
    trace.end(verify_root);
    out.attempted += probe.len() as u64;
    if differ > 0 {
        out.fail(
            differ as u64,
            format!("{differ} guard-probe inputs: supervised and plain checks disagree"),
        );
    }

    trace.clamp();
    let table = trace.table(root);
    let m = &mut out.metrics;
    m.extend(layers::zeroed());
    let checks = table.row("check").calls as f64;
    layers::stage_metrics(m, &table, checks);
    let engines: Vec<TimedEngine> = refs.into_iter().map(|r| r.engine).collect();
    layers::bank_metrics(m, &engines);
    let problems: Vec<&'static Problem> = vgen_problems::problems().iter().collect();
    m.insert(
        "lm.bank.keep_ratio",
        layers::keep_ratio(&problems, CLI_SEED),
    );
    let row = table.row("row");
    m.insert("core.sweep.busy_ms", row.incl_ns / 1e6);
    m.insert("core.sweep.self_ms", row.self_ns / 1e6);
    let sum = |name: &str| -> f64 {
        row_metrics
            .iter()
            .flat_map(|r| &r.counters)
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .sum()
    };
    let hits = sum("dedup.hit");
    m.insert("core.dedup.hit_ratio", hits / (hits + checks).max(1.0));
    m.insert("core.guard.overhead_us", guard_us);
    let wall: f64 = row_metrics.iter().map(|r| r.wall_ns).sum();
    let busy: f64 = row_metrics.iter().map(|r| r.utilization * r.wall_ns).sum();
    m.insert("core.pool.utilization", busy / wall.max(1.0));
    m.insert("core.journal.writes", sum("journal.write"));
    let report_ms: f64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "core.report")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    m.insert("core.report.busy_ms", report_ms);
    m.insert("sim.steps", sum("sim.steps"));
    let overhead =
        100.0 * (median(&traced_walls).expect("traced") / median(&plain).expect("plain") - 1.0);
    m.insert("obs.overhead_pct", overhead);
    out.note(
        "obs.overhead_pct",
        overhead,
        "%",
        &format!("{} untraced/traced pass pairs", plain.len()),
    );
    out.trace = Some((trace, vec![root, verify_root]));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples;

    #[test]
    fn the_minimum_passes_give_the_tail_ten_rows_beyond_it() {
        assert!(MIN_PASSES * ModelId::all_evaluated().len() >= min_samples(TAIL));
    }

    #[test]
    fn journal_bytes_parse_back_to_records() {
        let bytes = b"# vgen-journal-v3 fingerprint=0 engine=x\n";
        assert_eq!(journal_records(bytes), Some(Vec::new()));
        assert_eq!(journal_records(b"# header\nnot,a,record\n"), None);
    }
}
