//! The transport layer: a unix-socket daemon and a stdio single-client
//! loop, both speaking the line-delimited JSON protocol of [`crate::proto`].
//!
//! Supervision is per-request: every eval/check/lint/sim runs on its own
//! worker thread with its own [`CancelToken`] held in a per-connection
//! registry, so a `cancel` request (or a dropped connection) can trip one
//! request without touching the others — and a wedged request degrades
//! inside the sweep executor (timeout records, detached workers) without
//! wedging the daemon's accept loop.
//!
//! The daemon also owns a process-wide `vgen-obs` recording session for
//! its lifetime, feeding the live metrics plane: `metrics` answers with
//! one epoch-stamped snapshot (JSON + Prometheus text), `subscribe`
//! streams one per interval, and a [`LiveState`] table tracks every
//! in-flight request's progress (per-shard done counts, pass/fail/fault
//! tallies) from the same progress events clients see. Recording is
//! write-only from the pipeline's view, so a served run stays
//! byte-identical to an unserved one.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vgen_core::guard::spawn_checker;
use vgen_obs::CancelToken;

use crate::json::Json;
use crate::proto::{parse_request, render_event, Event, Request, RequestEnvelope};
use crate::service::{EventSink, Service};

/// Daemon knobs.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Log accepted connections and requests to stderr.
    pub verbose: bool,
}

/// A writer shared by every worker thread of one connection. Each event
/// is one line, written and flushed under the lock so lines never
/// interleave.
struct LineWriter<W: Write + Send> {
    inner: Mutex<W>,
}

impl<W: Write + Send> LineWriter<W> {
    fn send(&self, line: &str) {
        // A client that hung up mid-request is not an error worth
        // propagating: the request keeps running (its journal is the
        // durable output), the events just go nowhere.
        let mut w = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Adapts a [`LineWriter`] into the per-request [`EventSink`] the service
/// streams through. Owns the writer handle: the service's shard threads
/// outlive any particular borrow.
struct WireSink<W: Write + Send> {
    writer: Arc<LineWriter<W>>,
    id: u64,
}

impl<W: Write + Send> EventSink for WireSink<W> {
    fn event(&self, event: &Event) {
        self.writer.send(&render_event(self.id, event));
    }
}

/// In-flight requests of one connection: id → cancel token.
type Registry = Arc<Mutex<HashMap<u64, CancelToken>>>;

/// One in-flight request as the live metrics plane sees it.
struct LiveRequest {
    conn: u64,
    id: u64,
    cmd: &'static str,
    started: Instant,
    done: usize,
    total: usize,
    pass: u64,
    fail: u64,
    fault: u64,
    /// Records landed per shard (sharded evals only).
    shards: BTreeMap<u32, u64>,
}

/// Daemon-global table of in-flight work, shared by every connection —
/// what `metrics`/`subscribe` report under `"requests"`. Fed from the
/// same progress events clients receive, so it costs the sweep nothing
/// extra.
#[derive(Clone, Default)]
struct LiveState(Arc<Mutex<Vec<LiveRequest>>>);

impl LiveState {
    fn begin(&self, conn: u64, id: u64, cmd: &'static str) {
        let mut reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        reqs.push(LiveRequest {
            conn,
            id,
            cmd,
            started: Instant::now(),
            done: 0,
            total: 0,
            pass: 0,
            fail: 0,
            fault: 0,
            shards: BTreeMap::new(),
        });
        vgen_obs::counter_add("serve.requests", 1);
        vgen_obs::gauge_max("serve.active", reqs.len() as u64);
        drop(reqs);
        // The request thread records no spans, so nothing would arm its
        // periodic self-flush — drain it now so the counters are visible
        // to snapshots immediately, not at thread exit.
        vgen_obs::flush();
    }

    fn end(&self, conn: u64, id: u64) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|r| !(r.conn == conn && r.id == id));
    }

    /// Folds one progress event into the request's live row.
    fn observe(&self, conn: u64, id: u64, event: &Event) {
        let Event::Progress {
            done,
            total,
            shard,
            outcome,
        } = event
        else {
            return;
        };
        let mut reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let Some(req) = reqs.iter_mut().find(|r| r.conn == conn && r.id == id) else {
            return;
        };
        req.done = (*done).max(req.done);
        req.total = *total;
        if let Some(s) = shard {
            *req.shards.entry(*s).or_insert(0) += 1;
        }
        match *outcome {
            Some("pass") => req.pass += 1,
            Some("fault") => req.fault += 1,
            Some(_) => req.fail += 1,
            None => {}
        }
    }

    /// Renders the table as the `"requests"` JSON array.
    fn render(&self) -> Json {
        let reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        Json::Arr(
            reqs.iter()
                .map(|r| {
                    let elapsed_s = r.started.elapsed().as_secs_f64();
                    let mut members = vec![
                        ("id".to_string(), Json::Num(r.id as f64)),
                        ("conn".to_string(), Json::Num(r.conn as f64)),
                        ("cmd".to_string(), Json::str(r.cmd)),
                        ("elapsed_s".to_string(), Json::Num(elapsed_s)),
                        ("done".to_string(), Json::Num(r.done as f64)),
                        ("total".to_string(), Json::Num(r.total as f64)),
                        ("pass".to_string(), Json::Num(r.pass as f64)),
                        ("fail".to_string(), Json::Num(r.fail as f64)),
                        ("fault".to_string(), Json::Num(r.fault as f64)),
                    ];
                    if r.done > 0 && r.total > r.done {
                        let eta = elapsed_s * (r.total - r.done) as f64 / r.done as f64;
                        members.push(("eta_s".to_string(), Json::Num(eta)));
                    }
                    if !r.shards.is_empty() {
                        members.push((
                            "shards".to_string(),
                            Json::Obj(
                                r.shards
                                    .iter()
                                    .map(|(&s, &n)| (s.to_string(), Json::Num(n as f64)))
                                    .collect(),
                            ),
                        ));
                    }
                    Json::Obj(members)
                })
                .collect(),
        )
    }
}

/// Builds the `metrics`/`subscribe` payload: the current epoch-stamped
/// snapshot as JSON (same shape as the `<journal>.metrics.json` sidecar —
/// one render path), the in-flight request table, and the Prometheus text
/// exposition — all through the RFC 8259-validated JSON machinery.
fn metrics_payload(live: &LiveState) -> Json {
    let snap = vgen_obs::snapshot();
    let mut members = match Json::parse(&vgen_obs::summary::snapshot_json(&snap)) {
        Ok(Json::Obj(m)) => m,
        _ => Vec::new(),
    };
    members.push(("requests".to_string(), live.render()));
    members.push(("prom".to_string(), Json::Str(vgen_obs::prom::render(&snap))));
    Json::Obj(members)
}

/// An [`EventSink`] that feeds each event to the [`LiveState`] table
/// before putting it on the wire.
struct TallySink<W: Write + Send> {
    inner: WireSink<W>,
    live: LiveState,
    conn: u64,
}

impl<W: Write + Send> EventSink for TallySink<W> {
    fn event(&self, event: &Event) {
        self.live.observe(self.conn, self.inner.id, event);
        self.inner.event(event);
    }
}

fn respond<W: Write + Send>(writer: &LineWriter<W>, id: u64, event: &Event) {
    writer.send(&render_event(id, event));
}

/// Runs one request to its terminal event. Blocking; callers decide
/// whether to spawn.
fn run_request<W: Write + Send + 'static>(
    envelope: RequestEnvelope,
    writer: &Arc<LineWriter<W>>,
    registry: &Registry,
    shutdown: &AtomicBool,
    live: &LiveState,
    conn: u64,
) {
    let id = envelope.id;
    match envelope.body {
        Request::Ping => {
            respond(
                writer,
                id,
                &Event::Done {
                    payload: Json::str("pong"),
                },
            );
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            respond(
                writer,
                id,
                &Event::Done {
                    payload: Json::str("shutting down"),
                },
            );
        }
        Request::Cancel { target } => {
            let token = registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&target)
                .cloned();
            match token {
                Some(t) => {
                    t.cancel();
                    respond(
                        writer,
                        id,
                        &Event::Done {
                            payload: Json::str("cancelled"),
                        },
                    );
                }
                None => respond(
                    writer,
                    id,
                    &Event::Error {
                        message: format!("no in-flight request with id {target}"),
                    },
                ),
            }
        }
        Request::Metrics => {
            respond(
                writer,
                id,
                &Event::Done {
                    payload: metrics_payload(live),
                },
            );
        }
        Request::Subscribe { interval_ms, count } => {
            respond(writer, id, &Event::Accepted { cmd: "subscribe" });
            let cancel = CancelToken::unlimited();
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, cancel.clone());
            let interval = Duration::from_millis(interval_ms);
            let mut frames: u64 = 0;
            let stopped = 'stream: loop {
                // Sleep in short chunks so per-subscriber cancel and
                // daemon shutdown cut the stream promptly.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if cancel.poll() || shutdown.load(Ordering::SeqCst) {
                        break 'stream true;
                    }
                    let chunk = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(chunk);
                    slept += chunk;
                }
                respond(
                    writer,
                    id,
                    &Event::Metrics {
                        metrics: metrics_payload(live),
                    },
                );
                frames += 1;
                if count != 0 && frames >= count {
                    break false;
                }
            };
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            if stopped {
                respond(
                    writer,
                    id,
                    &Event::CancelledAt {
                        done: frames as usize,
                        total: count as usize,
                    },
                );
            } else {
                respond(
                    writer,
                    id,
                    &Event::Done {
                        payload: Json::Obj(vec![("frames".to_string(), Json::Num(frames as f64))]),
                    },
                );
            }
        }
        Request::Eval(req) => {
            respond(writer, id, &Event::Accepted { cmd: "eval" });
            let cancel = CancelToken::unlimited();
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, cancel.clone());
            live.begin(conn, id, "eval");
            let sink: Arc<dyn EventSink> = Arc::new(TallySink {
                inner: WireSink {
                    writer: Arc::clone(writer),
                    id,
                },
                live: live.clone(),
                conn,
            });
            let result = Service.eval(&req, &cancel, &sink);
            live.end(conn, id);
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            match result {
                Ok(outcome) if outcome.cancelled => respond(
                    writer,
                    id,
                    &Event::CancelledAt {
                        done: outcome.done,
                        total: outcome.total,
                    },
                ),
                Ok(outcome) => {
                    let mut members = vec![
                        ("records".to_string(), Json::Num(outcome.done as f64)),
                        ("total".to_string(), Json::Num(outcome.total as f64)),
                        (
                            "checks_run".to_string(),
                            Json::Num(outcome.stats.checks_run as f64),
                        ),
                        (
                            "cache_hits".to_string(),
                            Json::Num(outcome.stats.cache_hits as f64),
                        ),
                        (
                            "resumed_records".to_string(),
                            Json::Num(outcome.stats.resumed_records as f64),
                        ),
                    ];
                    if let Some(report) = outcome.report {
                        members.push(("report".to_string(), Json::Str(report)));
                    }
                    respond(
                        writer,
                        id,
                        &Event::Done {
                            payload: Json::Obj(members),
                        },
                    );
                }
                Err(message) => respond(writer, id, &Event::Error { message }),
            }
        }
        Request::Check(req) => {
            respond(writer, id, &Event::Accepted { cmd: "check" });
            match Service.check(&req) {
                Ok(payload) => respond(writer, id, &Event::Done { payload }),
                Err(message) => respond(writer, id, &Event::Error { message }),
            }
        }
        Request::Lint(req) => {
            respond(writer, id, &Event::Accepted { cmd: "lint" });
            match Service.lint(&req) {
                Ok(payload) => respond(writer, id, &Event::Done { payload }),
                Err(message) => respond(writer, id, &Event::Error { message }),
            }
        }
        Request::Sim(req) => {
            respond(writer, id, &Event::Accepted { cmd: "sim" });
            let cancel = CancelToken::unlimited();
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id, cancel.clone());
            let result = Service.sim(&req, &cancel);
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            match result {
                Ok(payload) => respond(writer, id, &Event::Done { payload }),
                Err(message) => respond(writer, id, &Event::Error { message }),
            }
        }
    }
}

/// Serves one connection: reads request lines, dispatches long-running
/// requests to worker threads (keeping the reader free so `cancel` works
/// on the same connection), until EOF or shutdown.
fn serve_connection<R, W>(
    reader: R,
    writer: Arc<LineWriter<W>>,
    shutdown: Arc<AtomicBool>,
    live: LiveState,
    conn: u64,
) where
    R: io::Read,
    W: Write + Send + 'static,
{
    let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
    let mut workers = Vec::new();
    let reader = BufReader::new(reader);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Ok(envelope) => {
                let heavy = matches!(
                    envelope.body,
                    Request::Eval(_)
                        | Request::Check(_)
                        | Request::Sim(_)
                        | Request::Lint(_)
                        | Request::Subscribe { .. }
                );
                if heavy {
                    let id = envelope.id;
                    let thread_writer = Arc::clone(&writer);
                    let registry = Arc::clone(&registry);
                    let shutdown = Arc::clone(&shutdown);
                    let live = live.clone();
                    // A checker thread: its checks run inline on its own
                    // stack unless the request sets a deadline.
                    let spawned = spawn_checker(format!("vgen-req-{conn}"), move || {
                        run_request(envelope, &thread_writer, &registry, &shutdown, &live, conn);
                    });
                    match spawned {
                        Ok(h) => workers.push(h),
                        Err(e) => {
                            let message = format!("cannot spawn request thread: {e}");
                            respond(&writer, id, &Event::Error { message });
                        }
                    }
                    // Dropping a finished handle releases its thread's
                    // stack; keeping it pins the stack until EOF.
                    workers.retain(|h| !h.is_finished());
                } else {
                    run_request(envelope, &writer, &registry, &shutdown, &live, conn);
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
            Err(message) => {
                // A malformed line has no usable id; answer on id 0 so the
                // client at least sees why nothing else will arrive.
                respond(&writer, 0, &Event::Error { message });
            }
        }
    }
    // Connection closed: trip every in-flight request so abandoned sweeps
    // stop burning the pool (their journals keep the completed prefix).
    for token in registry.lock().unwrap_or_else(|e| e.into_inner()).values() {
        token.cancel();
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Runs the daemon on a unix socket at `socket`. Returns when a client
/// sends `shutdown` (or on a bind error). A stale socket file from a
/// previous (possibly killed) daemon is removed before binding — the
/// journals, not the socket, are the durable state.
///
/// # Errors
///
/// Binding or accept-loop I/O errors.
pub fn serve_unix(socket: &Path, opts: &DaemonOptions) -> io::Result<()> {
    match std::fs::remove_file(socket) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(socket)?;
    // Daemon-lifetime recording session: the live metrics plane drains it
    // via snapshots; nothing collects it until shutdown.
    vgen_obs::enable();
    let live = LiveState::default();
    let next_conn = AtomicU64::new(1);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    if opts.verbose {
        eprintln!("[serve] listening on {}", socket.display());
    }
    // The accept blocks. A connection that ends with `shutdown` set
    // connects once more to wake it, and the woken loop sees the flag.
    loop {
        let (stream, _) = listener.accept()?;
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if opts.verbose {
            eprintln!("[serve] connection accepted");
        }
        let shutdown = Arc::clone(&shutdown);
        let live = live.clone();
        let conn = next_conn.fetch_add(1, Ordering::Relaxed);
        let wake_path = socket.to_path_buf();
        conns.push(std::thread::spawn(move || {
            let write_half: UnixStream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let writer = Arc::new(LineWriter {
                inner: Mutex::new(write_half),
            });
            serve_connection(stream, writer, Arc::clone(&shutdown), live, conn);
            if shutdown.load(Ordering::SeqCst) {
                let _ = UnixStream::connect(&wake_path);
            }
        }));
        conns.retain(|h| !h.is_finished());
    }
    for c in conns {
        let _ = c.join();
    }
    let _ = vgen_obs::collect();
    let _ = std::fs::remove_file(socket);
    if opts.verbose {
        eprintln!("[serve] shut down");
    }
    Ok(())
}

/// Runs a single-client session over stdin/stdout — the zero-setup
/// transport (`vgen serve --stdio`), also what a supervisor that manages
/// its own process tree would use.
pub fn serve_stdio() {
    let writer = Arc::new(LineWriter {
        inner: Mutex::new(io::stdout()),
    });
    vgen_obs::enable();
    let shutdown = Arc::new(AtomicBool::new(false));
    serve_connection(io::stdin(), writer, shutdown, LiveState::default(), 0);
    let _ = vgen_obs::collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    /// One in-process connection over a socket pair: the client end, a
    /// reader of its event lines, and the thread serving it.
    fn connect() -> (
        UnixStream,
        BufReader<UnixStream>,
        std::thread::JoinHandle<()>,
    ) {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let events = BufReader::new(client.try_clone().expect("clone client end"));
        let serving = std::thread::spawn(move || {
            let writer = Arc::new(LineWriter {
                inner: Mutex::new(server.try_clone().expect("clone server end")),
            });
            let shutdown = Arc::new(AtomicBool::new(false));
            serve_connection(server, writer, shutdown, LiveState::default(), 1);
        });
        (client, events, serving)
    }

    /// Sends one request line and returns its terminal event.
    fn request(client: &mut UnixStream, events: &mut BufReader<UnixStream>, line: &str) -> Json {
        writeln!(client, "{line}").expect("send request");
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = events.read_line(&mut buf).expect("read event line");
            assert!(n > 0, "connection closed before a terminal event");
            let event = Json::parse(buf.trim()).expect("event line parses");
            let kind = event.get("event").and_then(Json::as_str);
            if matches!(kind, Some("done" | "error" | "cancelled")) {
                return event;
            }
        }
    }

    #[test]
    fn unknown_sim_backend_is_a_typed_error() {
        let journal = std::env::temp_dir().join(format!(
            "vgen-daemon-backend-{}.journal",
            std::process::id()
        ));
        let line = Json::Obj(vec![
            ("id".to_string(), Json::Num(1.0)),
            ("cmd".to_string(), Json::str("eval")),
            (
                "journal".to_string(),
                Json::Str(journal.display().to_string()),
            ),
            ("sim_backend".to_string(), Json::str("netlist")),
        ])
        .render();
        let (mut client, mut events, serving) = connect();
        let reply = request(&mut client, &mut events, &line);
        client
            .shutdown(Shutdown::Write)
            .expect("close request stream");
        serving.join().expect("connection thread");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(1.0));
        assert_eq!(reply.get("event").and_then(Json::as_str), Some("error"));
        let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains("unknown sim backend `netlist`"),
            "message: {message}"
        );
        assert!(message.contains("`interp`") && message.contains("`bytecode`"));
        assert!(
            !journal.exists(),
            "a rejected eval must not start a journal"
        );
    }

    /// Each finished request thread must be released while the connection
    /// lives: a retained handle pins the thread's stack and guard page, two
    /// mappings per request, until the process hits the kernel's map limit.
    /// Requests go one at a time, so at most one request thread is live.
    #[cfg(target_os = "linux")]
    #[test]
    fn finished_request_threads_are_released_while_connected() {
        const REQUESTS: usize = 2_000;
        const WARMUP: usize = 100;
        fn map_count() -> usize {
            std::fs::read_to_string("/proc/self/maps")
                .expect("read /proc/self/maps")
                .lines()
                .count()
        }
        let (mut client, mut events, serving) = connect();
        let mut baseline = 0;
        let mut peak = 0;
        for id in 1..=REQUESTS {
            if id == WARMUP {
                baseline = map_count();
            } else if id > WARMUP && id % 100 == 0 {
                peak = peak.max(map_count());
            }
            let line = format!(
                r#"{{"id":{id},"cmd":"check","problem":2,"source":"assign y = a & b;\nendmodule\n"}}"#
            );
            let reply = request(&mut client, &mut events, &line);
            assert_eq!(reply.get("event").and_then(Json::as_str), Some("done"));
        }
        client
            .shutdown(Shutdown::Write)
            .expect("close request stream");
        serving.join().expect("connection thread");
        assert!(
            peak <= baseline + 64,
            "mappings grew from {baseline} to {peak} over {} requests",
            REQUESTS - WARMUP
        );
    }
}
