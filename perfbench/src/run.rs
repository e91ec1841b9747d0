//! One benchmark run: set up the store, serve it over HTTP, drive the
//! workload for the measured phase, then check every answer and report.

use crate::client::{Conn, Reply};
use crate::measure::{dir_bytes, median, ms, peak_rss_mb, percentile, process_cpu};
use crate::reference::{check_prefix, check_scores, Answer, Reference, SectionKey};
use crate::trace::{replay_query, Counters, Store, Traced};
use crate::workload::{
    base_corpus, hot_pool, live_corpus, DistinctQueries, HotDraw, LiveSearches, Workload, SHARDS,
};
use netmark::{ingest_files, NetMark, PipelineConfig, PipelineStats, RawFile, XdbBackend};
use netmark_corpus::RawDoc;
use netmark_docformats::upmark;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times the store is set up from scratch in one run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;
/// Ranked queries per run whose answer is compared, untimed, with the
/// prefix of the same query sent without a limit (`query-hot`: the most
/// popular ranked strings of its pool).
pub const PREFIX_CHECKS: usize = 8;
/// Client think time: each connection waits this long after reading a
/// reply before it sends its next request. Without it, whether the next
/// request reaches the server before the front end's one readiness peek
/// after a reply is a microsecond race, and its outcome moved query-hot's
/// throughput between 530 and 1250 queries/s over five seeds; with it,
/// every request meets the front end the way a client with any think
/// time does (see README.md, "The front end's parking wait").
pub const THINK: Duration = Duration::from_millis(1);
/// Uploaded documents per `ingest-live` run fetched back with
/// `GET /docs/<name>` and compared with the upmark of the bytes sent.
pub const GET_CHECKS: usize = 16;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with this name, value and unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// No answer failed its check and the end-of-run checks held.
    pub correct: bool,
    /// Operations sent in the measured phase.
    pub attempted: u64,
    /// Operations that failed (non-2xx, transport error, wrong answer).
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let m: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            m.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A request the client sends.
#[derive(Debug, Clone)]
enum Req {
    /// `GET /xdb?<query string>`.
    Query(String),
    /// `PUT /docs/<name>` of the live corpus document at this position.
    Put(usize),
}

/// What became of one request.
struct Sample {
    req: Req,
    /// Send and reply times, since the start of the measured phase.
    sent: Duration,
    recv: Duration,
    /// The digested answer (queries checked after the phase), `None` for
    /// replies checked on the spot, or why the request failed.
    outcome: std::result::Result<Option<Answer>, String>,
}

impl Sample {
    fn latency(&self) -> Duration {
        self.recv.saturating_sub(self.sent)
    }
}

/// Runs one benchmark run in a private directory under `.bench_work`.
pub fn run(o: &Opts) -> std::result::Result<Report, String> {
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", o.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let out = run_in(o, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the parent.
    let _ = std::fs::remove_dir(".bench_work");
    out
}

fn open_store(dir: &Path, sharded: bool) -> std::result::Result<Store, String> {
    if sharded {
        let opts = ShardOptions {
            shards: SHARDS,
            ..ShardOptions::default()
        };
        ShardedStore::open_with(dir, opts)
            .map(|s| Store::Sharded(Arc::new(s)))
            .map_err(|e| format!("open sharded store: {e}"))
    } else {
        NetMark::open(dir)
            .map(|nm| Store::Plain(Arc::new(nm)))
            .map_err(|e| format!("open store: {e}"))
    }
}

struct Setup {
    store: Store,
    dir: PathBuf,
    setup_s: f64,
    pipeline: PipelineStats,
}

/// Opens a fresh store, bulk-loads `raw` through the drop-folder
/// pipeline and flushes — `SETUP_REPS` times; keeps the last store.
fn setup(o: &Opts, work: &Path, raw: &[RawDoc]) -> std::result::Result<Setup, String> {
    let sharded = o.workload == Workload::RankedSharded;
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("store-{rep}"));
        let files: Vec<RawFile> = raw
            .iter()
            .map(|d| RawFile::new(&d.name, &d.content))
            .collect();
        let t = Instant::now();
        let store = open_store(&dir, sharded)?;
        let backend = store.backend();
        let pipeline = ingest_files(&*backend, files, &PipelineConfig::default())
            .map_err(|e| format!("bulk load: {e}"))?;
        backend.flush().map_err(|e| format!("flush: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if pipeline.ingest.documents != raw.len() as u64 || pipeline.ingest.errors != 0 {
            return Err(format!(
                "bulk load stored {} of {} documents ({} errors)",
                pipeline.ingest.documents,
                raw.len(),
                pipeline.ingest.errors
            ));
        }
        if rep + 1 < SETUP_REPS {
            drop(backend);
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((store, dir, pipeline));
        }
    }
    let (store, dir, pipeline) = kept.expect("SETUP_REPS > 0");
    Ok(Setup {
        store,
        dir,
        setup_s: median(&times),
        pipeline,
    })
}

fn body_hash(body: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Per-request trace state of a traced run.
struct Tracer {
    store: Store,
    traced: Arc<Traced>,
    live: Arc<Vec<RawDoc>>,
    t0: Instant,
    acc: crate::layers::Layers,
}

fn run_in(o: &Opts, work: &Path) -> std::result::Result<Report, String> {
    let raw = base_corpus(o.seed);
    let live = Arc::new(if o.workload == Workload::IngestLive {
        live_corpus(o.seed)
    } else {
        Vec::new()
    });
    let Setup {
        store,
        dir,
        setup_s,
        pipeline,
    } = setup(o, work, &raw)?;
    let backend = store.backend();
    let traced = Arc::new(Traced::new(Arc::clone(&backend)));
    let served: Arc<dyn XdbBackend> = if o.trace {
        Arc::clone(&traced) as Arc<dyn XdbBackend>
    } else {
        Arc::clone(&backend)
    };
    let server = netmark_webdav::serve(served, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();

    // query-hot: one untimed pass over the pool fills the result cache and
    // gives each string the reply every later one must repeat byte for
    // byte.
    let pool = hot_pool(o.seed);
    type Outcome = std::result::Result<Option<Answer>, String>;
    let mut first: HashMap<String, (u64, Outcome)> = HashMap::new();
    if o.workload == Workload::QueryHot {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for qs in &pool {
            let reply = conn
                .send("GET", &format!("/xdb?{qs}"), b"")
                .map_err(|e| format!("warm-up {qs}: {e}"))?;
            let outcome = match reply.status {
                200 => Answer::parse(&reply.body).map(Some),
                s => Err(format!("status {s}")),
            };
            first.insert(qs.clone(), (body_hash(&reply.body), outcome));
        }
    }
    let first_hash: HashMap<String, u64> =
        first.iter().map(|(k, (h, _))| (k.clone(), *h)).collect();

    let counters_before = Counters::read(&store);
    let index_before = index_stats(&store);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(o.seconds);
    let tracer = o.trace.then(|| {
        Mutex::new(Tracer {
            store: store.clone(),
            traced: Arc::clone(&traced),
            live: Arc::clone(&live),
            t0,
            acc: crate::layers::Layers::default(),
        })
    });
    let cpu0 = process_cpu();
    let samples = drive(
        o,
        addr,
        &pool,
        &first_hash,
        &live,
        t0,
        deadline,
        tracer.as_ref(),
    )?;
    let elapsed = t0.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let rss = peak_rss_mb();
    let counters_after = Counters::read(&store);
    let index_after = index_stats(&store);
    let checks_started = Instant::now();

    // Untimed from here on: final flush, then the checks.
    backend.flush().map_err(|e| format!("final flush: {e}"))?;
    let store_bytes = dir_bytes(&dir);
    let acked: Vec<usize> = samples
        .iter()
        .filter_map(|s| match (&s.req, &s.outcome) {
            (Req::Put(i), Ok(_)) => Some(*i),
            _ => None,
        })
        .collect();
    let input_bytes: u64 = raw.iter().map(|d| d.content.len() as u64).sum::<u64>()
        + acked
            .iter()
            .map(|&i| live[i].content.len() as u64)
            .sum::<u64>();

    let t = Instant::now();
    let mut docs: HashMap<String, netmark_model::Document> = raw
        .iter()
        .map(|d| (d.name.clone(), upmark(&d.name, &d.content)))
        .collect();
    let upmark_base = t.elapsed();
    let order = backend
        .list_documents()
        .map_err(|e| format!("list documents: {e}"))?;
    let mut check = Checks::default();
    let base_order: Vec<netmark_model::Document> = order
        .iter()
        .filter_map(|info| docs.remove(&info.file_name))
        .collect();
    if base_order.len() != raw.len() {
        check.broken(format!(
            "store lists {} of {} base documents first",
            base_order.len(),
            raw.len()
        ));
    }
    let mut reference = Reference::new(base_order);
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match o.workload {
        Workload::QueryHot => {
            // Timed replies equal their string's warm-up reply byte for
            // byte, so a wrong warm-up answer fails every repeat of it.
            // The most popular ranked top-k strings' warm-up replies also
            // meet the prefix check (an unlimited single-keyword search
            // costs about half a second, so not all 41 of them).
            let mut prefix_left = PREFIX_CHECKS;
            for qs in &pool {
                let Some((_, outcome)) = first.get(qs) else {
                    continue;
                };
                let verdict = match outcome {
                    Ok(Some(a)) => {
                        reference
                            .verdict(qs, a)
                            .and_then(|()| match XdbQuery::from_url(qs) {
                                Ok(q) if a.ranked && q.limit.is_some() && prefix_left > 0 => {
                                    prefix_left -= 1;
                                    prefix_verdict(&mut conn, &q, a)
                                }
                                Ok(_) => Ok(()),
                                Err(e) => Err(e.to_string()),
                            })
                    }
                    Ok(None) => Ok(()),
                    Err(e) => Err(format!("warm-up: {e}")),
                };
                if let Err(e) = verdict {
                    for (at, t) in samples.iter().enumerate() {
                        if matches!(&t.req, Req::Query(q) if q == qs) {
                            check.failed_ops.insert(at);
                        }
                    }
                    check.broken(format!("{qs}: {e}"));
                }
            }
        }
        Workload::IngestLive => {
            check_ingest(
                &mut check,
                &mut reference,
                &mut conn,
                &live,
                &acked,
                &samples,
                &order,
            );
        }
        _ => {
            // The reference scans are the slow part of a run's checks;
            // two threads halve them.
            let reference = &reference;
            let verdicts: Vec<(usize, String, String)> = std::thread::scope(|scope| {
                let halves: Vec<_> = (0..2)
                    .map(|part| {
                        let samples = &samples;
                        scope.spawn(move || {
                            let mut bad = Vec::new();
                            for (at, s) in samples.iter().enumerate().skip(part).step_by(2) {
                                if let (Req::Query(qs), Ok(Some(a))) = (&s.req, &s.outcome) {
                                    if let Err(e) = reference.verdict(qs, a) {
                                        bad.push((at, qs.clone(), e));
                                    }
                                }
                            }
                            bad
                        })
                    })
                    .collect();
                halves
                    .into_iter()
                    .flat_map(|h| h.join().expect("check thread panicked"))
                    .collect()
            });
            for (at, qs, e) in verdicts {
                check.fail(at, &qs, e);
            }
            check_prefixes(&mut check, &mut conn, &samples);
        }
    }
    drop(conn);
    server.stop();

    let attempted = samples.len() as u64;
    let failed = samples
        .iter()
        .enumerate()
        .filter(|(i, s)| s.outcome.is_err() || check.failed_ops.contains(i))
        .count() as u64;
    for e in samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().err())
        .take(5)
    {
        eprintln!("operation failed: {e}");
    }
    for e in check.errors.iter().take(5) {
        eprintln!("check failed: {e}");
    }
    eprintln!(
        "{}: setup {setup_s:.2}s (median of {SETUP_REPS}), measured {:.1}s, checks {:.1}s, {} ops",
        o.workload.name(),
        elapsed.as_secs_f64(),
        checks_started.elapsed().as_secs_f64(),
        samples.len()
    );

    let queries: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.req, Req::Query(_)))
        .map(|s| ms(s.latency()))
        .collect();
    let metrics = if o.trace {
        let tracer = tracer
            .expect("traced run has a tracer")
            .into_inner()
            .expect("tracer poisoned");
        let upmark_per_doc = if live.is_empty() {
            Some(ms(upmark_base) / raw.len() as f64)
        } else {
            None
        };
        tracer.acc.metrics(&crate::layers::RunFacts {
            pipeline,
            counters_before,
            counters_after,
            index_before,
            index_after,
            upmark_per_doc,
            trace_path: trace_path(o),
        })?
    } else {
        let completed = attempted.saturating_sub(failed).max(1) as f64;
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "query_qps",
                queries.len() as f64 / elapsed.as_secs_f64(),
                "queries/s",
            ),
            Metric::new("query_p50_ms", percentile(&queries, 0.50), "ms"),
            Metric::new("cpu_ms_per_op", ms(cpu) / completed, "ms"),
            Metric::new(
                "store_bytes_per_input_byte",
                store_bytes as f64 / input_bytes.max(1) as f64,
                "ratio",
            ),
            Metric::new("peak_rss_mb", rss, "MB"),
        ]
    };
    Ok(Report {
        correct: check.errors.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn trace_path(o: &Opts) -> PathBuf {
    PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", o.workload.name(), o.seed))
}

fn index_stats(store: &Store) -> netmark::IndexStats {
    let mut s = netmark::IndexStats::default();
    for nm in store.members() {
        s.merge(&nm.text_index().stats());
    }
    s
}

/// The measured phase: closed-loop connections until the deadline.
#[allow(clippy::too_many_arguments)]
fn drive(
    o: &Opts,
    addr: std::net::SocketAddr,
    pool: &[String],
    first: &HashMap<String, u64>,
    live: &Arc<Vec<RawDoc>>,
    t0: Instant,
    deadline: Instant,
    tracer: Option<&Mutex<Tracer>>,
) -> std::result::Result<Vec<Sample>, String> {
    type Source<'a> = Box<dyn FnMut() -> Option<Req> + Send + 'a>;
    let cold = Mutex::new(DistinctQueries::cold(o.seed));
    let sharded = Mutex::new(DistinctQueries::sharded(o.seed));
    let conns = if o.trace { 1 } else { 2 };
    let mut sources: Vec<Source> = Vec::new();
    for c in 0..conns {
        sources.push(match o.workload {
            Workload::QueryCold => {
                Box::new(|| Some(Req::Query(cold.lock().expect("poisoned").next_query())))
            }
            Workload::RankedSharded => {
                Box::new(|| Some(Req::Query(sharded.lock().expect("poisoned").next_query())))
            }
            Workload::QueryHot => {
                let mut draw = HotDraw::new(o.seed, c as u64);
                Box::new(move || Some(Req::Query(pool[draw.next_rank()].clone())))
            }
            Workload::IngestLive => {
                // Untraced: connection 0 uploads, connection 1 searches.
                // Traced: one connection alternates the two.
                let mut searches = LiveSearches::new(o.seed);
                let mut next_put = 0usize;
                let mut turn = 0usize;
                let n = live.len();
                Box::new(move || {
                    turn += 1;
                    let put = if conns == 1 { turn % 2 == 1 } else { c == 0 };
                    if put {
                        next_put += 1;
                        (next_put <= n).then(|| Req::Put(next_put - 1))
                    } else {
                        Some(Req::Query(searches.next_query()))
                    }
                })
            }
        });
    }
    let results: Vec<std::result::Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let Some(req) = next() else { break };
                        let before =
                            tracer.map(|t| Counters::read(&t.lock().expect("poisoned").store));
                        let (method, target, body) = match &req {
                            Req::Query(qs) => ("GET", format!("/xdb?{qs}"), &b""[..]),
                            Req::Put(i) => (
                                "PUT",
                                format!("/docs/{}", live[*i].name),
                                live[*i].content.as_bytes(),
                            ),
                        };
                        let sent = Instant::now();
                        let reply = conn.send(method, &target, body);
                        let recv = Instant::now();
                        let outcome = match reply {
                            Ok(r) => judge(&req, &r, first),
                            Err(e) => {
                                // A broken connection is replaced, so one
                                // failure costs one operation.
                                if let Ok(c) = Conn::connect(addr) {
                                    conn = c;
                                }
                                Err(format!("transport: {e}"))
                            }
                        };
                        if let (Some(t), Some(before)) = (tracer, before) {
                            t.lock()
                                .expect("poisoned")
                                .record(&req, sent, recv, &before);
                        }
                        out.push(Sample {
                            req,
                            sent: sent - t0,
                            recv: recv - t0,
                            outcome,
                        });
                        std::thread::sleep(THINK);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|s| s.sent);
    Ok(all)
}

/// Judges a reply on the spot: status, and for `query-hot` byte identity
/// with the warm-up reply. Other answers are digested for later checks.
fn judge(
    req: &Req,
    r: &Reply,
    first: &HashMap<String, u64>,
) -> std::result::Result<Option<Answer>, String> {
    match req {
        Req::Put(_) if r.status == 201 => Ok(None),
        Req::Put(_) => Err(format!("PUT status {}", r.status)),
        Req::Query(_) if r.status != 200 => Err(format!("status {}", r.status)),
        Req::Query(qs) => match first.get(qs) {
            Some(&h) if h == body_hash(&r.body) => Ok(None),
            Some(_) => Err("reply differs from the first reply to the same query".to_string()),
            None => Answer::parse(&r.body).map(Some),
        },
    }
}

/// Check failures found after the measured phase.
#[derive(Default)]
struct Checks {
    /// Wrong answers and broken end-of-run invariants.
    errors: Vec<String>,
    /// Positions (in the sample list) of operations whose answer failed.
    failed_ops: std::collections::HashSet<usize>,
}

impl Checks {
    fn broken(&mut self, e: String) {
        self.errors.push(e);
    }

    fn fail(&mut self, at: usize, qs: &str, e: String) {
        self.failed_ops.insert(at);
        self.errors.push(format!("{qs}: {e}"));
    }
}

/// Untimed: the first ranked top-k answers must equal the prefix of the
/// same query sent without a limit.
fn check_prefixes(check: &mut Checks, conn: &mut Conn, samples: &[Sample]) {
    let ranked = samples
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match (&s.req, &s.outcome) {
            (Req::Query(qs), Ok(Some(a))) if a.ranked => XdbQuery::from_url(qs)
                .ok()
                .filter(|q| q.limit.is_some())
                .map(|q| (i, q, a)),
            _ => None,
        });
    for (i, q, answer) in ranked.take(PREFIX_CHECKS) {
        if let Err(e) = prefix_verdict(conn, &q, answer) {
            check.fail(i, &q.to_query_string(), e);
        }
    }
}

/// Sends `q` without its limit and checks that `answer`, the reply to `q`
/// itself, is the first `limit` hits of that unlimited answer.
fn prefix_verdict(
    conn: &mut Conn,
    q: &XdbQuery,
    answer: &Answer,
) -> std::result::Result<(), String> {
    let k = q.limit.ok_or("no limit to check a prefix of")?;
    let full = XdbQuery {
        limit: None,
        ..q.clone()
    };
    let reply = conn
        .send("GET", &format!("/xdb?{}", full.to_query_string()), b"")
        .map_err(|e| format!("transport: {e}"))?;
    let full_answer = match reply.status {
        200 => Answer::parse(&reply.body)?,
        s => return Err(format!("status {s}")),
    };
    check_prefix(&full_answer, k, answer)
}

/// `ingest-live`'s checks: every acknowledged upload is listed and
/// fetches back as the upmark of the bytes sent; every search hit is a
/// matching section of a document whose upload was sent before the reply
/// arrived; and each search found at least `min(k, matches)` among the
/// documents acknowledged before it was sent.
fn check_ingest(
    check: &mut Checks,
    reference: &mut Reference,
    conn: &mut Conn,
    live: &[RawDoc],
    acked: &[usize],
    samples: &[Sample],
    order: &[netmark::DocInfo],
) {
    let base = reference.len();
    let listed: std::collections::HashSet<&str> =
        order.iter().map(|d| d.file_name.as_str()).collect();
    match conn.send("PROPFIND", "/docs", b"") {
        Ok(r) if r.status == 207 => {
            let body = String::from_utf8_lossy(&r.body);
            for &i in acked {
                let href = format!("<href>/docs/{}</href>", live[i].name);
                if !body.contains(&href) || !listed.contains(live[i].name.as_str()) {
                    check.broken(format!(
                        "acknowledged upload {} is not listed",
                        live[i].name
                    ));
                }
            }
        }
        Ok(r) => check.broken(format!("PROPFIND status {}", r.status)),
        Err(e) => check.broken(format!("PROPFIND: {e}")),
    }
    let step = (acked.len() / GET_CHECKS).max(1);
    for &i in acked.iter().step_by(step).take(GET_CHECKS) {
        let d = &live[i];
        let want = upmark(&d.name, &d.content).root.to_pretty_xml();
        match conn.send("GET", &format!("/docs/{}", d.name), b"") {
            Ok(r) if r.status == 200 && r.body == want.as_bytes() => {}
            Ok(r) => check.broken(format!(
                "GET /docs/{}: status {}, body differs from the upmark of the upload",
                d.name, r.status
            )),
            Err(e) => check.broken(format!("GET /docs/{}: {e}", d.name)),
        }
    }
    // Uploads come from one connection, one at a time, so the store
    // orders them after the base corpus in acknowledgement order.
    for &i in acked {
        reference.push(upmark(&live[i].name, &live[i].content));
    }
    let puts: Vec<(Duration, Duration)> = samples
        .iter()
        .filter(|s| matches!(s.req, Req::Put(_)) && s.outcome.is_ok())
        .map(|s| (s.sent, s.recv))
        .collect();
    for (at, s) in samples.iter().enumerate() {
        let (Req::Query(qs), Ok(Some(answer))) = (&s.req, &s.outcome) else {
            continue;
        };
        let sent_before_reply = base + puts.iter().filter(|p| p.0 < s.recv).count();
        let acked_before_send = base + puts.iter().filter(|p| p.1 < s.sent).count();
        let verdict = XdbQuery::from_url(qs)
            .map_err(|e| e.to_string())
            .and_then(|q| {
                check_scores(answer)?;
                let may_see = |i: usize| i < sent_before_reply;
                let mut seen: HashMap<&SectionKey, usize> = HashMap::new();
                for key in &answer.keys {
                    let n = seen.entry(key).or_default();
                    *n += 1;
                    if *n > reference.multiplicity(&q, key, &may_see) {
                        return Err(format!(
                            "hit {:?}/{:?} is not a matching section of a visible document",
                            key.doc, key.context
                        ));
                    }
                }
                let k = q.limit.unwrap_or(usize::MAX);
                let must_see = |i: usize| i < acked_before_send;
                let floor = reference.matches(&q, &must_see, Some(k)).len();
                if answer.keys.len() < floor || answer.keys.len() > k {
                    return Err(format!(
                        "{} hits, expected between {floor} and {k}",
                        answer.keys.len()
                    ));
                }
                Ok(())
            });
        if let Err(e) = verdict {
            check.fail(at, qs, e);
        }
    }
}

impl Tracer {
    /// Records one traced request: its spans, counter deltas and replay.
    fn record(&mut self, req: &Req, sent: Instant, recv: Instant, before: &Counters) {
        let after = Counters::read(&self.store);
        // Only the server calls made while this request was in flight.
        let spans: Vec<_> = self
            .traced
            .drain()
            .into_iter()
            .filter(|s| s.start >= sent && s.end <= recv)
            .collect();
        let rel = |t: Instant| t.saturating_duration_since(self.t0);
        match req {
            Req::Query(qs) => {
                let replay = replay_query(&self.store, qs, crate::layers::is_hit(before, &after));
                self.acc.query(
                    qs,
                    rel(sent),
                    rel(recv),
                    &spans,
                    self.t0,
                    before,
                    &after,
                    &replay,
                    matches!(self.store, Store::Sharded(_)),
                );
            }
            Req::Put(i) => {
                let d = &self.live[*i];
                let t = Instant::now();
                let doc = upmark(&d.name, &d.content);
                let upmark_t = t.elapsed();
                self.acc.put(
                    &d.name,
                    rel(sent),
                    rel(recv),
                    &spans,
                    self.t0,
                    before,
                    &after,
                    upmark_t,
                    doc.root.size(),
                );
            }
        }
    }
}
