//! The traced run's instruments, all outside the program: a wrapper
//! around the store that times the server's calls into it, deltas of the
//! program's public counters around each request, and a replay of each
//! request through the public layer calls, each timed on its own.

use netmark::{
    IngestReport, IngestStats, NetMark, QueryOutput, QueryStats, Result, ResultSet, XdbBackend,
};
use netmark_model::{Document, Node};
use netmark_relstore::WalStats;
use netmark_shard::ShardedStore;
use netmark_textindex::{query_terms, TextQuery};
use netmark_xdb::{Capabilities, XdbQuery};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The store under test, plain or sharded.
#[derive(Clone)]
pub enum Store {
    /// One `NetMark`.
    Plain(Arc<NetMark>),
    /// A `ShardedStore`.
    Sharded(Arc<ShardedStore>),
}

impl Store {
    /// The store behind the server's backend trait.
    pub fn backend(&self) -> Arc<dyn XdbBackend> {
        match self {
            Store::Plain(nm) => Arc::clone(nm) as Arc<dyn XdbBackend>,
            Store::Sharded(s) => Arc::clone(s) as Arc<dyn XdbBackend>,
        }
    }

    /// The member `NetMark`s (one for a plain store).
    pub fn members(&self) -> Vec<Arc<NetMark>> {
        match self {
            Store::Plain(nm) => vec![Arc::clone(nm)],
            Store::Sharded(s) => s.shards().to_vec(),
        }
    }

    /// The member holding the named document.
    fn member_of(&self, doc: &str) -> Arc<NetMark> {
        match self {
            Store::Plain(nm) => Arc::clone(nm),
            Store::Sharded(s) => Arc::clone(&s.shards()[s.owner(doc)]),
        }
    }
}

/// A server-side span recorded by [`Traced`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which backend call.
    pub name: &'static str,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
}

/// An `XdbBackend` that times `run`, `ingest_batch` and
/// `insert_document` and passes every call through unchanged.
pub struct Traced {
    inner: Arc<dyn XdbBackend>,
    spans: Mutex<Vec<Span>>,
}

impl Traced {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn XdbBackend>) -> Traced {
        Traced {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Takes the spans recorded since the last call.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(Span { name, start, end });
        out
    }
}

impl XdbBackend for Traced {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn run(&self, q: &XdbQuery) -> Result<QueryOutput> {
        self.timed("run", || self.inner.run(q))
    }
    fn insert_document(&self, doc: &Document) -> Result<IngestReport> {
        self.timed("insert_document", || self.inner.insert_document(doc))
    }
    fn ingest_batch(&self, docs: &[Document]) -> Result<Vec<IngestReport>> {
        self.timed("ingest_batch", || self.inner.ingest_batch(docs))
    }
    fn list_documents(&self) -> Result<Vec<netmark::DocInfo>> {
        self.inner.list_documents()
    }
    fn document_by_name(&self, name: &str) -> Result<Option<netmark::DocInfo>> {
        self.inner.document_by_name(name)
    }
    fn reconstruct_named(&self, name: &str) -> Result<Option<Document>> {
        self.inner.reconstruct_named(name)
    }
    fn remove_named(&self, name: &str) -> Result<bool> {
        self.inner.remove_named(name)
    }
    fn register_stylesheet(&self, name: &str, source: &str) -> Result<()> {
        self.inner.register_stylesheet(name, source)
    }
    fn query_stats(&self) -> QueryStats {
        self.inner.query_stats()
    }
    fn stats_children(&self) -> Vec<Node> {
        self.inner.stats_children()
    }
    fn ingest_metrics(&self) -> &netmark::IngestMetrics {
        self.inner.ingest_metrics()
    }
    fn wal_stats(&self) -> WalStats {
        self.inner.wal_stats()
    }
    fn sync_wal(&self) -> Result<()> {
        self.inner.sync_wal()
    }
    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
}

/// The program's public counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Read-path counters (summed over shards).
    pub query: QueryStats,
    /// Ingest counters of the backend.
    pub ingest: IngestStats,
    /// WAL counters (summed over shards).
    pub wal: WalStats,
    /// MVCC publications, summed over members.
    pub publishes: u64,
    /// Copy-on-write overlay bytes, largest member.
    pub overlay_bytes: u64,
    /// Read views evicted, summed over members.
    pub views_evicted: u64,
    /// Buffer-pool evictions, summed over members.
    pub pool_evictions: u64,
    /// Queries the shard coordinator routed, summed over shards.
    pub shard_calls: u64,
}

impl Counters {
    /// Reads every counter of `store`.
    pub fn read(store: &Store) -> Counters {
        let backend = store.backend();
        let mut c = Counters {
            query: backend.query_stats(),
            ingest: backend.ingest_metrics().snapshot(),
            wal: backend.wal_stats(),
            ..Counters::default()
        };
        for nm in store.members() {
            let db = nm.store().database();
            let m = db.mvcc_stats();
            c.publishes += m.publishes;
            c.overlay_bytes = c.overlay_bytes.max(m.overlay_bytes);
            c.views_evicted += m.views_evicted;
            c.pool_evictions += db.pool_stats().evictions;
        }
        if let Store::Sharded(s) = store {
            c.shard_calls = s.shard_stats().iter().map(|st| st.queries).sum();
        }
        c
    }
}

/// One query replayed through the public layer calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `XdbQuery::from_url`.
    pub parse: Duration,
    /// Index snapshot plus term postings / BM25 scoring, summed over
    /// members.
    pub lookup: Duration,
    /// `contexts_labeled`, `node_by_id` and `governing_context` over the
    /// lookup's node ids, summed over members.
    pub walk: Duration,
    /// Node ids resolved by the walk.
    pub nodes_resolved: u64,
    /// `section_content` over the answer's contexts.
    pub collect: Duration,
    /// `ResultSet::to_xml` of the answer.
    pub render: Duration,
    /// Bytes of the rendered answer.
    pub bytes: usize,
    /// The shard calls on a sharded query's critical path: each wave's
    /// slowest shard, summed over the waves (see [`replay_shards`]).
    pub shards: Duration,
}

/// Replays query string `qs` against `store` layer by layer. A request
/// the engine answered from its result cache (`hit`) did no lookup, walk
/// or collect, so only parse and render are replayed for it.
pub fn replay_query(store: &Store, qs: &str, hit: bool) -> Replay {
    let mut r = Replay::default();
    let t = Instant::now();
    let Ok(q) = XdbQuery::from_url(qs) else {
        return r;
    };
    r.parse = t.elapsed();
    let members = store.members();
    for nm in members.iter().filter(|_| !hit) {
        let t = Instant::now();
        let snap = nm.text_index().snapshot();
        let ids: Vec<u64> = match &q.content {
            Some(c) if q.ranked() => snap.search_bm25(c).into_iter().map(|(id, _)| id).collect(),
            Some(c) => query_terms(c)
                .into_iter()
                .flat_map(|term| snap.execute(&TextQuery::Term(term)))
                .collect(),
            None => Vec::new(),
        };
        r.lookup += t.elapsed();
        let t = Instant::now();
        if let Ok(view) = nm.store().begin_read() {
            if let Some(label) = &q.context {
                let _ = std::hint::black_box(view.contexts_labeled(label));
            }
            for id in ids {
                if let Ok(Some((rid, _))) = view.node_by_id(id) {
                    r.nodes_resolved += 1;
                    let _ = std::hint::black_box(view.governing_context(rid));
                }
            }
        }
        r.walk += t.elapsed();
    }
    // The answer itself comes from the result cache the server just
    // filled; its hits name the contexts whose content was collected.
    let Ok(QueryOutput::Results(rs)) = store.backend().run(&q) else {
        return r;
    };
    for h in rs.hits.iter().filter(|_| !hit) {
        let nm = store.member_of(&h.doc);
        if let Ok(view) = nm.store().begin_read() {
            if let Ok(Some((rid, _))) = view.node_by_id(h.context_node) {
                let t = Instant::now();
                let _ = std::hint::black_box(view.section_content(rid));
                r.collect += t.elapsed();
            }
        }
    }
    let t = Instant::now();
    r.bytes = std::hint::black_box(rs.to_xml()).len();
    r.render = t.elapsed();
    if let (Store::Sharded(s), false) = (store, hit) {
        r.shards = replay_shards(s, &q);
    }
    r
}

/// Replays the shard calls of a sharded query with the queries the
/// coordinator sends them: the `Context=` fallback decision pinned, and a
/// ranked `limit=k` query in two waves — wave 2 under the score floor
/// that wave 1's kth score sets, and re-asked with the user's own floor
/// when the coordinator's truncation repair would be. Each call bypasses
/// the shard's result cache, which the server's own call has just filled
/// with the same query; the context memo is as the server left it. A wave
/// costs its slowest shard; the waves run one after the other.
fn replay_shards(s: &ShardedStore, q: &XdbQuery) -> Duration {
    let shards = s.shards();
    let mut q = q.clone();
    if let Some(spec) = q.context.clone() {
        for label in spec.split('|').map(str::trim).filter(|l| !l.is_empty()) {
            let exact = shards
                .iter()
                .any(|nm| nm.has_exact_context(label).unwrap_or(false));
            if exact && !q.exact_contexts.iter().any(|e| e == label) {
                q.exact_contexts.push(label.to_string());
            }
        }
    }
    let wave = |members: &[Arc<NetMark>], q: &XdbQuery| {
        let mut slowest = Duration::ZERO;
        let mut sets: Vec<ResultSet> = Vec::new();
        for nm in members {
            let t = Instant::now();
            let out = nm.engine().execute_uncached(q);
            slowest = slowest.max(t.elapsed());
            sets.extend(out);
        }
        (slowest, sets)
    };
    let k = match q.limit {
        Some(k) if q.ranked() && k > 0 && shards.len() > 1 => k,
        _ => return wave(shards, &q).0,
    };
    let (wave1, wave2) = shards.split_at(shards.len().div_ceil(2));
    let (t1, sets1) = wave(wave1, &q);
    let mut scores: Vec<f64> = sets1
        .iter()
        .flat_map(|rs| rs.hits.iter().filter_map(|h| h.score))
        .collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    let mut q2 = q.clone();
    let mut raised = false;
    if let Some(theta) = scores.get(k - 1) {
        let floor = theta.next_down();
        if q.min_score.is_none_or(|u| floor > u) {
            q2.min_score = Some(floor);
            raised = true;
        }
    }
    let (t2, sets2) = wave(wave2, &q2);
    let total: usize = sets1.iter().chain(&sets2).map(|rs| rs.hits.len()).sum();
    let repair = raised && total <= k && !sets1.iter().chain(&sets2).any(|rs| rs.truncated);
    let t3 = if repair {
        wave(wave2, &q).0
    } else {
        Duration::ZERO
    };
    t1 + t2 + t3
}
