//! The traced run's per-layer accounting. Each request's round trip is
//! split into layer self-times plus an explicit `unaccounted` remainder,
//! so the parts always add up to the whole; the per-request records are
//! kept in memory and written out as JSON lines when the run ends.
//!
//! A query's round trip is the client's send-to-last-byte time. Inside it,
//! the server wrapper's `run` span is the engine's (or, sharded, the
//! coordinator's and its shards') time; the rest is the front end.
//! Replayed layer calls, timed outside the server, split those two
//! further: parse and render come out of the front end; sharded, the
//! replayed shard calls of the critical path come out of the run span and
//! the coordinator keeps the rest; and on a cache miss index lookup,
//! context walk and collect come out of the engine (on a hit the engine
//! does none of them). A PUT splits the same way around the wrapper's
//! ingest span.

use crate::measure::{median, ms, percentile};
use crate::run::Metric;
use crate::trace::{Counters, Replay, Span};
use netmark::{IndexStats, PipelineStats};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Run-level facts the per-request records do not carry.
pub struct RunFacts {
    /// The kept setup's bulk-load pipeline stats.
    pub pipeline: PipelineStats,
    /// Counters at the start of the measured phase.
    pub counters_before: Counters,
    /// Counters at its end.
    pub counters_after: Counters,
    /// Index stats (summed over members) at the start.
    pub index_before: IndexStats,
    /// Index stats at the end.
    pub index_after: IndexStats,
    /// Upmark time per base-corpus document, for workloads that upload
    /// nothing during the run.
    pub upmark_per_doc: Option<f64>,
    /// Where the per-request records go.
    pub trace_path: PathBuf,
}

/// Accumulated per-layer measurements of a traced run.
#[derive(Default)]
pub struct Layers {
    records: Vec<String>,
    queries: u64,
    round_trip_ms: Vec<f64>,
    frontend_ms: Vec<f64>,
    parse_ms: f64,
    render_ms: f64,
    bytes: u64,
    run_miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    candidates: u64,
    postings_decoded: u64,
    blocks_skipped: u64,
    lookup_ms: f64,
    walk_ms: f64,
    nodes_resolved: u64,
    collect_ms: f64,
    shard_query_ms: f64,
    slowest_ms: f64,
    coordinator_ms: f64,
    shard_calls: u64,
    put_ms: Vec<f64>,
    put_queue_ms: f64,
    store_ingest_ms: f64,
    index_ms: f64,
    wal_syncs: u64,
    wal_commits: u64,
    publishes: u64,
    upmark_ms: f64,
    upmark_nodes: u64,
    overlay_peak: u64,
    unaccounted_ms: f64,
}

/// Whether the engine answered the request between two counter reads
/// from its result cache alone.
pub fn is_hit(before: &Counters, after: &Counters) -> bool {
    let d = after.query.since(&before.query);
    d.cache_hits > 0 && d.cache_misses == 0
}

fn span_ms(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| ms(s.end - s.start))
        .sum()
}

/// Builds one JSON record: the request, its spans, its self-times.
#[allow(clippy::too_many_arguments)]
fn record(
    kind: &str,
    what: &str,
    sent: Duration,
    recv: Duration,
    spans: &[Span],
    t0: Instant,
    layers: &[(&str, f64)],
    unaccounted: f64,
) -> String {
    let us = |t: Instant| t.saturating_duration_since(t0).as_micros();
    let spans: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"server.{}\", \"parent\": \"client.round_trip\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                us(s.start),
                us(s.end)
            )
        })
        .collect();
    let layers: Vec<String> = layers
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v:.6}"))
        .collect();
    format!(
        "{{\"kind\": \"{kind}\", \"request\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"round_trip_ms\": {:.6}, \"spans\": [{}], \"self_ms\": {{{}}}, \"unaccounted_ms\": {unaccounted:.6}}}",
        what.replace('"', "'"),
        sent.as_micros(),
        recv.as_micros(),
        ms(recv.saturating_sub(sent)),
        spans.join(", "),
        layers.join(", ")
    )
}

impl Layers {
    /// Accounts one query.
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        &mut self,
        qs: &str,
        sent: Duration,
        recv: Duration,
        spans: &[Span],
        t0: Instant,
        before: &Counters,
        after: &Counters,
        replay: &Replay,
        sharded: bool,
    ) {
        let rt = ms(recv.saturating_sub(sent));
        let run = span_ms(spans, &["run"]);
        let d = after.query.since(&before.query);
        let hit = is_hit(before, after);
        let (parse, render) = (ms(replay.parse), ms(replay.render));
        let front = (rt - run - parse - render).max(0.0);
        let mut layers = vec![
            ("netserve.frontend", front),
            ("xdb.parse", parse),
            ("xdb.render", render),
        ];
        // The part of the run span the engine spends inside the store: all
        // of it, or sharded, the shard calls on the critical path, the
        // coordinator taking the rest (pinning, merge, wave set-up).
        let engine = if sharded {
            // The replayed shard calls can outlast the span on a busy
            // machine; they are capped at it.
            let shards = if hit { 0.0 } else { ms(replay.shards).min(run) };
            let coordinator = run - shards;
            layers.push(("shard.coordinator", coordinator));
            self.shard_query_ms += run;
            self.slowest_ms += shards;
            self.coordinator_ms += coordinator;
            self.shard_calls += after.shard_calls - before.shard_calls;
            shards
        } else {
            run
        };
        let (mut lookup, mut walk, mut collect) = if hit {
            (0.0, 0.0, 0.0)
        } else {
            (ms(replay.lookup), ms(replay.walk), ms(replay.collect))
        };
        // The replay walks without the engine's context memo, so on a warm
        // memo it can take longer than the engine's whole share of the
        // span; the three replayed layers then share that in proportion.
        // The metrics below add up these shares, not the raw replay times.
        let replayed = lookup + walk + collect;
        if replayed > engine {
            let scale = engine / replayed;
            lookup *= scale;
            walk *= scale;
            collect *= scale;
        }
        layers.push(("engine", engine - lookup - walk - collect));
        layers.push(("textindex.lookup", lookup));
        layers.push(("store.walk", walk));
        layers.push(("store.collect", collect));
        if !hit {
            self.lookup_ms += lookup;
            self.walk_ms += walk;
            self.collect_ms += collect;
            self.nodes_resolved += replay.nodes_resolved;
            self.run_miss_ms.push(run);
        } else {
            self.hit_ms.push(run);
        }
        let unaccounted = rt - layers.iter().map(|(_, v)| v).sum::<f64>();
        self.records.push(record(
            "query",
            qs,
            sent,
            recv,
            spans,
            t0,
            &layers,
            unaccounted,
        ));
        self.unaccounted_ms += unaccounted;
        self.queries += 1;
        self.round_trip_ms.push(rt);
        self.frontend_ms.push(rt - run);
        self.parse_ms += parse;
        self.render_ms += render;
        self.bytes += replay.bytes as u64;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.memo_hits += d.memo_hits;
        self.memo_misses += d.memo_misses;
        self.candidates += d.candidates;
        self.postings_decoded += d.topk.postings_decoded;
        self.blocks_skipped += d.topk.blocks_skipped;
        self.overlay_peak = self.overlay_peak.max(after.overlay_bytes);
    }

    /// Accounts one upload.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        name: &str,
        sent: Duration,
        recv: Duration,
        spans: &[Span],
        t0: Instant,
        before: &Counters,
        after: &Counters,
        upmark: Duration,
        nodes: usize,
    ) {
        let rt = ms(recv.saturating_sub(sent));
        let span = span_ms(spans, &["ingest_batch", "insert_document"]);
        let d = after.ingest.since(&before.ingest);
        let (store, index, upmark) = (ms(d.store_time), ms(d.index_time), ms(upmark));
        let layers = [
            ("docformats.upmark", upmark),
            ("webdav.queue", (rt - span - upmark).max(0.0)),
            ("store.ingest", store),
            ("ingest.index", index),
            ("ingest.other", (span - store - index).max(0.0)),
        ];
        let unaccounted = rt - layers.iter().map(|(_, v)| v).sum::<f64>();
        self.records.push(record(
            "put",
            name,
            sent,
            recv,
            spans,
            t0,
            &layers,
            unaccounted,
        ));
        self.unaccounted_ms += unaccounted;
        self.put_ms.push(rt);
        self.put_queue_ms += rt - span;
        self.store_ingest_ms += store;
        self.index_ms += index;
        self.wal_syncs += after.wal.syncs - before.wal.syncs;
        self.wal_commits += after.wal.commits - before.wal.commits;
        self.publishes += after.publishes - before.publishes;
        self.upmark_ms += upmark;
        self.upmark_nodes += nodes as u64;
        self.overlay_peak = self.overlay_peak.max(after.overlay_bytes);
    }

    /// Writes the records and returns every per-layer metric.
    pub fn metrics(&self, f: &RunFacts) -> Result<Vec<Metric>, String> {
        if let Some(dir) = f.trace_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let mut text = self.records.join("\n");
        text.push('\n');
        std::fs::write(&f.trace_path, text)
            .map_err(|e| format!("write {}: {e}", f.trace_path.display()))?;

        let q = self.queries.max(1) as f64;
        let misses = self.run_miss_ms.len().max(1) as f64;
        let puts = self.put_ms.len() as f64;
        let per_put = |v: f64| if puts > 0.0 { v / puts } else { 0.0 };
        let requests = (self.queries as f64 + puts).max(1.0);
        let (upmark_ms, nodes_per_doc) = match f.upmark_per_doc {
            Some(per_doc) => (per_doc, 0.0),
            None => (per_put(self.upmark_ms), per_put(self.upmark_nodes as f64)),
        };
        let (c0, c1) = (&f.counters_before, &f.counters_after);
        let m = Metric::new;
        Ok(vec![
            m(
                "netserve.frontend_p50_ms",
                percentile(&self.frontend_ms, 0.50),
                "ms",
            ),
            m(
                "netserve.frontend_p90_ms",
                percentile(&self.frontend_ms, 0.90),
                "ms",
            ),
            m("xdb.parse_us", self.parse_ms * 1e3 / q, "us"),
            m("xdb.render_ms", self.render_ms / q, "ms"),
            m("xdb.bytes_per_answer", self.bytes as f64 / q, "bytes"),
            m(
                "engine.run_ms",
                self.run_miss_ms.iter().sum::<f64>() / misses,
                "ms",
            ),
            m("engine.hit_us", median(&self.hit_ms) * 1e3, "us"),
            m("engine.cache_hits", self.cache_hits as f64 / q, "count"),
            m("engine.cache_misses", self.cache_misses as f64 / q, "count"),
            m("engine.memo_hits", self.memo_hits as f64 / q, "count"),
            m("engine.memo_misses", self.memo_misses as f64 / q, "count"),
            m("engine.candidates", self.candidates as f64 / q, "count"),
            m("textindex.lookup_ms", self.lookup_ms / q, "ms"),
            m(
                "textindex.postings_decoded",
                self.postings_decoded as f64 / q,
                "count",
            ),
            m(
                "textindex.blocks_skipped",
                self.blocks_skipped as f64 / q,
                "count",
            ),
            m("textindex.segments", f.index_after.segments as f64, "count"),
            m(
                "textindex.compactions",
                (f.index_after.compactions - f.index_before.compactions) as f64,
                "count",
            ),
            m("textindex.bytes", f.index_after.bytes as f64, "bytes"),
            m("store.walk_ms", self.walk_ms / q, "ms"),
            m(
                "store.nodes_resolved",
                self.nodes_resolved as f64 / q,
                "count",
            ),
            m("store.collect_ms", self.collect_ms / q, "ms"),
            m("store.ingest_ms", per_put(self.store_ingest_ms), "ms"),
            m("ingest.index_ms", per_put(self.index_ms), "ms"),
            m(
                "relstore.wal_syncs_per_doc",
                per_put(self.wal_syncs as f64),
                "count",
            ),
            m(
                "relstore.wal_commits_per_doc",
                per_put(self.wal_commits as f64),
                "count",
            ),
            m(
                "relstore.mvcc_publishes",
                per_put(self.publishes as f64),
                "count",
            ),
            m("relstore.overlay_bytes", self.overlay_peak as f64, "bytes"),
            m(
                "relstore.views_evicted",
                (c1.views_evicted - c0.views_evicted) as f64,
                "count",
            ),
            m("relstore.pool_evictions", c1.pool_evictions as f64, "count"),
            m("docformats.upmark_ms", upmark_ms, "ms"),
            m("docformats.nodes_per_doc", nodes_per_doc, "count"),
            m("pipeline.docs_per_s", f.pipeline.docs_per_sec(), "docs/s"),
            m(
                "pipeline.batches",
                f.pipeline.ingest.batches as f64,
                "count",
            ),
            m("webdav.put_queue_ms", per_put(self.put_queue_ms), "ms"),
            m("webdav.put_p50_ms", percentile(&self.put_ms, 0.50), "ms"),
            m("webdav.put_p90_ms", percentile(&self.put_ms, 0.90), "ms"),
            m(
                "ingest.docs_s",
                if puts > 0.0 {
                    puts * 1e3 / self.put_ms.iter().sum::<f64>()
                } else {
                    0.0
                },
                "docs/s",
            ),
            m("shard.query_ms", self.shard_query_ms / q, "ms"),
            m("shard.slowest_shard_ms", self.slowest_ms / q, "ms"),
            m("shard.coordinator_ms", self.coordinator_ms / q, "ms"),
            m(
                "shard.calls_per_query",
                self.shard_calls as f64 / q,
                "count",
            ),
            m("trace.unaccounted_ms", self.unaccounted_ms / requests, "ms"),
            m(
                "trace.query_p50_ms",
                percentile(&self.round_trip_ms, 0.50),
                "ms",
            ),
        ])
    }
}
