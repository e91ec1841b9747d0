//! The four workloads: what each loads and which requests it sends. Every
//! input is a function of `--seed`; the program under test only ever sees
//! the generated documents and query strings.

use crate::rng::{Rng, Zipf};
use netmark_corpus::{mixed, CorpusConfig, RawDoc, BODY_WORDS, SECTION_NAMES};
use netmark_xdb::{RankMode, XdbQuery};
use std::collections::HashSet;

/// Documents bulk-loaded before every workload.
pub const BASE_DOCS: usize = 5000;
/// Documents available for `ingest-live` to upload (more than a run can
/// send at the fastest observed PUT rate).
pub const LIVE_DOCS: usize = 6000;
/// Popular query strings in `query-hot` (all fit the 256-entry cache).
pub const HOT_POOL: usize = 64;
/// Zipf exponent of `query-hot`'s popularity skew.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Shards in `ranked-sharded`.
pub const SHARDS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct queries: every request misses the result cache.
    QueryCold,
    /// A small Zipf-skewed pool: every timed request hits the cache.
    QueryHot,
    /// PUTs of fresh documents beside ranked searches.
    IngestLive,
    /// Distinct ranked top-k queries against a 2-shard store.
    RankedSharded,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::QueryCold,
        Workload::QueryHot,
        Workload::IngestLive,
        Workload::RankedSharded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query-cold",
            Workload::QueryHot => "query-hot",
            Workload::IngestLive => "ingest-live",
            Workload::RankedSharded => "ranked-sharded",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The corpus bulk-loaded before the run.
pub fn base_corpus(seed: u64) -> Vec<RawDoc> {
    mixed(&CorpusConfig::sized(BASE_DOCS).with_seed(seed))
}

/// The documents `ingest-live` uploads: a second mixed corpus from a
/// different seed, renamed so no name collides with the base corpus.
pub fn live_corpus(seed: u64) -> Vec<RawDoc> {
    let cfg = CorpusConfig::sized(LIVE_DOCS).with_seed(seed ^ 0x5EED_0F11_FE00_0001);
    mixed(&cfg)
        .into_iter()
        .map(|d| RawDoc {
            name: format!("live-{}", d.name),
            content: d.content,
        })
        .collect()
}

/// Draws that cycle through seed-shuffled decks — every label, word and
/// query shape turns up equally often within a run, so two runs (and two
/// seeds) differ only in pairing and order, not in how the work is mixed.
struct Decks {
    rng: Rng,
    words: Deck<&'static str>,
    labels: Deck<&'static str>,
    shapes: Deck<usize>,
}

struct Deck<T> {
    items: Vec<T>,
    at: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        let at = items.len();
        Deck { items, at }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.at == self.items.len() {
            shuffle(rng, &mut self.items);
            self.at = 0;
        }
        self.at += 1;
        self.items[self.at - 1]
    }
}

impl Decks {
    fn new(seed: u64, stream: u64, shapes: usize) -> Decks {
        Decks {
            rng: Rng::new(seed, stream),
            words: Deck::new(BODY_WORDS.to_vec()),
            labels: Deck::new(SECTION_NAMES.to_vec()),
            shapes: Deck::new((0..shapes).collect()),
        }
    }

    fn word(&mut self) -> &'static str {
        self.words.draw(&mut self.rng)
    }

    fn two_words(&mut self) -> String {
        let a = self.word();
        let mut b = self.word();
        while b == a {
            b = self.word();
        }
        format!("{a} {b}")
    }

    fn label(&mut self) -> &'static str {
        self.labels.draw(&mut self.rng)
    }

    fn shape(&mut self) -> usize {
        self.shapes.draw(&mut self.rng)
    }
}

/// A ranked single-keyword top-10 search.
pub fn ranked_keyword(w: &str) -> XdbQuery {
    XdbQuery::content(w)
        .with_rank(RankMode::Bm25)
        .with_limit(10)
}

/// An endless stream of query strings in which none repeats.
pub struct DistinctQueries {
    decks: Decks,
    seen: HashSet<String>,
    make: fn(&mut Decks) -> XdbQuery,
}

impl DistinctQueries {
    /// `query-cold`'s stream, in equal shares: `Context=C&Content=w`
    /// (unlimited), `Content=w1 w2&limit=20`, and
    /// `Context=C&Content=w1 w2&rank=bm25&limit=10`.
    pub fn cold(seed: u64) -> DistinctQueries {
        DistinctQueries {
            decks: Decks::new(seed, 1, 3),
            seen: HashSet::new(),
            make: |d| match d.shape() {
                0 => XdbQuery::context_content(d.label(), d.word()),
                1 => XdbQuery::content(&d.two_words()).with_limit(20),
                _ => XdbQuery::context_content(d.label(), &d.two_words())
                    .with_rank(RankMode::Bm25)
                    .with_limit(10),
            },
        }
    }

    /// `ranked-sharded`'s stream, in equal shares: two-term content and
    /// context plus term, each ranked with `k` = 10 and with `k` = 100.
    pub fn sharded(seed: u64) -> DistinctQueries {
        DistinctQueries {
            decks: Decks::new(seed, 2, 4),
            seen: HashSet::new(),
            make: |d| {
                let shape = d.shape();
                let q = if shape % 2 == 0 {
                    XdbQuery::content(&d.two_words())
                } else {
                    XdbQuery::context_content(d.label(), d.word())
                };
                let k = if shape < 2 { 10 } else { 100 };
                q.with_rank(RankMode::Bm25).with_limit(k)
            },
        }
    }

    /// The next query string not sent before in this run.
    pub fn next_query(&mut self) -> String {
        loop {
            let qs = (self.make)(&mut self.decks).to_query_string();
            if self.seen.insert(qs.clone()) {
                return qs;
            }
        }
    }
}

/// `query-hot`'s pool, most popular first. The shape at each popularity
/// rank is fixed — so every seed puts the same kind of work at the same
/// request share — and the seed picks the words and labels: three
/// unlimited application pulls at ranks 15, 31 and 47, twenty limited
/// context listings (`Context=C&limit=20`, one per section name) at the
/// other ranks `r` with `r % 3 == 1`, and ranked single-keyword top-10
/// searches over distinct words everywhere else.
pub fn hot_pool(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    let mut labels: Vec<&str> = SECTION_NAMES.to_vec();
    let mut words: Vec<&str> = BODY_WORDS.to_vec();
    shuffle(&mut rng, &mut labels);
    shuffle(&mut rng, &mut words);
    let pulls = ["Budget", "Technology Gap", "Cost Details"];
    let (mut l, mut w, mut p) = (0, 0, 0);
    (0..HOT_POOL)
        .map(|r| {
            let q = if [15, 31, 47].contains(&r) {
                p += 1;
                XdbQuery::context(pulls[p - 1])
            } else if r % 3 == 1 {
                l += 1;
                XdbQuery::context(labels[l - 1]).with_limit(20)
            } else {
                w += 1;
                ranked_keyword(words[w - 1])
            };
            q.to_query_string()
        })
        .collect()
}

/// Draws `query-hot` pool ranks with the Zipf skew. The draws follow a
/// golden-ratio sequence from a seeded start rather than independent
/// random numbers, so every prefix of the stream hits each rank in
/// almost exactly its Zipf share: the rare, costly unlimited pulls come
/// up the same number of times in every run.
pub struct HotDraw {
    u: f64,
    zipf: Zipf,
}

impl HotDraw {
    /// Connection `conn`'s draw sequence for `seed`.
    pub fn new(seed: u64, conn: u64) -> HotDraw {
        HotDraw {
            u: Rng::new(seed, 10 + conn).unit(),
            zipf: Zipf::new(HOT_POOL, HOT_ZIPF_S),
        }
    }

    /// The next pool rank.
    pub fn next_rank(&mut self) -> usize {
        self.u = (self.u + 0.618_033_988_749_894_9) % 1.0;
        self.zipf.rank(self.u)
    }
}

/// `ingest-live`'s search stream: ranked single-keyword top-10 searches,
/// cycling through the words in seed-shuffled order.
pub struct LiveSearches(Decks);

impl LiveSearches {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> LiveSearches {
        LiveSearches(Decks::new(seed, 4, 1))
    }

    /// The next query string.
    pub fn next_query(&mut self) -> String {
        ranked_keyword(self.0.word()).to_query_string()
    }
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}
