//! The reference checker: every answer the server gives is compared with
//! an answer computed apart from the store, the text index and the query
//! engine — by `netmark_federation::match_document` over the in-memory
//! upmarked corpus, in the store's document order.
//!
//! `match_document` matches a `Context=` label by case-insensitive
//! containment. The engine instead takes the sections whose label equals
//! the wanted one (case-insensitively) when any exist, and falls back to a
//! phrase match only when none do. The reference applies that rule on top
//! of the matcher. A per-document term and label index only narrows which
//! documents the matcher is run on; it never decides a match.

use netmark_federation::{match_document, sections};
use netmark_model::Document;
use netmark_textindex::query_terms;
use netmark_xdb::{ResultSet, XdbQuery};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// One matching section, as the wire shows it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SectionKey {
    /// Document name.
    pub doc: String,
    /// Context label.
    pub context: String,
    /// Hash of the section text with whitespace runs collapsed (answers
    /// are kept as digests so a run holds no reply bodies in memory).
    pub text: u64,
}

impl SectionKey {
    /// The key of a section with this document, label and content text.
    pub fn new(doc: &str, context: &str, text: &str) -> SectionKey {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for w in text.split_whitespace() {
            w.hash(&mut h);
        }
        SectionKey {
            doc: doc.to_string(),
            context: context.to_string(),
            text: h.finish(),
        }
    }
}

/// A reply reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The hits, in answer order.
    pub keys: Vec<SectionKey>,
    /// Each hit's score as rendered on the wire (`None` when unscored).
    pub scores: Vec<Option<f64>>,
    /// The `truncated` flag.
    pub truncated: bool,
    /// The `ranked` flag.
    pub ranked: bool,
}

impl Answer {
    /// Digests a parsed result set.
    pub fn of(rs: &ResultSet) -> Answer {
        Answer {
            keys: rs
                .hits
                .iter()
                .map(|h| SectionKey::new(&h.doc, &h.context, &h.content_text()))
                .collect(),
            scores: rs.hits.iter().map(|h| h.score).collect(),
            truncated: rs.truncated,
            ranked: rs.ranked,
        }
    }

    /// Parses and digests a `<results>` reply body.
    pub fn parse(body: &[u8]) -> Result<Answer, String> {
        parse_results(body).map(|rs| Answer::of(&rs))
    }
}

/// The upmarked corpus, in store order, with a narrowing index.
#[derive(Default)]
pub struct Reference {
    docs: Vec<Document>,
    by_name: HashMap<String, usize>,
    /// Lowercased exact section label → documents carrying it (ascending).
    labels: HashMap<String, Vec<usize>>,
    /// Term → documents containing it in some section's label or text
    /// (ascending). A superset of the documents any section can match in.
    terms: HashMap<String, Vec<usize>>,
}

impl Reference {
    /// The reference over `docs`, which must be in the store's order.
    pub fn new(docs: Vec<Document>) -> Reference {
        let mut r = Reference::default();
        for d in docs {
            r.push(d);
        }
        r
    }

    /// Appends a document that the store ordered after every earlier one.
    pub fn push(&mut self, doc: Document) {
        let i = self.docs.len();
        let mut labels: HashSet<String> = HashSet::new();
        let mut terms: HashSet<String> = HashSet::new();
        for s in sections(&doc) {
            labels.insert(s.label.to_lowercase());
            terms.extend(query_terms(&format!(
                "{} {}",
                s.label,
                s.content.text_content()
            )));
        }
        for l in labels {
            self.labels.entry(l).or_default().push(i);
        }
        for t in terms {
            self.terms.entry(t).or_default().push(i);
        }
        self.by_name.insert(doc.name.clone(), i);
        self.docs.push(doc);
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Position of the named document in store order.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// True when the engine would take `q`'s context label exactly (some
    /// visible section carries it), rather than falling back.
    fn exact_context(&self, q: &XdbQuery, visible: &dyn Fn(usize) -> bool) -> Option<String> {
        let wanted = q.context.as_ref()?.to_lowercase();
        let docs = self.labels.get(&wanted)?;
        docs.iter().any(|&i| visible(i)).then_some(wanted)
    }

    /// The matching sections of document `i` under the engine's rule.
    fn doc_matches(&self, i: usize, q: &XdbQuery, exact: Option<&str>) -> Vec<SectionKey> {
        match_document(&self.docs[i], q)
            .into_iter()
            .filter(|h| exact.is_none_or(|e| h.context.to_lowercase() == e))
            .map(|h| SectionKey::new(&h.doc, &h.context, &h.content_text()))
            .collect()
    }

    /// Every section of the visible documents matching `q`, in store
    /// order, ignoring `limit=` and `rank=`. Stops after `cap` sections.
    pub fn matches(
        &self,
        q: &XdbQuery,
        visible: &dyn Fn(usize) -> bool,
        cap: Option<usize>,
    ) -> Vec<SectionKey> {
        let exact = self.exact_context(q, visible);
        let mut lists: Vec<&[usize]> = Vec::new();
        if let Some(e) = &exact {
            lists.push(self.labels.get(e).map_or(&[], |v| v.as_slice()));
        }
        if let Some(c) = &q.content {
            for t in query_terms(c) {
                lists.push(self.terms.get(&t).map_or(&[], |v| v.as_slice()));
            }
        }
        let candidates: Vec<usize> = match lists.iter().min_by_key(|l| l.len()) {
            Some(shortest) => shortest
                .iter()
                .copied()
                .filter(|i| lists.iter().all(|l| l.binary_search(i).is_ok()))
                .collect(),
            None => (0..self.docs.len()).collect(),
        };
        let mut out = Vec::new();
        for i in candidates.into_iter().filter(|&i| visible(i)) {
            out.extend(self.doc_matches(i, q, exact.as_deref()));
            if cap.is_some_and(|c| out.len() >= c) {
                out.truncate(cap.unwrap_or(usize::MAX));
                break;
            }
        }
        out
    }

    /// How many sections of the visible documents matching `q` carry
    /// exactly this key (0 when `key` names no such section).
    pub fn multiplicity(
        &self,
        q: &XdbQuery,
        key: &SectionKey,
        visible: &dyn Fn(usize) -> bool,
    ) -> usize {
        match self.position(&key.doc) {
            Some(i) if visible(i) => {
                let exact = self.exact_context(q, visible);
                self.doc_matches(i, q, exact.as_deref())
                    .iter()
                    .filter(|m| *m == key)
                    .count()
            }
            _ => 0,
        }
    }

    /// The checks of one answer to `qs` over every document (read-only
    /// workloads): unranked answers against the first `limit` matches in
    /// store order, ranked ones by [`check_ranked`].
    pub fn verdict(&self, qs: &str, answer: &Answer) -> Result<(), String> {
        let q = XdbQuery::from_url(qs).map_err(|e| format!("unparseable query: {e}"))?;
        let all = |_: usize| true;
        // One match past the limit decides `truncated`; no more is needed.
        let first = self.matches(&q, &all, q.limit.map(|l| l + 1));
        if q.ranked() {
            check_ranked(&first, q.limit, answer, &|key| {
                self.multiplicity(&q, key, &all)
            })
        } else {
            check_unranked(&first, q.limit, answer)
        }
    }
}

/// Parses a `<results>` reply body.
pub fn parse_results(body: &[u8]) -> Result<ResultSet, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let node = netmark_sgml::parse_xml(text, &netmark_sgml::NodeTypeConfig::empty())
        .map_err(|e| format!("reply is not XML: {e:?}"))?;
    if node.name != "results" {
        return Err(format!("reply root is <{}>, not <results>", node.name));
    }
    let count: Option<usize> = node.attr("count").and_then(|c| c.parse().ok());
    let rs = ResultSet::from_node(&node, "");
    if count != Some(rs.hits.len()) {
        return Err(format!("count={count:?} but {} hits", rs.hits.len()));
    }
    Ok(rs)
}

/// An unranked answer must be exactly the first `limit` matches in store
/// order, with `truncated` set exactly when matches were cut.
pub fn check_unranked(
    all: &[SectionKey],
    limit: Option<usize>,
    got: &Answer,
) -> Result<(), String> {
    if got.ranked {
        return Err("unranked query answered as ranked".into());
    }
    let keep = limit.map_or(all.len(), |l| l.min(all.len()));
    if got.keys.len() != keep {
        return Err(format!("{} hits, expected {keep}", got.keys.len()));
    }
    if let Some(i) = (0..keep).find(|&i| got.keys[i] != all[i]) {
        return Err(format!(
            "hit {i} is {:?}/{:?}, expected {:?}/{:?}",
            got.keys[i].doc, got.keys[i].context, all[i].doc, all[i].context
        ));
    }
    let truncated = all.len() > keep;
    if got.truncated != truncated {
        return Err(format!(
            "truncated={} but expected {truncated}",
            got.truncated
        ));
    }
    Ok(())
}

/// Scores must be present and never rise down the list.
pub fn check_scores(got: &Answer) -> Result<(), String> {
    if !got.ranked {
        return Err("ranked query answered as unranked".into());
    }
    let mut prev = f64::INFINITY;
    for (i, s) in got.scores.iter().enumerate() {
        let s = s.ok_or_else(|| format!("hit {i} has no score"))?;
        if s > prev {
            return Err(format!("score rises at hit {i}: {prev} then {s}"));
        }
        prev = s;
    }
    Ok(())
}

/// A ranked answer: scores never rise; every hit is a matching section,
/// appearing no more often than such sections do (`multiplicity`); and
/// there are `min(k, matches)` hits with `truncated` exact. `first` holds
/// the first matches in store order — at least `k + 1` of them when that
/// many exist.
pub fn check_ranked(
    first: &[SectionKey],
    k: Option<usize>,
    got: &Answer,
    multiplicity: &dyn Fn(&SectionKey) -> usize,
) -> Result<(), String> {
    check_scores(got)?;
    let want = k.map_or(first.len(), |k| k.min(first.len()));
    if got.keys.len() != want {
        return Err(format!("{} hits, expected {want}", got.keys.len()));
    }
    let mut seen: HashMap<&SectionKey, usize> = HashMap::new();
    for (i, key) in got.keys.iter().enumerate() {
        let n = seen.entry(key).or_default();
        *n += 1;
        if *n > multiplicity(key) {
            return Err(format!(
                "hit {i} ({:?}/{:?}) is not a matching section",
                key.doc, key.context
            ));
        }
    }
    let truncated = k.is_some_and(|k| first.len() > k);
    if got.truncated != truncated {
        return Err(format!(
            "truncated={} but expected {truncated}",
            got.truncated
        ));
    }
    Ok(())
}

/// The top-`k` answer must equal the first `k` hits of the same query
/// without a limit: same sections, same scores, same order.
pub fn check_prefix(full: &Answer, k: usize, got: &Answer) -> Result<(), String> {
    let n = k.min(full.keys.len());
    if got.keys.len() != n {
        return Err(format!(
            "top-{k} has {} hits, the unlimited answer {}",
            got.keys.len(),
            full.keys.len()
        ));
    }
    match (0..n).find(|&i| got.keys[i] != full.keys[i] || got.scores[i] != full.scores[i]) {
        Some(i) => Err(format!(
            "top-{k} differs from the unlimited answer's prefix at hit {i}"
        )),
        None => Ok(()),
    }
}
