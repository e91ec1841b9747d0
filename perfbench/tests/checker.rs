//! The reference checker accepts the engine's real answers and flags
//! each kind of corrupted answer: a dropped hit, an extra hit, reordered
//! unranked hits, rising scores, and a wrong `truncated` flag.

use netmark::NetMark;
use netmark_corpus::{mixed, CorpusConfig};
use netmark_docformats::upmark;
use netmark_perfbench::reference::{check_prefix, Answer, Reference, SectionKey};
use netmark_xdb::XdbQuery;

struct Fixture {
    nm: NetMark,
    reference: Reference,
    dir: std::path::PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fixture(tag: &str) -> Fixture {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("checker-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let nm = NetMark::open(&dir).unwrap();
    let raw = mixed(&CorpusConfig::sized(60).with_seed(3));
    for d in &raw {
        nm.insert_file(&d.name, &d.content).unwrap();
    }
    let reference = Reference::new(raw.iter().map(|d| upmark(&d.name, &d.content)).collect());
    Fixture { nm, reference, dir }
}

fn answer(nm: &NetMark, qs: &str) -> Answer {
    Answer::of(&nm.query(&XdbQuery::from_url(qs).unwrap()).unwrap())
}

const QUERIES: &[&str] = &[
    "Context=Budget&Content=engine",
    "Context=Technology+Gap",
    "Context=Summary&limit=3",
    "Content=engine+mission&limit=5",
    "Content=orbit&rank=bm25&limit=4",
    "Context=Budget&Content=cost+engine&rank=bm25&limit=3",
    "Content=propulsion+thermal&rank=bm25&limit=100",
];

#[test]
fn engine_answers_pass() {
    let f = fixture("pass");
    for qs in QUERIES {
        let a = answer(&f.nm, qs);
        assert!(
            !a.keys.is_empty(),
            "{qs} matched nothing; pick another query"
        );
        f.reference
            .verdict(qs, &a)
            .unwrap_or_else(|e| panic!("{qs}: {e}"));
    }
}

#[test]
fn corrupted_unranked_answers_are_flagged() {
    let f = fixture("unranked");
    let qs = "Context=Summary&limit=3";
    let good = answer(&f.nm, qs);
    assert!(good.truncated && good.keys.len() == 3);

    let mut dropped = good.clone();
    dropped.keys.pop();
    dropped.scores.pop();
    assert!(f.reference.verdict(qs, &dropped).is_err(), "dropped hit");

    let mut extra = good.clone();
    extra
        .keys
        .push(SectionKey::new("nowhere.txt", "Summary", "made up"));
    extra.scores.push(None);
    assert!(f.reference.verdict(qs, &extra).is_err(), "extra hit");

    let mut reordered = good.clone();
    reordered.keys.swap(0, 1);
    assert!(
        f.reference.verdict(qs, &reordered).is_err(),
        "reordered hits"
    );

    let mut flag = good.clone();
    flag.truncated = false;
    assert!(
        f.reference.verdict(qs, &flag).is_err(),
        "wrong truncated flag"
    );
}

#[test]
fn corrupted_ranked_answers_are_flagged() {
    let f = fixture("ranked");
    let qs = "Content=orbit&rank=bm25&limit=4";
    let good = answer(&f.nm, qs);
    assert!(good.truncated && good.keys.len() == 4);
    assert!(good.scores[0] > good.scores[3], "needs distinct scores");

    let mut dropped = good.clone();
    dropped.keys.pop();
    dropped.scores.pop();
    assert!(f.reference.verdict(qs, &dropped).is_err(), "dropped hit");

    // An extra hit that is a real section, but one that does not match.
    let other = answer(&f.nm, "Content=harness&rank=bm25&limit=50");
    let stray = other
        .keys
        .iter()
        .find(|k| {
            f.reference
                .multiplicity(&XdbQuery::from_url(qs).unwrap(), k, &|_| true)
                == 0
        })
        .expect("a section without 'orbit'")
        .clone();
    let mut extra = good.clone();
    extra.keys[3] = stray;
    assert!(f.reference.verdict(qs, &extra).is_err(), "non-matching hit");

    let mut repeated = good.clone();
    repeated.keys[3] = repeated.keys[0].clone();
    repeated.scores[3] = repeated.scores[2];
    assert!(f.reference.verdict(qs, &repeated).is_err(), "repeated hit");

    let mut rising = good.clone();
    rising.scores.reverse();
    assert!(f.reference.verdict(qs, &rising).is_err(), "rising scores");

    let mut flag = good.clone();
    flag.truncated = false;
    assert!(
        f.reference.verdict(qs, &flag).is_err(),
        "wrong truncated flag"
    );
}

#[test]
fn top_k_must_be_the_unlimited_prefix() {
    let f = fixture("prefix");
    let full = answer(&f.nm, "Content=orbit&rank=bm25");
    let top = answer(&f.nm, "Content=orbit&rank=bm25&limit=4");
    check_prefix(&full, 4, &top).unwrap();
    let mut swapped = top.clone();
    swapped.keys.swap(1, 2);
    assert!(check_prefix(&full, 4, &swapped).is_err());
    let mut short = top.clone();
    short.keys.pop();
    short.scores.pop();
    assert!(check_prefix(&full, 4, &short).is_err());
}
