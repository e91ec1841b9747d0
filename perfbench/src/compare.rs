//! `perfbench compare <before-dir> <after-dir> [BENCHMARK.json]`: reads two
//! sets of saved run outputs and prints, per workload and end-to-end
//! metric, both medians and quartiles, the difference, and a verdict
//! against the metric's bound from `BENCHMARK.json`.
//!
//! A run output is a file named `<workload>-<anything>.out` (as in
//! `query-cold-7.out`) whose last line is the JSON result the benchmark
//! printed; other files are ignored. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method).

use crate::measure::median;
use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value (only what the benchmark's files contain).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => other,
                    });
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".into())
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Spread of a set of values: the interquartile distance as a share of
/// the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / med.abs()
    }
}

struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

/// One side: workload → metric → values, plus attempted/failed totals.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    ops: BTreeMap<String, (u64, u64)>,
}

fn load_side(dir: &Path, workloads: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    names.sort();
    for path in names {
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("")
            .to_string();
        let Some(w) = workloads
            .iter()
            .find(|w| file.starts_with(&format!("{w}-")) && file.ends_with(".out"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            continue;
        };
        let j = Json::parse(last).map_err(|e| format!("{file}: {e}"))?;
        let ops = side.ops.entry(w.clone()).or_default();
        ops.0 += j.get("attempted").and_then(Json::num).unwrap_or(0.0) as u64;
        ops.1 += j.get("failed").and_then(Json::num).unwrap_or(0.0) as u64;
        if let Some(Json::Obj(ms)) = j.get("metrics") {
            for (name, v) in ms {
                if let Some(x) = v.get("value").and_then(Json::num) {
                    side.metrics
                        .entry(w.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(side)
}

/// Runs compare mode; returns the report text.
pub fn main(args: &[String]) -> Result<String, String> {
    let (before, after) = match args {
        [b, a] | [b, a, _] => (Path::new(b), Path::new(a)),
        _ => return Err("expected two directories".into()),
    };
    let bench_path = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let bench = Json::parse(
        &std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?,
    )?;
    let workloads: Vec<String> = match bench.get("workloads") {
        Some(Json::Arr(ws)) => ws
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_string))
            .collect(),
        _ => return Err("BENCHMARK.json has no workloads".into()),
    };
    let bounds: Vec<Bound> = match bench.get("end_to_end") {
        Some(Json::Arr(ms)) => ms
            .iter()
            .filter_map(|m| {
                Some(Bound {
                    name: m.get("name")?.str()?.to_string(),
                    better_lower: m.get("better")?.str()? == "lower",
                    bound: m.get("bound")?.num()?,
                })
            })
            .collect(),
        _ => return Err("BENCHMARK.json has no end_to_end metrics".into()),
    };
    let a = load_side(before, &workloads)?;
    let b = load_side(after, &workloads)?;
    let mut out = String::new();
    let mut regressions = 0;
    for w in &workloads {
        let (ma, mb) = match (a.metrics.get(w), b.metrics.get(w)) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                out.push_str(&format!("{w}: missing on one side\n"));
                continue;
            }
        };
        let (oa, ob) = (a.ops[w], b.ops[w]);
        out.push_str(&format!(
            "{w}: failed {}/{} before, {}/{} after\n",
            oa.1, oa.0, ob.1, ob.0
        ));
        out.push_str(&format!(
            "  {:<28} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}   {:>8} {:>6}  verdict\n",
            "metric",
            "before.q1",
            "before.med",
            "before.q3",
            "after.q1",
            "after.med",
            "after.q3",
            "diff",
            "bound"
        ));
        for bnd in &bounds {
            let (Some(va), Some(vb)) = (ma.get(&bnd.name), mb.get(&bnd.name)) else {
                out.push_str(&format!("  {:<28} missing\n", bnd.name));
                continue;
            };
            let (a1, _, a3) = quartiles(va);
            let (b1, _, b3) = quartiles(vb);
            let (med_a, med_b) = (median(va), median(vb));
            let diff = (med_b - med_a) / med_a.abs();
            let worse = if bnd.better_lower { diff } else { -diff };
            let all_better = if bnd.better_lower {
                vb.iter().cloned().fold(f64::MIN, f64::max)
                    < va.iter().cloned().fold(f64::MAX, f64::min)
            } else {
                vb.iter().cloned().fold(f64::MAX, f64::min)
                    > va.iter().cloned().fold(f64::MIN, f64::max)
            };
            let verdict = if spread(va) > bnd.bound || spread(vb) > bnd.bound {
                if all_better {
                    "better (every run)"
                } else {
                    "unresolved (spread wider than bound)"
                }
            } else if worse > bnd.bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "within bound"
            };
            out.push_str(&format!(
                "  {:<28} {:>12.4} {:>12.4} {:>12.4}   {:>12.4} {:>12.4} {:>12.4}   {:>+7.1}% {:>5.0}%  {verdict}\n",
                bnd.name,
                a1,
                med_a,
                a3,
                b1,
                med_b,
                b3,
                diff * 100.0,
                bnd.bound * 100.0
            ));
        }
    }
    out.push_str(&format!("{regressions} regression(s)\n"));
    Ok(out)
}
