//! `perfbench frontend-probe [requests]`: reproduces the front end's
//! parking wait. It serves an empty store and sends `requests` (default
//! 2 000) back-to-back `GET /xdb/capabilities` on one keep-alive
//! connection, with no think time, then prints the latency percentiles.
//!
//! After each reply a `netserve` worker peeks the connection once; if the
//! next request has not arrived yet, the connection is parked until the
//! poller's next sweep, up to `poll_interval` (10 ms) later. A fast
//! client usually wins that race, so the median is tens of microseconds
//! while the tail sits near 10 ms.

use crate::client::Conn;
use crate::measure::{ms, percentile};
use netmark::NetMark;
use std::sync::Arc;
use std::time::Instant;

/// Runs the probe; returns the report line.
pub fn main(args: &[String]) -> Result<String, String> {
    let n: usize = match args.first() {
        Some(a) => a.parse().map_err(|e| format!("requests: {e}"))?,
        None => 2000,
    };
    let dir = std::path::PathBuf::from(".bench_work").join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = (|| {
        let nm = Arc::new(NetMark::open(&dir).map_err(|e| format!("open store: {e}"))?);
        let server = netmark_webdav::serve(nm, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut lat = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            let r = conn
                .send("GET", "/xdb/capabilities", b"")
                .map_err(|e| format!("request: {e}"))?;
            lat.push(ms(t.elapsed()));
            if r.status != 200 {
                return Err(format!("status {}", r.status));
            }
        }
        drop(conn);
        server.stop();
        let parked = lat.iter().filter(|&&l| l > 1.0).count();
        Ok(format!(
            "{n} requests: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms; {parked} took over 1 ms\n",
            percentile(&lat, 0.50),
            percentile(&lat, 0.90),
            percentile(&lat, 0.99),
            percentile(&lat, 1.0)
        ))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    out
}
