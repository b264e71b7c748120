//! The traced run's spans, recorded by the benchmark around its own
//! calls into each layer's public functions.
//!
//! Per `mine` request the traced generator makes one call per layer, one
//! after another, on the same request text:
//!
//! ```text
//! request                      root
//! ├─ net.ping                  TCP round trip of `ping`
//! ├─ net                       TCP round trip of the `mine` line
//! │  └─ protocol               protocol::handle_line, in process
//! │     └─ session             MqService::query
//! │        ├─ parse            parse_metaquery
//! │        └─ engine           find_rules_instrumented on the catalog snapshot
//! ```
//!
//! A span's children are the calls one layer down, made right after it,
//! not intervals inside it; a layer's self time is its span's duration
//! minus its children's durations on the same request.

use crate::client::{Conn, MineReply, Outcome};
use crate::spec::Spec;
use mq_core::ast::Metaquery;
use mq_core::engine::find_rules::find_rules_instrumented;
use mq_core::parse::parse_metaquery;
use mq_service::{handle_line, MetaqueryRequest, MqService};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One recorded span; times in nanoseconds from the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one generator thread, kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Request id -> request kind (index into `Spec::requests`).
    pub kinds: HashMap<u64, usize>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Makes the per-layer calls of a traced request.
pub struct Tracer<'a> {
    origin: Instant,
    service: &'a MqService,
    spec: &'a Spec,
    parsed: Vec<Metaquery>,
}

impl<'a> Tracer<'a> {
    pub fn new(origin: Instant, service: &'a MqService, spec: &'a Spec) -> Self {
        let parsed = spec
            .requests
            .iter()
            .map(|r| parse_metaquery(&r.metaquery).expect("workload metaqueries parse"))
            .collect();
        Tracer {
            origin,
            service,
            spec,
            parsed,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Time `f` as span `name` under `parent`; returns (span id, result).
    fn span<T>(
        &self,
        log: &mut SpanLog,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (u64, T) {
        let id = next_id();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        log.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        (id, out)
    }

    /// One traced request: the TCP round trip plus one call per layer.
    /// Returns the TCP latency and reply like an untraced request.
    pub fn traced_mine(
        &self,
        log: &mut SpanLog,
        conn: &mut Conn,
        req: usize,
        line: &str,
    ) -> Result<(Duration, MineReply), Outcome> {
        let request = next_id();
        log.kinds.insert(request, req);
        let root = next_id();
        let t_root = Instant::now();
        let out = self.layers(log, conn, req, line, request, root);
        log.spans.push(Span {
            id: root,
            parent: 0,
            request,
            name: "request",
            start_ns: self.ns(t_root),
            end_ns: self.ns(Instant::now()),
        });
        out
    }

    fn layers(
        &self,
        log: &mut SpanLog,
        conn: &mut Conn,
        req: usize,
        line: &str,
        request: u64,
        root: u64,
    ) -> Result<(Duration, MineReply), Outcome> {
        let (_, pong) = self.span(log, "net.ping", root, request, || conn.request("ping"));
        pong?;
        let t0 = Instant::now();
        let (net, reply) = self.span(log, "net", root, request, || conn.mine(line));
        let latency = t0.elapsed();
        let reply = reply?;
        let (protocol, lines) = self.span(log, "protocol", net, request, || {
            handle_line(self.service, line)
        });
        let head = lines.lines().first().cloned().unwrap_or_default();
        if let Some(code) = crate::client::err_code(&head) {
            return Err(Outcome::Err(code));
        }
        let r = &self.spec.requests[req];
        let db_name = self.spec.dbs[r.db].name;
        let (ty, thresholds) = r.params();
        let mut mreq = MetaqueryRequest::new(db_name, r.metaquery.clone());
        mreq.ty = ty;
        mreq.thresholds = thresholds;
        let (session, answered) = self.span(log, "session", protocol, request, || {
            self.service.query(&mreq)
        });
        answered.map_err(|e| Outcome::Err(mq_service::error_code(&e).into()))?;
        let (_, parsed) = self.span(log, "parse", session, request, || {
            parse_metaquery(&r.metaquery)
        });
        black_box(parsed.map_err(|_| Outcome::Err("parse".into()))?);
        let handle = self
            .service
            .catalog()
            .snapshot(db_name)
            .map_err(|_| Outcome::Err("unknown-db".into()))?;
        let mq = &self.parsed[req];
        let (_, found) = self.span(log, "engine", session, request, || {
            find_rules_instrumented(
                handle.database(),
                mq,
                ty,
                thresholds,
                handle.memo_service(),
                None,
                None,
                0,
            )
        });
        black_box(found.map_err(|_| Outcome::Err("engine".into()))?);
        Ok((latency, reply))
    }
}

/// Self time of every span, by span name: `(request id, ns)`. Signed:
/// a layer call can run faster than the separate call one layer down.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<(u64, i64)>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: HashMap<&'static str, Vec<(u64, i64)>> = HashMap::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        out.entry(s.name)
            .or_default()
            .push((s.request, s.dur_ns() as i64 - children as i64));
    }
    out
}

/// Write spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_request() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "net", 0, 50),
            span(3, 2, "protocol", 50, 90),
            span(4, 3, "session", 90, 120),
            span(5, 4, "engine", 120, 140),
            span(6, 4, "parse", 140, 141),
        ];
        let st = self_times(&spans);
        assert_eq!(st["net"], vec![(1, 10)]);
        assert_eq!(st["protocol"], vec![(1, 10)]);
        assert_eq!(st["session"], vec![(1, 9)]);
        assert_eq!(st["engine"], vec![(1, 20)]);
        assert_eq!(st["parse"], vec![(1, 1)]);
        // Net + protocol + session + parse + engine telescope to the
        // TCP round trip.
        let sum: i64 = ["net", "protocol", "session", "parse", "engine"]
            .iter()
            .map(|n| st[n][0].1)
            .sum();
        assert_eq!(sum, 50);
    }
}
