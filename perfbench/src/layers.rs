//! Per-layer probes of the traced run that are not request spans: the
//! service registry's `mq_*` series diffed around the loaded part, the
//! parallel search against the sequential oracle, relation-kernel
//! timings, and catalog costs.

use crate::load::rss_mib;
use crate::spec::Spec;
use crate::stats::median;
use mq_core::engine::find_rules::{find_rules_instrumented, find_rules_seq};
use mq_core::parse::parse_metaquery;
use mq_relation::{Bindings, Database, Term, VarId};
use mq_service::MqService;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Counter values plus the admission-wait histogram, taken before and
/// after a load phase.
pub struct RegistrySnap {
    series: HashMap<String, u64>,
    admission_wait_ns: u64,
    admission_count: u64,
    atom_hits: u64,
    atom_misses: u64,
}

impl RegistrySnap {
    pub fn take(service: &MqService, spec: &Spec) -> Self {
        let reg = service.registry();
        let wait = reg.histogram("mq_session_admission_wait_ns", "");
        let (mut atom_hits, mut atom_misses) = (0, 0);
        for db in &spec.dbs {
            if let Ok(s) = service.atom_cache_stats(db.name) {
                atom_hits += s.hits;
                atom_misses += s.misses;
            }
        }
        RegistrySnap {
            series: reg.snapshot().into_iter().collect(),
            admission_wait_ns: wait.sum_ns(),
            admission_count: wait.count(),
            atom_hits,
            atom_misses,
        }
    }
}

/// Session, dedup and engine figures from two registry snapshots.
pub fn registry_layers(before: &RegistrySnap, after: &RegistrySnap) -> Vec<Metric> {
    let d = |name: &str| {
        after.series.get(name).copied().unwrap_or(0) as f64
            - before.series.get(name).copied().unwrap_or(0) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let requests = d("mq_session_requests_total");
    let executed = d("mq_session_executed_total");
    let (hits, misses) = (d("mq_memo_hits_total"), d("mq_memo_misses_total"));
    let waits = (after.admission_count - before.admission_count) as f64;
    let wait_ns = (after.admission_wait_ns - before.admission_wait_ns) as f64;
    let atom_hits = (after.atom_hits - before.atom_hits) as f64;
    let atom_misses = (after.atom_misses - before.atom_misses) as f64;
    vec![
        (
            "session.admission_wait_us",
            ratio(wait_ns, waits) / 1e3,
            "us",
        ),
        (
            "dedup.shared_frac",
            ratio(d("mq_dedup_shared_total"), requests),
            "ratio",
        ),
        (
            "engine.sched_tasks",
            ratio(d("mq_sched_tasks_total"), executed),
            "count",
        ),
        (
            "engine.nodes",
            ratio(d("mq_exec_nodes_total"), executed),
            "count",
        ),
        ("engine.memo_hit_rate", ratio(hits, hits + misses), "ratio"),
        (
            "engine.atom_cache_hit_rate",
            ratio(atom_hits, atom_hits + atom_misses),
            "ratio",
        ),
    ]
}

/// Median nanoseconds per call of `f`, over at least 5 calls and
/// `budget` of wall time.
fn time_calls<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_nanos() as f64);
    }
    median(&times).expect("at least one call")
}

/// ns per input row of the five relation kernels, on `Bindings` built
/// with `from_atom` over two of the workload's own relations:
/// `a(X,Y)` and `b(Y,Z)`.
pub fn kernels(db: &Database, a: &str, b: &str) -> Vec<Metric> {
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    let left = Bindings::from_atom(db.rel(a), &[Term::Var(x), Term::Var(y)]);
    let right = Bindings::from_atom(db.rel(b), &[Term::Var(y), Term::Var(z)]);
    let both = (left.len() + right.len()).max(1) as f64;
    let one = left.len().max(1) as f64;
    let budget = Duration::from_millis(40);
    vec![
        (
            "relation.join_on_ns_row",
            time_calls(budget, || left.join_on(&right, &[y]).len()) / both,
            "ns",
        ),
        (
            "relation.semijoin_on_ns_row",
            time_calls(budget, || left.semijoin_on(&right, &[y]).len()) / both,
            "ns",
        ),
        (
            "relation.project_ns_row",
            time_calls(budget, || left.project(&[x]).len()) / one,
            "ns",
        ),
        (
            "relation.count_distinct_ns_row",
            time_calls(budget, || left.count_distinct(&[y])) / one,
            "ns",
        ),
        (
            "relation.semijoin_count_ns_row",
            time_calls(budget, || left.semijoin_count(&right)) / both,
            "ns",
        ),
    ]
}

/// Runs per request kind in [`engine`].
const ENGINE_REPS: usize = 3;

/// The served parallel search against the sequential oracle, per
/// request kind on the current snapshot: `engine.seq_ms` (mean over
/// kinds of the median `find_rules_seq` time) and `engine.par_gain`
/// (summed medians, sequential over parallel).
pub fn engine(service: &MqService, spec: &Spec) -> Vec<Metric> {
    let (mut seq_sum, mut par_sum) = (0.0, 0.0);
    for r in &spec.requests {
        let handle = service
            .catalog()
            .snapshot(spec.dbs[r.db].name)
            .expect("workload databases are registered");
        let mq = parse_metaquery(&r.metaquery).expect("workload metaqueries parse");
        let (ty, thresholds) = r.params();
        let db = handle.database();
        let time = |f: &dyn Fn() -> bool| {
            let runs: Vec<f64> = (0..ENGINE_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    assert!(f(), "workload searches succeed");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&runs).expect("runs made")
        };
        seq_sum += time(&|| find_rules_seq(db, &mq, ty, thresholds).is_ok());
        par_sum += time(&|| {
            find_rules_instrumented(
                db,
                &mq,
                ty,
                thresholds,
                handle.memo_service(),
                None,
                None,
                0,
            )
            .is_ok()
        });
    }
    vec![
        ("engine.seq_ms", seq_sum / spec.requests.len() as f64, "ms"),
        ("engine.par_gain", seq_sum / par_sum, "ratio"),
    ]
}

/// Appends made in process by [`catalog`].
const CATALOG_APPENDS: usize = 12;

/// Catalog costs through the service's public functions: snapshot
/// lookup, `append_rows` (batches `first_batch..`), the RSS each append
/// leaves behind, and atom-cache size.
pub fn catalog(service: &MqService, spec: &Spec, first_batch: usize) -> Vec<Metric> {
    let name = spec.dbs[spec.kernel_input.0].name;
    let snapshot_ns = time_calls(Duration::from_millis(20), || {
        service.catalog().snapshot(name).map(|h| h.version())
    });
    let entries: usize = spec
        .dbs
        .iter()
        .filter_map(|db| service.catalog().snapshot(db.name).ok())
        .map(|h| h.atom_cache().len())
        .sum();
    let rss0 = rss_mib();
    let mut append_ms = Vec::new();
    for i in 0..CATALOG_APPENDS {
        let batch = spec.append(first_batch + i);
        let rows = batch
            .rows
            .iter()
            .map(|&[a, b]| mq_relation::ints(&[a, b]))
            .collect();
        let t0 = Instant::now();
        let appended = service.append_rows(spec.dbs[batch.db].name, &batch.rel, rows);
        append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        appended.expect("in-process append of a generated batch");
    }
    let rss_per_append_kb = (rss_mib() - rss0) * 1024.0 / CATALOG_APPENDS as f64;
    vec![
        ("catalog.snapshot_us", snapshot_ns / 1e3, "us"),
        (
            "catalog.append_ms",
            median(&append_ms).expect("appends made"),
            "ms",
        ),
        ("catalog.rss_per_append_kb", rss_per_append_kb, "KiB"),
        ("catalog.atom_cache_entries", entries as f64, "count"),
    ]
}
