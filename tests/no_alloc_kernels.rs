//! Allocation regressions in the probe phases of the relational kernels.
//!
//! The pre-optimization kernels materialized one `Box<[Value]>` key per
//! probed row (`algebra::baseline` keeps that code as the reference); the
//! optimized kernels hash keys straight out of row storage and compare
//! positionally, so — once the build-side index is cached — probing must
//! allocate O(result), not O(rows). A counting global allocator pins that
//! down: each probe phase below runs over thousands of rows and is
//! asserted to allocate at most a small constant. The columnar phases
//! additionally pin the column-major layout's costs: transposition is
//! O(arity) allocations, a relation's inserts grow its buffers by
//! doubling (O(log N)), a copy-on-write clone plus one append is
//! O(arity), batched multi-column hashing reuses one scratch buffer,
//! and the fused/reverse semijoins return storage-sharing clones when
//! nothing is filtered. A final phase pins
//! the observability contract: with tracing forced off, `span!` sites
//! and metric-handle updates allocate nothing at all, and a zero scrape
//! cadence keeps the flight recorder's scraper thread unspawned.
//!
//! All phases live in one `#[test]` because the allocation counter is
//! global to the process and the test harness runs tests concurrently.

use mq_relation::{ints, reduce_relation, Bindings, Relation, Term, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

const N: i64 = 4096;
/// Generous constant budget per probe phase: row-independent bookkeeping
/// (result headers, a grown index vector) stays well under this; a
/// regression to per-row keys costs ≥ N allocations.
const BUDGET: usize = 256;

fn v(i: u32) -> VarId {
    VarId(i)
}

#[test]
fn probe_phases_allocate_constant_not_per_row() {
    // a(V0, V1) with V1 = V0 + 1; `hits` covers every V1 key, `misses`
    // covers none.
    let a = Bindings::from_parts(
        vec![v(0), v(1)],
        (0..N).map(|i| ints(&[i, i + 1])).collect(),
    );
    let hits = Bindings::from_parts(
        vec![v(1), v(2)],
        (0..N).map(|i| ints(&[i + 1, 0])).collect(),
    );
    let misses = Bindings::from_parts(
        vec![v(1), v(2)],
        (0..N).map(|i| ints(&[-i - 1, 0])).collect(),
    );

    // Prime every cached build-side index outside the measured window.
    assert_eq!(a.semijoin(&hits).len(), a.len());
    assert!(a.antijoin(&hits).is_empty());
    assert!(a.semijoin(&misses).is_empty());
    assert_eq!(a.antijoin(&misses).len(), a.len());
    assert_eq!(a.semijoin_count(&hits), a.len());

    // Antijoin probe, all rows matching: empty result, ~no allocations.
    let before = allocations();
    let anti = a.antijoin(&hits);
    let spent = allocations() - before;
    assert!(anti.is_empty());
    assert!(
        spent < BUDGET,
        "antijoin probe allocated {spent} times for {N} rows — per-row keys are back"
    );

    // Antijoin probe, no rows matching: full result shares `a`'s storage.
    let before = allocations();
    let anti = a.antijoin(&misses);
    let spent = allocations() - before;
    assert_eq!(anti.len(), a.len());
    assert!(
        spent < BUDGET,
        "all-miss antijoin allocated {spent} times for {N} rows"
    );

    // Semijoin probe, all rows surviving: shares storage likewise.
    let before = allocations();
    let semi = a.semijoin(&hits);
    let spent = allocations() - before;
    assert_eq!(semi.len(), a.len());
    assert!(
        spent < BUDGET,
        "all-hit semijoin allocated {spent} times for {N} rows"
    );

    // semijoin_count never materializes rows at all.
    let before = allocations();
    let count = a.semijoin_count(&hits);
    let spent = allocations() - before;
    assert_eq!(count, a.len());
    assert!(
        spent < BUDGET,
        "semijoin_count allocated {spent} times for {N} rows"
    );

    // reduce_relation: single positional pass; with a guard matching no
    // row the only allocations are the empty output relation's.
    let rel = Relation::from_rows("e", 2, (0..N).map(|i| ints(&[i, i + 1])).collect());
    let terms = [Term::Var(v(0)), Term::Var(v(1))];
    let guard = Bindings::from_parts(vec![v(1)], (0..N).map(|i| ints(&[-i - 1])).collect());
    let primed = reduce_relation(&rel, &terms, &guard);
    assert!(primed.is_empty());
    let before = allocations();
    let reduced = reduce_relation(&rel, &terms, &guard);
    let spent = allocations() - before;
    assert!(reduced.is_empty());
    assert!(
        spent < BUDGET,
        "reduce_relation probe allocated {spent} times for {N} rows — \
         the double-pass/boxed-key path regressed"
    );

    // ── Columnar phases ─────────────────────────────────────────────
    // Transposing N boxed rows into column buffers (what `from_parts`
    // does) is O(arity) allocations (one contiguous buffer per column
    // plus the shared header), never one per row.
    let boxed: Vec<_> = (0..N).map(|i| ints(&[i, -i])).collect();
    let before = allocations();
    let cols = mq_store::ColumnarRows::from_rows(2, &boxed);
    let spent = allocations() - before;
    assert_eq!(cols.len(), N as usize);
    assert!(
        spent < 16,
        "columnar transposition allocated {spent} times for {N} rows"
    );

    // A relation stores each tuple once, in its columns; its dedup set
    // holds row ids, not tuple copies. Inserting N prebuilt tuples only
    // grows the column buffers and the set by doubling: O(log N)
    // allocations, where a per-row key copy costs ≥ N.
    let tuples: Vec<_> = (0..N).map(|i| ints(&[i, i % 7])).collect();
    let before = allocations();
    let mut rel = Relation::new("grow", 2);
    for t in tuples {
        assert!(rel.insert(t));
    }
    let spent = allocations() - before;
    assert_eq!(rel.len(), N as usize);
    assert!(
        spent < BUDGET,
        "inserting {N} tuples into a relation allocated {spent} times — \
         a per-row stored copy is back"
    );

    // Copy-on-write append: cloning the relation shares its columns, and
    // the first appended row copies them once — O(arity) allocations,
    // however many rows the relation holds.
    let before = allocations();
    let mut appended = rel.clone();
    assert!(appended.insert(ints(&[-1, -1])));
    let spent = allocations() - before;
    assert_eq!((rel.len(), appended.len()), (N as usize, N as usize + 1));
    assert!(
        spent < 16,
        "clone + one-row append of a {N}-row relation allocated {spent} times"
    );

    // Multi-column keys take the batched columnar hashing path: whole
    // column slices are hashed into one scratch buffer, so the count
    // probe stays O(1) allocations over N rows.
    let a2 = Bindings::from_parts(
        vec![v(0), v(1)],
        (0..N).map(|i| ints(&[i, i + 1])).collect(),
    );
    let b2 = Bindings::from_parts(
        vec![v(1), v(0)],
        (0..N).map(|i| ints(&[i + 1, i])).collect(),
    );
    assert_eq!(a2.semijoin_count(&b2), a2.len()); // prime both indexes
    let before = allocations();
    let count = a2.semijoin_count(&b2);
    let spent = allocations() - before;
    assert_eq!(count, a2.len());
    assert!(
        spent < BUDGET,
        "two-column semijoin_count allocated {spent} times for {N} rows"
    );

    // Reverse semijoin: the receiver keeps its cached index and the
    // ephemeral argument is scanned; an all-hit probe returns a
    // storage-sharing clone — O(1) allocations.
    assert_eq!(a.semijoin_indexed(&hits).len(), a.len()); // prime
    let before = allocations();
    let semi = a.semijoin_indexed(&hits);
    let spent = allocations() - before;
    assert_eq!(semi.len(), a.len());
    assert!(
        spent < BUDGET,
        "semijoin_indexed allocated {spent} times for {N} rows"
    );

    // Fused multi-child semijoin: one sweep probing every child's cached
    // index; when all children keep every row the result shares storage.
    assert_eq!(a.semijoin_all(&[&hits, &b2]).len(), a.len()); // prime
    let before = allocations();
    let all = a.semijoin_all(&[&hits, &b2]);
    let spent = allocations() - before;
    assert_eq!(all.len(), a.len());
    assert!(
        spent < BUDGET,
        "semijoin_all allocated {spent} times for {N} rows"
    );

    // ── Disabled-instrumentation phase ──────────────────────────────
    // With tracing forced off, a `span!` site must cost one relaxed
    // load and a branch — no guard, no ring write, no allocation — and
    // updating pre-created registry handles is plain atomic arithmetic.
    // This is the "observability is free when off" contract the serving
    // hot path relies on (the bench-side twin is `trace_overhead`).
    mq_obs::set_trace_override(Some(false));
    let registry = mq_obs::Registry::new();
    let probes = registry.counter("mq_test_probe_total", "no-alloc phase counter");
    let lat = registry.histogram("mq_test_probe_ns", "no-alloc phase histogram");
    let before = allocations();
    for i in 0..N as u64 {
        let _span = mq_obs::span!(mq_obs::trace::SCHED_TASK);
        probes.inc();
        lat.observe_ns(i);
    }
    let spent = allocations() - before;
    mq_obs::set_trace_override(None);
    assert_eq!(probes.get(), N as u64);
    assert_eq!(
        spent, 0,
        "disabled tracing + registry updates allocated {spent} times over \
         {N} iterations — instrumentation crept onto the hot path"
    );

    // With the scrape cadence forced to 0, the flight recorder refuses
    // to spawn its scraper thread — so the handle updates above are the
    // *whole* cost of observability: nothing samples the registry or
    // fills ring buffers behind the hot path's back.
    mq_obs::set_scrape_ms_override(Some(0));
    let registry = std::sync::Arc::new(registry);
    let recorder = std::sync::Arc::new(mq_obs::FlightRecorder::new(&registry));
    assert!(
        recorder
            .start_scraper(std::sync::Arc::clone(&registry))
            .is_none(),
        "MQ_SCRAPE_MS=0 must keep the flight recorder fully off"
    );
    mq_obs::set_scrape_ms_override(None);
}
