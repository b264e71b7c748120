//! The correctness check run after every measurement.
//!
//! * Every `ok mine` reply must be byte-identical (up to ` req=` and
//!   ` deduped`) to `find_rules_seq` rendered the way the protocol
//!   renders it, on the database at the reply's `version=`. Each
//!   version is rebuilt from the seed by replaying the benchmark's own
//!   acknowledged appends in acknowledgement order.
//! * Every `append` must be acknowledged with strictly increasing
//!   versions and the row count the replay gives.

use crate::client::{field, ReplyHasher};
use crate::spec::{MineReq, Spec};
use mq_core::engine::find_rules::find_rules_seq;
use mq_core::instantiate::apply_instantiation;
use mq_core::parse::parse_metaquery;
use mq_relation::{Database, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Version of every freshly registered catalog entry.
pub const FIRST_VERSION: u64 = 1;

/// One observed `ok mine` reply.
#[derive(Clone, Copy, Debug)]
pub struct MineObs {
    pub req: usize,
    pub version: u64,
    pub hash: u64,
}

/// One acknowledged append: batch index and the `ok update …` line.
#[derive(Clone, Debug)]
pub struct AckObs {
    pub batch: usize,
    pub ack: String,
}

/// What the check found.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Distinct `(request, version)` pairs recomputed.
    pub pairs: usize,
    pub replies: usize,
    pub mismatches: usize,
    pub problems: Vec<String>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.mismatches == 0 && self.problems.is_empty()
    }
}

/// Hash of the reply the protocol must send for `req` on `db` at
/// `version`.
pub fn expected_hash(spec: &Spec, req: &MineReq, db: &Database, version: u64) -> u64 {
    let mq = parse_metaquery(&req.metaquery).expect("workload metaqueries parse");
    let (ty, thresholds) = req.params();
    let mut h = ReplyHasher::new();
    match find_rules_seq(db, &mq, ty, thresholds) {
        Ok(answers) => {
            h.header(&format!(
                "ok mine {} answer(s) version={version}",
                answers.len()
            ));
            for a in &answers {
                match apply_instantiation(db, &mq, &a.inst) {
                    Ok(rule) => h.line(&format!(
                        "rule {} sup={} cvr={} cnf={}",
                        rule.render(db),
                        a.indices.sup,
                        a.indices.cvr,
                        a.indices.cnf
                    )),
                    Err(e) => h.line(&format!("rule <unrenderable: {e}>")),
                }
            }
        }
        // The server would have answered `err`; no `ok` reply matches.
        Err(e) => h.line(&format!("err {e} ({})", spec.dbs[req.db].name)),
    }
    h.finish()
}

/// Check every reply and acknowledgement; `acks` in acknowledgement
/// order. Recomputation runs on up to `threads` threads.
pub fn check(spec: &Spec, mines: &[MineObs], acks: &[AckObs], threads: usize) -> CheckReport {
    let mut report = CheckReport {
        replies: mines.len(),
        ..CheckReport::default()
    };
    // Per database: the batches in acknowledgement order with the
    // version and row count each acknowledgement claims.
    let mut per_db: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); spec.dbs.len()];
    for a in acks {
        let batch = spec.append(a.batch);
        let (Some(version), Some(rows)) = (field(&a.ack, "version"), field(&a.ack, "rows")) else {
            report
                .problems
                .push(format!("malformed append ack `{}`", a.ack));
            continue;
        };
        let log = &mut per_db[batch.db];
        let prev = log.last().map_or(FIRST_VERSION, |&(_, v, _)| v);
        if version <= prev {
            report.problems.push(format!(
                "append ack version {version} not above previous {prev} (`{}`)",
                a.ack
            ));
        }
        log.push((a.batch, version, rows));
    }
    // Needed (db -> version -> requests).
    let mut needed: Vec<BTreeMap<u64, BTreeSet<usize>>> = vec![BTreeMap::new(); spec.dbs.len()];
    for m in mines {
        needed[spec.requests[m.req].db]
            .entry(m.version)
            .or_default()
            .insert(m.req);
    }
    // Jobs: one replay per (db, worker); each worker recomputes every
    // `threads`-th version of its database.
    let threads = threads.max(1);
    let results: Vec<Replayed> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (db_index, versions) in needed.iter().enumerate() {
            if versions.is_empty() && per_db[db_index].is_empty() {
                continue;
            }
            for w in 0..threads {
                let log = &per_db[db_index];
                handles.push(s.spawn(move || replay(spec, db_index, versions, log, w, threads)));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    let mut expected: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for (hashes, problems) in results {
        expected.extend(hashes);
        report.problems.extend(problems);
    }
    report.pairs = expected.len();
    for m in mines {
        if expected.get(&(m.req, m.version)) != Some(&m.hash) {
            report.mismatches += 1;
        }
    }
    report
}

/// One replay's expected hashes, keyed `(request, version)`, and the
/// problems it found.
type Replayed = (Vec<((usize, u64), u64)>, Vec<String>);

/// Rebuild `db_index` version by version; recompute the expected hashes
/// of worker `w`'s share of the needed versions, and (worker 0) check
/// every acknowledged row count.
fn replay(
    spec: &Spec,
    db_index: usize,
    needed: &BTreeMap<u64, BTreeSet<usize>>,
    log: &[(usize, u64, u64)],
    w: usize,
    threads: usize,
) -> Replayed {
    let mut db = spec.dbs[db_index].build();
    let mut version = FIRST_VERSION;
    let mut applied = 0;
    let mut hashes = Vec::new();
    let mut problems = Vec::new();
    for (i, (&want, reqs)) in needed.iter().enumerate() {
        // Apply acknowledged batches up to `want`.
        while applied < log.len() && log[applied].1 <= want {
            let (batch, v, rows) = log[applied];
            let len = apply(&mut db, &spec.append(batch));
            if w == 0 && len != rows {
                problems.push(format!(
                    "append to version {v}: ack rows={rows}, replay has {len}"
                ));
            }
            version = v;
            applied += 1;
        }
        if version != want {
            // No acknowledged append produced this version.
            problems.push(format!(
                "reply at version {want} of `{}`, which no acknowledged append produced",
                spec.dbs[db_index].name
            ));
            continue;
        }
        if i % threads != w {
            continue;
        }
        for &r in reqs {
            let req = &spec.requests[r];
            hashes.push(((r, want), expected_hash(spec, req, &db, want)));
        }
    }
    if w == 0 {
        while applied < log.len() {
            let (batch, v, rows) = log[applied];
            let len = apply(&mut db, &spec.append(batch));
            if len != rows {
                problems.push(format!(
                    "append to version {v}: ack rows={rows}, replay has {len}"
                ));
            }
            applied += 1;
        }
    }
    if w != 0 {
        // Only worker 0 reports replay problems, once.
        problems.clear();
    }
    (hashes, problems)
}

/// Apply one batch the way the `append` command does; the relation's
/// new row count.
fn apply(db: &mut Database, batch: &crate::spec::AppendBatch) -> u64 {
    let rel = db.rel_id(&batch.rel).expect("append targets exist");
    for &[a, b] in &batch.rows {
        db.insert(rel, vec![Value::Int(a), Value::Int(b)].into_boxed_slice());
    }
    db.relation(rel).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::reply_hash;
    use mq_service::{handle_line, MqService};

    /// The `cycle(4)` request of `mine_light`.
    const REQ: usize = 3;

    /// Serve the workload's databases in process and collect real
    /// replies: version 1, then after one append, version 2.
    fn served_replies() -> (Spec, Vec<String>, Vec<String>, String) {
        let spec = Spec::new("mine_light", 3).expect("known workload");
        let service = MqService::new();
        for db in &spec.dbs {
            service.register(db.name, db.build()).expect("register");
        }
        let line = spec.requests[REQ].line(&spec);
        let v1 = handle_line(&service, &line).lines().to_vec();
        // Find a batch that lands in the mined database.
        let db = spec.requests[REQ].db;
        let batch = (0..)
            .find(|&i| spec.append(i).db == db)
            .expect("a batch for the db");
        let ack = handle_line(&service, &spec.append(batch).line(&spec)).lines()[0].clone();
        let v2 = handle_line(&service, &line).lines().to_vec();
        assert!(v1[0].contains("version=1") && v2[0].contains("version=2"));
        assert_ne!(
            reply_hash(&v1),
            reply_hash(&v2),
            "the append must change the answers"
        );
        (spec, v1, v2, format!("{batch} {ack}"))
    }

    fn obs(lines: &[String]) -> MineObs {
        MineObs {
            req: REQ,
            version: field(&lines[0], "version").expect("version"),
            hash: reply_hash(lines),
        }
    }

    #[test]
    fn checker_accepts_real_replies_and_rejects_bad_ones() {
        let (spec, v1, v2, ack) = served_replies();
        let (batch, ack) = ack.split_once(' ').expect("batch and ack");
        let acks = [AckObs {
            batch: batch.parse().expect("batch index"),
            ack: ack.to_string(),
        }];
        let good = check(&spec, &[obs(&v1), obs(&v2)], &acks, 2);
        assert!(good.ok(), "{good:?}");
        assert_eq!(good.pairs, 2);

        // One corrupted rule line.
        let mut corrupt = v2.clone();
        let last = corrupt.len() - 1;
        corrupt[last] = corrupt[last].replacen("cnf=", "cnf=1", 1);
        let bad = check(&spec, &[obs(&corrupt)], &acks, 1);
        assert_eq!(bad.mismatches, 1);

        // Version-1 answers claiming version 2.
        let mut stale = v1.clone();
        stale[0] = stale[0].replace("version=1", "version=2");
        let bad = check(&spec, &[obs(&stale)], &acks, 1);
        assert_eq!(bad.mismatches, 1);

        // A version no acknowledged append produced.
        let mut unknown = v2.clone();
        unknown[0] = unknown[0].replace("version=2", "version=3");
        let bad = check(&spec, &[obs(&unknown)], &acks, 1);
        assert!(!bad.ok());

        // An acknowledgement with the wrong row count.
        let wrong_rows = [AckObs {
            batch: acks[0].batch,
            ack: acks[0].ack.replace("rows=", "rows=9"),
        }];
        assert!(!check(&spec, &[obs(&v1)], &wrong_rows, 1).ok());
    }
}
