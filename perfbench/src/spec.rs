//! The three workloads, generated from the seed.
//!
//! Every database, request rotation and append batch comes from the
//! `--seed` argument; the server receives only these generated inputs.
//! A random database has a fixed shape per workload, drawn once from
//! `mq_datagen::RandomDbSpec`; the seed relabels its values through a
//! permutation of the domain and shuffles its row order. Databases of
//! different seeds are therefore isomorphic: searches on them do the
//! same amount of work and find the same number of answers, so runs on
//! different seeds can be compared. Small random databases drawn afresh
//! per seed differ in cost by tens of percent.

use mq_core::engine::Thresholds;
use mq_core::instantiate::InstType;
use mq_datagen::{metaqueries, telecom, RandomDbSpec};
use mq_relation::{Database, Frac, Tuple, Value};
use rand::prelude::*;
use std::time::Duration;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["mine_light", "mine_heavy", "mixed_rw"];

/// Requests in each connection's rotation.
const ROTATION_LEN: usize = 1 << 15;

/// How to build one served database.
#[derive(Clone, Debug)]
pub enum DbSource {
    /// The paper's Figure 1 telecom database (fixed, symbol-valued).
    Telecom,
    /// A uniform random database of binary relations `r0, r1, ...`,
    /// drawn with the fixed `shape` seed, relabelled by `relabel`.
    Random {
        relations: usize,
        rows: usize,
        domain: i64,
        shape: u64,
        relabel: u64,
    },
}

/// One served database: catalog name plus how to build it.
#[derive(Clone, Debug)]
pub struct DbSpec {
    pub name: &'static str,
    pub source: DbSource,
}

impl DbSpec {
    /// Build the database (deterministic: the checker rebuilds it).
    pub fn build(&self) -> Database {
        match &self.source {
            DbSource::Telecom => telecom::db1(),
            &DbSource::Random {
                relations,
                rows,
                domain,
                shape,
                relabel,
            } => {
                let base = RandomDbSpec {
                    n_relations: relations,
                    arity: 2,
                    rows,
                    domain,
                    seed: shape,
                }
                .generate();
                relabelled(&base, domain, relabel)
            }
        }
    }

    fn domain(&self) -> Option<i64> {
        match self.source {
            DbSource::Telecom => None,
            DbSource::Random { domain, .. } => Some(domain),
        }
    }

    fn relations(&self) -> usize {
        match self.source {
            DbSource::Telecom => 3,
            DbSource::Random { relations, .. } => relations,
        }
    }
}

/// The seeded renaming of relations: relation `r{i}` of the fixed
/// shape is served as `r{rename[i]}`.
fn rename(relations: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1a_be15);
    let mut perm: Vec<usize> = (0..relations).collect();
    perm.shuffle(&mut rng);
    perm
}

/// An isomorphic copy of `db`, whose relations are `r0, r1, ...` over
/// integers in `0..domain`: relations are renamed by [`rename`], every
/// value `v` becomes `perm[v]` for a seeded permutation `perm`, and each
/// relation's rows are inserted in a seeded order.
fn relabelled(db: &Database, domain: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<i64> = (0..domain).collect();
    perm.shuffle(&mut rng);
    let names = rename(db.num_relations(), seed);
    let mut out = Database::new();
    for (i, rel) in db.relations().enumerate() {
        let id = out.add_relation(format!("r{}", names[i]), rel.arity());
        let mut rows: Vec<Tuple> = rel
            .rows()
            .map(|row| {
                row.iter()
                    .map(|v| match *v {
                        Value::Int(i) => Value::Int(perm[i as usize]),
                        sym => sym,
                    })
                    .collect()
            })
            .collect();
        rows.shuffle(&mut rng);
        for row in rows {
            out.insert(id, row);
        }
    }
    out
}

/// One `mine` request.
#[derive(Clone, Debug)]
pub struct MineReq {
    /// Index into [`Spec::dbs`].
    pub db: usize,
    /// Protocol flags, e.g. `type=2` or `sup=1/10 cvr=1/10 cnf=1/10`.
    pub flags: &'static str,
    pub metaquery: String,
}

impl MineReq {
    /// The protocol line (no newline).
    pub fn line(&self, spec: &Spec) -> String {
        let name = spec.dbs[self.db].name;
        if self.flags.is_empty() {
            format!("mine {name} :: {}", self.metaquery)
        } else {
            format!("mine {name} {} :: {}", self.flags, self.metaquery)
        }
    }

    /// Instantiation type and thresholds the flags select.
    pub fn params(&self) -> (InstType, Thresholds) {
        let mut ty = InstType::Zero;
        let mut thresholds = Thresholds::none();
        for flag in self.flags.split_whitespace() {
            let (key, value) = flag.split_once('=').expect("flag is key=value");
            let frac = || value.parse::<Frac>().expect("threshold is a fraction");
            match key {
                "type" => {
                    ty = match value {
                        "0" => InstType::Zero,
                        "1" => InstType::One,
                        _ => InstType::Two,
                    }
                }
                "sup" => thresholds.sup = Some(frac()),
                "cvr" => thresholds.cvr = Some(frac()),
                "cnf" => thresholds.cnf = Some(frac()),
                other => panic!("unknown flag {other}"),
            }
        }
        (ty, thresholds)
    }
}

/// One `append` batch.
#[derive(Clone, Debug)]
pub struct AppendBatch {
    /// Index into [`Spec::dbs`].
    pub db: usize,
    pub rel: String,
    pub rows: Vec<[i64; 2]>,
}

impl AppendBatch {
    /// The protocol line (no newline).
    pub fn line(&self, spec: &Spec) -> String {
        let mut line = format!("append {} {}", spec.dbs[self.db].name, self.rel);
        for [a, b] in &self.rows {
            line.push_str(&format!(" {a},{b}"));
        }
        line
    }
}

/// An open-loop append stream beside the mines.
#[derive(Clone, Copy, Debug)]
pub struct AppendLoad {
    /// Batches per second, sent on schedule for the whole window.
    pub rate: f64,
    /// Fixed tail percentile of the append latencies (the tail rule at
    /// the planned count).
    pub tail_pct: u32,
}

/// A fully generated workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub seed: u64,
    pub dbs: Vec<DbSpec>,
    pub requests: Vec<MineReq>,
    /// Per mine connection, the seeded sequence of request indices it
    /// cycles through.
    pub rotations: Vec<Vec<usize>>,
    /// Closed-loop mine connections.
    pub mine_conns: usize,
    /// Each connection sends its own spelling of the requests (variables
    /// renamed), so concurrent identical searches are not coalesced by
    /// the service's dedup and the connections really search at once.
    private_spelling: bool,
    /// Appends beside the mines (`mixed_rw` only).
    pub appends: Option<AppendLoad>,
    /// Fixed tail percentile: the tail rule evaluated at the workload's
    /// planned sample count (see `stats::tail_rule`).
    pub mine_tail_pct: u32,
    /// Append targets, cycled: `(db, relation)`.
    append_targets: Vec<(usize, String)>,
    rows_per_append: usize,
    /// `(db, relation, relation)` whose rows feed the kernel timings.
    pub kernel_input: (usize, &'static str, &'static str),
}

impl Spec {
    /// Generate workload `name` from `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Spec> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d71_6265_6e63_6821);
        let relabel = rng.gen_range(0..u64::MAX);
        let light_flags = "sup=1/10 cvr=1/10 cnf=1/10";
        // Shapes are fixed per workload; only the relabelling is seeded.
        let random = |name, relations, rows, domain, shape| DbSpec {
            name,
            source: DbSource::Random {
                relations,
                rows,
                domain,
                shape,
                relabel,
            },
        };
        let mut spec = match name {
            // Small searches: per-request fixed costs dominate.
            "mine_light" => Spec {
                name: "mine_light",
                seed,
                dbs: vec![
                    DbSpec {
                        name: "tele",
                        source: DbSource::Telecom,
                    },
                    random("chain", 3, 50, 16, 0x11),
                    random("cyc", 2, 120, 18, 0x12),
                ],
                requests: vec![
                    MineReq {
                        db: 0,
                        flags: "type=0",
                        metaquery: "R(X,Z) <- P(X,Y), Q(Y,Z)".into(),
                    },
                    MineReq {
                        db: 0,
                        flags: "type=2",
                        metaquery: "R(X,Z) <- P(X,Y), Q(Y,Z)".into(),
                    },
                    MineReq {
                        db: 1,
                        flags: light_flags,
                        metaquery: metaqueries::chain(2).render(),
                    },
                    MineReq {
                        db: 2,
                        flags: light_flags,
                        metaquery: metaqueries::cycle(4).render(),
                    },
                ],
                rotations: Vec::new(),
                mine_conns: 2,
                private_spelling: false,
                appends: None,
                mine_tail_pct: 99,
                append_targets: Vec::new(),
                rows_per_append: 4,
                kernel_input: (2, "r0", "r1"),
            },
            // ~100 ms searches: planner, executor, memo and kernels.
            "mine_heavy" => Spec {
                name: "mine_heavy",
                seed,
                dbs: vec![
                    random("cyc", 4, 400, 60, 0x21),
                    random("chain", 8, 5000, 2500, 0x22),
                ],
                requests: vec![
                    MineReq {
                        db: 0,
                        flags: light_flags,
                        metaquery: metaqueries::cycle(4).render(),
                    },
                    MineReq {
                        db: 1,
                        flags: "sup=1/10 cvr=1/1000 cnf=1/1000",
                        metaquery: metaqueries::chain(2).render(),
                    },
                ],
                rotations: Vec::new(),
                mine_conns: 2,
                // Two searches on two cores, not one search shared.
                private_spelling: true,
                appends: None,
                mine_tail_pct: 90,
                append_targets: Vec::new(),
                rows_per_append: 4,
                kernel_input: (1, "r0", "r1"),
            },
            // Reads beside copy-on-write appends on one large database.
            "mixed_rw" => {
                // Shape relations (2i, 2i+1) as (J, K), under the seeded
                // renaming the served database uses.
                let names = rename(16, relabel);
                let requests = (0..8)
                    .map(|i| MineReq {
                        db: 0,
                        flags: "",
                        metaquery: format!(
                            "r{}(X,Z) <- r{}(X,Y), Q(Y,Z)",
                            names[2 * i + 1],
                            names[2 * i]
                        ),
                    })
                    .collect();
                Spec {
                    name: "mixed_rw",
                    seed,
                    dbs: vec![random("rw", 16, 20_000, 40_000, 0x31)],
                    requests,
                    rotations: Vec::new(),
                    mine_conns: 1,
                    private_spelling: false,
                    // Well below the ~10/s one core sustains for O(db)
                    // appends beside the reads.
                    appends: Some(AppendLoad {
                        rate: 2.5,
                        tail_pct: 75,
                    }),
                    mine_tail_pct: 95,
                    append_targets: Vec::new(),
                    rows_per_append: 8,
                    kernel_input: (0, "r0", "r1"),
                }
            }
            _ => return None,
        };
        spec.finish(&mut rng);
        Some(spec)
    }

    /// Private spellings, seeded rotations and append targets (every
    /// random relation).
    fn finish(&mut self, rng: &mut StdRng) {
        let n = self.requests.len();
        if self.private_spelling {
            // Connection c > 0 writes variable `Xi` as `Vc_i`.
            for c in 1..self.mine_conns {
                for i in 0..n {
                    let mut r = self.requests[i].clone();
                    r.metaquery = r.metaquery.replace('X', &format!("V{c}_"));
                    self.requests.push(r);
                }
            }
        }
        self.rotations = (0..self.mine_conns)
            .map(|c| {
                let base = if self.private_spelling { c * n } else { 0 };
                // Long enough that no run repeats it: with a short cycle
                // the connections fall into a seed-specific pattern of
                // which requests overlap, and the tail follows the seed.
                let mut rotation: Vec<usize> =
                    (base..base + n).cycle().take(ROTATION_LEN).collect();
                rotation.shuffle(rng);
                rotation
            })
            .collect();
        let mut targets: Vec<(usize, String)> = self
            .dbs
            .iter()
            .enumerate()
            .filter(|(_, db)| db.domain().is_some())
            .flat_map(|(i, db)| (0..db.relations()).map(move |r| (i, format!("r{r}"))))
            .collect();
        targets.shuffle(rng);
        self.append_targets = targets;
    }

    /// The `i`-th append batch (any `i`; deterministic in seed and `i`).
    pub fn append(&self, i: usize) -> AppendBatch {
        let (db, rel) = self.append_targets[i % self.append_targets.len()].clone();
        let domain = self.dbs[db]
            .domain()
            .expect("append targets are random dbs");
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ 0xa99e_7d00 ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let rows = (0..self.rows_per_append)
            .map(|_| [rng.gen_range(0..domain), rng.gen_range(0..domain)])
            .collect();
        AppendBatch { db, rel, rows }
    }

    /// Appends that go with a mine window of length `window`.
    pub fn appends_in(&self, window: Duration) -> usize {
        self.appends
            .map_or(0, |a| (window.as_secs_f64() * a.rate).floor() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in WORKLOADS {
            let a = Spec::new(name, 7).expect("known workload");
            let b = Spec::new(name, 7).expect("known workload");
            assert_eq!(a.rotations, b.rotations);
            assert_eq!(a.rotations.len(), a.mine_conns);
            let lines =
                |s: &Spec| -> Vec<String> { s.requests.iter().map(|r| r.line(s)).collect() };
            assert_eq!(lines(&a), lines(&b));
            assert_eq!(a.append(5).line(&a), b.append(5).line(&b));
            let c = Spec::new(name, 8).expect("known workload");
            assert_ne!(a.append(5).line(&a), c.append(5).line(&c));
        }
        assert!(Spec::new("nope", 1).is_none());
    }

    #[test]
    fn seeds_relabel_one_shape() {
        let a = Spec::new("mine_light", 1).expect("known workload");
        let b = Spec::new("mine_light", 2).expect("known workload");
        let (da, db) = (a.dbs[2].build(), b.dbs[2].build());
        let sizes = |d: &Database| -> Vec<usize> {
            let mut s: Vec<usize> = d.relations().map(|r| r.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes(&da), sizes(&db));
        assert_eq!(da.total_tuples(), db.total_tuples());
        let rows = |d: &Database| -> Vec<Tuple> {
            d.relations().flat_map(|r| r.rows().cloned()).collect()
        };
        assert_ne!(rows(&da), rows(&db));
        // The same search finds the same number of answers on both.
        let count = |s: &Spec, d: &Database| {
            let r = &s.requests[3];
            let mq = mq_core::parse::parse_metaquery(&r.metaquery).expect("parses");
            let (ty, thr) = r.params();
            mq_core::engine::find_rules::find_rules_seq(d, &mq, ty, thr)
                .expect("search")
                .len()
        };
        assert_eq!(count(&a, &da), count(&b, &db));
    }

    #[test]
    fn flags_round_trip_to_params() {
        let spec = Spec::new("mine_light", 1).expect("known workload");
        let (ty, thr) = spec.requests[1].params();
        assert_eq!(ty, InstType::Two);
        assert_eq!(thr, Thresholds::none());
        let (ty, thr) = spec.requests[2].params();
        assert_eq!(ty, InstType::Zero);
        assert_eq!(thr.cnf, Some(Frac::new(1, 10)));
    }
}
