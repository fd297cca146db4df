//! The three workloads: their universes, queries, server configs and the
//! seed-determined script of market ticks both the wire run and the
//! in-process replay follow.

use bondlab::RateSeries;
use va_server::proto::WireQuery;
use va_server::ServerConfig;
use vao::ops::selection::CmpOp;

/// One relation the workload hosts.
#[derive(Clone, Debug)]
pub struct RelationPlan {
    /// Catalog name (`"default"` for the in-memory paper workloads).
    pub name: &'static str,
    /// Universe seed.
    pub seed: u64,
    /// Bonds in the universe.
    pub bonds: usize,
    /// Standing subscriptions, with priorities, made at set-up.
    pub queries: Vec<(WireQuery, u32)>,
}

/// One request the script issues between or as market ticks.
#[derive(Clone, Debug)]
pub enum Step {
    /// `TICK` one relation (index into [`Workload::relations`]) at a rate.
    Tick { relation: usize, rate: f64 },
    /// Replace the relation's oldest churn session: `UNSUBSCRIBE` it, then
    /// `SUBSCRIBE` this query.
    Churn {
        relation: usize,
        query: WireQuery,
        priority: u32,
    },
}

/// A fully specified workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Server configuration (calibration stays off everywhere).
    pub config: ServerConfig,
    /// Whether the server journals to a catalog data dir.
    pub durable: bool,
    /// Hosted relations.
    pub relations: Vec<RelationPlan>,
    /// Market ticks every run completes, whatever `--seconds` says. The
    /// deterministic metrics (`work_units_per_tick`, `partial_answer_frac`)
    /// are taken over exactly these, so they repeat bit for bit per seed.
    pub first_pass: usize,
    seed: u64,
    rates: Vec<f64>,
}

/// The paper's universe seed and size (§6: 500 bonds).
const PAPER_SEED: u64 = 1994;
const PAPER_BONDS: usize = 500;
/// The two tenant universes: different seeds, 64 bonds each.
const TENANT_SEEDS: [u64; 2] = [2006, 1207];
const TENANT_BONDS: usize = 64;
/// Per-tick work budget of a tenant tick; roughly two thirds of a cold
/// 64-bond tick, so cold ticks end Partial and warm ones Final.
const TENANT_BUDGET: u64 = 2_000_000;
/// Journal events between snapshots on the durable workload.
const TENANT_SNAPSHOT_EVERY: u64 = 16;
/// Rates a tenant cycles through; a fresh one replaces a slot now and then.
const RATE_SLOTS: usize = 4;
/// One market tick in this many brings a fresh (cold) rate.
const FRESH_RATE_ONE_IN: u64 = 8;
/// Market ticks between session churns (alternating relations).
const CHURN_EVERY: usize = 4;

/// The harness's 8-query multi-trader template: MAX at two precisions,
/// portfolio SUMs at two tolerances, a SELECT/COUNT pair on one
/// predicate, MIN and a top-5.
fn trader_template() -> Vec<(WireQuery, u32)> {
    vec![
        (WireQuery::Max { epsilon: 1.0 }, 1),
        (
            WireQuery::Sum {
                weights: None,
                epsilon: 50.0,
            },
            1,
        ),
        (
            WireQuery::Selection {
                op: CmpOp::Gt,
                constant: 100.0,
            },
            1,
        ),
        (WireQuery::Min { epsilon: 1.0 }, 1),
        (WireQuery::TopK { k: 5, epsilon: 1.0 }, 1),
        (
            WireQuery::Count {
                op: CmpOp::Gt,
                constant: 100.0,
                slack: 25,
            },
            1,
        ),
        (WireQuery::Max { epsilon: 0.5 }, 1),
        (
            WireQuery::Sum {
                weights: None,
                epsilon: 60.0,
            },
            1,
        ),
    ]
}

/// The tenant template: the trader template at mixed priorities plus the
/// three sketch-backed queries, and one churn slot.
fn tenant_template() -> Vec<(WireQuery, u32)> {
    let mut q: Vec<(WireQuery, u32)> = trader_template()
        .into_iter()
        .enumerate()
        .map(|(i, (query, _))| (query, 1 + (i % 3) as u32))
        .collect();
    q.push((WireQuery::Median { epsilon: 0.5 }, 2));
    q.push((
        WireQuery::Percentile {
            phi: 0.9,
            epsilon: 0.5,
        },
        1,
    ));
    q.push((WireQuery::HeavyHitters { k: 3, epsilon: 2.0 }, 3));
    q.push(churn_query(0));
    q
}

/// The `n`-th query of the churn rotation.
fn churn_query(n: u64) -> (WireQuery, u32) {
    let eps = [0.25, 0.75, 0.4][(n % 3) as usize];
    let query = match n % 4 {
        0 => WireQuery::Max { epsilon: eps },
        1 => WireQuery::Selection {
            op: CmpOp::Lt,
            constant: 95.0 + n as f64 % 10.0,
        },
        2 => WireQuery::TopK { k: 3, epsilon: eps },
        _ => WireQuery::Sum {
            weights: None,
            epsilon: 20.0 + eps * 10.0,
        },
    };
    (query, 1 + (n % 3) as u32)
}

/// SplitMix64: a stateless, seedable mixer for per-tick choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Builds the named workload for `seed`; `bonds` overrides the
    /// universe size (for smoke runs). `None` for an unknown name.
    pub fn new(name: &str, seed: u64, bonds: Option<usize>) -> Option<Self> {
        let series = RateSeries::january_1994();
        let paper = |name: &'static str, config: ServerConfig| Workload {
            name,
            config,
            durable: false,
            relations: vec![RelationPlan {
                name: va_server::DEFAULT_RELATION,
                seed: PAPER_SEED,
                bonds: bonds.unwrap_or(PAPER_BONDS),
                queries: trader_template(),
            }],
            first_pass: 3,
            seed,
            // Enough fresh intraday rates for any run: one per tick.
            rates: series
                .intraday_ticks(4096, seed)
                .iter()
                .map(|t| t.rate)
                .collect(),
        };
        match name {
            "paper-serial" => Some(paper("paper-serial", ServerConfig::default())),
            "paper-batched" => Some(paper(
                "paper-batched",
                ServerConfig {
                    workers: 2,
                    batch: Some(64),
                    ..ServerConfig::default()
                },
            )),
            "tenants-durable" => Some(Workload {
                name: "tenants-durable",
                config: ServerConfig {
                    snapshot_every: TENANT_SNAPSHOT_EVERY,
                    ..ServerConfig::budgeted(TENANT_BUDGET)
                },
                durable: true,
                relations: ["alpha", "beta"]
                    .iter()
                    .zip(TENANT_SEEDS)
                    .map(|(&name, seed)| RelationPlan {
                        name,
                        seed,
                        bonds: bonds.unwrap_or(TENANT_BONDS),
                        queries: tenant_template(),
                    })
                    .collect(),
                first_pass: 48,
                seed,
                rates: series
                    .intraday_ticks(4096, seed)
                    .iter()
                    .map(|t| t.rate)
                    .collect(),
            }),
            _ => None,
        }
    }

    /// The requests of market tick `i` (0-based), in order. Pure in
    /// `(seed, i)` apart from the rate slots, which [`Script`] threads.
    fn market_tick(&self, i: usize, script: &mut Script) -> Vec<Step> {
        if !self.durable {
            return vec![Step::Tick {
                relation: 0,
                rate: self.rates[i % self.rates.len()],
            }];
        }
        let mut steps = Vec::new();
        if i > 0 && i.is_multiple_of(CHURN_EVERY) {
            let n = (i / CHURN_EVERY) as u64;
            let (query, priority) = churn_query(n);
            steps.push(Step::Churn {
                relation: (n % self.relations.len() as u64) as usize,
                query,
                priority,
            });
        }
        for relation in 0..self.relations.len() {
            let h = mix(self.seed ^ mix((i * self.relations.len() + relation) as u64));
            let slots = &mut script.slots[relation];
            let slot = (h % RATE_SLOTS as u64) as usize;
            if (h >> 32).is_multiple_of(FRESH_RATE_ONE_IN) {
                slots[slot] = self.rates[script.fresh % self.rates.len()];
                script.fresh += 1;
            }
            steps.push(Step::Tick {
                relation,
                rate: slots[slot],
            });
        }
        steps
    }

    /// A fresh script cursor at market tick 0.
    pub fn script(&self) -> Script {
        let slots: Vec<f64> = self.rates[..RATE_SLOTS].to_vec();
        Script {
            next: 0,
            fresh: RATE_SLOTS,
            slots: vec![slots; self.relations.len()],
        }
    }
}

/// Cursor over a workload's market ticks. Two cursors over the same
/// workload yield identical steps, which is what lets the replay follow
/// the wire run request for request.
#[derive(Clone, Debug)]
pub struct Script {
    next: usize,
    fresh: usize,
    slots: Vec<Vec<f64>>,
}

impl Script {
    /// The requests of the next market tick.
    pub fn next_market_tick(&mut self, workload: &Workload) -> Vec<Step> {
        let i = self.next;
        self.next += 1;
        workload.market_tick(i, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["paper-serial", "paper-batched", "tenants-durable"];

    fn steps(w: &Workload, n: usize) -> Vec<String> {
        let mut s = w.script();
        (0..n)
            .flat_map(|_| s.next_market_tick(w))
            .map(|st| format!("{st:?}"))
            .collect()
    }

    #[test]
    fn scripts_repeat_per_seed_and_differ_across_seeds() {
        for name in NAMES {
            let a = Workload::new(name, 7, Some(4)).expect("known workload");
            let b = Workload::new(name, 7, Some(4)).expect("known workload");
            let c = Workload::new(name, 8, Some(4)).expect("known workload");
            assert_eq!(steps(&a, 40), steps(&b, 40), "{name}");
            assert_ne!(steps(&a, 40), steps(&c, 40), "{name}");
        }
        assert!(Workload::new("nope", 1, None).is_none());
    }

    #[test]
    fn tenant_script_churns_and_reuses_rates() {
        let w = Workload::new("tenants-durable", 3, None).expect("known workload");
        let mut s = w.script();
        let all: Vec<Step> = (0..64).flat_map(|_| s.next_market_tick(&w)).collect();
        let churns = all
            .iter()
            .filter(|s| matches!(s, Step::Churn { .. }))
            .count();
        assert_eq!(churns, 63 / CHURN_EVERY);
        let mut rates: Vec<u64> = all
            .iter()
            .filter_map(|s| match s {
                Step::Tick { rate, .. } => Some(rate.to_bits()),
                Step::Churn { .. } => None,
            })
            .collect();
        let ticks = rates.len();
        rates.sort_unstable();
        rates.dedup();
        assert!(
            rates.len() * 4 < ticks,
            "{} distinct of {ticks}",
            rates.len()
        );
    }
}
