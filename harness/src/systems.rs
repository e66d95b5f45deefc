//! The three transaction systems every workload runs on, emitted as
//! `SystemSpec` JSON — the only thing the server ever sees of them.
//!
//! The seed renames and reorders; it never changes a system's *shape*.
//! The driver compares runs made with different seeds, so a seed that
//! changed the interaction graph would turn certification cost
//! (`register_ms`) into noise. What the seed does pick is which accounts
//! `wide-bank` transfers between and the order entities are declared in,
//! so no run depends on a particular naming.

use ddlf_model::{EntitySpec, SystemSpec, TransactionSpec};

/// SplitMix64: the harness's only random source, so a seed fixes every
/// generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which system a workload registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// 1024 accounts on 8 sites, 16 two-phase transfers: certified, low
    /// contention, certifies in milliseconds.
    WideBank,
    /// 9 templates that all lock `hot` first: certified, but Theorem 4
    /// enumerates every cycle of a complete interaction graph.
    HotOrdered,
    /// 4 pairs locking `hot` and a partner in opposite orders: rejected
    /// by Theorem 3, runs wait-die.
    HotCrossed,
}

pub const WIDE_BANK_ACCOUNTS: usize = 1024;
pub const WIDE_BANK_SITES: usize = 8;
pub const WIDE_BANK_TEMPLATES: usize = 16;
pub const HOT_ORDERED_TEMPLATES: usize = 9;
pub const HOT_CROSSED_TEMPLATES: usize = 8;

impl System {
    pub fn spec(self, seed: u64) -> SystemSpec {
        let mut rng = Rng::new(seed ^ 0x5EED_5157);
        match self {
            System::WideBank => wide_bank(&mut rng),
            System::HotOrdered => hot_ordered(&mut rng),
            System::HotCrossed => hot_crossed(&mut rng),
        }
    }
}

fn txn(name: String, ops: [String; 4]) -> TransactionSpec {
    TransactionSpec {
        name,
        ops: ops.to_vec(),
        arcs: None,
    }
}

/// `wide-bank(E=1024, S=8, T=16)`: template `t` is the two-phase transfer
/// `L x_t, L x_{t+1}, U x_t, U x_{t+1}` over 17 seeded accounts
/// `x_0 < … < x_16`. Every template locks in account order, so the
/// system certifies; neighbours share one account, so the interaction
/// graph is a path — the same 15 Theorem 3 pairs and no cycle on every
/// seed. Account `i` lives on site `i mod 8` and `x_t` is picked on site
/// `t mod 8`, so the shard pattern repeats across seeds too.
fn wide_bank(rng: &mut Rng) -> SystemSpec {
    let entities = (0..WIDE_BANK_ACCOUNTS)
        .map(|i| EntitySpec {
            name: account(i),
            site: (i % WIDE_BANK_SITES) as u32,
        })
        .collect();
    let mut rows: Vec<usize> = (0..WIDE_BANK_ACCOUNTS / WIDE_BANK_SITES).collect();
    rng.shuffle(&mut rows);
    rows.truncate(WIDE_BANK_TEMPLATES + 1);
    rows.sort_unstable();
    let x: Vec<usize> = rows
        .iter()
        .enumerate()
        .map(|(t, row)| row * WIDE_BANK_SITES + t % WIDE_BANK_SITES)
        .collect();
    let transactions = (0..WIDE_BANK_TEMPLATES)
        .map(|t| {
            let (a, b) = (account(x[t]), account(x[t + 1]));
            txn(
                format!("transfer_{t:02}"),
                [
                    format!("L {a}"),
                    format!("L {b}"),
                    format!("U {a}"),
                    format!("U {b}"),
                ],
            )
        })
        .collect();
    SystemSpec {
        entities,
        transactions,
    }
}

pub fn account(i: usize) -> String {
    format!("acct_{i:04}")
}

/// `hot` on site 0 and one partner per template spread over sites 1–3,
/// declared in a seeded order.
fn hot_entities(partners: usize, rng: &mut Rng) -> Vec<EntitySpec> {
    let mut entities: Vec<EntitySpec> = (0..partners)
        .map(|j| EntitySpec {
            name: format!("p_{j}"),
            site: 1 + (j % 3) as u32,
        })
        .collect();
    entities.push(EntitySpec {
        name: "hot".to_string(),
        site: 0,
    });
    rng.shuffle(&mut entities);
    entities
}

/// `hot-ordered(T=9)`: every template is `L hot, L p_t, U hot, U p_t`.
/// All nine share `hot`, so the interaction graph is complete and
/// Theorem 4 walks all 62 814 of its cycles before it certifies.
fn hot_ordered(rng: &mut Rng) -> SystemSpec {
    SystemSpec {
        entities: hot_entities(HOT_ORDERED_TEMPLATES, rng),
        transactions: (0..HOT_ORDERED_TEMPLATES)
            .map(|t| {
                txn(
                    format!("ordered_{t}"),
                    [
                        "L hot".to_string(),
                        format!("L p_{t}"),
                        "U hot".to_string(),
                        format!("U p_{t}"),
                    ],
                )
            })
            .collect(),
    }
}

/// `hot-crossed(T=8)`: pair `j` is `L hot, L p_j, U hot, U p_j` against
/// `L p_j, L hot, U p_j, U hot` — the classic opposite-order deadlock,
/// rejected at the first Theorem 3 pair.
fn hot_crossed(rng: &mut Rng) -> SystemSpec {
    SystemSpec {
        entities: hot_entities(HOT_CROSSED_TEMPLATES / 2, rng),
        transactions: (0..HOT_CROSSED_TEMPLATES)
            .map(|t| {
                let p = format!("p_{}", t / 2);
                let (first, second) = if t % 2 == 0 {
                    ("hot".to_string(), p)
                } else {
                    (p, "hot".to_string())
                };
                txn(
                    format!("crossed_{t}"),
                    [
                        format!("L {first}"),
                        format!("L {second}"),
                        format!("U {first}"),
                        format!("U {second}"),
                    ],
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_core::{certify_safe_and_deadlock_free, Certificate, CertifyOptions, Violation};
    use ddlf_engine::TemplateRegistry;

    #[test]
    fn same_seed_gives_byte_identical_json() {
        let json = |system: System, seed| serde_json::to_string(&system.spec(seed)).unwrap();
        for system in [System::WideBank, System::HotOrdered, System::HotCrossed] {
            assert_eq!(json(system, 7), json(system, 7));
            assert_ne!(json(system, 7), json(system, 8));
        }
    }

    #[test]
    fn wide_bank_certifies_with_the_same_shape_on_every_seed() {
        for seed in 0..8 {
            let sys = System::WideBank.spec(seed).build().unwrap();
            assert_eq!(sys.db().entity_count(), WIDE_BANK_ACCOUNTS);
            assert_eq!(sys.db().site_count(), WIDE_BANK_SITES);
            assert_eq!(
                sys.interaction_graph().edge_count(),
                WIDE_BANK_TEMPLATES - 1
            );
            match certify_safe_and_deadlock_free(&sys, CertifyOptions::default()) {
                Ok(Certificate::Many(cert)) => {
                    assert_eq!(cert.pairs_checked, WIDE_BANK_TEMPLATES - 1);
                    assert_eq!(cert.cycles_checked, 0);
                }
                other => panic!("wide-bank must certify by Theorem 4, got {other:?}"),
            }
        }
    }

    #[test]
    fn hot_ordered_certifies_after_exactly_62814_cycles() {
        let sys = System::HotOrdered.spec(3).build().unwrap();
        match certify_safe_and_deadlock_free(&sys, CertifyOptions::default()) {
            Ok(Certificate::Many(cert)) => {
                assert_eq!(cert.pairs_checked, 36);
                assert_eq!(cert.cycles_checked, 62_814);
                assert_eq!(cert.orderings_checked, 986_328);
            }
            other => panic!("hot-ordered must certify by Theorem 4, got {other:?}"),
        }
    }

    #[test]
    fn hot_crossed_is_rejected_and_registers_as_fallback() {
        let sys = System::HotCrossed.spec(3).build().unwrap();
        assert!(matches!(
            certify_safe_and_deadlock_free(&sys, CertifyOptions::default()),
            Err(Violation::Pair { .. })
        ));
        let registry = TemplateRegistry::register(sys);
        assert!(!registry.verdict().is_certified());
    }
}
