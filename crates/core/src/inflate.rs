//! Certified **k-inflation**: multiprogramming as a certified quantity.
//!
//! The paper's theorems quantify over a *fixed* system `A`, so an engine
//! that wants `k_t` concurrent instances of template `t` on the
//! no-detector path must certify the inflated system
//! `A^k = {T_t#i : t ∈ A, i < k_t}` up front. This module provides
//!
//! * [`certify_inflated`] — certifies one inflation vector, routing
//!   through [`certify_safe_and_deadlock_free`] on the inflated system,
//!   short-circuiting single-template systems through the Theorem 5 /
//!   Corollary 3 certificate (which covers *unbounded* copies), and
//!   optionally falling back to an exhaustive deadlock-freedom-only
//!   search (budget-bounded) for systems that are deadlock-free without
//!   being safe — the regime Fig. 6 lives in;
//! * [`max_certified_inflation`] — a doubling-then-binary search for the
//!   largest *uniform* k that still certifies, sound because both
//!   safety-and-deadlock-freedom and deadlock-freedom are inherited by
//!   subsystems (an inflation that fails at k fails at every k' > k:
//!   run the extra copies not at all).
//!
//! The Fig. 6 warning is load-bearing here: deadlock-freedom alone does
//! **not** lift from 2 copies to 3 (Theorem 5 fails for DF alone), so the
//! DF-only fallback re-checks *each* probed k exhaustively instead of
//! extrapolating.

use crate::certify::{certify_safe_and_deadlock_free, CertifyOptions, Violation};
use crate::copies::{copies_safe_df, CopiesCertificate, CopiesViolation};
use crate::explore::{Explorer, Verdict};
use ddlf_model::{ModelError, TransactionSystem};

/// Options for inflation certification.
#[derive(Debug, Clone, Copy)]
pub struct InflateOptions {
    /// Passed through to the Theorem 3/4 certifier on the inflated
    /// system.
    pub certify: CertifyOptions,
    /// State budget for the exhaustive deadlock-freedom-only fallback
    /// that runs when the safe-and-deadlock-free certifier rejects;
    /// `0` disables the fallback. A DF-only certificate promises no
    /// stall and zero aborts but nothing about serializability, so the
    /// engine runs none: it floors such a request to a plan certified
    /// safe.
    pub explore_states: usize,
}

impl Default for InflateOptions {
    fn default() -> Self {
        Self {
            certify: CertifyOptions::default(),
            explore_states: 2_000_000,
        }
    }
}

/// Evidence that an inflation of the system is admissible on the
/// no-detector path.
#[derive(Debug, Clone)]
pub enum InflationCertificate {
    /// Theorem 5 / Corollary 3 on a single-template system: **any**
    /// number of copies is safe and deadlock-free. Valid for every
    /// inflation vector, so the admission gate may be unbounded.
    Unbounded(CopiesCertificate),
    /// The concrete inflated system passed
    /// [`certify_safe_and_deadlock_free`] (Theorems 3/4).
    SafeAndDeadlockFree {
        /// The certified inflation vector, template order.
        k: Vec<usize>,
    },
    /// The concrete inflated system was exhaustively verified
    /// deadlock-free within the state budget, but is **not** certified
    /// safe: no stall and zero aborts are guaranteed, serializability is
    /// not — audit the committed schedule.
    DeadlockFreeOnly {
        /// The certified inflation vector, template order.
        k: Vec<usize>,
        /// States the exhaustive search visited.
        states: usize,
    },
}

impl InflationCertificate {
    /// Whether the certificate also guarantees safety (every schedule
    /// serializable), not just deadlock-freedom.
    pub fn guarantees_safety(&self) -> bool {
        !matches!(self, InflationCertificate::DeadlockFreeOnly { .. })
    }

    /// Whether the certificate covers arbitrarily many copies.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, InflationCertificate::Unbounded(_))
    }
}

impl std::fmt::Display for InflationCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InflationCertificate::Unbounded(_) => {
                write!(f, "Theorem 5: unbounded copies safe and deadlock-free")
            }
            InflationCertificate::SafeAndDeadlockFree { k } => {
                write!(f, "inflation {k:?} safe and deadlock-free (Thm 3/4)")
            }
            InflationCertificate::DeadlockFreeOnly { k, states } => write!(
                f,
                "inflation {k:?} deadlock-free (exhaustive, {states} states) \
                 but not certified safe"
            ),
        }
    }
}

/// What the deadlock-freedom-only fallback concluded, when the
/// safe-and-deadlock-free certifier had already rejected.
#[derive(Debug, Clone)]
pub enum DfFallback {
    /// The fallback was disabled (`explore_states == 0`).
    NotTried,
    /// The exhaustive search reached a deadlock: the inflation is
    /// genuinely inadmissible without a detector.
    Deadlock,
    /// The state budget ran out before the search completed.
    Inconclusive {
        /// States visited when the budget was exhausted.
        states: usize,
    },
}

/// Why an inflation was not certified.
#[derive(Debug, Clone)]
pub enum InflationViolation {
    /// The inflation vector itself was malformed (wrong arity, zero
    /// copies).
    Model(ModelError),
    /// The certifier rejected the inflated system, and the DF-only
    /// fallback (if it ran) could not rescue it.
    Rejected {
        /// The rejected inflation vector.
        k: Vec<usize>,
        /// The safe-and-deadlock-free certifier's rejection.
        violation: Violation,
        /// The DF-only fallback's conclusion.
        fallback: DfFallback,
    },
}

impl std::fmt::Display for InflationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InflationViolation::Model(e) => write!(f, "bad inflation vector: {e}"),
            InflationViolation::Rejected {
                k,
                violation,
                fallback,
            } => {
                write!(f, "inflation {k:?} rejected: {violation}")?;
                match fallback {
                    DfFallback::NotTried => Ok(()),
                    DfFallback::Deadlock => {
                        write!(f, "; exhaustive search confirms a reachable deadlock")
                    }
                    DfFallback::Inconclusive { states } => write!(
                        f,
                        "; deadlock-freedom search inconclusive after {states} states"
                    ),
                }
            }
        }
    }
}

/// Certifies one inflation vector `k` of `sys` for the no-detector path.
///
/// Route: single-template systems go through Theorem 5 first (its
/// certificate covers every `k`); otherwise the inflated system is built
/// and certified safe-and-deadlock-free via Theorems 3/4; on rejection,
/// an exhaustive deadlock-freedom-only search (budget
/// [`InflateOptions::explore_states`]) may still admit the inflation
/// without the safety guarantee.
pub fn certify_inflated(
    sys: &TransactionSystem,
    k: &[usize],
    opts: InflateOptions,
) -> Result<InflationCertificate, InflationViolation> {
    let copies: Vec<_> = sys.iter().map(|(_, t)| copies_safe_df(t)).collect();
    certify_inflated_cached(sys, k, opts, &copies)
}

/// [`certify_inflated`] against precomputed per-template Theorem 5
/// verdicts, so a search over many `k` runs them once.
fn certify_inflated_cached(
    sys: &TransactionSystem,
    k: &[usize],
    opts: InflateOptions,
    copies: &[Result<CopiesCertificate, CopiesViolation>],
) -> Result<InflationCertificate, InflationViolation> {
    // Theorem 5 short-circuit: one template, unbounded copies.
    if sys.len() == 1 && k.len() == 1 && k[0] >= 1 {
        if let Ok(cert) = &copies[0] {
            return Ok(InflationCertificate::Unbounded(cert.clone()));
        }
    }
    let inflated = sys.inflate(k).map_err(InflationViolation::Model)?;

    // A template inflated to ≥ 2 copies whose self-pair fails Theorem 3
    // (= Corollary 3) dooms the safe-and-DF certification — skip straight
    // to its violation without enumerating interaction-graph cycles.
    let doomed_pair = sys.iter().find_map(|(t, _)| {
        if k[t.index()] < 2 {
            return None;
        }
        copies[t.index()].as_ref().err().map(|_| t)
    });
    let rejection = if let Some(t) = doomed_pair {
        let map = inflated.map();
        let i = map.copy_of(t, 0).expect("k ≥ 2");
        let j = map.copy_of(t, 1).expect("k ≥ 2");
        match crate::pairwise::pairwise_safe_df(inflated.system().txn(i), inflated.system().txn(j))
        {
            Err(violation) => Violation::Pair { i, j, violation },
            // Corollary 3 and Theorem 3 agree on self-pairs; defensively
            // fall through to the full certifier if they ever diverge.
            Ok(_) => match certify_safe_and_deadlock_free(inflated.system(), opts.certify) {
                Ok(_) => return Ok(InflationCertificate::SafeAndDeadlockFree { k: k.to_vec() }),
                Err(v) => v,
            },
        }
    } else {
        match certify_safe_and_deadlock_free(inflated.system(), opts.certify) {
            Ok(_) => return Ok(InflationCertificate::SafeAndDeadlockFree { k: k.to_vec() }),
            Err(v) => v,
        }
    };

    // Deadlock-freedom-only fallback: Fig. 6 shows this cannot be
    // extrapolated across k, so each inflation is searched exhaustively.
    if opts.explore_states == 0 {
        return Err(InflationViolation::Rejected {
            k: k.to_vec(),
            violation: rejection,
            fallback: DfFallback::NotTried,
        });
    }
    let ex = Explorer::new(inflated.system(), opts.explore_states);
    let (verdict, stats) = ex.find_deadlock();
    match verdict {
        Verdict::Holds => Ok(InflationCertificate::DeadlockFreeOnly {
            k: k.to_vec(),
            states: stats.states,
        }),
        Verdict::CounterExample(_) => Err(InflationViolation::Rejected {
            k: k.to_vec(),
            violation: rejection,
            fallback: DfFallback::Deadlock,
        }),
        Verdict::Inconclusive { states } => Err(InflationViolation::Rejected {
            k: k.to_vec(),
            violation: rejection,
            fallback: DfFallback::Inconclusive { states },
        }),
    }
}

/// The result of [`max_certified_inflation`].
#[derive(Debug, Clone)]
pub struct MaxInflation {
    /// The largest certified uniform inflation in `1..=cap`.
    pub k: usize,
    /// Whether the certificate covers arbitrarily many copies (Theorem
    /// 5); `k` then merely echoes `cap`.
    pub unbounded: bool,
    /// The certificate at `k`.
    pub certificate: InflationCertificate,
    /// Inflations actually certified or refuted during the search.
    pub probes: usize,
}

/// Finds the largest **uniform** inflation `k ∈ 1..=cap` such that `k`
/// copies of every template certify, by doubling then binary search —
/// sound because certifiability is antitone in `k` (subsystems inherit
/// both properties). Per-template Theorem 5 verdicts are computed once
/// and shared across all probes.
///
/// Returns `Err` with the `k = 1` rejection when even the base system
/// fails to certify (the caller's conservative floor is then the wait-die
/// path, not a smaller gate).
pub fn max_certified_inflation(
    sys: &TransactionSystem,
    opts: InflateOptions,
    cap: usize,
) -> Result<MaxInflation, InflationViolation> {
    let cap = cap.max(1);
    if sys.is_empty() {
        // Vacuously certified at any k (there is nothing to inflate);
        // `unbounded` stays false so it keeps agreeing with
        // `certificate.is_unbounded()`.
        return Ok(MaxInflation {
            k: cap,
            unbounded: false,
            certificate: InflationCertificate::SafeAndDeadlockFree { k: Vec::new() },
            probes: 0,
        });
    }
    let copies: Vec<_> = sys.iter().map(|(_, t)| copies_safe_df(t)).collect();

    // Theorem 5: a single certifiable template needs no search at all.
    if sys.len() == 1 {
        if let Ok(cert) = &copies[0] {
            return Ok(MaxInflation {
                k: cap,
                unbounded: true,
                certificate: InflationCertificate::Unbounded(cert.clone()),
                probes: 0,
            });
        }
    }

    let mut probes = 0usize;
    let mut probe = |k: usize| {
        probes += 1;
        certify_inflated_cached(sys, &vec![k; sys.len()], opts, &copies)
    };

    // k = 1 is the base system; its failure is the caller's failure.
    let mut best = probe(1)?;
    let mut lo = 1usize; // largest k known to certify
    let mut hi = None::<usize>; // smallest k known to fail

    // Doubling phase.
    let mut next = 2usize;
    while lo < cap && hi.is_none() {
        let k = next.min(cap);
        match probe(k) {
            Ok(cert) => {
                lo = k;
                best = cert;
            }
            Err(_) => hi = Some(k),
        }
        next = next.saturating_mul(2);
    }
    // Binary phase on (lo, hi).
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match probe(mid) {
                Ok(cert) => {
                    lo = mid;
                    best = cert;
                }
                Err(_) => hi = mid,
            }
        }
    }
    Ok(MaxInflation {
        k: lo,
        unbounded: best.is_unbounded(),
        certificate: best,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddlf_model::{Database, EntityId, Op, Transaction, TransactionSystem};

    fn strict_2pl(db: &Database, name: &str, order: &[u32]) -> Transaction {
        let ops: Vec<Op> = order
            .iter()
            .map(|&e| Op::lock(EntityId(e)))
            .chain(order.iter().rev().map(|&e| Op::unlock(EntityId(e))))
            .collect();
        Transaction::from_total_order(name, &ops, db).unwrap()
    }

    /// The Fig. 6 syntax: `La→Ub, Lb→Uc, Lc→Ua` — 2 copies deadlock-free
    /// (not safe), 3 copies deadlock.
    fn fig6_system() -> TransactionSystem {
        let db = Database::one_entity_per_site(3);
        let (a, b_, c) = (EntityId(0), EntityId(1), EntityId(2));
        let mut b = Transaction::builder("T");
        let (la, ua) = b.lock_unlock(a);
        let (lb, ub) = b.lock_unlock(b_);
        let (lc, uc) = b.lock_unlock(c);
        b.arc(la, ub);
        b.arc(lb, uc);
        b.arc(lc, ua);
        let t = b.build(&db).unwrap();
        TransactionSystem::new(db, vec![t]).unwrap()
    }

    #[test]
    fn single_template_with_root_lock_is_unbounded() {
        let db = Database::one_entity_per_site(3);
        let t = strict_2pl(&db, "T", &[0, 1, 2]);
        let sys = TransactionSystem::new(db, vec![t]).unwrap();
        let cert = certify_inflated(&sys, &[64], InflateOptions::default()).unwrap();
        assert!(cert.is_unbounded() && cert.guarantees_safety());
        let max = max_certified_inflation(&sys, InflateOptions::default(), 1_000).unwrap();
        assert!(max.unbounded);
        assert_eq!(max.k, 1_000);
        assert_eq!(max.probes, 0, "Theorem 5 needs no search");
    }

    #[test]
    fn two_ordered_templates_inflate_safely() {
        let db = Database::one_entity_per_site(3);
        let t1 = strict_2pl(&db, "A", &[0, 1, 2]);
        let t2 = strict_2pl(&db, "B", &[0, 2]);
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        let cert = certify_inflated(&sys, &[3, 2], InflateOptions::default()).unwrap();
        assert!(matches!(
            cert,
            InflationCertificate::SafeAndDeadlockFree { ref k } if k == &[3, 2]
        ));
        let max = max_certified_inflation(&sys, InflateOptions::default(), 6).unwrap();
        assert_eq!(max.k, 6, "root-locked templates certify at any k");
    }

    #[test]
    fn fig6_certifies_at_two_but_not_three() {
        let sys = fig6_system();
        let opts = InflateOptions {
            explore_states: 5_000_000,
            ..Default::default()
        };
        // k = 2: rejected by safe+DF (Fig. 6 is unsafe already at 2) but
        // rescued by the exhaustive deadlock-freedom search.
        let c2 = certify_inflated(&sys, &[2], opts).unwrap();
        assert!(
            matches!(c2, InflationCertificate::DeadlockFreeOnly { ref k, .. } if k == &[2]),
            "{c2:?}"
        );
        assert!(!c2.guarantees_safety());
        // k = 3: the ring closes; even the DF fallback finds the deadlock.
        let e3 = certify_inflated(&sys, &[3], opts).unwrap_err();
        assert!(
            matches!(
                e3,
                InflationViolation::Rejected {
                    fallback: DfFallback::Deadlock,
                    ..
                }
            ),
            "{e3:?}"
        );
        // The search lands exactly on the paper's threshold.
        let max = max_certified_inflation(&sys, opts, 8).unwrap();
        assert_eq!(max.k, 2, "Fig. 6: two copies certify, three deadlock");
        assert!(!max.unbounded);
    }

    #[test]
    fn fig6_without_fallback_floors_at_one() {
        let sys = fig6_system();
        let opts = InflateOptions {
            explore_states: 0,
            ..Default::default()
        };
        assert!(matches!(
            certify_inflated(&sys, &[2], opts),
            Err(InflationViolation::Rejected {
                fallback: DfFallback::NotTried,
                ..
            })
        ));
        let max = max_certified_inflation(&sys, opts, 8).unwrap();
        assert_eq!(max.k, 1);
    }

    #[test]
    fn opposed_lock_orders_fail_even_at_base() {
        let db = Database::one_entity_per_site(2);
        let t1 = strict_2pl(&db, "A", &[0, 1]);
        let t2 = strict_2pl(&db, "B", &[1, 0]);
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        // The deadlock at k=1 means there is no certified inflation.
        let err = max_certified_inflation(
            &sys,
            InflateOptions {
                explore_states: 100_000,
                ..Default::default()
            },
            4,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");
    }

    /// `ddlf-audit run fixtures/classic_opposite_order.json --inflate 33`:
    /// 2 × 33 = 66 instances used to trip the explorer's 64-transaction
    /// `assert!` inside the deadlock-freedom fallback (which never tracks
    /// conflict arcs). Past 64 the search must answer, not panic.
    #[test]
    fn inflation_past_64_instances_is_answered_not_panicked() {
        let db = Database::one_entity_per_site(2);
        let t1 = strict_2pl(&db, "A", &[0, 1]);
        let t2 = strict_2pl(&db, "B", &[1, 0]);
        let sys = TransactionSystem::new(db, vec![t1, t2]).unwrap();
        let opts = InflateOptions {
            explore_states: 10_000,
            ..Default::default()
        };
        let err = certify_inflated(&sys, &[33, 33], opts).unwrap_err();
        assert!(
            matches!(err, InflationViolation::Rejected { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn bad_vectors_are_model_errors() {
        let db = Database::one_entity_per_site(2);
        let t1 = strict_2pl(&db, "A", &[0, 1]);
        let sys = TransactionSystem::new(db, vec![t1]).unwrap();
        assert!(matches!(
            certify_inflated(&sys, &[1, 1], InflateOptions::default()),
            Err(InflationViolation::Model(_))
        ));
        assert!(matches!(
            certify_inflated(&sys, &[0], InflateOptions::default()),
            Err(InflationViolation::Model(_))
        ));
    }
}
