//! # ddlf-core — the paper's deadlock-freedom and safety analyses
//!
//! Implements every algorithm of Wolfson & Yannakakis, *"Deadlock-Freedom
//! (and Safety) of Transactions in a Distributed Database"* (PODS 1985 /
//! JCSS 1986):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`reduction`] | reduction graph `R(A')`, deadlock prefixes (§3, Thm 1) |
//! | [`explore`] | exhaustive `[SM]`-style ground truth over scheduler states; Lemma 1 conflict-cycle search |
//! | [`pairwise`] | Theorem 3 `O(n²)` safe-and-deadlock-free test for two transactions, plus the `O(n³)` minimal-prefix variant |
//! | [`copies`] | Corollary 3 / Theorem 5: systems of identical copies |
//! | [`many`] | Theorem 4 / Corollary 4: fixed number of transactions via interaction-graph cycles |
//! | [`tirri`] | the two-entity pattern from Tirri's (flawed) PODC'83 test — the baseline Fig. 2 defeats |
//! | [`lu_pair`] | exact deadlock-prefix decision for lock→unlock-shaped pairs (the shape of Fig. 2 and all Theorem 2 gadgets) |
//! | [`sat_reduction`] | Theorem 2: the 3SAT′ → two-transaction gadget, in both directions |
//! | [`certify`] | one-call certifier with witnesses |
//! | [`inflate`] | certified k-inflation: Theorem 5 short-circuit, Thm 3/4 on the inflated system, exhaustive DF-only fallback, max-k search |

#![warn(missing_docs)]

pub mod certify;
pub mod copies;
pub mod diagnose;
pub mod explore;
pub mod inflate;
pub mod lu_pair;
pub mod many;
pub mod pairwise;
pub mod reduction;
pub mod safety;
pub mod sat_reduction;
#[cfg(test)]
mod testgen;
pub mod tirri;

pub use certify::{certify_safe_and_deadlock_free, Certificate, CertifyOptions, Violation};
pub use copies::{copies_safe_df, CopiesCertificate, CopiesViolation};
pub use diagnose::{classify_violation, ViolationKind};
pub use explore::{Explorer, SearchStats, Verdict};
pub use inflate::{
    certify_inflated, max_certified_inflation, DfFallback, InflateOptions, InflationCertificate,
    InflationViolation, MaxInflation,
};
pub use lu_pair::{is_lock_unlock_shaped, lu_pair_deadlock_prefix, LuWitness};
pub use many::{many_safe_df, CycleWitness, ManyCertificate, ManyOptions, ManyViolation};
pub use pairwise::{
    pairwise_safe_df, pairwise_safe_df_minimal_prefix, PairCertificate, PairViolation,
};
pub use reduction::{
    check_deadlock_prefix, complete_schedule, find_schedule_for_prefix, DeadlockPrefix,
    ReductionGraph,
};
pub use safety::{is_safe_exhaustive, is_two_phase, two_phase_closure, two_phase_system};
pub use sat_reduction::SatReduction;
pub use tirri::tirri_two_entity_pattern;
