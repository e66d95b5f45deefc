//! CNF formulas and the 3SAT′ restricted form.
//!
//! Theorem 2 of the paper reduces from **3SAT′**: CNF satisfiability where
//! every clause has at most 3 literals and every variable occurs *exactly
//! twice positively and once negatively*. This module provides plain CNF
//! plus validation of the 3SAT′ shape (including locating the two positive
//! and one negative occurrence of each variable, which the transaction
//! gadget construction needs).

use std::fmt;

/// A propositional variable, numbered densely from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    /// The underlying variable.
    pub var: Var,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Self {
        Self {
            var: v,
            positive: true,
        }
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Self {
        Self {
            var: v,
            positive: false,
        }
    }

    /// Whether the literal is satisfied under `value` for its variable.
    #[inline]
    pub fn satisfied_by(self, value: bool) -> bool {
        self.positive == value
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.var)
        } else {
            write!(f, "¬{}", self.var)
        }
    }
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<Lit>;

/// A truth assignment, one `bool` per variable.
pub type Assignment = Vec<bool>;

/// A CNF formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (`Var(0)..Var(n)`).
    pub n_vars: u32,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates a formula with `n_vars` variables and no clauses.
    pub fn new(n_vars: u32) -> Self {
        Self {
            n_vars,
            clauses: Vec::new(),
        }
    }

    /// Adds a clause.
    pub fn add_clause(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the formula has no clauses (trivially satisfiable).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluates the formula under a full assignment.
    pub fn evaluate(&self, a: &Assignment) -> bool {
        self.clauses.iter().all(|c| {
            c.iter().any(|l| {
                a.get(l.var.index())
                    .copied()
                    .map(|v| l.satisfied_by(v))
                    .unwrap_or(false)
            })
        })
    }

    /// Validates the 3SAT′ shape and returns the per-variable occurrence
    /// table needed by the Theorem 2 gadget.
    pub fn validate_three_sat_prime(&self) -> Result<Vec<VarOccurrences>, ThreeSatPrimeError> {
        let n = self.n_vars as usize;
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut neg: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, clause) in self.clauses.iter().enumerate() {
            if clause.is_empty() || clause.len() > 3 {
                return Err(ThreeSatPrimeError::BadClauseSize {
                    clause: ci,
                    size: clause.len(),
                });
            }
            for lit in clause {
                if lit.var.index() >= n {
                    return Err(ThreeSatPrimeError::UnknownVar(lit.var));
                }
                if lit.positive {
                    pos[lit.var.index()].push(ci);
                } else {
                    neg[lit.var.index()].push(ci);
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for v in 0..n {
            if pos[v].len() != 2 || neg[v].len() != 1 {
                return Err(ThreeSatPrimeError::BadOccurrenceCount {
                    var: Var(v as u32),
                    positive: pos[v].len(),
                    negative: neg[v].len(),
                });
            }
            out.push(VarOccurrences {
                var: Var(v as u32),
                pos_clauses: [pos[v][0], pos[v][1]],
                neg_clause: neg[v][0],
            });
        }
        Ok(out)
    }

    /// The worked example from the paper's Theorem 2 discussion (Fig. 5):
    /// `(x₁ ∨ x₂) · (x₁ ∨ ¬x₂) · (¬x₁ ∨ x₂)` — a satisfiable 3SAT′
    /// formula over two variables and three clauses.
    pub fn paper_example() -> Self {
        let (x1, x2) = (Var(0), Var(1));
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(x1), Lit::pos(x2)]);
        f.add_clause(vec![Lit::pos(x1), Lit::neg(x2)]);
        f.add_clause(vec![Lit::neg(x1), Lit::pos(x2)]);
        f
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " · ")?;
            }
            write!(f, "(")?;
            for (j, l) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∨ ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Occurrence table of a variable in a 3SAT′ formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarOccurrences {
    /// The variable.
    pub var: Var,
    /// The clauses of its first and second positive occurrence (the
    /// paper's `c_h` and `c_k`).
    pub pos_clauses: [usize; 2],
    /// The clause of its negative occurrence (the paper's `c_l`).
    pub neg_clause: usize,
}

/// Why a formula is not in 3SAT′ form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreeSatPrimeError {
    /// A clause is empty or has more than three literals.
    BadClauseSize {
        /// Clause index.
        clause: usize,
        /// Its size.
        size: usize,
    },
    /// A literal references a variable outside `0..n_vars`.
    UnknownVar(Var),
    /// A variable does not occur exactly twice positively and once
    /// negatively.
    BadOccurrenceCount {
        /// The variable.
        var: Var,
        /// Positive occurrence count.
        positive: usize,
        /// Negative occurrence count.
        negative: usize,
    },
}

impl fmt::Display for ThreeSatPrimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreeSatPrimeError::BadClauseSize { clause, size } => {
                write!(f, "clause {clause} has {size} literals (want 1..=3)")
            }
            ThreeSatPrimeError::UnknownVar(v) => write!(f, "unknown variable {v}"),
            ThreeSatPrimeError::BadOccurrenceCount {
                var,
                positive,
                negative,
            } => write!(
                f,
                "{var} occurs {positive}× positively / {negative}× negatively (want 2/1)"
            ),
        }
    }
}

impl std::error::Error for ThreeSatPrimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_three_sat_prime() {
        let f = Cnf::paper_example();
        let occ = f.validate_three_sat_prime().unwrap();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].pos_clauses, [0, 1]);
        assert_eq!(occ[0].neg_clause, 2);
        assert_eq!(occ[1].pos_clauses, [0, 2]);
        assert_eq!(occ[1].neg_clause, 1);
    }

    #[test]
    fn paper_example_satisfied_by_all_true() {
        let f = Cnf::paper_example();
        assert!(f.evaluate(&vec![true, true]));
        assert!(!f.evaluate(&vec![false, false]));
    }

    #[test]
    fn bad_occurrence_counts_detected() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(0))]);
        let err = f.validate_three_sat_prime().unwrap_err();
        assert!(matches!(err, ThreeSatPrimeError::BadOccurrenceCount { .. }));
    }

    #[test]
    fn oversized_clause_detected() {
        let mut f = Cnf::new(4);
        f.add_clause(vec![
            Lit::pos(Var(0)),
            Lit::pos(Var(1)),
            Lit::pos(Var(2)),
            Lit::pos(Var(3)),
        ]);
        assert!(matches!(
            f.validate_three_sat_prime().unwrap_err(),
            ThreeSatPrimeError::BadClauseSize { clause: 0, size: 4 }
        ));
    }

    #[test]
    fn empty_clause_detected() {
        let mut f = Cnf::new(0);
        f.add_clause(vec![]);
        assert!(matches!(
            f.validate_three_sat_prime().unwrap_err(),
            ThreeSatPrimeError::BadClauseSize { clause: 0, size: 0 }
        ));
    }

    #[test]
    fn unknown_var_detected() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(5))]);
        assert!(matches!(
            f.validate_three_sat_prime().unwrap_err(),
            ThreeSatPrimeError::UnknownVar(Var(5))
        ));
    }

    #[test]
    fn literal_ops() {
        let l = Lit::pos(Var(3));
        assert!(l.satisfied_by(true) && !l.satisfied_by(false));
        assert!(Lit::neg(Var(3)).satisfied_by(false));
    }

    #[test]
    fn display_round() {
        let f = Cnf::paper_example();
        let s = f.to_string();
        assert!(s.contains("(x0 ∨ x1)") && s.contains("¬x1"));
    }

    #[test]
    fn empty_formula_is_true() {
        let f = Cnf::new(3);
        assert!(f.evaluate(&vec![false, false, false]));
        assert!(f.is_empty());
    }
}
