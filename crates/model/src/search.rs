//! The one scheduler-state stepper and the one depth-first search over
//! it.
//!
//! The scheduler's state is the tuple of executed prefixes; lock
//! ownership is a function of it. [`SchedulerState`] carries exactly
//! that (plus the path that reached it) and is the only place a
//! scheduler step is applied or undone for search. [`Dfs`] walks it in
//! canonical `(transaction, node)` order, parameterised by a [`Pruning`]
//! and a [`Visitor`]; every exhaustive analysis in the workspace — the
//! memoised ground-truth searches of `ddlf_core::explore`, the
//! schedule-of-a-prefix search of `ddlf_core::reduction`, and the
//! sleep-set enumeration of [`mod@crate::explore`] — is a visitor on it.

use crate::ids::{EntityId, GlobalNode, NodeId, TxnId};
use crate::prefix::SystemPrefix;
use crate::system::TransactionSystem;
use std::collections::HashSet;

/// One scheduler step: a ready node of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The transaction taking the step.
    pub txn: TxnId,
    /// The node it executes.
    pub node: NodeId,
    /// The entity the node locks or unlocks.
    pub entity: EntityId,
    /// `Lock` (true) or `Unlock` (false).
    pub is_lock: bool,
}

impl Step {
    /// Steps commute iff they belong to different transactions and touch
    /// different entities (same-transaction steps are program-ordered;
    /// same-entity steps race for the lock or order its holders).
    pub fn independent(&self, other: &Step) -> bool {
        self.txn != other.txn && self.entity != other.entity
    }
}

/// One wait-for edge of a stuck state: `waiter`'s next lock on `entity`
/// is blocked by `holder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked transaction.
    pub waiter: TxnId,
    /// The entity it needs next.
    pub entity: EntityId,
    /// The transaction holding that entity.
    pub holder: TxnId,
}

/// A scheduler state of one system: the executed prefixes, the lock
/// holders they imply, and the steps taken since the search started.
#[derive(Debug, Clone)]
pub struct SchedulerState<'a> {
    sys: &'a TransactionSystem,
    prefix: SystemPrefix,
    /// Holder of each entity, indexed by entity.
    holders: Vec<Option<TxnId>>,
    trace: Vec<GlobalNode>,
}

impl<'a> SchedulerState<'a> {
    /// The initial state: nothing executed, nothing held.
    pub fn initial(sys: &'a TransactionSystem) -> Self {
        Self::at(sys, SystemPrefix::empty(sys.txns()))
    }

    /// The state in which exactly `prefix` has executed (the holders are
    /// derived from it). The trace starts empty: it records only the
    /// steps taken from here.
    pub fn at(sys: &'a TransactionSystem, prefix: SystemPrefix) -> Self {
        let mut holders = vec![None; sys.db().entity_count()];
        for (e, t) in prefix.holders(sys.txns()) {
            holders[e.index()] = Some(t);
        }
        Self {
            sys,
            prefix,
            holders,
            trace: Vec::with_capacity(sys.total_nodes()),
        }
    }

    /// The system being scheduled.
    pub fn sys(&self) -> &'a TransactionSystem {
        self.sys
    }

    /// The executed prefixes.
    pub fn prefix(&self) -> &SystemPrefix {
        &self.prefix
    }

    /// The steps applied (and not undone) since construction, in order.
    pub fn trace(&self) -> &[GlobalNode] {
        &self.trace
    }

    /// Whether every transaction has run to completion.
    pub fn is_complete(&self) -> bool {
        self.prefix.is_complete(self.sys.txns())
    }

    /// Every ready node as a step, in canonical `(transaction, node)`
    /// order, with the holder of its entity.
    fn ready(&self) -> impl Iterator<Item = (Step, Option<TxnId>)> + '_ {
        self.sys.iter().flat_map(move |(t, txn)| {
            self.prefix.of(t).ready(txn).map(move |n| {
                let op = txn.op(n);
                let step = Step {
                    txn: t,
                    node: n,
                    entity: op.entity,
                    is_lock: op.is_lock(),
                };
                (step, self.holders[op.entity.index()])
            })
        })
    }

    /// The enabled steps in canonical order: every ready node, except a
    /// `Lock` blocked behind a holder.
    pub fn enabled(&self) -> Vec<Step> {
        self.ready()
            .filter(|(s, holder)| !(s.is_lock && holder.is_some()))
            .map(|(s, _)| s)
            .collect()
    }

    /// Executes an enabled step.
    pub fn apply(&mut self, s: &Step) {
        self.holders[s.entity.index()] = s.is_lock.then_some(s.txn);
        self.prefix.of_mut(s.txn).push(s.node);
        self.trace.push(GlobalNode::new(s.txn, s.node));
    }

    /// Takes back the most recently applied step.
    pub fn undo(&mut self, s: &Step) {
        self.holders[s.entity.index()] = (!s.is_lock).then_some(s.txn);
        self.prefix.of_mut(s.txn).unpush(s.node);
        self.trace.pop();
    }

    /// Appends the words identifying this state (the executed sets) to
    /// `key`.
    pub fn key(&self, key: &mut Vec<u64>) {
        for (_, p) in self.prefix.iter() {
            key.extend_from_slice(p.executed().words());
        }
    }

    /// The wait-for edges of this state: every ready `Lock` blocked
    /// behind a holder.
    pub fn waits_for(&self) -> Vec<WaitEdge> {
        self.ready()
            .filter(|(s, _)| s.is_lock)
            .filter_map(|(s, holder)| {
                Some(WaitEdge {
                    waiter: s.txn,
                    entity: s.entity,
                    holder: holder?,
                })
            })
            .collect()
    }
}

/// How [`Dfs`] avoids re-exploring. Memoisation and sleep sets are
/// alternatives by construction: combined they are unsound (a state
/// first reached with a non-empty sleep set would be marked seen with
/// part of its subtree unexplored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// Full enumeration of every interleaving.
    None,
    /// Visit each distinct state (scheduler state plus
    /// [`Visitor::key_extra`]) once.
    Memo,
    /// Godefroid sleep sets over [`Step::independent`]: one
    /// representative per Mazurkiewicz trace, every reachable stuck
    /// state kept.
    SleepSets,
}

/// Search budgets; hitting either sets [`Dfs::truncated`].
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// States entered (under [`Pruning::Memo`]: distinct states).
    pub states: usize,
    /// Steps applied.
    pub steps: u64,
}

/// Search counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfsStats {
    /// States entered (not pruned).
    pub states: usize,
    /// Steps applied.
    pub steps: u64,
    /// Enabled steps skipped because they were asleep.
    pub sleep_skips: u64,
}

/// What to do after a step was applied.
#[derive(Debug)]
pub enum Next<F> {
    /// Search the state the step led to.
    Descend,
    /// Take the step back without searching below it.
    Skip,
    /// Stop the whole search with this result.
    Found(F),
}

/// The goal of a search: what to look for and where to look. Every hook
/// defaults to "nothing to see, keep going".
pub trait Visitor {
    /// What a successful search returns.
    type Found;

    /// Path-dependent words that distinguish search states sharing one
    /// scheduler state ([`Pruning::Memo`] only).
    fn key_extra(&self, _key: &mut Vec<u64>) {}

    /// A state was entered (and not pruned); `enabled` are its enabled
    /// steps — empty at a maximal path, complete or stuck.
    fn enter(&mut self, _st: &SchedulerState<'_>, _enabled: &[Step]) -> Option<Self::Found> {
        None
    }

    /// Drops or reorders the steps about to be tried from the current
    /// state.
    fn select(&mut self, _steps: &mut Vec<Step>) {}

    /// `step` was just applied to `st`.
    fn applied(&mut self, _st: &SchedulerState<'_>, _step: &Step) -> Next<Self::Found> {
        Next::Descend
    }

    /// `step` is about to be undone (pairs with [`Visitor::applied`]).
    fn undoing(&mut self, _step: &Step) {}
}

/// Depth-first search over scheduler states with apply/undo
/// backtracking.
pub struct Dfs<'a, V> {
    /// The current state (the start state before and after [`Dfs::run`]).
    state: SchedulerState<'a>,
    /// The goal visitor.
    pub visitor: V,
    /// Counters so far.
    pub stats: DfsStats,
    /// Whether a budget ran out before the space was covered.
    pub truncated: bool,
    pruning: Pruning,
    budget: Budget,
    seen: HashSet<Box<[u64]>>,
    key: Vec<u64>,
}

impl<'a, V: Visitor> Dfs<'a, V> {
    /// A search from `state`.
    pub fn new(state: SchedulerState<'a>, visitor: V, pruning: Pruning, budget: Budget) -> Self {
        Self {
            state,
            visitor,
            stats: DfsStats::default(),
            truncated: false,
            pruning,
            budget,
            seen: HashSet::new(),
            key: Vec::new(),
        }
    }

    /// Runs the search to the first `Found`, or to exhaustion / budget.
    pub fn run(&mut self) -> Option<V::Found> {
        self.visit(&[])
    }

    fn visit(&mut self, sleep: &[Step]) -> Option<V::Found> {
        if self.stats.states >= self.budget.states {
            self.truncated = true;
            return None;
        }
        if self.pruning == Pruning::Memo {
            self.key.clear();
            self.state.key(&mut self.key);
            self.visitor.key_extra(&mut self.key);
            // Most entries are revisits: probe with the scratch key and
            // allocate only for a state that is new.
            if self.seen.contains(self.key.as_slice()) {
                return None;
            }
            self.seen.insert(self.key.as_slice().into());
        }
        self.stats.states += 1;

        let mut steps = self.state.enabled();
        if let Some(found) = self.visitor.enter(&self.state, &steps) {
            return Some(found);
        }
        let sleeping = self.pruning == Pruning::SleepSets;
        if sleeping {
            let enabled = steps.len();
            steps.retain(|m| !sleep.contains(m));
            self.stats.sleep_skips += (enabled - steps.len()) as u64;
        }
        self.visitor.select(&mut steps);

        let mut done: Vec<Step> = Vec::new();
        for m in steps {
            // A truncated subtree does not unwind the search by itself:
            // its siblings run into the same exhausted budget, here or on
            // entry, which keeps the counters of a truncated search
            // well-defined.
            if self.stats.steps >= self.budget.steps {
                self.truncated = true;
                return None;
            }
            // The child's sleep set: everything asleep here that stays
            // independent of `m`, plus the already-explored siblings
            // independent of `m` (their subtrees cover every schedule in
            // which they precede `m` up to commutation).
            let child_sleep: Vec<Step> = if sleeping {
                let asleep = sleep.iter().chain(&done);
                asleep.filter(|s| s.independent(&m)).copied().collect()
            } else {
                Vec::new()
            };
            self.state.apply(&m);
            self.stats.steps += 1;
            let found = match self.visitor.applied(&self.state, &m) {
                Next::Descend => self.visit(&child_sleep),
                Next::Skip => None,
                Next::Found(f) => Some(f),
            };
            self.visitor.undoing(&m);
            self.state.undo(&m);
            if found.is_some() {
                return found;
            }
            done.push(m);
        }
        None
    }
}
