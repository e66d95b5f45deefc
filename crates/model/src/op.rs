//! Lock and Unlock operations.
//!
//! Following §2 of the paper, action (read/update) nodes are erased from the
//! static model: the positions of actions play no role in safety or
//! deadlock-freedom, so a transaction is viewed as a partial order of Lock
//! and Unlock steps only. The runtimes re-attach work to lock scopes
//! separately (the engine's template programs, the simulator's `work_us`).

use crate::ids::EntityId;
use std::fmt;

/// The kind of a lock operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Lx`: acquire the exclusive lock on the entity.
    Lock,
    /// `Ux`: release the exclusive lock on the entity.
    Unlock,
}

/// A single operation node: `Lock e` or `Unlock e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Lock or Unlock.
    pub kind: OpKind,
    /// The entity operated on.
    pub entity: EntityId,
}

impl Op {
    /// `Lock e`.
    #[inline]
    pub fn lock(entity: EntityId) -> Self {
        Self {
            kind: OpKind::Lock,
            entity,
        }
    }

    /// `Unlock e`.
    #[inline]
    pub fn unlock(entity: EntityId) -> Self {
        Self {
            kind: OpKind::Unlock,
            entity,
        }
    }

    /// Whether this is a Lock.
    #[inline]
    pub fn is_lock(self) -> bool {
        self.kind == OpKind::Lock
    }

    /// Whether this is an Unlock.
    #[inline]
    pub fn is_unlock(self) -> bool {
        self.kind == OpKind::Unlock
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            OpKind::Lock => write!(f, "L{}", self.entity),
            OpKind::Unlock => write!(f, "U{}", self.entity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        let l = Op::lock(EntityId(3));
        let u = Op::unlock(EntityId(3));
        assert!(l.is_lock() && !l.is_unlock());
        assert!(u.is_unlock() && !u.is_lock());
        assert_eq!(l.entity, u.entity);
    }

    #[test]
    fn display() {
        assert_eq!(Op::lock(EntityId(0)).to_string(), "Le0");
        assert_eq!(Op::unlock(EntityId(12)).to_string(), "Ue12");
    }
}
