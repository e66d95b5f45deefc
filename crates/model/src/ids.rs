//! Strongly-typed identifiers for the model.
//!
//! All identifiers are thin `u32` newtypes. Using distinct types prevents
//! mixing up, say, a node index with an entity index — a real hazard in
//! graph-heavy code like this crate.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index, suitable for indexing into dense arrays.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense array index.
            ///
            /// # Panics
            /// Panics if `i` does not fit in `u32`.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                Self(u32::try_from(i).expect("id index overflow"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifies a database entity (the unit of locking: a record, block,
    /// file, ... in the paper's terminology).
    EntityId,
    "e"
);
id_type!(
    /// Identifies a database site. Entities are partitioned into sites;
    /// replication is modelled as distinct entities (see §2 of the paper).
    SiteId,
    "s"
);
id_type!(
    /// Identifies a transaction within a [`crate::TransactionSystem`].
    TxnId,
    "T"
);
id_type!(
    /// Identifies an operation node within a single [`crate::Transaction`].
    NodeId,
    "n"
);

/// A node of a specific transaction inside a transaction system: the unit a
/// [`crate::Schedule`] is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalNode {
    /// The transaction the node belongs to.
    pub txn: TxnId,
    /// The node within that transaction.
    pub node: NodeId,
}

impl GlobalNode {
    /// Convenience constructor.
    #[inline]
    pub fn new(txn: TxnId, node: NodeId) -> Self {
        Self { txn, node }
    }
}

impl fmt::Display for GlobalNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.txn, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let e = EntityId::from_index(42);
        assert_eq!(e.index(), 42);
        assert_eq!(e, EntityId(42));
    }

    #[test]
    fn display_forms() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(SiteId(0).to_string(), "s0");
        assert_eq!(TxnId(1).to_string(), "T1");
        assert_eq!(NodeId(9).to_string(), "n9");
        assert_eq!(GlobalNode::new(TxnId(1), NodeId(2)).to_string(), "T1.n2");
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(EntityId(1) < EntityId(2));
        assert!(GlobalNode::new(TxnId(0), NodeId(5)) < GlobalNode::new(TxnId(1), NodeId(0)));
    }

    #[test]
    fn from_u32() {
        let t: TxnId = 7u32.into();
        assert_eq!(t, TxnId(7));
    }
}
