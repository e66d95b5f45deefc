//! The distributed database: a finite set of entities partitioned into
//! pairwise disjoint sites (§2 of the paper).
//!
//! Replication is *not* modelled explicitly: copies of a logical item at
//! different sites are distinct entities, exactly as the paper prescribes.

use crate::error::ModelError;
use crate::ids::{EntityId, SiteId};
use std::collections::HashMap;

/// A distributed database schema: entity names and their partition into
/// sites. Immutable once built; shared by all transactions of a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    /// `site_of[e]` is the site holding entity `e`.
    site_of: Vec<SiteId>,
    /// Human-readable entity names (unique).
    names: Vec<String>,
    /// Number of sites.
    site_count: u32,
}

impl Database {
    /// Starts building a database.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// A single-site database with entities named `e0..e{n}` — the
    /// centralized special case of the model.
    pub fn centralized(n_entities: usize) -> Self {
        let mut b = Self::builder();
        let site = b.add_site();
        for i in 0..n_entities {
            b.add_entity(format!("e{i}"), site);
        }
        b.build()
    }

    /// A database with `n_entities`, each alone on its own site. This is
    /// the regime of Theorem 2 (number of sites grows with the input),
    /// where a partial order is otherwise unconstrained.
    pub fn one_entity_per_site(n_entities: usize) -> Self {
        let mut b = Self::builder();
        for i in 0..n_entities {
            let s = b.add_site();
            b.add_entity(format!("e{i}"), s);
        }
        b.build()
    }

    /// Number of entities.
    #[inline]
    pub fn entity_count(&self) -> usize {
        self.site_of.len()
    }

    /// Number of sites.
    #[inline]
    pub fn site_count(&self) -> usize {
        self.site_count as usize
    }

    /// The site holding `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn site_of(&self, e: EntityId) -> SiteId {
        self.site_of[e.index()]
    }

    /// The name of `e`.
    pub fn name_of(&self, e: EntityId) -> &str {
        &self.names[e.index()]
    }

    /// Looks an entity up by name.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(EntityId::from_index)
    }

    /// Iterates over all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.site_of.len()).map(EntityId::from_index)
    }

    /// Validates that `e` exists.
    pub fn check_entity(&self, e: EntityId) -> Result<(), ModelError> {
        if e.index() < self.site_of.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownEntity(e))
        }
    }
}

/// Incremental builder for [`Database`].
#[derive(Debug, Default, Clone)]
pub struct DatabaseBuilder {
    site_of: Vec<SiteId>,
    names: Vec<String>,
    by_name: HashMap<String, EntityId>,
    site_count: u32,
}

impl DatabaseBuilder {
    /// Registers a new site and returns its id.
    pub fn add_site(&mut self) -> SiteId {
        let s = SiteId(self.site_count);
        self.site_count += 1;
        s
    }

    /// Registers a new entity at `site` and returns its id.
    ///
    /// # Panics
    /// Panics if the name is duplicated or the site was never added; both
    /// indicate programming errors in workload construction.
    pub fn add_entity(&mut self, name: impl Into<String>, site: SiteId) -> EntityId {
        assert!(site.0 < self.site_count, "unknown site {site}");
        let name = name.into();
        let id = EntityId::from_index(self.site_of.len());
        let prev = self.by_name.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate entity name {name:?}");
        self.names.push(name);
        self.site_of.push(site);
        id
    }

    /// Finishes the schema.
    pub fn build(self) -> Database {
        Database {
            site_of: self.site_of,
            names: self.names,
            site_count: self.site_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut b = Database::builder();
        let s0 = b.add_site();
        let s1 = b.add_site();
        let x = b.add_entity("x", s0);
        let y = b.add_entity("y", s1);
        let db = b.build();
        assert_eq!(db.entity_count(), 2);
        assert_eq!(db.site_count(), 2);
        assert_eq!(db.site_of(x), s0);
        assert_eq!(db.site_of(y), s1);
        assert_eq!(db.name_of(x), "x");
        assert_eq!(db.entity_by_name("y"), Some(y));
        assert_eq!(db.entity_by_name("zzz"), None);
        assert!(db.check_entity(x).is_ok());
        assert!(db.check_entity(EntityId(99)).is_err());
    }

    #[test]
    fn centralized_has_one_site() {
        let db = Database::centralized(5);
        assert_eq!(db.site_count(), 1);
        assert_eq!(db.entity_count(), 5);
        assert!(db.entities().all(|e| db.site_of(e) == SiteId(0)));
    }

    #[test]
    fn fully_distributed_sites() {
        let db = Database::one_entity_per_site(4);
        assert_eq!(db.site_count(), 4);
        let sites: Vec<_> = db.entities().map(|e| db.site_of(e)).collect();
        assert_eq!(sites, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate entity name")]
    fn duplicate_names_rejected() {
        let mut b = Database::builder();
        let s = b.add_site();
        b.add_entity("x", s);
        b.add_entity("x", s);
    }
}
