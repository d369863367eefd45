//! The replicated query catalog: versioned, tombstoned entries merged
//! epidemically.
//!
//! Every node holds a [`QueryCatalog`]; install/remove RPCs mutate the
//! local copy, and the query plane gossips the entry list to random
//! peers (codec tag 11 on the wire). Merging is a deterministic join —
//! per name, the entry with the greater precedence key wins, where the
//! key orders by version, then tombstone (a delete beats a concurrent
//! re-install of the same version), then descriptor contents as a stable
//! tiebreak — so any two replicas that have seen the same set of entries
//! hold byte-identical catalogs regardless of arrival order.

use crate::descriptor::{kind_code, QueryDescriptor, MAX_EPOCH_MS};
use crate::QueryError;
use std::collections::BTreeMap;

/// One replicated catalog slot: a descriptor plus merge metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// The query itself.
    pub descriptor: QueryDescriptor,
    /// Monotone per-name version; every local mutation bumps it.
    pub version: u32,
    /// Tombstone: the query was removed (the entry keeps gossiping so
    /// stragglers learn of the removal).
    pub deleted: bool,
    /// Protocol tick of installation — the cluster-wide anchor of the
    /// query's epoch schedule. Every node derives the same epoch
    /// boundaries `installed_at + k·γδ` from it, so replicas that learn
    /// of the query at different times still restart epochs in unison
    /// (the Section 4.2 joiner synchronization, applied per query).
    pub installed_at: u64,
    /// Protocol tick at which the query expires (`0` = never). Derived
    /// from the installing node's clock plus the descriptor TTL and
    /// gossiped verbatim, so replicas expire in unison.
    pub expires_at: u64,
}

impl CatalogEntry {
    /// `true` when the entry is serving (not tombstoned, not expired).
    pub fn is_live(&self, now: u64) -> bool {
        !self.deleted && (self.expires_at == 0 || now < self.expires_at)
    }

    /// Total order deciding which of two same-name entries survives a
    /// merge. Strictly increases on every local mutation (the version
    /// bump), and breaks version ties deterministically so concurrent
    /// divergent installs still converge.
    fn precedence(&self) -> impl Ord {
        (
            self.version,
            self.deleted,
            self.installed_at,
            self.expires_at,
            self.descriptor.gamma,
            self.descriptor.cycle_length,
            self.descriptor.timeout,
            self.descriptor.ttl_ms,
            kind_code(self.descriptor.kind),
            self.descriptor.default_value.to_bits(),
            self.descriptor.admission.rate_per_sec,
            self.descriptor.admission.burst,
        )
    }
}

/// A node's replica of the named-query catalog.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryCatalog {
    entries: BTreeMap<String, CatalogEntry>,
}

impl QueryCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        QueryCatalog::default()
    }

    /// Installs `descriptor` locally at time `now`.
    ///
    /// Re-installing an identical live descriptor is idempotent;
    /// installing over a tombstone resurrects the name with a version
    /// bump.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidDescriptor`] if validation fails, or
    /// [`QueryError::Conflict`] when a live entry of the same name has a
    /// different descriptor.
    pub fn install(&mut self, descriptor: QueryDescriptor, now: u64) -> Result<bool, QueryError> {
        descriptor.validate()?;
        let expires_at = if descriptor.ttl_ms == 0 {
            0
        } else {
            now.saturating_add(descriptor.ttl_ms)
        };
        match self.entries.get_mut(&descriptor.name) {
            Some(entry) if entry.is_live(now) => {
                if entry.descriptor == descriptor {
                    Ok(false)
                } else {
                    Err(QueryError::Conflict)
                }
            }
            Some(entry) => {
                entry.version += 1;
                entry.deleted = false;
                entry.installed_at = now;
                entry.expires_at = expires_at;
                entry.descriptor = descriptor;
                Ok(true)
            }
            None => {
                self.entries.insert(
                    descriptor.name.clone(),
                    CatalogEntry {
                        descriptor,
                        version: 1,
                        deleted: false,
                        installed_at: now,
                        expires_at,
                    },
                );
                Ok(true)
            }
        }
    }

    /// Tombstones the named query.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownQuery`] when no live entry of that name
    /// exists.
    pub fn remove(&mut self, name: &str, now: u64) -> Result<(), QueryError> {
        match self.entries.get_mut(name) {
            Some(entry) if entry.is_live(now) => {
                entry.version += 1;
                entry.deleted = true;
                Ok(())
            }
            _ => Err(QueryError::UnknownQuery),
        }
    }

    /// Merges one gossiped entry; returns `true` if the replica changed.
    /// An entry whose descriptor does not [`validate`], or whose schedule
    /// anchor leaves no room for one epoch after it, is skipped: it came
    /// off the wire, and the plane starts a node — and computes that
    /// node's deadlines — from whatever the catalog holds.
    ///
    /// [`validate`]: QueryDescriptor::validate
    pub fn merge(&mut self, incoming: &CatalogEntry) -> bool {
        if incoming.descriptor.validate().is_err()
            || incoming.installed_at > u64::MAX - MAX_EPOCH_MS
        {
            return false;
        }
        match self.entries.get_mut(&incoming.descriptor.name) {
            Some(existing) => {
                if incoming.precedence() > existing.precedence() {
                    *existing = incoming.clone();
                    true
                } else {
                    false
                }
            }
            None => {
                self.entries
                    .insert(incoming.descriptor.name.clone(), incoming.clone());
                true
            }
        }
    }

    /// Merges a gossiped entry list; returns `true` if anything changed.
    pub fn merge_all(&mut self, incoming: &[CatalogEntry]) -> bool {
        let mut changed = false;
        for entry in incoming {
            changed |= self.merge(entry);
        }
        changed
    }

    /// Tombstones every live entry whose TTL has elapsed; returns how
    /// many expired. Expiry is driven by the gossiped `expires_at`, so
    /// replicas tombstone at the same protocol time and the resulting
    /// same-version tombstones merge as no-ops.
    pub fn expire(&mut self, now: u64) -> usize {
        let mut expired = 0;
        for entry in self.entries.values_mut() {
            if !entry.deleted && entry.expires_at != 0 && now >= entry.expires_at {
                entry.version += 1;
                entry.deleted = true;
                expired += 1;
            }
        }
        expired
    }

    /// The entry for `name`, live or tombstoned.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(name)
    }

    /// All entries (including tombstones) in name order — the gossip
    /// payload.
    pub fn entries(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.entries.values()
    }

    /// Live entries at time `now`, in name order.
    pub fn live(&self, now: u64) -> impl Iterator<Item = &CatalogEntry> {
        self.entries.values().filter(move |e| e.is_live(now))
    }

    /// Number of live entries at time `now`.
    pub fn live_count(&self, now: u64) -> usize {
        self.live(now).count()
    }

    /// Total number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the catalog holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_aggregation::AggregateKind;

    fn descriptor(name: &str) -> QueryDescriptor {
        QueryDescriptor::new(name, AggregateKind::Average)
    }

    #[test]
    fn install_then_get() {
        let mut cat = QueryCatalog::new();
        assert!(cat.install(descriptor("cpu"), 0).unwrap());
        let entry = cat.get("cpu").unwrap();
        assert_eq!(entry.version, 1);
        assert!(entry.is_live(0));
        assert_eq!(cat.live_count(0), 1);
    }

    #[test]
    fn reinstall_identical_is_idempotent() {
        let mut cat = QueryCatalog::new();
        cat.install(descriptor("cpu"), 0).unwrap();
        assert!(!cat.install(descriptor("cpu"), 10).unwrap());
        assert_eq!(cat.get("cpu").unwrap().version, 1);
    }

    #[test]
    fn conflicting_reinstall_is_rejected() {
        let mut cat = QueryCatalog::new();
        cat.install(descriptor("cpu"), 0).unwrap();
        let other = QueryDescriptor::new("cpu", AggregateKind::Maximum);
        assert_eq!(cat.install(other, 0), Err(QueryError::Conflict));
    }

    #[test]
    fn remove_tombstones_and_resurrection_bumps_version() {
        let mut cat = QueryCatalog::new();
        cat.install(descriptor("cpu"), 0).unwrap();
        cat.remove("cpu", 5).unwrap();
        assert_eq!(cat.remove("cpu", 6), Err(QueryError::UnknownQuery));
        assert_eq!(cat.live_count(10), 0);
        assert_eq!(cat.len(), 1); // the tombstone keeps gossiping
        assert!(cat.install(descriptor("cpu"), 20).unwrap());
        let entry = cat.get("cpu").unwrap();
        assert_eq!(entry.version, 3);
        assert!(entry.is_live(20));
    }

    #[test]
    fn merge_prefers_higher_version_and_tombstones_on_ties() {
        let mut a = QueryCatalog::new();
        let mut b = QueryCatalog::new();
        a.install(descriptor("cpu"), 0).unwrap();
        b.install(descriptor("cpu"), 0).unwrap();
        // Same version on both sides: merging is a no-op either way.
        let b_entries: Vec<CatalogEntry> = b.entries().cloned().collect();
        assert!(!a.merge_all(&b_entries));
        // b removes; its version-2 tombstone must win at a.
        b.remove("cpu", 1).unwrap();
        let b_entries: Vec<CatalogEntry> = b.entries().cloned().collect();
        assert!(a.merge_all(&b_entries));
        assert_eq!(a.live_count(2), 0);
        // Re-merging the same tombstone changes nothing.
        assert!(!a.merge_all(&b_entries));
    }

    #[test]
    fn merge_converges_regardless_of_order() {
        let mut x = QueryCatalog::new();
        x.install(descriptor("a"), 0).unwrap();
        x.remove("a", 1).unwrap();
        x.install(descriptor("a"), 2).unwrap();
        let mut y = QueryCatalog::new();
        y.install(descriptor("b"), 0).unwrap();

        let x_entries: Vec<CatalogEntry> = x.entries().cloned().collect();
        let y_entries: Vec<CatalogEntry> = y.entries().cloned().collect();
        let mut xy = x.clone();
        xy.merge_all(&y_entries);
        let mut yx = y.clone();
        yx.merge_all(&x_entries);
        assert_eq!(xy, yx);
        assert_eq!(xy.live_count(3), 2);
    }

    #[test]
    fn ttl_expiry_is_deterministic_and_merge_stable() {
        let mut a = QueryCatalog::new();
        let d = descriptor("tmp").with_ttl_ms(100);
        a.install(d, 50).unwrap();
        assert!(a.get("tmp").unwrap().is_live(149));
        assert!(!a.get("tmp").unwrap().is_live(150));
        let mut b = a.clone();
        assert_eq!(a.expire(150), 1);
        assert_eq!(b.expire(150), 1);
        // Both replicas produced the same tombstone independently.
        let b_entries: Vec<CatalogEntry> = b.entries().cloned().collect();
        assert!(!a.merge_all(&b_entries));
        assert_eq!(a.expire(151), 0);
    }

    #[test]
    fn merge_skips_invalid_entries_and_keeps_their_neighbours() {
        let entry = |descriptor| CatalogEntry {
            descriptor,
            version: 1,
            deleted: false,
            installed_at: 0,
            expires_at: 0,
        };
        let incoming = [
            entry(descriptor("a")),
            entry(descriptor("bad").with_gamma(0)),
            entry(descriptor("z")),
        ];
        let mut cat = QueryCatalog::new();
        assert!(cat.merge_all(&incoming));
        assert!(cat.get("bad").is_none());
        assert_eq!(cat.live_count(0), 2);
        // Alone, the bad entry changes nothing; nor does one anchored
        // too close to the end of time to schedule an epoch after.
        assert!(!cat.merge(&incoming[1]));
        let mut far = entry(descriptor("far"));
        far.installed_at = u64::MAX - MAX_EPOCH_MS + 1;
        assert!(!cat.merge(&far));
        far.installed_at -= 1;
        assert!(cat.merge(&far));
    }

    #[test]
    fn install_rejects_invalid_descriptor() {
        let mut cat = QueryCatalog::new();
        let mut bad = descriptor("");
        bad.name = String::new();
        assert!(matches!(
            cat.install(bad, 0),
            Err(QueryError::InvalidDescriptor(_))
        ));
        assert!(cat.is_empty());
    }
}
