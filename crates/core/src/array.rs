//! Chare-array metadata: the global array specification and the per-PE
//! replicated location table.
//!
//! Objects move only at load-balancing barriers (Charm++ "AtSync" mode), so
//! every PE can hold a complete, always-consistent copy of the object→PE
//! placement: it is seeded from the initial [`Mapping`] and replaced
//! wholesale when PE 0 broadcasts a new assignment.  Message routing is
//! therefore a single vector lookup, with no forwarding races.

use std::sync::Arc;

use mdo_netsim::{Pe, Topology};

use crate::chare::{ElemFactory, ElemUnpacker};
use crate::ids::{ArrayId, ElemId};
use crate::mapping::Mapping;

/// Global (engine-wide) description of one chare array.
pub struct ArraySpec {
    /// The array's id (dense, assigned by the [`crate::program::Program`]).
    pub id: ArrayId,
    /// Human-readable name for reports.
    pub name: String,
    /// Number of elements.
    pub n_elems: usize,
    /// Constructor for initial elements.
    pub factory: Arc<ElemFactory>,
    /// Re-constructor for migrated elements (None = array not migratable).
    pub unpacker: Option<Arc<ElemUnpacker>>,
    /// Initial placement.
    pub mapping: Mapping,
}

impl std::fmt::Debug for ArraySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArraySpec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("n_elems", &self.n_elems)
            .field("migratable", &self.unpacker.is_some())
            .field("mapping", &self.mapping)
            .finish()
    }
}

/// Per-PE view of one array: spec + replicated location table.
pub struct ArrayLocal {
    /// The shared spec.
    pub spec: Arc<ArraySpec>,
    /// location[elem] = PE currently hosting it (replicated everywhere).
    location: Vec<Pe>,
}

impl ArrayLocal {
    /// Build the initial view from the spec's mapping.
    pub fn new(spec: Arc<ArraySpec>, topo: &Topology) -> Self {
        let location = spec.mapping.place_all(spec.n_elems, topo);
        ArrayLocal { spec, location }
    }

    /// Where an element currently lives.
    pub fn location(&self, elem: ElemId) -> Pe {
        self.location[elem.index()]
    }

    /// The full placement.
    pub fn locations(&self) -> &[Pe] {
        &self.location
    }

    /// Elements currently placed on `pe`.
    pub fn elems_on(&self, pe: Pe) -> impl Iterator<Item = ElemId> + '_ {
        self.location.iter().enumerate().filter(move |&(_, &p)| p == pe).map(|(i, _)| ElemId(i as u32))
    }

    /// Number of elements on `pe`.
    pub fn count_on(&self, pe: Pe) -> usize {
        self.location.iter().filter(|&&p| p == pe).count()
    }

    /// Replace the placement (at a load-balancing barrier).
    pub fn set_locations(&mut self, new: Vec<Pe>) {
        assert_eq!(new.len(), self.spec.n_elems, "placement must cover every element");
        self.location = new;
    }

    /// Move one element in the table.
    pub fn relocate(&mut self, elem: ElemId, to: Pe) {
        self.location[elem.index()] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::{Chare, Ctx};
    use crate::ids::EntryId;

    struct Dummy;
    impl Chare for Dummy {
        fn receive(&mut self, _e: EntryId, _p: &[u8], _c: &mut Ctx<'_>) {}
    }

    fn spec(n: usize, mapping: Mapping) -> Arc<ArraySpec> {
        Arc::new(ArraySpec {
            id: ArrayId(1),
            name: "test".into(),
            n_elems: n,
            factory: Arc::new(|_| Box::new(Dummy)),
            unpacker: None,
            mapping,
        })
    }

    #[test]
    fn initial_locations_follow_mapping() {
        let topo = Topology::two_cluster(4);
        let local = ArrayLocal::new(spec(8, Mapping::Block), &topo);
        assert_eq!(local.location(ElemId(0)), Pe(0));
        assert_eq!(local.location(ElemId(7)), Pe(3));
        assert_eq!(local.count_on(Pe(2)), 2);
        assert_eq!(local.elems_on(Pe(1)).collect::<Vec<_>>(), vec![ElemId(2), ElemId(3)]);
    }

    #[test]
    fn relocation_updates_table() {
        let topo = Topology::two_cluster(2);
        let mut local = ArrayLocal::new(spec(4, Mapping::Block), &topo);
        local.relocate(ElemId(0), Pe(1));
        assert_eq!(local.location(ElemId(0)), Pe(1));
        assert_eq!(local.count_on(Pe(0)), 1);
        assert_eq!(local.count_on(Pe(1)), 3);
        local.set_locations(vec![Pe(0); 4]);
        assert_eq!(local.count_on(Pe(0)), 4);
    }

    #[test]
    #[should_panic(expected = "cover every element")]
    fn set_locations_must_be_complete() {
        let topo = Topology::two_cluster(2);
        let mut local = ArrayLocal::new(spec(4, Mapping::Block), &topo);
        local.set_locations(vec![Pe(0)]);
    }
}
