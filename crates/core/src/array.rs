//! Chare-array metadata: the global array specification and the per-PE
//! view of the object→PE placement.
//!
//! Objects move only at load-balancing barriers (Charm++ "AtSync" mode), so
//! every PE can hold a complete, always-consistent view of the object→PE
//! placement: it is seeded from the initial [`Mapping`] and replaced
//! wholesale when PE 0 broadcasts a new assignment.  Message routing is
//! therefore a single vector lookup, with no forwarding races.  The seed
//! is one [`Placement`] per array per generation, which every PE's view
//! shares until a barrier changes it there (copy on write).

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

/// One array's object→PE table with each PE's element count beside it, so
/// that "how many elements does this PE host" is a lookup, not a scan.
#[derive(Clone, Debug)]
pub struct Placement {
    /// location[elem] = PE hosting it.
    location: Vec<Pe>,
    /// counts[pe] = elements on `pe` (PEs past the end host none).
    counts: Vec<u32>,
}

impl Placement {
    fn new(location: Vec<Pe>) -> Self {
        let mut placement = Placement { location: Vec::new(), counts: Vec::new() };
        for &pe in &location {
            placement.add(pe);
        }
        placement.location = location;
        placement
    }

    /// The initial placement of `spec`'s elements over `topo`.
    pub fn initial(spec: &ArraySpec, topo: &Topology) -> Self {
        Placement::new(spec.mapping.place_all(spec.n_elems, topo))
    }

    /// The full table.
    pub fn locations(&self) -> &[Pe] {
        &self.location
    }

    /// Number of elements on `pe`.
    pub fn count_on(&self, pe: Pe) -> usize {
        self.counts.get(pe.index()).map_or(0, |&n| n as usize)
    }

    fn relocate(&mut self, elem: ElemId, to: Pe) {
        let from = std::mem::replace(&mut self.location[elem.index()], to);
        self.counts[from.index()] -= 1;
        self.add(to);
    }

    fn add(&mut self, pe: Pe) {
        if pe.index() >= self.counts.len() {
            self.counts.resize(pe.index() + 1, 0);
        }
        self.counts[pe.index()] += 1;
    }
}

/// Per-PE view of one array: spec + the placement, shared with every other
/// PE's view until this one changes it.
pub struct ArrayLocal {
    /// The shared spec.
    pub spec: Arc<ArraySpec>,
    placement: Arc<Placement>,
}

impl ArrayLocal {
    /// A view over `placement` (one per array per generation, shared by
    /// every PE's view).
    pub fn new(spec: Arc<ArraySpec>, placement: Arc<Placement>) -> Self {
        assert_eq!(placement.location.len(), spec.n_elems, "placement must cover every element");
        ArrayLocal { spec, placement }
    }

    /// Where an element currently lives.
    pub fn location(&self, elem: ElemId) -> Pe {
        self.placement.location[elem.index()]
    }

    /// The full placement.
    pub fn locations(&self) -> &[Pe] {
        &self.placement.location
    }

    /// The placement this view reads (shared until this view changes it).
    pub fn placement(&self) -> &Arc<Placement> {
        &self.placement
    }

    /// Elements currently placed on `pe`.
    pub fn elems_on(&self, pe: Pe) -> impl Iterator<Item = ElemId> + '_ {
        self.locations().iter().enumerate().filter(move |&(_, &p)| p == pe).map(|(i, _)| ElemId(i as u32))
    }

    /// Number of elements on `pe`.
    pub fn count_on(&self, pe: Pe) -> usize {
        self.placement.count_on(pe)
    }

    /// Replace the placement (at a load-balancing barrier).
    pub fn set_locations(&mut self, new: Vec<Pe>) {
        assert_eq!(new.len(), self.spec.n_elems, "placement must cover every element");
        self.placement = Arc::new(Placement::new(new));
    }

    /// Move one element in the table.
    pub fn relocate(&mut self, elem: ElemId, to: Pe) {
        Arc::make_mut(&mut self.placement).relocate(elem, to);
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

    fn view(spec: Arc<ArraySpec>, topo: &Topology) -> ArrayLocal {
        let placement = Arc::new(Placement::initial(&spec, topo));
        ArrayLocal::new(spec, placement)
    }

    #[test]
    fn initial_locations_follow_mapping() {
        let topo = Topology::two_cluster(4);
        let local = view(spec(8, Mapping::Block), &topo);
        assert_eq!(local.location(ElemId(0)), Pe(0));
        assert_eq!(local.location(ElemId(7)), Pe(3));
        assert_eq!(local.count_on(Pe(2)), 2);
        assert_eq!(local.elems_on(Pe(1)).collect::<Vec<_>>(), vec![ElemId(2), ElemId(3)]);
    }

    #[test]
    fn relocation_updates_table() {
        let topo = Topology::two_cluster(2);
        let mut local = view(spec(4, Mapping::Block), &topo);
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
        let mut local = view(spec(4, Mapping::Block), &topo);
        local.set_locations(vec![Pe(0)]);
    }
}
