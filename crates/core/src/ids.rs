//! Identifiers for runtime entities.
//!
//! A running program consists of one or more **chare arrays**; each array
//! holds densely-indexed **elements** (the message-driven objects); each
//! element exposes numbered **entry methods**.  A message is addressed to
//! `(array, element, entry)`.

use std::fmt;

/// A chare array instance within a program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrayId(pub u32);

/// A dense element index within a chare array.  Applications with 2-D or
/// 3-D index spaces linearize them (helpers live with each application).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ElemId(pub u32);

impl ElemId {
    /// The element's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An entry-method selector within a chare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId(pub u16);

/// Fully-qualified object address: array + element.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjKey {
    /// Owning array.
    pub array: ArrayId,
    /// Element within the array.
    pub elem: ElemId,
}

impl ObjKey {
    /// Construct from parts.
    pub fn new(array: ArrayId, elem: ElemId) -> Self {
        ObjKey { array, elem }
    }
}

impl fmt::Debug for ObjKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}[{}]", self.array.0, self.elem.0)
    }
}

impl fmt::Display for ObjKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl From<ObjKey> for mdo_obs::ObjTag {
    fn from(k: ObjKey) -> Self {
        mdo_obs::ObjTag { array: k.array.0, elem: k.elem.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_key_display() {
        let k = ObjKey::new(ArrayId(2), ElemId(17));
        assert_eq!(format!("{k}"), "a2[17]");
        assert_eq!(format!("{k:?}"), "a2[17]");
    }

    #[test]
    fn obj_key_converts_to_tag_with_same_rendering() {
        let key = ObjKey::new(ArrayId(1), ElemId(2));
        let tag: mdo_obs::ObjTag = key.into();
        assert_eq!(tag, mdo_obs::ObjTag { array: 1, elem: 2 });
        assert_eq!(format!("{tag}"), format!("{key}"));
    }

    #[test]
    fn ordering_is_array_then_elem() {
        let a = ObjKey::new(ArrayId(1), ElemId(9));
        let b = ObjKey::new(ArrayId(2), ElemId(0));
        assert!(a < b);
    }
}
