//! A dense, index-keyed map for per-flow and per-link state.
//!
//! The simulator's ids ([`crate::types::FlowId`], [`crate::types::LinkId`])
//! are small dense integers, so the flow tables on the packet hot path
//! don't need hashing at all: a `Vec<Option<V>>` indexed by the id gives
//! O(1) lookups with no SipHash per packet and no pointer chasing beyond
//! the single slab. Iteration order is index order — deterministic by
//! construction, which the replay goldens rely on.
//!
//! Box large values (`DenseMap<Box<BigState>>`) so sparse tables over a
//! wide id space stay cheap: the slab then costs one pointer per id.

/// A map from a dense integer key to `V`, backed by `Vec<Option<V>>`.
///
/// Keys are anything convertible to `usize` via [`DenseKey`]; the newtype
/// ids in [`crate::types`] implement it.
#[derive(Clone, Debug)]
pub struct DenseMap<K: DenseKey, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: std::marker::PhantomData<K>,
}

/// A key type usable with [`DenseMap`]: a cheap bijection to `usize`.
pub trait DenseKey: Copy {
    fn dense_index(self) -> usize;
}

impl<K: DenseKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
            _key: std::marker::PhantomData,
        }
    }

    #[inline]
    pub fn get(&self, k: K) -> Option<&V> {
        self.slots.get(k.dense_index()).and_then(|s| s.as_ref())
    }

    #[inline]
    pub fn get_mut(&mut self, k: K) -> Option<&mut V> {
        self.slots.get_mut(k.dense_index()).and_then(|s| s.as_mut())
    }

    #[inline]
    pub fn contains_key(&self, k: K) -> bool {
        self.get(k).is_some()
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let slot = self.slot(k);
        let old = slot.replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    pub fn remove(&mut self, k: K) -> Option<V> {
        let old = self.slots.get_mut(k.dense_index()).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The slot for `k`, growing the slab on demand.
    pub fn slot(&mut self, k: K) -> &mut Option<V> {
        let i = k.dense_index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// The value for `k`, inserting `V::default()` if vacant.
    pub fn get_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        let i = k.dense_index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(V::default());
            self.len += 1;
        }
        self.slots[i].as_mut().expect("just filled")
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied entries in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FlowId;

    #[test]
    fn insert_get_remove() {
        let mut m: DenseMap<FlowId, u32> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(FlowId(3), 30), None);
        assert_eq!(m.insert(FlowId(0), 1), None);
        assert_eq!(m.insert(FlowId(0), 2), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(FlowId(0)), Some(&2));
        assert_eq!(m.get(FlowId(1)), None);
        assert!(m.contains_key(FlowId(3)));
        assert_eq!(m.remove(FlowId(3)), Some(30));
        assert_eq!(m.remove(FlowId(3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn values_iterate_in_key_order() {
        let mut m: DenseMap<FlowId, u32> = DenseMap::new();
        m.insert(FlowId(5), 50);
        m.insert(FlowId(1), 10);
        m.insert(FlowId(9), 90);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(
            vals,
            vec![10, 50, 90],
            "iteration is key order, not insertion"
        );
    }

    #[test]
    fn get_or_default_counts_once() {
        let mut m: DenseMap<FlowId, u64> = DenseMap::new();
        *m.get_or_default(FlowId(7)) += 1;
        *m.get_or_default(FlowId(7)) += 1;
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(FlowId(7)), Some(&2));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m: DenseMap<FlowId, String> = DenseMap::new();
        m.insert(FlowId(2), "a".to_string());
        m.get_mut(FlowId(2)).unwrap().push('b');
        assert_eq!(m.get(FlowId(2)).map(String::as_str), Some("ab"));
        assert_eq!(m.get_mut(FlowId(4)), None);
    }
}
