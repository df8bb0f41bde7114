use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use cds_core::ConcurrentMap;
use cds_sync::Mutex;

/// A `HashMap` behind one mutex: the coarse-grained baseline (E5).
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentMap;
/// use cds_map::CoarseMap;
///
/// let m = CoarseMap::new();
/// m.insert("k", 1);
/// assert_eq!(m.get(&"k"), Some(1));
/// ```
pub struct CoarseMap<K, V> {
    inner: Mutex<HashMap<K, V>>,
}

impl<K, V> CoarseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        CoarseMap {
            inner: Mutex::new(HashMap::new()),
        }
    }
}

impl<K, V> Default for CoarseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Send, V: Clone + Send> ConcurrentMap<K, V> for CoarseMap<K, V> {
    const NAME: &'static str = "coarse";

    fn insert(&self, key: K, value: V) -> bool {
        let mut inner = self.inner.lock();
        if let std::collections::hash_map::Entry::Vacant(e) = inner.entry(key) {
            e.insert(value);
            true
        } else {
            false
        }
    }

    fn remove(&self, key: &K) -> bool {
        self.inner.lock().remove(key).is_some()
    }

    fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().get(key).cloned()
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

impl<K, V> fmt::Debug for CoarseMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseMap")
            .field("len", &self.inner.lock().len())
            .finish()
    }
}
