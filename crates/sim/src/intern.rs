//! String interner for session/query names.
//!
//! The scheduler's hot structures store names as dense `u32` symbols; the
//! backing `Arc<str>` is resolved only at trace/report boundaries (obs
//! emission, snapshots, finished records). Interning a name the system has
//! seen before is a hash lookup with no allocation, so workloads that reuse
//! a label (retries, bursts, benchmark streams) pay nothing per submission.
//!
//! Symbols are never observable outside the crate: every name leaves it
//! as its `Arc<str>`, so symbol numbering decides no behaviour.

use std::collections::HashMap;
use std::sync::Arc;

/// Interned name symbol. Dense, starting at 0, private to the scheduler.
pub(crate) type Sym = u32;

/// Append-only intern table.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    names: Vec<Arc<str>>,
    map: HashMap<Arc<str>, Sym>,
}

impl Interner {
    pub(crate) fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, returning its symbol. Existing names are deduplicated
    /// (the freshly converted `Arc` is dropped); new names append.
    pub(crate) fn intern(&mut self, name: Arc<str>) -> Sym {
        if let Some(&sym) = self.map.get(&name) {
            return sym;
        }
        let sym = u32::try_from(self.names.len()).unwrap_or_else(|_| {
            // 2^32 distinct live names would out-size any simulated
            // workload by orders of magnitude; treat as a logic error.
            panic!("interner overflow: more than u32::MAX distinct names")
        });
        self.names.push(Arc::clone(&name));
        self.map.insert(name, sym);
        sym
    }

    /// The name behind `sym`. Symbols only come from [`Interner::intern`],
    /// so out-of-range access is a crate-internal logic error.
    #[inline]
    pub(crate) fn resolve(&self, sym: Sym) -> &Arc<str> {
        &self.names[sym as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("alpha".into());
        let b = i.intern("beta".into());
        let a2 = i.intern("alpha".into());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a).as_ref(), "alpha");
        assert_eq!(i.resolve(b).as_ref(), "beta");
    }
}
