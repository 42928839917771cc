//! The session registry: one entry per connected client, carrying its
//! generation counter and per-session accounting.
//!
//! The registry is deliberately small: fairness queues and quotas live in
//! the scheduler (`sched`), payloads live in the shared pool, and the
//! prediction tables live with the clients — the server learns no tables,
//! so a thousand sessions cost a thousand small structs.

use std::collections::HashMap;
use std::fmt;

/// Opaque session identifier, assigned at open, never reused within one
/// server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One registered client.
pub(crate) struct Session {
    pub name: String,
    /// Frame generation, the highest any of its `Fetch`es carried:
    /// prefetch submitted under an older generation is stale. Scoped to this session — the engine's global generation is
    /// untouched by serving (one client stepping must not cancel
    /// another's speculation).
    pub generation: u64,
    pub demand_submitted: u64,
    pub prefetch_submitted: u64,
    pub prefetch_shed: u64,
    pub prefetch_resident: u64,
    pub demand_served: u64,
}

/// Read-only snapshot of one session, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionView {
    /// The session's id.
    pub id: SessionId,
    /// Client-chosen display name.
    pub name: String,
    /// Current frame generation.
    pub generation: u64,
    /// Demand keys this session has submitted.
    pub demand_submitted: u64,
    /// Prefetch keys this session has submitted.
    pub prefetch_submitted: u64,
    /// Of those, how many admission shed.
    pub prefetch_shed: u64,
    /// Of those, how many the pool already held (dropped before the shed
    /// ladder).
    pub prefetch_resident: u64,
    /// Demand replies delivered.
    pub demand_served: u64,
}

pub(crate) struct Registry {
    next: u32,
    sessions: HashMap<u32, Session>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry { next: 1, sessions: HashMap::new() }
    }

    pub(crate) fn open(&mut self, name: &str) -> SessionId {
        let id = self.next;
        self.next += 1;
        self.sessions.insert(
            id,
            Session {
                name: name.to_string(),
                generation: 0,
                demand_submitted: 0,
                prefetch_submitted: 0,
                prefetch_shed: 0,
                prefetch_resident: 0,
                demand_served: 0,
            },
        );
        SessionId(id)
    }

    pub(crate) fn close(&mut self, id: SessionId) -> Option<Session> {
        self.sessions.remove(&id.0)
    }

    pub(crate) fn get_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        self.sessions.get_mut(&id.0)
    }

    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn ids(&self) -> Vec<SessionId> {
        let mut v: Vec<SessionId> = self.sessions.keys().copied().map(SessionId).collect();
        v.sort();
        v
    }

    pub(crate) fn views(&self) -> Vec<SessionView> {
        let mut v: Vec<SessionView> = self
            .sessions
            .iter()
            .map(|(&id, s)| SessionView {
                id: SessionId(id),
                name: s.name.clone(),
                generation: s.generation,
                demand_submitted: s.demand_submitted,
                prefetch_submitted: s.prefetch_submitted,
                prefetch_shed: s.prefetch_shed,
                prefetch_resident: s.prefetch_resident,
                demand_served: s.demand_served,
            })
            .collect();
        v.sort_by_key(|s| s.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_never_reused() {
        let mut r = Registry::new();
        let a = r.open("a");
        let b = r.open("b");
        assert_ne!(a, b);
        assert!(r.close(a).is_some());
        let c = r.open("c");
        assert!(c > b, "closed ids must not be recycled");
        assert_eq!(r.len(), 2);
        assert_eq!(r.ids(), vec![b, c]);
        assert!(r.close(a).is_none(), "double close is a no-op");
    }

    #[test]
    fn views_reflect_accounting() {
        let mut r = Registry::new();
        let id = r.open("viewer");
        r.get_mut(id).unwrap().demand_submitted = 5;
        r.get_mut(id).unwrap().generation = 3;
        let v = &r.views()[0];
        assert_eq!((v.id, v.generation, v.demand_submitted), (id, 3, 5));
        assert_eq!(v.name, "viewer");
    }
}
