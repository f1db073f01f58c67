//! The event model: what one recorded trace entry looks like.

use std::borrow::Cow;
use std::fmt;

/// What kind of dataplane object an event is about. Keeping this a small
/// closed enum (rather than free-form strings) makes entity filters cheap
/// and keeps the JSONL schema stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// No particular entity (process-wide events).
    None,
    /// A remote supplier, identified by its TCP port (loopback dataplane)
    /// or node index (simulator).
    Peer,
    /// One accepted server-side connection.
    Conn,
    /// A map output file.
    Mof,
    /// One scheduled fetch operation (client token).
    Op,
    /// One merge input stream.
    Stream,
    /// A buffer pool.
    Pool,
    /// A simulated cluster node.
    Node,
    /// The cluster control plane's supplier registry.
    Registry,
}

impl EntityKind {
    /// Stable lowercase tag used in JSONL and the text timeline.
    pub fn as_str(self) -> &'static str {
        match self {
            EntityKind::None => "none",
            EntityKind::Peer => "peer",
            EntityKind::Conn => "conn",
            EntityKind::Mof => "mof",
            EntityKind::Op => "op",
            EntityKind::Stream => "stream",
            EntityKind::Pool => "pool",
            EntityKind::Node => "node",
            EntityKind::Registry => "registry",
        }
    }

    /// Inverse of [`EntityKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "none" => EntityKind::None,
            "peer" => EntityKind::Peer,
            "conn" => EntityKind::Conn,
            "mof" => EntityKind::Mof,
            "op" => EntityKind::Op,
            "stream" => EntityKind::Stream,
            "pool" => EntityKind::Pool,
            "node" => EntityKind::Node,
            "registry" => EntityKind::Registry,
            _ => return None,
        })
    }
}

/// The dataplane object an event is tagged with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Entity {
    pub kind: EntityKind,
    pub id: u64,
}

impl Entity {
    /// The anonymous entity.
    pub const NONE: Entity = Entity {
        kind: EntityKind::None,
        id: 0,
    };

    pub fn peer(id: u64) -> Self {
        Entity {
            kind: EntityKind::Peer,
            id,
        }
    }
    pub fn conn(id: u64) -> Self {
        Entity {
            kind: EntityKind::Conn,
            id,
        }
    }
    pub fn mof(id: u64) -> Self {
        Entity {
            kind: EntityKind::Mof,
            id,
        }
    }
    pub fn op(id: u64) -> Self {
        Entity {
            kind: EntityKind::Op,
            id,
        }
    }
    pub fn stream(id: u64) -> Self {
        Entity {
            kind: EntityKind::Stream,
            id,
        }
    }
    pub fn pool(id: u64) -> Self {
        Entity {
            kind: EntityKind::Pool,
            id,
        }
    }
    pub fn node(id: u64) -> Self {
        Entity {
            kind: EntityKind::Node,
            id,
        }
    }
    pub fn registry(id: u64) -> Self {
        Entity {
            kind: EntityKind::Registry,
            id,
        }
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == EntityKind::None {
            f.write_str("none")
        } else {
            write!(f, "{}:{}", self.kind.as_str(), self.id)
        }
    }
}

/// Instant (a point in time) or span (a closed interval). A span is
/// recorded as one event when it closes, carrying both endpoints, so a
/// ring-buffer eviction can never separate a start from its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Instant,
    Span,
}

/// One recorded trace entry.
///
/// `name` is `Cow` so live recording borrows the `&'static str` literal
/// from the instrumentation site (no allocation on the hot path) while
/// the JSONL parser can still materialise owned names that compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dense record sequence number; total order of recording, preserved
    /// across ring eviction (evicting drops the lowest sequence numbers).
    pub seq: u64,
    /// Start time, nanoseconds from the trace origin. For instants this
    /// is *the* time.
    pub t: u64,
    /// End time; `end == t` for instants, `end >= t` for spans.
    pub end: u64,
    pub kind: EventKind,
    /// Small dense per-process thread tag (not the OS thread id).
    pub thread: u64,
    pub entity: Entity,
    /// Instrumentation point name, dot-separated (`"disk.read"`).
    pub name: Cow<'static, str>,
    /// First payload word; meaning is per-name (documented at the site).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Event {
    /// Span length in nanoseconds (0 for instants).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.t)
    }

    pub fn is_span(&self) -> bool {
        self.kind == EventKind::Span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_kind_tags_round_trip() {
        for kind in [
            EntityKind::None,
            EntityKind::Peer,
            EntityKind::Conn,
            EntityKind::Mof,
            EntityKind::Op,
            EntityKind::Stream,
            EntityKind::Pool,
            EntityKind::Node,
            EntityKind::Registry,
        ] {
            assert_eq!(EntityKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EntityKind::parse("bogus"), None);
    }

    #[test]
    fn entity_display() {
        assert_eq!(Entity::peer(7000).to_string(), "peer:7000");
        assert_eq!(Entity::NONE.to_string(), "none");
    }

    #[test]
    fn borrowed_and_owned_names_compare_equal() {
        let a = Cow::Borrowed("disk.read");
        let b: Cow<'static, str> = Cow::Owned("disk.read".to_string());
        assert_eq!(a, b);
    }
}
