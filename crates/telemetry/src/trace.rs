//! Sampled instance-lifecycle trace ring.
//!
//! A bounded ring buffer of [`SpanEvent`]s covering the life of an
//! instance: admit → lock-acquire / lock-wait → write → commit / abort
//! → audit-arc. Whole instances are sampled (every `1/rate` by global
//! id) so a captured instance's events are complete and a single slow
//! straggler can be reconstructed end to end. Unsampled instances never
//! touch the ring — the check is one modulo — so the hot path stays
//! lock-free; sampled events take a short `Mutex` push, which the crate
//! documents honestly rather than pretending a lock-free MPSC exists
//! without dependencies.
//!
//! Events dump as JSON lines ([`TraceRing::dump_jsonl`]) for
//! flamegraph-style offline inspection.

// Leaf lock in a dependency-free crate; see lib.rs. lockdep: allow(std-sync)
use std::sync::Mutex;

/// What happened at one point of an instance's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Instance passed the admission gate and began executing.
    Admit,
    /// One entity lock acquired; `dur_ns` is the time spent waiting
    /// for it (0 when granted immediately).
    LockAcquire,
    /// One entity written; `dur_ns` is unused.
    Write,
    /// Instance committed; `dur_ns` is the commit-phase duration.
    Commit,
    /// One attempt aborted (wait-die); `dur_ns` is the undo duration.
    Abort,
}

impl SpanKind {
    /// Stable lowercase name used in the JSON dump.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::LockAcquire => "lock_acquire",
            SpanKind::Write => "write",
            SpanKind::Commit => "commit",
            SpanKind::Abort => "abort",
        }
    }
}

/// One plain-data lifecycle event. Copy, no allocation on record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Nanoseconds since the telemetry handle was created.
    pub ts_ns: u64,
    /// The instance's engine-lifetime id (also its WAL id).
    pub gid: u64,
    /// Template index of the instance.
    pub template: u32,
    /// 1-based attempt number (wait-die retries bump it).
    pub attempt: u32,
    /// What happened.
    pub kind: SpanKind,
    /// Entity involved, or `u32::MAX` when not entity-scoped.
    pub entity: u32,
    /// Duration in nanoseconds where the kind defines one, else 0.
    pub dur_ns: u64,
    /// Kind-specific count (rolled-back writes for [`SpanKind::Abort`]).
    pub n: u64,
}

/// Bounded ring of sampled [`SpanEvent`]s. Oldest events are
/// overwritten once `capacity` is reached; `dropped` counts them.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingState>,
    capacity: usize,
}

#[derive(Debug)]
struct RingState {
    events: Vec<SpanEvent>,
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(RingState {
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Pushes one event, evicting the oldest when full.
    pub fn push(&self, ev: SpanEvent) {
        let mut st = self.inner.lock().expect("trace ring poisoned");
        if st.events.len() < self.capacity {
            st.events.push(ev);
        } else {
            let head = st.head;
            st.events[head] = ev;
            st.head = (head + 1) % self.capacity;
            st.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn captured(&self) -> Vec<SpanEvent> {
        let st = self.inner.lock().expect("trace ring poisoned");
        let mut out = Vec::with_capacity(st.events.len());
        out.extend_from_slice(&st.events[st.head..]);
        out.extend_from_slice(&st.events[..st.head]);
        out
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Renders the held events as JSON lines, oldest first: one object
    /// per line with `ts_ns`, `gid`, `template`, `attempt`, `kind`,
    /// `entity` (absent when not entity-scoped), `dur_ns`, and `n`
    /// (absent when 0). Hand-rolled on purpose — keys and values are
    /// all numeric or fixed identifiers, so no escaping is needed and
    /// the crate stays dependency-free.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.captured() {
            out.push_str(&format!(
                "{{\"ts_ns\":{},\"gid\":{},\"template\":{},\"attempt\":{},\"kind\":\"{}\"",
                ev.ts_ns,
                ev.gid,
                ev.template,
                ev.attempt,
                ev.kind.name()
            ));
            if ev.entity != u32::MAX {
                out.push_str(&format!(",\"entity\":{}", ev.entity));
            }
            out.push_str(&format!(",\"dur_ns\":{}", ev.dur_ns));
            if ev.n != 0 {
                out.push_str(&format!(",\"n\":{}", ev.n));
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(gid: u64, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            ts_ns: gid * 10,
            gid,
            template: 0,
            attempt: 1,
            kind,
            entity: u32::MAX,
            dur_ns: 0,
            n: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = TraceRing::new(3);
        for gid in 0..5 {
            ring.push(ev(gid, SpanKind::Admit));
        }
        let got: Vec<u64> = ring.captured().iter().map(|e| e.gid).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn jsonl_one_line_per_event_with_optional_fields() {
        let ring = TraceRing::new(8);
        ring.push(ev(7, SpanKind::Admit));
        ring.push(SpanEvent {
            entity: 3,
            dur_ns: 42,
            n: 9,
            ..ev(7, SpanKind::Abort)
        });
        let dump = ring.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"admit\""));
        assert!(!lines[0].contains("entity"));
        assert!(lines[1].contains("\"entity\":3"));
        assert!(lines[1].contains("\"n\":9"));
        assert!(lines[1].ends_with('}'));
    }

    #[test]
    fn empty_ring_dumps_nothing() {
        let ring = TraceRing::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.dump_jsonl(), "");
    }
}
