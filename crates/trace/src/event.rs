//! Structured event spans and the bounded ring that stores them.
//!
//! Events are only *stored* once `Telemetry::start_events` has armed the
//! shared handle. The ring is bounded ([`RING_CAPACITY`] by default):
//! once full, the oldest events are overwritten, so a trace of an
//! arbitrarily long run costs constant memory and always holds the most
//! recent window — the part that explains a failure.

use crate::op::OpClass;
use crate::Nanos;

/// The stack layer an event originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Raw NAND array.
    Flash,
    /// Flash translation layer (any personality) and device transactions.
    Ftl,
    /// File system.
    Fs,
    /// Database (pager + SQL).
    Db,
}

impl Layer {
    /// Stable lowercase name for event streams.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Flash => "flash",
            Layer::Ftl => "ftl",
            Layer::Fs => "fs",
            Layer::Db => "db",
        }
    }
}

/// One timed span on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Originating layer (derived from `op`).
    pub layer: Layer,
    /// Operation class.
    pub op: OpClass,
    /// Transaction id (0 = non-transactional).
    pub tid: u64,
    /// Logical page number, or 0 where not meaningful.
    pub lpn: u64,
    /// Span start, simulated nanoseconds.
    pub t_start: Nanos,
    /// Span end, simulated nanoseconds.
    pub t_end: Nanos,
}

impl Event {
    /// One JSONL line (no trailing newline). Field order is fixed so the
    /// stream is byte-stable across runs.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"layer\":\"{}\",\"op\":\"{}\",\"tid\":{},\"lpn\":{},\"t_start\":{},\"t_end\":{}}}",
            self.layer.name(),
            self.op.name(),
            self.tid,
            self.lpn,
            self.t_start,
            self.t_end
        )
    }
}

/// Default capacity of the event ring.
pub const RING_CAPACITY: usize = 1 << 16;

/// Bounded ring of [`Event`]s; overwrites the oldest when full.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the logically first (oldest) event once wrapped.
    head: usize,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(RING_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
        }
    }

    /// Appends an event, overwriting the oldest if full.
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The whole ring as JSONL, one event per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.iter() {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Nanos) -> Event {
        Event {
            layer: Layer::Flash,
            op: OpClass::ChipRead,
            tid: 0,
            lpn: t,
            t_start: t,
            t_end: t + 1,
        }
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = EventRing::with_capacity(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        let kept: Vec<Nanos> = r.iter().map(|e| e.t_start).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut r = EventRing::with_capacity(8);
        r.push(ev(10));
        r.push(ev(20));
        let s = r.to_jsonl();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("{\"layer\":\"flash\",\"op\":\"chip_read\""));
        assert_eq!(EventRing::default().to_jsonl(), "");
    }
}
