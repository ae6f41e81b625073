//! The bounded event ring each flight-recorder lane is made of: it
//! keeps the newest `capacity` events in arrival order and counts the
//! ones it overwrote. The ring itself is unsynchronised; the flight
//! recorder (see [`flight`](crate::flight)) wraps one per lane in a
//! mutex.

use crate::event::Event;

/// One bounded ring of events.
#[derive(Debug, Default)]
pub(crate) struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    /// Appends `event`, overwriting the oldest once `capacity` (at
    /// least 1) events are held.
    pub(crate) fn record(&mut self, capacity: usize, event: Event) {
        if self.buf.len() < capacity {
            self.buf.push(event);
        } else {
            let head = self.head;
            self.buf[head] = event;
            self.head = (head + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// Appends the retained events to `out`, oldest first.
    pub(crate) fn snapshot_into(&self, out: &mut Vec<Event>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }

    /// Events overwritten because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            t_us: seq * 10,
            target: "t",
            name: "n",
            fields: vec![("i", FieldValue::U64(seq))],
        }
    }

    fn seqs(ring: &Ring) -> Vec<u64> {
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        out.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn ring_keeps_everything_under_capacity() {
        let mut ring = Ring::default();
        for i in 0..3 {
            ring.record(4, ev(i));
        }
        assert_eq!(seqs(&ring), vec![0, 1, 2]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let mut ring = Ring::default();
        for i in 0..10 {
            ring.record(4, ev(i));
        }
        assert_eq!(seqs(&ring), vec![6, 7, 8, 9]);
        assert_eq!(ring.dropped(), 6);
    }
}
