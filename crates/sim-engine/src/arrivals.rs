//! Arrival cursor: a run's pre-timed arrivals, merged into the event
//! loop without ever entering the event queue.
//!
//! An open-loop run knows every arrival time before it starts.
//! Scheduling them all up front would keep the whole trace pending in
//! the queue for the run's lifetime, and every push and pop would pay
//! for it. The cursor walks the arrivals in stable `(time, position)`
//! order instead, and the loop takes the next arrival whenever it is
//! due no later than the queue's next event.
//!
//! Ties go to the cursor. That reproduces the pop order of the
//! up-front scheme exactly: arrivals scheduled before any other event
//! get the lowest sequence numbers, so at equal times they always
//! popped first, in position order.

use crate::time::SimTime;

/// What [`ArrivalCursor::pop`] hands the loop next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next<E> {
    /// The arrival at this position of the input.
    Arrival(usize),
    /// An event popped from the queue.
    Event(E),
}

/// Stable-order cursor over a run's arrival times. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct ArrivalCursor {
    /// `(time, position)`, ascending.
    order: Vec<(SimTime, usize)>,
    next: usize,
}

impl ArrivalCursor {
    /// A cursor over `arrivals`, the arrival time of each input position.
    pub fn new(arrivals: impl IntoIterator<Item = SimTime>) -> Self {
        let mut c = ArrivalCursor::default();
        c.load(arrivals);
        c
    }

    /// Replace the arrivals and rewind, keeping the allocation.
    pub fn load(&mut self, arrivals: impl IntoIterator<Item = SimTime>) {
        self.order.clear();
        self.order
            .extend(arrivals.into_iter().enumerate().map(|(i, t)| (t, i)));
        // `(time, position)` pairs are distinct, so this is the stable
        // order by time; already-sorted input costs one linear pass.
        self.order.sort_unstable();
        self.next = 0;
    }

    /// The loop's next step: the next arrival when it is due at or
    /// before `queue_next` (the queue's `peek_time()`), otherwise the
    /// event `pop_queue` returns. `None` once both are exhausted.
    pub fn pop<E>(
        &mut self,
        queue_next: Option<SimTime>,
        pop_queue: impl FnOnce() -> Option<(SimTime, E)>,
    ) -> Option<(SimTime, Next<E>)> {
        match self.order.get(self.next) {
            Some(&(t, i)) if queue_next.is_none_or(|q| t <= q) => {
                self.next += 1;
                Some((t, Next::Arrival(i)))
            }
            _ => pop_queue().map(|(t, ev)| (t, Next::Event(ev))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    /// Drain a cursor merged with a queue into `(time, label)` pairs.
    fn drain(c: &mut ArrivalCursor, q: &mut EventQueue<&'static str>) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        while let Some((t, next)) = c.pop(q.peek_time(), || q.pop()) {
            let label = match next {
                Next::Arrival(i) => format!("a{i}"),
                Next::Event(e) => e.to_string(),
            };
            out.push((t.0, label));
        }
        out
    }

    #[test]
    fn matches_scheduling_everything_up_front() {
        let times = [5u64, 1, 5, 3, 1, 9];
        let events = [(1u64, "e1"), (5, "e5"), (7, "e7"), (0, "e0")];
        // Reference: arrivals scheduled first, then the other events.
        let mut reference: EventQueue<String> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            reference.schedule(SimTime(t), format!("a{i}"));
        }
        for &(t, e) in &events {
            reference.schedule(SimTime(t), e.to_string());
        }
        let mut want = Vec::new();
        while let Some((t, e)) = reference.pop() {
            want.push((t.0, e));
        }

        let mut c = ArrivalCursor::new(times.iter().map(|&t| SimTime(t)));
        let mut q = EventQueue::new();
        for &(t, e) in &events {
            q.schedule(SimTime(t), e);
        }
        assert_eq!(drain(&mut c, &mut q), want);
    }

    #[test]
    fn load_rewinds_and_reuses() {
        let mut c = ArrivalCursor::new([SimTime(2), SimTime(1)]);
        let mut q = EventQueue::new();
        assert_eq!(drain(&mut c, &mut q).len(), 2);
        c.load([SimTime(4)]);
        assert_eq!(drain(&mut c, &mut q), vec![(4, "a0".to_string())]);
    }

    #[test]
    fn empty_cursor_passes_the_queue_through() {
        let mut c = ArrivalCursor::default();
        let mut q = EventQueue::new();
        q.schedule(SimTime(3), "x");
        assert_eq!(drain(&mut c, &mut q), vec![(3, "x".to_string())]);
    }
}
