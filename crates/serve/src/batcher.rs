//! The micro-batch coalescing state machine.
//!
//! Pure and clock-parametric: every transition takes `now: Instant` from
//! the caller, so tests drive the batcher with a virtual clock and never
//! sleep. The policy is *size-or-deadline*: a batch flushes the moment it
//! reaches `max_batch` items, or when `max_delay` has elapsed since its
//! **first** item arrived — whichever comes first. A lone straggler is
//! therefore never stuck behind an unfilled batch for more than
//! `max_delay`.

use std::time::{Duration, Instant};

/// Why a micro-batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch` items.
    Size,
    /// `max_delay` elapsed since the batch's first item arrived.
    Deadline,
    /// An explicit drain (manual [`Server::flush`](crate::Server::flush)
    /// or shutdown) forced out a partial batch.
    Drain,
}

/// The coalescer: accumulates items and decides when a micro-batch is
/// ready.
#[derive(Debug)]
pub struct Batcher<T> {
    max_batch: usize,
    max_delay: Duration,
    items: Vec<T>,
    deadline: Option<Instant>,
}

impl<T> Batcher<T> {
    /// A new coalescer flushing at `max_batch` items or `max_delay` after
    /// the first queued item, whichever comes first. `max_batch` is
    /// clamped to at least 1.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        Batcher {
            max_batch: max_batch.max(1),
            max_delay,
            items: Vec::new(),
            deadline: None,
        }
    }

    /// Queues an item at time `now`. Returns the completed batch when
    /// this item fills it to `max_batch` ([`FlushReason::Size`]).
    pub fn push(&mut self, item: T, now: Instant) -> Option<(Vec<T>, FlushReason)> {
        if self.items.is_empty() {
            self.deadline = Some(now + self.max_delay);
        }
        self.items.push(item);
        if self.items.len() >= self.max_batch {
            Some((self.take(), FlushReason::Size))
        } else {
            None
        }
    }

    /// Checks the deadline at time `now`: returns the pending batch when
    /// its deadline has passed ([`FlushReason::Deadline`]).
    pub fn poll(&mut self, now: Instant) -> Option<(Vec<T>, FlushReason)> {
        match self.deadline {
            Some(d) if d <= now && !self.items.is_empty() => {
                Some((self.take(), FlushReason::Deadline))
            }
            _ => None,
        }
    }

    /// Forces out whatever is pending ([`FlushReason::Drain`]); `None`
    /// when empty.
    pub fn drain(&mut self) -> Option<(Vec<T>, FlushReason)> {
        if self.items.is_empty() {
            None
        } else {
            Some((self.take(), FlushReason::Drain))
        }
    }

    /// The pending batch's flush deadline, if one is accumulating.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn take(&mut self) -> Vec<T> {
        self.deadline = None;
        std::mem::take(&mut self.items)
    }
}

/// Splits a flushed batch into `(live, expired)` by each item's
/// client-supplied deadline at time `now` (items without a deadline are
/// always live). Order within each half is preserved.
///
/// This is the flush-time half of deadline propagation: a request whose
/// deadline passed while it coalesced must be *shed* — counted and
/// answered with a structured error — never executed, so an expired
/// flood cannot occupy replica time. Shedding every item turns the
/// flush into a no-op execution (no batch runs at all). Like the
/// [`Batcher`] itself this is pure and clock-parametric: `now` comes
/// from the caller, so tests drive it with a virtual clock.
pub fn shed_expired<T>(
    items: Vec<T>,
    now: Instant,
    deadline_of: impl Fn(&T) -> Option<Instant>,
) -> (Vec<T>, Vec<T>) {
    let mut live = Vec::with_capacity(items.len());
    let mut expired = Vec::new();
    for item in items {
        match deadline_of(&item) {
            Some(d) if d <= now => expired.push(item),
            _ => live.push(item),
        }
    }
    (live, expired)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Instant {
        Instant::now()
    }

    #[test]
    fn size_flush_fires_on_the_filling_push() {
        let mut b = Batcher::new(3, Duration::from_secs(60));
        let t0 = clock();
        assert!(b.push(1, t0).is_none());
        assert!(b.push(2, t0).is_none());
        let (batch, reason) = b.push(3, t0).expect("third push fills the batch");
        assert_eq!(batch, vec![1, 2, 3]);
        assert_eq!(reason, FlushReason::Size);
        assert!(b.is_empty());
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn deadline_flush_releases_a_straggler() {
        let mut b = Batcher::new(8, Duration::from_millis(10));
        let t0 = clock();
        assert!(b.push(42, t0).is_none());
        // Virtual clock: just before the deadline nothing flushes.
        assert!(b.poll(t0 + Duration::from_millis(9)).is_none());
        let (batch, reason) = b
            .poll(t0 + Duration::from_millis(10))
            .expect("deadline hit");
        assert_eq!(batch, vec![42]);
        assert_eq!(reason, FlushReason::Deadline);
    }

    #[test]
    fn deadline_tracks_the_first_item_of_each_batch() {
        let mut b = Batcher::new(8, Duration::from_millis(10));
        let t0 = clock();
        b.push(1, t0);
        // A later item does not extend the deadline.
        b.push(2, t0 + Duration::from_millis(7));
        assert_eq!(b.deadline(), Some(t0 + Duration::from_millis(10)));
        let (batch, _) = b.poll(t0 + Duration::from_millis(10)).unwrap();
        assert_eq!(batch, vec![1, 2]);
        // The next batch gets a fresh deadline from its own first item.
        let t1 = t0 + Duration::from_millis(25);
        b.push(3, t1);
        assert_eq!(b.deadline(), Some(t1 + Duration::from_millis(10)));
    }

    #[test]
    fn size_wins_when_the_batch_fills_before_the_deadline() {
        let mut b = Batcher::new(2, Duration::from_secs(60));
        let t0 = clock();
        b.push(1, t0);
        let (_, reason) = b.push(2, t0 + Duration::from_millis(1)).unwrap();
        assert_eq!(reason, FlushReason::Size);
    }

    #[test]
    fn shed_splits_expired_from_live_at_flush() {
        // Virtual clock: items carry (id, deadline) pairs.
        let t0 = clock();
        let items = vec![
            (1, Some(t0 + Duration::from_millis(5))),
            (2, None),
            (3, Some(t0 + Duration::from_millis(50))),
            (4, Some(t0 + Duration::from_millis(10))),
        ];
        let now = t0 + Duration::from_millis(10);
        let (live, expired) = shed_expired(items, now, |i| i.1);
        // Deadlines at or before `now` are expired; None never expires.
        assert_eq!(live.iter().map(|i| i.0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(expired.iter().map(|i| i.0).collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn shed_of_an_all_expired_batch_leaves_nothing_to_execute() {
        let t0 = clock();
        let items = vec![(1, Some(t0)), (2, Some(t0 + Duration::from_millis(1)))];
        let (live, expired) = shed_expired(items, t0 + Duration::from_millis(2), |i| i.1);
        assert!(
            live.is_empty(),
            "an all-expired flush must be a no-op execution"
        );
        assert_eq!(expired.len(), 2);
    }

    #[test]
    fn shed_through_a_drain_flush_preserves_order() {
        // Drain-during-shutdown: the batcher force-flushes, then the
        // shed splits the partial batch — both halves in arrival order.
        let mut b = Batcher::new(8, Duration::from_secs(60));
        let t0 = clock();
        b.push((1, Some(t0 + Duration::from_millis(1))), t0);
        b.push((2, None), t0);
        b.push((3, Some(t0 + Duration::from_millis(90))), t0);
        let (batch, reason) = b.drain().expect("drain flushes the partial batch");
        assert_eq!(reason, FlushReason::Drain);
        let (live, expired) = shed_expired(batch, t0 + Duration::from_millis(10), |i| i.1);
        assert_eq!(live.iter().map(|i| i.0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(expired.iter().map(|i| i.0).collect::<Vec<_>>(), vec![1]);
        assert!(
            b.drain().is_none(),
            "drain is still idempotent after a shed"
        );
    }

    #[test]
    fn drain_forces_a_partial_batch_and_is_idempotent() {
        let mut b = Batcher::new(8, Duration::from_secs(60));
        assert!(b.drain().is_none());
        b.push(7, clock());
        let (batch, reason) = b.drain().unwrap();
        assert_eq!(batch, vec![7]);
        assert_eq!(reason, FlushReason::Drain);
        assert!(b.drain().is_none());
    }
}
