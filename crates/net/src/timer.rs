//! Hashed timer wheel for the multiplexed runtime.
//!
//! Each loop of the mux runtime ([`crate::mux`]) drives thousands of
//! virtual nodes from one wheel, so per-deadline precision matters less
//! than constant cost per operation: a [`TimerWheel`] buckets deadlines
//! into fixed-width slots (hashing by `deadline / tick`), making
//! `schedule` and each tick of `advance` O(1) amortized regardless of how
//! many nodes are hosted.
//!
//! Deadlines that land in an already-passed slot fire on the next
//! `advance`; deadlines further out than one wheel revolution stay parked
//! in their slot (each entry keeps its absolute deadline, so a slot visit
//! only releases the entries whose time has truly come — the classic
//! "hashed" wheel of Varghese & Lauck).

/// A hashed timer wheel mapping `u64` millisecond deadlines to opaque
/// `u32` tokens (virtual-node indices in the mux runtime).
///
/// # Examples
///
/// ```
/// use epidemic_net::timer::TimerWheel;
///
/// let mut wheel = TimerWheel::new(4, 64); // 4 ms slots, 64 slots
/// wheel.schedule(10, 7);
/// wheel.schedule(300, 9); // more than one revolution out
/// let mut due = Vec::new();
/// wheel.advance(16, |t| due.push(t));
/// assert_eq!(due, [7]);
/// wheel.advance(400, |t| due.push(t));
/// assert_eq!(due, [7, 9]);
/// ```
#[derive(Debug)]
pub struct TimerWheel {
    /// Milliseconds per slot.
    tick: u64,
    /// `(deadline, token)` entries, bucketed by `(deadline / tick) % slots`.
    slots: Vec<Vec<(u64, u32)>>,
    /// The next tick index to inspect: everything before
    /// `cursor * tick` has already fired.
    cursor: u64,
    /// Entries whose tick the cursor had already fully passed when they
    /// were scheduled; checked linearly (they are rare and short-lived)
    /// and fired as soon as `advance` time reaches their deadline.
    overdue: Vec<(u64, u32)>,
    /// Entries currently parked in the wheel.
    len: usize,
}

impl TimerWheel {
    /// Creates a wheel with `slots` buckets of `tick_ms` milliseconds.
    /// One revolution spans `tick_ms * slots` ms; longer deadlines cost an
    /// extra pass over their slot per revolution, so size the wheel to the
    /// protocol's cycle length (the mux runtime uses the default of
    /// [`TimerWheel::for_cycle`]).
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms == 0` or `slots == 0`.
    pub fn new(tick_ms: u64, slots: usize) -> Self {
        assert!(tick_ms > 0, "tick must be positive");
        assert!(slots > 0, "wheel needs at least one slot");
        TimerWheel {
            tick: tick_ms,
            slots: (0..slots).map(|_| Vec::new()).collect(),
            cursor: 0,
            overdue: Vec::new(),
            len: 0,
        }
    }

    /// A wheel sized so one revolution comfortably covers `cycle_ms` (the
    /// protocol's δ): 1 ms ticks and a power-of-two slot count at least
    /// `2 * cycle_ms`.
    pub fn for_cycle(cycle_ms: u64) -> Self {
        let slots = (2 * cycle_ms).next_power_of_two().clamp(64, 8192);
        TimerWheel::new(1, slots as usize)
    }

    /// Number of parked entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parks `token` to fire once `advance` reaches `deadline_ms`.
    /// Deadlines in the past fire on the next `advance` call whose time
    /// has reached them.
    pub fn schedule(&mut self, deadline_ms: u64, token: u32) {
        // A deadline in a tick the cursor has fully passed would land in
        // a slot this revolution no longer visits and wait a whole
        // revolution; route it to the overdue lane instead. (The cursor's
        // own tick is still being visited, so `<`, not `<=`.)
        if deadline_ms / self.tick < self.cursor {
            self.overdue.push((deadline_ms, token));
            self.len += 1;
            return;
        }
        let slot = ((deadline_ms / self.tick) % self.slots.len() as u64) as usize;
        self.slots[slot].push((deadline_ms, token));
        self.len += 1;
    }

    /// Advances wheel time to `now_ms`, invoking `fire` for every entry
    /// whose deadline has passed. Entries fire in slot order, not exact
    /// deadline order — within one tick's width, order is unspecified.
    pub fn advance<F: FnMut(u32)>(&mut self, now_ms: u64, mut fire: F) {
        self.advance_entries(now_ms, |_, token| fire(token));
    }

    /// Like [`TimerWheel::advance`], but hands `fire` each entry's
    /// scheduled deadline alongside its token, so embeddings can measure
    /// fire lag (`now_ms - deadline`) without keeping a deadline table of
    /// their own.
    pub fn advance_entries<F: FnMut(u64, u32)>(&mut self, now_ms: u64, mut fire: F) {
        let mut i = 0;
        while i < self.overdue.len() {
            if self.overdue[i].0 <= now_ms {
                let (deadline, token) = self.overdue.swap_remove(i);
                self.len -= 1;
                fire(deadline, token);
            } else {
                i += 1;
            }
        }
        let target = now_ms / self.tick;
        let slots = self.slots.len() as u64;
        // Visit at most one full revolution: beyond that every slot has
        // been inspected once and parked entries re-checked.
        let first = self.cursor;
        let last = target.min(first + slots - 1);
        for tick in first..=last {
            let slot = (tick % slots) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].0 <= now_ms {
                    let (deadline, token) = entries.swap_remove(i);
                    self.len -= 1;
                    fire(deadline, token);
                } else {
                    i += 1;
                }
            }
        }
        // Stop at `target`, not `target + 1`: when `now_ms` sits mid-tick
        // (tick > 1 ms), later deadlines in the same tick are still due
        // this revolution, so the slot must be revisited next time.
        self.cursor = self.cursor.max(target);
    }

    /// Earliest parked deadline, or `None` when empty. O(slots + len);
    /// an introspection helper for embeddings and tests — a mux loop does
    /// not use it (it waits for datagrams one fixed 1 ms tick at a time,
    /// see [`crate::mux`]).
    pub fn next_deadline(&self) -> Option<u64> {
        self.slots
            .iter()
            .flatten()
            .chain(self.overdue.iter())
            .map(|&(deadline, _)| deadline)
            .min()
    }
}

/// A set of [`TimerWheel`]s: token `t` always lives in wheel
/// `t % shards`. The mux runtime no longer uses it — each loop owns one
/// plain wheel — but the benchmark ledger's layer replay
/// (`crates/ledger/src/replay.rs`) still constructs it, and it goes when
/// that replay does.
///
/// Firing behavior is equivalent to one unsharded wheel: for any schedule
/// sequence, each `advance` fires exactly the same `(deadline, token)`
/// multiset (order within a call is unspecified either way) — pinned by
/// the property suite in `tests/timer_shards.rs`.
#[derive(Debug)]
pub struct ShardedTimerWheel {
    shards: Vec<TimerWheel>,
}

impl ShardedTimerWheel {
    /// Creates `shards` wheels of `slots` buckets of `tick_ms`
    /// milliseconds each.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `tick_ms == 0`, or `slots == 0`.
    pub fn new(shards: usize, tick_ms: u64, slots: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedTimerWheel {
            shards: (0..shards)
                .map(|_| TimerWheel::new(tick_ms, slots))
                .collect(),
        }
    }

    /// `shards` wheels each sized by [`TimerWheel::for_cycle`].
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn for_cycle(shards: usize, cycle_ms: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedTimerWheel {
            shards: (0..shards)
                .map(|_| TimerWheel::for_cycle(cycle_ms))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total parked entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(TimerWheel::len).sum()
    }

    /// Returns `true` if no entries are parked anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(TimerWheel::is_empty)
    }

    /// Parks `token` in its home shard (`token % shard_count`).
    pub fn schedule(&mut self, deadline_ms: u64, token: u32) {
        let shard = token as usize % self.shards.len();
        self.shards[shard].schedule(deadline_ms, token);
    }

    /// Advances every shard to `now_ms`, invoking `fire` for each due
    /// entry (shard-major order; within a shard, slot order).
    pub fn advance<F: FnMut(u32)>(&mut self, now_ms: u64, mut fire: F) {
        for shard in &mut self.shards {
            shard.advance(now_ms, &mut fire);
        }
    }

    /// Like [`ShardedTimerWheel::advance`], but hands `fire` each entry's
    /// scheduled deadline alongside its token (see
    /// [`TimerWheel::advance_entries`]).
    pub fn advance_entries<F: FnMut(u64, u32)>(&mut self, now_ms: u64, mut fire: F) {
        for shard in &mut self.shards {
            shard.advance_entries(now_ms, &mut fire);
        }
    }

    /// Earliest parked deadline across all shards, or `None` when empty.
    pub fn next_deadline(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(TimerWheel::next_deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        wheel.advance(now, |t| out.push(t));
        out.sort_unstable();
        out
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut wheel = TimerWheel::new(2, 32);
        wheel.schedule(10, 1);
        assert_eq!(drain(&mut wheel, 9), Vec::<u32>::new());
        assert_eq!(drain(&mut wheel, 10), vec![1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut wheel = TimerWheel::new(1, 64);
        wheel.advance(100, |_| unreachable!());
        wheel.schedule(5, 3); // long past
        assert_eq!(drain(&mut wheel, 100), vec![3]);
    }

    #[test]
    fn far_deadlines_survive_revolutions() {
        let mut wheel = TimerWheel::new(1, 8); // one revolution = 8 ms
        wheel.schedule(100, 9);
        for now in (0..100).step_by(3) {
            assert_eq!(drain(&mut wheel, now), Vec::<u32>::new(), "at {now}");
        }
        assert_eq!(drain(&mut wheel, 100), vec![9]);
    }

    #[test]
    fn many_tokens_one_slot() {
        let mut wheel = TimerWheel::new(4, 16);
        for token in 0..50 {
            wheel.schedule(20, token);
        }
        assert_eq!(wheel.len(), 50);
        assert_eq!(drain(&mut wheel, 23), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn big_jump_fires_everything() {
        let mut wheel = TimerWheel::new(1, 16);
        for token in 0..20 {
            wheel.schedule(u64::from(token) * 7, token);
        }
        assert_eq!(drain(&mut wheel, 1_000_000), (0..20).collect::<Vec<u32>>());
        assert!(wheel.is_empty());
    }

    #[test]
    fn mid_tick_deadline_fires_without_a_revolution() {
        // now = 10 lands mid-tick (tick 5 of width 2 covers 10-11): the
        // cursor must not skip past the tick, or deadline 11 would wait a
        // whole 64 ms revolution.
        let mut wheel = TimerWheel::new(2, 32);
        wheel.schedule(11, 1);
        assert_eq!(drain(&mut wheel, 10), Vec::<u32>::new());
        assert_eq!(drain(&mut wheel, 11), vec![1]);
    }

    #[test]
    fn overdue_lane_never_fires_early() {
        // An entry routed to the overdue lane (its tick fully behind the
        // cursor) still honors its deadline even if `advance` is called
        // with an earlier clock reading than before.
        let mut wheel = TimerWheel::new(2, 32);
        wheel.advance(10, |_| unreachable!());
        wheel.schedule(8, 7); // tick 4 < cursor 5: overdue lane
        assert_eq!(wheel.next_deadline(), Some(8));
        assert_eq!(drain(&mut wheel, 7), Vec::<u32>::new(), "fired early");
        assert_eq!(drain(&mut wheel, 8), vec![7]);
    }

    #[test]
    fn advance_entries_reports_scheduled_deadlines() {
        let mut wheel = TimerWheel::new(1, 16);
        wheel.schedule(5, 1);
        wheel.schedule(7, 2);
        wheel.advance(20, |_| {}); // move the cursor past both ticks
        wheel.schedule(3, 9); // overdue lane
        let mut fired = Vec::new();
        wheel.advance_entries(30, |deadline, token| fired.push((deadline, token)));
        fired.sort_unstable();
        assert_eq!(fired, vec![(3, 9)]);

        let mut sharded = ShardedTimerWheel::new(3, 1, 16);
        sharded.schedule(5, 1);
        sharded.schedule(7, 2);
        let mut fired = Vec::new();
        sharded.advance_entries(10, |deadline, token| fired.push((deadline, token)));
        fired.sort_unstable();
        assert_eq!(fired, vec![(5, 1), (7, 2)]);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut wheel = TimerWheel::new(1, 64);
        assert_eq!(wheel.next_deadline(), None);
        wheel.schedule(30, 1);
        wheel.schedule(12, 2);
        assert_eq!(wheel.next_deadline(), Some(12));
        assert_eq!(drain(&mut wheel, 12), vec![2]);
        assert_eq!(wheel.next_deadline(), Some(30));
    }

    #[test]
    fn for_cycle_sizes_reasonably() {
        let wheel = TimerWheel::for_cycle(50);
        assert!(wheel.slots.len() >= 100);
        assert!(wheel.slots.len().is_power_of_two());
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_rejected() {
        TimerWheel::new(0, 8);
    }

    fn drain_sharded(wheel: &mut ShardedTimerWheel, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        wheel.advance(now, |t| out.push(t));
        out.sort_unstable();
        out
    }

    #[test]
    fn sharded_wheel_routes_tokens_to_home_shards() {
        let mut wheel = ShardedTimerWheel::new(4, 1, 64);
        assert_eq!(wheel.shard_count(), 4);
        for token in 0..16 {
            wheel.schedule(10 + u64::from(token), token);
        }
        assert_eq!(wheel.len(), 16);
        for (s, shard) in wheel.shards.iter().enumerate() {
            assert_eq!(shard.len(), 4, "shard {s} holds the wrong tokens");
        }
        assert_eq!(wheel.next_deadline(), Some(10));
        assert_eq!(
            drain_sharded(&mut wheel, 100),
            (0..16).collect::<Vec<u32>>()
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn sharded_wheel_matches_unsharded_firing() {
        // A fixed mixed sequence including overdue-lane entries: both
        // wheels must fire the same token set at every advance.
        for shards in [1usize, 2, 3, 5] {
            let mut single = TimerWheel::new(2, 16);
            let mut sharded = ShardedTimerWheel::new(shards, 2, 16);
            let schedules = [(5u64, 0u32), (7, 1), (40, 2), (3, 3), (200, 4)];
            for &(deadline, token) in &schedules {
                single.schedule(deadline, token);
                sharded.schedule(deadline, token);
            }
            for now in [4u64, 6, 8, 50] {
                assert_eq!(
                    drain(&mut single, now),
                    drain_sharded(&mut sharded, now),
                    "{shards} shards diverged at {now}"
                );
            }
            // Past-cursor schedules land in the overdue lane of whichever
            // wheel owns them; both sides must still agree.
            single.schedule(10, 5);
            sharded.schedule(10, 5);
            single.schedule(45, 6);
            sharded.schedule(45, 6);
            for now in [44u64, 45, 300] {
                assert_eq!(
                    drain(&mut single, now),
                    drain_sharded(&mut sharded, now),
                    "{shards} shards diverged at {now} (overdue lane)"
                );
            }
            assert!(single.is_empty() && sharded.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedTimerWheel::for_cycle(0, 50);
    }
}
