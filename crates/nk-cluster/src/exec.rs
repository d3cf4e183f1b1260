//! The sharded cluster-step executor: hosts across worker threads, rounds
//! separated by barriers, byte-identical results for any thread count.
//!
//! `Cluster::step` walks every host in `HostId` order — serially, so wall
//! clock grows linearly with hosts. This module parallelises that walk
//! *without changing a single observable byte*:
//!
//! * **Hosts are the unit of parallelism.** Each worker thread owns a
//!   disjoint shard of hosts (round-robin over `HostId` order). Within a
//!   round a host only touches its own state plus its uplink channel ends,
//!   so shards never share mutable state.
//! * **Rounds are barriers.** A step is `begin` / repeated `round` /
//!   `close`, and between rounds *all* workers park while the coordinator
//!   runs the hub — the ToR switch and the ToR-attached endpoint stacks —
//!   exactly where the serial loop ran them. The hub drains every host's
//!   uplink in route order (ascending `HostId`), which is the deterministic
//!   cross-shard merge point.
//! * **Quiescence is a sum.** The exit decision (`work == 0`, round bound)
//!   depends only on the *total* work of a round, and sums are independent
//!   of shard assignment — so every thread count runs the same number of
//!   rounds and the virtual-time semantics are unchanged.
//!
//! The executor also keeps the model numbers the `par01` experiment
//! reports: `serial_work` (what one thread executes) next to
//! `critical_work` (the per-round maximum shard plus the hub — the
//! schedule's critical path). Their ratio is the thread-count-independent
//! speedup of the sharding itself, which matters because CI runners and
//! the development container often pin the process to a single core where
//! wall clock cannot show it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The cluster-facing step protocol of one shardable unit (a
/// [`nk_host::NetKernelHost`]): open the step, poll rounds, close the step.
pub trait StepUnit: Send {
    /// Open a step of `dt_ns` (advance time, apply due faults).
    fn begin(&mut self, dt_ns: u64) -> usize;
    /// One poll round over the unit's datapath.
    fn round(&mut self) -> usize;
    /// Close the step (the control phase).
    fn close(&mut self) -> usize;
}

impl StepUnit for nk_host::NetKernelHost {
    fn begin(&mut self, dt_ns: u64) -> usize {
        self.begin_step(dt_ns)
    }
    fn round(&mut self) -> usize {
        self.poll_round()
    }
    fn close(&mut self) -> usize {
        self.end_step()
    }
}

/// What one driven step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Total work items (begin + rounds + hub + close).
    pub work: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// True when the step ended because a full round reported no work
    /// (false: the round bound cut it off).
    pub quiescent: bool,
}

/// Work counters of one shard, accumulated across steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Hosts assigned to this shard.
    pub units: usize,
    /// Work done in begin phases.
    pub begin_work: u64,
    /// Work done in poll rounds.
    pub poll_work: u64,
    /// Work done in close phases.
    pub close_work: u64,
}

/// Executor counters: per-phase totals, per-shard breakdowns, and the
/// serial-vs-critical-path work model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads actually used (after clamping to the unit count).
    pub threads: usize,
    /// Steps driven.
    pub steps: u64,
    /// Rounds executed across all steps.
    pub rounds: u64,
    /// Work done in begin phases, all shards.
    pub begin_work: u64,
    /// Work done in poll rounds, all shards.
    pub poll_work: u64,
    /// Work done in close phases, all shards.
    pub close_work: u64,
    /// Work done by the hub (ToR + endpoint stacks) at round barriers.
    pub hub_work: u64,
    /// Frames the ToR forwarded at round barriers (the cross-shard edge).
    pub barrier_frames: u64,
    /// Total work items — what a single thread executes.
    pub serial_work: u64,
    /// Critical-path work items: per phase the *maximum* shard (phases run
    /// in parallel) plus the full hub (it runs serially at the barrier).
    /// `serial_work / critical_work` is the modeled speedup of the
    /// sharding, independent of how many cores the process actually gets.
    pub critical_work: u64,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ExecStats {
    /// Modeled speedup of the sharded schedule over the serial walk:
    /// `serial_work / critical_work` (1.0 when nothing ran yet).
    ///
    /// `serial_work` is every work item executed — what one thread would
    /// run. `critical_work` is the schedule's critical path, accumulated as
    /// the work happens, so the serial hub share is accounted per round
    /// rather than assumed away:
    ///
    /// ```text
    /// critical_work = Σ over rounds ( max(shard poll work) + hub work )
    ///               + Σ over steps  ( begin + close terms )
    /// ```
    ///
    /// where the begin/close terms are the per-phase *maximum* shard when
    /// the phase ran sharded, or the full phase work when it ran serially.
    /// An earlier version divided by the per-round maximum shard alone —
    /// one unit per shard round, no hub — which over-reported speedup
    /// whenever the serial hub did real work.
    ///
    /// Worked example: one round, 8 hosts × 12 work items dealt 2-per-shard
    /// onto 4 shards, and a hub doing 8 items at the barrier. Serially
    /// that's `8 × 12 + 8 = 104` items; the critical path is one shard's
    /// `2 × 12 = 24` plus the hub's 8 = 32, so the model reports
    /// `104 / 32 = 3.25`:
    ///
    /// ```
    /// use nk_cluster::ExecStats;
    /// let stats = ExecStats {
    ///     serial_work: 104,
    ///     critical_work: 32,
    ///     ..Default::default()
    /// };
    /// assert!((stats.modeled_speedup() - 3.25).abs() < 1e-12);
    /// assert_eq!(ExecStats::default().modeled_speedup(), 1.0);
    /// ```
    pub fn modeled_speedup(&self) -> f64 {
        if self.critical_work == 0 {
            1.0
        } else {
            self.serial_work as f64 / self.critical_work as f64
        }
    }
}

/// How many times a waiter spin-loops before each wait falls back to
/// [`std::thread::yield_now`]. Small on purpose: the common case (every
/// other worker is about to arrive) resolves within a few dozen iterations,
/// and anything longer means the machine is oversubscribed — more runnable
/// threads than cores, the normal state of CI runners — where burning the
/// timeslice spinning *prevents* the thread we're waiting for from running.
const BARRIER_SPIN_LIMIT: u32 = 128;

/// A sense-reversing barrier that spins briefly and then yields.
///
/// `std::sync::Barrier` parks on a condvar — a syscall per round per
/// thread, paid 10–30 times per step. Poll rounds are microseconds long, so
/// the barrier spins up to [`BARRIER_SPIN_LIMIT`] iterations (the common
/// case: every other worker is about to arrive) and then yields its
/// timeslice between polls, so an oversubscribed machine (CI pinning
/// everything to one core) still makes progress instead of collapsing into
/// N−1 threads busy-waiting on the one that holds the core.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count *before* publishing the new
            // generation, so early risers find a clean barrier.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < BARRIER_SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Drives cluster steps over a set of [`StepUnit`]s, sharded across worker
/// threads with a round barrier. `threads <= 1` (or a single unit) runs the
/// serial reference path — same code order as the pre-sharding step loop.
pub struct ShardedExecutor {
    threads: usize,
    stats: ExecStats,
}

impl ShardedExecutor {
    /// An executor using `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            stats: ExecStats::default(),
        }
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Accumulated executor counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Drive one step over `units` (in key order): `begin` on every unit,
    /// interleaved rounds — each unit's `round`, then `hub(now_ns)`, which
    /// must run the cross-unit fabric (the ToR) and any coordinator-side
    /// stacks and return `(work, frames_forwarded)` — until a full round
    /// reports no work or `max_rounds` is hit, then (when `close` is set)
    /// `close` on every unit.
    ///
    /// The hub always runs on the caller's thread with every worker parked
    /// at the barrier, so everything it touches is free of data races and
    /// ordered identically for any thread count.
    pub fn drive<K, U, H>(
        &mut self,
        units: &mut BTreeMap<K, U>,
        hub: H,
        now_ns: u64,
        dt_ns: u64,
        max_rounds: usize,
        close: bool,
    ) -> StepOutcome
    where
        K: Ord,
        U: StepUnit,
        H: FnMut(u64) -> (usize, usize),
    {
        let shard_count = self.threads.min(units.len()).max(1);
        self.stats.threads = shard_count;
        if self.stats.shards.len() != shard_count {
            self.stats.shards = vec![ShardStats::default(); shard_count];
        }
        let outcome = if shard_count <= 1 {
            self.drive_serial(units, hub, now_ns, dt_ns, max_rounds, close)
        } else {
            self.drive_sharded(units, hub, now_ns, dt_ns, max_rounds, close, shard_count)
        };
        self.stats.steps += 1;
        self.stats.rounds += outcome.rounds as u64;
        outcome
    }

    /// The serial reference path: one implicit shard, critical path equal
    /// to serial work by construction.
    fn drive_serial<K, U, H>(
        &mut self,
        units: &mut BTreeMap<K, U>,
        mut hub: H,
        now_ns: u64,
        dt_ns: u64,
        max_rounds: usize,
        close: bool,
    ) -> StepOutcome
    where
        K: Ord,
        U: StepUnit,
        H: FnMut(u64) -> (usize, usize),
    {
        let shard = &mut self.stats.shards[0];
        shard.units = units.len();
        let mut total = 0usize;
        let mut begin = 0usize;
        for unit in units.values_mut() {
            begin += unit.begin(dt_ns);
        }
        total += begin;
        shard.begin_work += begin as u64;
        self.stats.begin_work += begin as u64;
        self.stats.serial_work += begin as u64;
        self.stats.critical_work += begin as u64;

        let mut rounds = 0usize;
        let quiescent;
        loop {
            let mut poll = 0usize;
            for unit in units.values_mut() {
                poll += unit.round();
            }
            let (hub_work, frames) = hub(now_ns);
            let work = poll + hub_work;
            rounds += 1;
            total += work;
            self.stats.shards[0].poll_work += poll as u64;
            self.stats.poll_work += poll as u64;
            self.stats.hub_work += hub_work as u64;
            self.stats.barrier_frames += frames as u64;
            self.stats.serial_work += work as u64;
            self.stats.critical_work += work as u64;
            if work == 0 {
                quiescent = true;
                break;
            }
            if rounds >= max_rounds {
                quiescent = false;
                break;
            }
        }

        if close {
            let mut end = 0usize;
            for unit in units.values_mut() {
                end += unit.close();
            }
            total += end;
            self.stats.shards[0].close_work += end as u64;
            self.stats.close_work += end as u64;
            self.stats.serial_work += end as u64;
            self.stats.critical_work += end as u64;
        }
        StepOutcome {
            work: total,
            rounds,
            quiescent,
        }
    }

    /// The sharded path: workers own disjoint unit shards, the coordinator
    /// owns the hub, a barrier separates every round.
    #[allow(clippy::too_many_arguments)]
    fn drive_sharded<K, U, H>(
        &mut self,
        units: &mut BTreeMap<K, U>,
        mut hub: H,
        now_ns: u64,
        dt_ns: u64,
        max_rounds: usize,
        close: bool,
        shard_count: usize,
    ) -> StepOutcome
    where
        K: Ord,
        U: StepUnit,
        H: FnMut(u64) -> (usize, usize),
    {
        // Round-robin in key order: shard i gets units i, i+shard_count, …
        // — the same deterministic assignment for every run.
        let mut shards: Vec<Vec<&mut U>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, unit) in units.values_mut().enumerate() {
            shards[i % shard_count].push(unit);
        }
        for (i, shard) in shards.iter().enumerate() {
            self.stats.shards[i].units = shard.len();
        }

        // Coordinator + workers all meet at one barrier. Per-shard result
        // cells carry each phase's work back to the coordinator.
        let barrier = SpinBarrier::new(shard_count + 1);
        let stop = AtomicBool::new(false);
        let begin_cells: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let round_cells: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let close_cells: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();

        let mut total = 0usize;
        let mut rounds = 0usize;
        let mut quiescent = false;
        std::thread::scope(|scope| {
            for (i, mut shard) in shards.into_iter().enumerate() {
                let barrier = &barrier;
                let stop = &stop;
                let begin_cell = &begin_cells[i];
                let round_cell = &round_cells[i];
                let close_cell = &close_cells[i];
                scope.spawn(move || {
                    let mut work = 0usize;
                    for unit in shard.iter_mut() {
                        work += unit.begin(dt_ns);
                    }
                    begin_cell.store(work, Ordering::Release);
                    barrier.wait(); // begin done
                    loop {
                        barrier.wait(); // round start (or stop)
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let mut work = 0usize;
                        for unit in shard.iter_mut() {
                            work += unit.round();
                        }
                        round_cell.store(work, Ordering::Release);
                        barrier.wait(); // round done → hub runs
                    }
                    if close {
                        let mut work = 0usize;
                        for unit in shard.iter_mut() {
                            work += unit.close();
                        }
                        close_cell.store(work, Ordering::Release);
                    }
                });
            }

            // Coordinator: collect the begin phase.
            barrier.wait();
            let mut begin_sum = 0usize;
            let mut begin_max = 0usize;
            for (i, cell) in begin_cells.iter().enumerate() {
                let w = cell.load(Ordering::Acquire);
                begin_sum += w;
                begin_max = begin_max.max(w);
                self.stats.shards[i].begin_work += w as u64;
            }
            total += begin_sum;
            self.stats.begin_work += begin_sum as u64;
            self.stats.serial_work += begin_sum as u64;
            self.stats.critical_work += begin_max as u64;

            // Round loop: release the workers, wait them out, run the hub.
            loop {
                barrier.wait(); // round start
                barrier.wait(); // round done
                let mut poll_sum = 0usize;
                let mut poll_max = 0usize;
                for (i, cell) in round_cells.iter().enumerate() {
                    let w = cell.load(Ordering::Acquire);
                    poll_sum += w;
                    poll_max = poll_max.max(w);
                    self.stats.shards[i].poll_work += w as u64;
                }
                let (hub_work, frames) = hub(now_ns);
                let work = poll_sum + hub_work;
                rounds += 1;
                total += work;
                self.stats.poll_work += poll_sum as u64;
                self.stats.hub_work += hub_work as u64;
                self.stats.barrier_frames += frames as u64;
                self.stats.serial_work += work as u64;
                self.stats.critical_work += (poll_max + hub_work) as u64;
                if work == 0 {
                    quiescent = true;
                    break;
                }
                if rounds >= max_rounds {
                    quiescent = false;
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            barrier.wait(); // workers observe stop, run their close phase
        });

        if close {
            let mut close_sum = 0usize;
            let mut close_max = 0usize;
            for (i, cell) in close_cells.iter().enumerate() {
                let w = cell.load(Ordering::Acquire);
                close_sum += w;
                close_max = close_max.max(w);
                self.stats.shards[i].close_work += w as u64;
            }
            total += close_sum;
            self.stats.close_work += close_sum as u64;
            self.stats.serial_work += close_sum as u64;
            self.stats.critical_work += close_max as u64;
        }
        StepOutcome {
            work: total,
            rounds,
            quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_queue::unbounded::{unbounded, UnboundedConsumer, UnboundedProducer};

    /// A synthetic unit: does `load` work items per round for `busy_rounds`
    /// rounds, pushing a tagged value per item into its uplink channel.
    struct MockUnit {
        id: u32,
        load: usize,
        busy_rounds: usize,
        rounds_done: usize,
        begun: usize,
        closed: usize,
        tx: UnboundedProducer<(u32, usize)>,
    }

    impl StepUnit for MockUnit {
        fn begin(&mut self, _dt_ns: u64) -> usize {
            self.begun += 1;
            self.rounds_done = 0;
            1
        }
        fn round(&mut self) -> usize {
            if self.rounds_done >= self.busy_rounds {
                return 0;
            }
            self.rounds_done += 1;
            for item in 0..self.load {
                self.tx.push((self.id, item));
            }
            self.load
        }
        fn close(&mut self) -> usize {
            self.closed += 1;
            1
        }
    }

    /// Build `n` units with *uneven* loads (unit i does `3*i + 1` items per
    /// round, for `i + 1` rounds) plus the hub's consumer ends keyed like
    /// the units — the shape of hosts behind a ToR.
    #[allow(clippy::type_complexity)]
    fn uneven_rig(
        n: u32,
    ) -> (
        BTreeMap<u32, MockUnit>,
        BTreeMap<u32, UnboundedConsumer<(u32, usize)>>,
    ) {
        let mut units = BTreeMap::new();
        let mut rxs = BTreeMap::new();
        for id in 0..n {
            let (tx, rx) = unbounded();
            units.insert(
                id,
                MockUnit {
                    id,
                    load: 3 * id as usize + 1,
                    busy_rounds: id as usize + 1,
                    rounds_done: 0,
                    begun: 0,
                    closed: 0,
                    tx,
                },
            );
            rxs.insert(id, rx);
        }
        (units, rxs)
    }

    /// Run one step at `threads`, merging frames at the barrier in key
    /// order; returns (outcome, merged log).
    fn run_step(threads: usize, n: u32) -> (StepOutcome, Vec<(u32, usize)>) {
        let (mut units, mut rxs) = uneven_rig(n);
        let mut log = Vec::new();
        let mut exec = ShardedExecutor::new(threads);
        let outcome = exec.drive(
            &mut units,
            |_now| {
                // The "ToR": drain every uplink in key (host-id) order.
                let before = log.len();
                for rx in rxs.values_mut() {
                    rx.drain_into(&mut log);
                }
                let frames = log.len() - before;
                (frames, frames)
            },
            0,
            100,
            64,
            true,
        );
        (outcome, log)
    }

    /// The executor's core promise: under uneven shard load, the merged
    /// cross-shard frame stream is identical for any thread count, because
    /// the hub drains the channels in key order with every worker parked.
    #[test]
    fn cross_shard_merge_order_is_identical_for_any_thread_count() {
        let (serial, log1) = run_step(1, 7);
        for threads in [2, 3, 4, 8] {
            let (sharded, log_n) = run_step(threads, 7);
            assert_eq!(sharded, serial, "outcome diverged at {threads} threads");
            assert_eq!(log_n, log1, "merge order diverged at {threads} threads");
        }
        // Sanity: the log really is the full uneven workload, in key order
        // within each round.
        let expected: usize = (0..7usize).map(|i| (3 * i + 1) * (i + 1)).sum();
        assert_eq!(log1.len(), expected);
        assert_eq!(log1[0], (0, 0), "round 1 starts with unit 0");
    }

    /// Every unit runs every phase exactly once per step, whatever the
    /// shard layout.
    #[test]
    fn all_units_run_all_phases() {
        let (mut units, mut rxs) = uneven_rig(5);
        let mut exec = ShardedExecutor::new(3);
        let mut sink = Vec::new();
        for _ in 0..4 {
            exec.drive(
                &mut units,
                |_| {
                    sink.clear();
                    let mut n = 0;
                    for rx in rxs.values_mut() {
                        n += rx.drain_into(&mut sink);
                    }
                    (n, n)
                },
                0,
                100,
                64,
                true,
            );
        }
        for unit in units.values() {
            assert_eq!(unit.begun, 4);
            assert_eq!(unit.closed, 4);
        }
        assert_eq!(exec.stats().steps, 4);
    }

    /// `close: false` (the warm-migration mini-step) skips the close phase
    /// on every shard.
    #[test]
    fn ministep_skips_the_close_phase() {
        let (mut units, mut rxs) = uneven_rig(4);
        let mut exec = ShardedExecutor::new(2);
        let mut sink = Vec::new();
        exec.drive(
            &mut units,
            |_| {
                let mut n = 0;
                for rx in rxs.values_mut() {
                    n += rx.drain_into(&mut sink);
                }
                (n, n)
            },
            0,
            100,
            64,
            false,
        );
        for unit in units.values() {
            assert_eq!(unit.begun, 1);
            assert_eq!(unit.closed, 0);
        }
        assert_eq!(exec.stats().close_work, 0);
    }

    /// The round bound cuts a step that never quiesces, at the same round
    /// count for any thread count.
    #[test]
    fn round_bound_applies_identically() {
        for threads in [1, 4] {
            let (mut units, mut rxs) = uneven_rig(3);
            for unit in units.values_mut() {
                unit.busy_rounds = usize::MAX; // never goes quiet
            }
            let mut exec = ShardedExecutor::new(threads);
            let mut sink = Vec::new();
            let outcome = exec.drive(
                &mut units,
                |_| {
                    let mut n = 0;
                    for rx in rxs.values_mut() {
                        n += rx.drain_into(&mut sink);
                    }
                    (n, n)
                },
                0,
                100,
                8,
                true,
            );
            assert_eq!(outcome.rounds, 8);
            assert!(!outcome.quiescent);
        }
    }

    /// The work model: serial work is identical across thread counts;
    /// critical-path work shrinks with more shards and never exceeds
    /// serial; per-shard counters add up to the totals.
    #[test]
    fn work_model_tracks_shards_and_critical_path() {
        let (s1, _) = {
            let (mut units, mut rxs) = uneven_rig(8);
            let mut exec = ShardedExecutor::new(1);
            let mut sink = Vec::new();
            let o = exec.drive(
                &mut units,
                |_| {
                    let mut n = 0;
                    for rx in rxs.values_mut() {
                        n += rx.drain_into(&mut sink);
                    }
                    (n, n)
                },
                0,
                100,
                64,
                true,
            );
            (exec.stats().clone(), o)
        };
        let (s4, _) = {
            let (mut units, mut rxs) = uneven_rig(8);
            let mut exec = ShardedExecutor::new(4);
            let mut sink = Vec::new();
            let o = exec.drive(
                &mut units,
                |_| {
                    let mut n = 0;
                    for rx in rxs.values_mut() {
                        n += rx.drain_into(&mut sink);
                    }
                    (n, n)
                },
                0,
                100,
                64,
                true,
            );
            (exec.stats().clone(), o)
        };
        assert_eq!(s1.serial_work, s4.serial_work);
        assert_eq!(s1.rounds, s4.rounds);
        assert_eq!(s1.critical_work, s1.serial_work, "one shard: no overlap");
        assert!(
            s4.critical_work < s4.serial_work,
            "four shards overlap work: {} < {}",
            s4.critical_work,
            s4.serial_work
        );
        assert!(s4.modeled_speedup() > 1.0);
        let shard_poll: u64 = s4.shards.iter().map(|s| s.poll_work).sum();
        assert_eq!(shard_poll, s4.poll_work);
        let shard_units: usize = s4.shards.iter().map(|s| s.units).sum();
        assert_eq!(shard_units, 8);
    }

    /// The barrier round-trips under heavy oversubscription: far more
    /// parties than this machine has cores, over many generations. With a
    /// pure busy-wait this dies on a small runner (every spinning waiter
    /// steals the timeslice the late arriver needs); the bounded spin +
    /// yield backoff must keep it live.
    #[test]
    fn spin_barrier_round_trips_oversubscribed() {
        const PARTIES: usize = 33;
        const GENERATIONS: usize = 500;
        let barrier = SpinBarrier::new(PARTIES);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..PARTIES {
                let barrier = &barrier;
                let counter = &counter;
                scope.spawn(move || {
                    for gen in 0..GENERATIONS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Everyone must have bumped the counter for this
                        // generation before anyone proceeds past the wait.
                        assert!(counter.load(Ordering::Relaxed) >= (gen + 1) * PARTIES);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), PARTIES * GENERATIONS);
    }

    /// More threads than units degrades gracefully to one unit per shard.
    #[test]
    fn threads_clamp_to_unit_count() {
        let (mut units, mut rxs) = uneven_rig(2);
        let mut exec = ShardedExecutor::new(16);
        let mut sink = Vec::new();
        exec.drive(
            &mut units,
            |_| {
                let mut n = 0;
                for rx in rxs.values_mut() {
                    n += rx.drain_into(&mut sink);
                }
                (n, n)
            },
            0,
            100,
            64,
            true,
        );
        assert_eq!(exec.stats().threads, 2);
        assert_eq!(exec.stats().shards.len(), 2);
    }
}
