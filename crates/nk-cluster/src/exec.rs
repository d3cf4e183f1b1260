//! The sharded cluster-step executor: hosts across a persistent worker
//! pool, rounds separated by barriers, byte-identical results for any
//! thread count.
//!
//! `Cluster::step` walks every host in `HostId` order. This module can
//! spread that walk over `threads` OS threads *without changing a single
//! observable byte*:
//!
//! * **Hosts are the unit of parallelism.** Hosts are dealt round-robin
//!   over `HostId` order onto `min(threads, hosts)` shards. The caller's
//!   thread — the coordinator — runs shard 0; a persistent pool of
//!   `shards − 1` worker threads runs the rest. Within a round a host only
//!   touches its own state plus its uplink channel ends, so shards never
//!   share mutable state. One shard is the same loop with no workers.
//! * **The pool outlives steps.** It is built by the first step that runs
//!   on more than one shard, rebuilt when the shard count changes and
//!   joined when the executor drops. Each step hands every worker its
//!   shard as a job; between steps workers spin, then yield, then park
//!   until the coordinator unparks them at the next step.
//! * **Rounds are barriers.** A step is `begin` / repeated `round` /
//!   `close`. After each round every other shard waits at the barrier
//!   while the coordinator runs the hub — the ToR switch and the ToR-attached
//!   endpoint stacks — exactly where the serial loop ran them. The hub
//!   drains every host's uplink in route order (ascending `HostId`), which
//!   is the deterministic cross-shard merge point.
//! * **Quiescence is a sum.** The exit decision (`work == 0`, round bound)
//!   depends only on the *total* work of a round, and sums are independent
//!   of shard assignment — so every thread count runs the same number of
//!   rounds and the virtual-time semantics are unchanged.
//! * **Panics propagate.** A unit or hub that panics poisons the barrier,
//!   every other party leaves the step, and `drive` re-raises the original
//!   payload on the caller's thread. The poisoned pool is dropped; the next
//!   step builds a fresh one.
//!
//! The executor also keeps the model numbers the `par01` experiment
//! reports: `serial_work` (what one thread executes) next to
//! `critical_work` (the per-round maximum shard plus the hub — the
//! schedule's critical path). Their ratio is the thread-count-independent
//! speedup of the sharding itself, next to which `par01` puts the
//! measured wall-clock rate.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

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
    /// Shards actually used (`threads` clamped to the unit count): the
    /// caller's thread runs shard 0, a persistent pool of `threads − 1`
    /// workers the rest.
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
/// other shard is about to arrive) resolves within a few dozen iterations,
/// and anything longer means the machine is oversubscribed — more runnable
/// threads than cores, the normal state of CI runners — where burning the
/// timeslice spinning *prevents* the thread we're waiting for from running.
const BARRIER_SPIN_LIMIT: u32 = 128;

/// How many [`backoff`] iterations an idle pool worker waits between
/// steps before it parks — milliseconds of wall clock. The caller starts
/// the next step well within that, and a worker still spinning or
/// yielding picks it up at once; waking a parked worker costs the
/// scheduler's wake-up latency, which on a small VM rivals a whole step.
/// Yielding keeps the wait cheap for other runnable threads; parking after
/// it keeps an idle cluster from burning a core.
const IDLE_SPIN_LIMIT: u32 = 1 << 16;

/// One spin-then-yield iteration of a wait loop.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < BARRIER_SPIN_LIMIT {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// The unwind payload of a party that left a step because another party
/// panicked. `drive` never re-raises it when the original payload exists.
struct Poisoned;

/// A sense-reversing barrier over the step's shards (one party per shard,
/// the coordinator included) that spins briefly and then yields.
///
/// `std::sync::Barrier` parks on a condvar — a syscall per round per
/// thread, paid 10–30 times per step. Poll rounds are microseconds long, so
/// the barrier spins up to [`BARRIER_SPIN_LIMIT`] iterations (the common
/// case: every other shard is about to arrive) and then yields its
/// timeslice between polls, so an oversubscribed machine (CI pinning
/// everything to one core) still makes progress instead of collapsing into
/// N−1 threads busy-waiting on the one that holds the core.
///
/// A party that panics [`poison`](SpinBarrier::poison)s the barrier;
/// every waiter then unwinds with [`Poisoned`] instead of waiting for a
/// party that will never arrive. A poisoned barrier is never reused.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
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
                if self.poisoned.load(Ordering::Acquire) {
                    panic::resume_unwind(Box::new(Poisoned));
                }
                backoff(&mut spins);
            }
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }
}

/// One step's work for one pool worker: its shard's side of the step,
/// borrowing the step's units and result cells for `'a`.
type BorrowedJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A [`BorrowedJob`] with its lifetime erased, as the pool stores it.
type Job = BorrowedJob<'static>;

/// The state the coordinator shares with its pool workers.
struct PoolShared {
    /// One party per shard: the coordinator and every worker.
    barrier: SpinBarrier,
    /// Bumped once per step after every job slot is filled.
    epoch: AtomicUsize,
    /// Workers that have not yet left the current step's job.
    busy: AtomicUsize,
    /// Set when the pool drops: idle workers exit.
    shutdown: AtomicBool,
    /// The job of worker `w` (shard `w + 1`) for the current step. Every
    /// update is one store or take, so a poisoned lock still holds a
    /// valid value and is recovered with `into_inner`.
    jobs: Vec<Mutex<Option<Job>>>,
    /// The first payload a job panicked with.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PoolShared {
    /// A worker's life: wait for a step, run its job, repeat.
    fn worker(&self, index: usize) {
        let mut seen = 0usize;
        loop {
            let mut spins = 0u32;
            loop {
                if self.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let epoch = self.epoch.load(Ordering::Acquire);
                if epoch != seen {
                    seen = epoch;
                    break;
                }
                if spins < IDLE_SPIN_LIMIT {
                    backoff(&mut spins);
                } else {
                    std::thread::park();
                }
            }
            let job = self.jobs[index]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(job) = job {
                // The job (and every borrow it holds) is consumed here,
                // whether it returns or unwinds.
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                    self.barrier.poison();
                    if !payload.is::<Poisoned>() {
                        self.panic
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                }
            }
            self.busy.fetch_sub(1, Ordering::Release);
        }
    }
}

/// A persistent pool of worker threads, one per shard beyond shard 0.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool for `shards` shards: `shards - 1` workers plus the caller.
    fn new(shards: usize) -> Self {
        let shared = Arc::new(PoolShared {
            barrier: SpinBarrier::new(shards),
            epoch: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            jobs: (1..shards).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
        });
        let workers = (1..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nk-shard-{shard}"))
                    .spawn(move || shared.worker(shard - 1))
                    .expect("spawn a datapath worker thread")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Hand `jobs[w]` to worker `w`, run `coordinator` on the caller's
    /// thread, and return only once every worker has left its job — also
    /// when `coordinator` or a job panics.
    fn run<'a, R>(&self, jobs: Vec<BorrowedJob<'a>>, coordinator: impl FnOnce() -> R) -> R {
        assert_eq!(jobs.len(), self.workers.len(), "one job per worker");
        let shared = &*self.shared;
        // Relaxed: the epoch's Release below publishes it to the workers.
        shared.busy.store(jobs.len(), Ordering::Relaxed);
        for (slot, job) in shared.jobs.iter().zip(jobs) {
            // SAFETY: only the lifetime is erased; the job runs on a pool
            // thread while `'a` borrows are live. That is sound because
            // this function does not return or unwind before `busy` reads
            // 0 (the `Leave` guard below waits for it on both paths), and
            // a worker decrements `busy` only after its job was consumed
            // — run to completion or unwound under `catch_unwind` — so no
            // `'a` borrow is touched once `run` exits. Nothing between
            // this loop and the guard can panic.
            let job: Job = unsafe { std::mem::transmute::<BorrowedJob<'a>, Job>(job) };
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(job);
        }
        let mut leave = Leave {
            shared,
            clean: false,
        };
        shared.epoch.fetch_add(1, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        let out = coordinator();
        leave.clean = true;
        out
    }

    /// Take the first payload a worker's job panicked with.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            worker.thread().unpark();
            // Jobs run under `catch_unwind`, so a worker never ends in a
            // panic; there is nothing to report.
            let _ = worker.join();
        }
    }
}

/// Waits, on drop, until every worker has left the step's job. When the
/// coordinator unwinds (`clean` still false) it first poisons the barrier
/// so workers stop waiting for it.
struct Leave<'p> {
    shared: &'p PoolShared,
    clean: bool,
}

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if !self.clean {
            self.shared.barrier.poison();
        }
        let mut spins = 0u32;
        while self.shared.busy.load(Ordering::Acquire) != 0 {
            backoff(&mut spins);
        }
    }
}

/// Sum one phase over a shard's units.
fn phase<U>(shard: &mut [&mut U], mut f: impl FnMut(&mut U) -> usize) -> usize {
    shard.iter_mut().map(|unit| f(unit)).sum()
}

/// A pool worker's side of one step over its shard: the same phase order
/// as shard 0 on the coordinator, waiting at the round-start barrier while
/// the coordinator runs the hub. `cell` carries each phase's work back.
fn worker_step<U: StepUnit>(
    mut shard: Vec<&mut U>,
    cell: &AtomicUsize,
    barrier: &SpinBarrier,
    stop: &AtomicBool,
    dt_ns: u64,
    close: bool,
) {
    cell.store(phase(&mut shard, |u| u.begin(dt_ns)), Ordering::Release);
    barrier.wait(); // begin done
    loop {
        barrier.wait(); // round start (or stop)
        if stop.load(Ordering::Acquire) {
            break;
        }
        cell.store(phase(&mut shard, |u| u.round()), Ordering::Release);
        barrier.wait(); // round done → the hub runs
    }
    if close {
        cell.store(phase(&mut shard, |u| u.close()), Ordering::Release);
    }
}

/// Drives cluster steps over a set of [`StepUnit`]s, sharded across the
/// caller's thread and a persistent worker pool with a round barrier.
/// `threads <= 1` (or a single unit) runs one shard with no pool — the
/// same code order as the pre-sharding step loop.
pub struct ShardedExecutor {
    threads: usize,
    stats: ExecStats,
    /// Workers for shards 1.. — `None` while steps run on one shard.
    pool: Option<Pool>,
}

impl ShardedExecutor {
    /// An executor using `threads` threads (clamped to at least 1),
    /// the caller's included.
    pub fn new(threads: usize) -> Self {
        ShardedExecutor {
            threads: threads.max(1),
            stats: ExecStats::default(),
            pool: None,
        }
    }

    /// Configured thread count.
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
    /// The hub always runs on the caller's thread with every other shard
    /// waiting at the barrier, so everything it touches is free of data
    /// races and ordered identically for any thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a unit or hub that panicked, on whichever
    /// shard, once every worker has left the step.
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
        let workers = self.pool.as_ref().map_or(0, |pool| pool.workers.len());
        if workers + 1 != shard_count {
            self.pool = None;
            if shard_count > 1 {
                self.pool = Some(Pool::new(shard_count));
            }
        }
        let step = panic::catch_unwind(AssertUnwindSafe(|| {
            self.step(units, hub, now_ns, dt_ns, max_rounds, close)
        }));
        let worker_panic = self.pool.as_ref().and_then(Pool::take_panic);
        match (step, worker_panic) {
            (Ok(outcome), None) => {
                self.stats.steps += 1;
                self.stats.rounds += outcome.rounds as u64;
                outcome
            }
            (step, worker_panic) => {
                // A poisoned pool is never reused: join it now, build a
                // fresh one at the next step.
                self.pool = None;
                let payload = worker_panic.or(step.err()).expect("a party panicked");
                panic::resume_unwind(payload)
            }
        }
    }

    /// One step over `self.stats.shards.len()` shards: shard 0 and the hub
    /// on the caller's thread, the other shards on the pool.
    fn step<K, U, H>(
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
        let stats = &mut self.stats;
        let shard_count = stats.shards.len();
        // Round-robin in key order: shard i gets units i, i+shard_count, …
        // — the same deterministic assignment for every run.
        let mut shards: Vec<Vec<&mut U>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, unit) in units.values_mut().enumerate() {
            shards[i % shard_count].push(unit);
        }
        for (shard_stats, shard) in stats.shards.iter_mut().zip(&shards) {
            shard_stats.units = shard.len();
        }
        // Each shard's work in the phase that just ended: a barrier (or
        // the end-of-step join) separates every write from its read.
        let cells: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let stop = AtomicBool::new(false);
        let barrier = self.pool.as_ref().map(|pool| &pool.shared.barrier);
        let sync = || {
            if let Some(barrier) = barrier {
                barrier.wait();
            }
        };
        // Fold one phase's cells into the per-shard counters; returns the
        // phase's (sum, max) — its serial and critical-path work.
        let collect = |stats: &mut ExecStats, field: fn(&mut ShardStats) -> &mut u64| {
            let (mut sum, mut max) = (0usize, 0usize);
            for (cell, shard_stats) in cells.iter().zip(stats.shards.iter_mut()) {
                let w = cell.load(Ordering::Acquire);
                sum += w;
                max = max.max(w);
                *field(shard_stats) += w as u64;
            }
            (sum, max)
        };

        let mut shards = shards.into_iter();
        let mut own = shards.next().expect("at least one shard");
        let jobs: Vec<BorrowedJob<'_>> = shards
            .enumerate()
            .map(|(w, shard)| {
                let (cell, stop) = (&cells[w + 1], &stop);
                let barrier = barrier.expect("worker shards have a pool");
                Box::new(move || worker_step(shard, cell, barrier, stop, dt_ns, close))
                    as BorrowedJob<'_>
            })
            .collect();

        let mut coordinator = || {
            let mut total = 0usize;
            cells[0].store(phase(&mut own, |u| u.begin(dt_ns)), Ordering::Release);
            sync(); // begin done
            let (begin_sum, begin_max) = collect(stats, |s| &mut s.begin_work);
            total += begin_sum;
            stats.begin_work += begin_sum as u64;
            stats.serial_work += begin_sum as u64;
            stats.critical_work += begin_max as u64;

            let mut rounds = 0usize;
            let quiescent = loop {
                sync(); // round start
                cells[0].store(phase(&mut own, |u| u.round()), Ordering::Release);
                sync(); // round done
                let (poll_sum, poll_max) = collect(stats, |s| &mut s.poll_work);
                let (hub_work, frames) = hub(now_ns);
                let work = poll_sum + hub_work;
                rounds += 1;
                total += work;
                stats.poll_work += poll_sum as u64;
                stats.hub_work += hub_work as u64;
                stats.barrier_frames += frames as u64;
                stats.serial_work += work as u64;
                stats.critical_work += (poll_max + hub_work) as u64;
                if work == 0 {
                    break true;
                }
                if rounds >= max_rounds {
                    break false;
                }
            };
            stop.store(true, Ordering::Release);
            sync(); // the other shards observe stop and run their close phase
            if close {
                cells[0].store(phase(&mut own, |u| u.close()), Ordering::Release);
            }
            (total, rounds, quiescent)
        };
        let (mut total, rounds, quiescent) = match &self.pool {
            Some(pool) => pool.run(jobs, coordinator),
            None => coordinator(),
        };

        if close {
            let (close_sum, close_max) = collect(stats, |s| &mut s.close_work);
            total += close_sum;
            stats.close_work += close_sum as u64;
            stats.serial_work += close_sum as u64;
            stats.critical_work += close_max as u64;
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
    use std::sync::Weak;

    /// A synthetic unit: does `load` work items per round for `busy_rounds`
    /// rounds, pushing a tagged value per item into its uplink channel.
    struct MockUnit {
        id: u32,
        load: usize,
        busy_rounds: usize,
        rounds_done: usize,
        begun: usize,
        closed: usize,
        /// Panic in the second round of every step.
        panics: bool,
        tx: UnboundedProducer<(u32, usize)>,
    }

    impl StepUnit for MockUnit {
        fn begin(&mut self, _dt_ns: u64) -> usize {
            self.begun += 1;
            self.rounds_done = 0;
            1
        }
        fn round(&mut self) -> usize {
            if self.panics && self.rounds_done == 1 {
                panic!("unit {} failed", self.id);
            }
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

    /// `n` units with *uneven* loads (unit i does `3*i + 1` items per
    /// round, for `i + 1` rounds) plus the hub's consumer ends keyed like
    /// the units — the shape of hosts behind a ToR — and the merged log of
    /// every item the hub drained.
    struct Rig {
        units: BTreeMap<u32, MockUnit>,
        rxs: BTreeMap<u32, UnboundedConsumer<(u32, usize)>>,
        log: Vec<(u32, usize)>,
    }

    impl Rig {
        fn uneven(n: u32) -> Rig {
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
                        panics: false,
                        tx,
                    },
                );
                rxs.insert(id, rx);
            }
            Rig {
                units,
                rxs,
                log: Vec::new(),
            }
        }

        /// Drive one step, the hub merging frames in key order.
        fn drive(
            &mut self,
            exec: &mut ShardedExecutor,
            max_rounds: usize,
            close: bool,
        ) -> StepOutcome {
            let (rxs, log) = (&mut self.rxs, &mut self.log);
            exec.drive(
                &mut self.units,
                |_now| {
                    // The "ToR": drain every uplink in key (host-id) order.
                    let before = log.len();
                    for rx in rxs.values_mut() {
                        rx.drain_into(log);
                    }
                    let frames = log.len() - before;
                    (frames, frames)
                },
                0,
                100,
                max_rounds,
                close,
            )
        }
    }

    /// Run one step of an `n`-unit rig at `threads`; returns (outcome,
    /// merged log).
    fn run_step(threads: usize, n: u32) -> (StepOutcome, Vec<(u32, usize)>) {
        let mut rig = Rig::uneven(n);
        let outcome = rig.drive(&mut ShardedExecutor::new(threads), 64, true);
        (outcome, rig.log)
    }

    /// The counters that must not depend on the shard count.
    fn thread_independent(stats: &ExecStats) -> ExecStats {
        ExecStats {
            threads: 0,
            critical_work: 0,
            shards: Vec::new(),
            ..stats.clone()
        }
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
        let mut rig = Rig::uneven(5);
        let mut exec = ShardedExecutor::new(3);
        for _ in 0..4 {
            rig.drive(&mut exec, 64, true);
        }
        for unit in rig.units.values() {
            assert_eq!(unit.begun, 4);
            assert_eq!(unit.closed, 4);
        }
        assert_eq!(exec.stats().steps, 4);
    }

    /// `close: false` (the warm-migration mini-step) skips the close phase
    /// on every shard.
    #[test]
    fn ministep_skips_the_close_phase() {
        let mut rig = Rig::uneven(4);
        let mut exec = ShardedExecutor::new(2);
        rig.drive(&mut exec, 64, false);
        for unit in rig.units.values() {
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
            let mut rig = Rig::uneven(3);
            for unit in rig.units.values_mut() {
                unit.busy_rounds = usize::MAX; // never goes quiet
            }
            let outcome = rig.drive(&mut ShardedExecutor::new(threads), 8, true);
            assert_eq!(outcome.rounds, 8);
            assert!(!outcome.quiescent);
        }
    }

    /// The work model: serial work is identical across thread counts;
    /// critical-path work shrinks with more shards and never exceeds
    /// serial; per-shard counters add up to the totals.
    #[test]
    fn work_model_tracks_shards_and_critical_path() {
        let stats = |threads| {
            let mut exec = ShardedExecutor::new(threads);
            Rig::uneven(8).drive(&mut exec, 64, true);
            exec.stats().clone()
        };
        let (s1, s4) = (stats(1), stats(4));
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
        let mut exec = ShardedExecutor::new(16);
        Rig::uneven(2).drive(&mut exec, 64, true);
        assert_eq!(exec.stats().threads, 2);
        assert_eq!(exec.stats().shards.len(), 2);
    }

    impl ShardedExecutor {
        /// The pool's shared state, while a pool exists.
        fn pool_state(&self) -> Option<Weak<PoolShared>> {
            self.pool.as_ref().map(|pool| Arc::downgrade(&pool.shared))
        }
    }

    /// One pool serves every step: many consecutive drives at 2 threads
    /// reuse the same workers and match the serial executor step for step —
    /// outcome, merged frame log and every shard-independent counter.
    #[test]
    fn consecutive_drives_reuse_one_pool_and_match_serial() {
        let (mut serial_rig, mut pooled_rig) = (Rig::uneven(5), Rig::uneven(5));
        let (mut serial, mut pooled) = (ShardedExecutor::new(1), ShardedExecutor::new(2));
        let mut pool = None;
        for step in 0..200 {
            let close = step % 7 != 3; // mix in mini-steps
            let expected = serial_rig.drive(&mut serial, 64, close);
            assert_eq!(
                pooled_rig.drive(&mut pooled, 64, close),
                expected,
                "step {step}"
            );
            let state = pooled.pool_state().expect("two shards run on a pool");
            let first = pool.get_or_insert_with(|| state.clone());
            assert!(Weak::ptr_eq(first, &state), "step {step} rebuilt the pool");
        }
        assert!(serial.pool_state().is_none(), "one shard needs no pool");
        assert_eq!(pooled_rig.log, serial_rig.log);
        assert_eq!(
            thread_independent(pooled.stats()),
            thread_independent(serial.stats())
        );
        let s = pooled.stats();
        assert_eq!((s.threads, s.shards.len()), (2, 2));
        let shard_sum: u64 = s
            .shards
            .iter()
            .map(|x| x.begin_work + x.poll_work + x.close_work)
            .sum();
        assert_eq!(shard_sum, s.begin_work + s.poll_work + s.close_work);
        assert!(s.critical_work < s.serial_work);
    }

    /// The shard count follows the unit count between drives (3 units,
    /// then 2, then 1 at 4 threads); every drive matches serial, the pool
    /// is rebuilt for each new count and dropped at one shard.
    #[test]
    fn shard_count_can_change_between_drives() {
        let mut exec = ShardedExecutor::new(4);
        let mut rig = Rig::uneven(3);
        let mut previous: Option<Weak<PoolShared>> = None;
        for shards in [3usize, 2, 1] {
            while rig.units.len() > shards {
                let last = *rig.units.keys().next_back().unwrap();
                rig.units.remove(&last);
                rig.rxs.remove(&last);
            }
            let mut reference = Rig::uneven(shards as u32);
            for _ in 0..3 {
                rig.log.clear();
                let expected = reference.drive(&mut ShardedExecutor::new(1), 64, true);
                assert_eq!(rig.drive(&mut exec, 64, true), expected, "{shards} shards");
                assert_eq!(rig.log, reference.log, "{shards} shards");
                reference.log.clear();
            }
            assert_eq!(exec.stats().threads, shards);
            if let Some(old) = previous.take() {
                assert!(old.upgrade().is_none(), "the old pool was joined");
            }
            previous = exec.pool_state();
            assert_eq!(previous.is_some(), shards > 1);
        }
    }

    /// Dropping the executor joins its workers: the last reference to the
    /// pool's shared state goes with them.
    #[test]
    fn dropping_the_executor_joins_its_workers() {
        let mut exec = ShardedExecutor::new(3);
        Rig::uneven(4).drive(&mut exec, 64, true);
        let state = exec.pool_state().expect("three shards run on a pool");
        assert!(state.upgrade().is_some());
        drop(exec);
        assert!(state.upgrade().is_none(), "every worker released the pool");
    }

    /// Drive `rig` and return the panic message it raised.
    fn drive_expecting_panic<H>(
        exec: &mut ShardedExecutor,
        units: &mut BTreeMap<u32, MockUnit>,
        hub: H,
    ) -> String
    where
        H: FnMut(u64) -> (usize, usize),
    {
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.drive(units, hub, 0, 100, 64, true)
        }))
        .expect_err("the step must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .expect("the original payload, not the poison marker")
                .to_string(),
        }
    }

    /// After a panicking step the same executor still drives a fresh rig
    /// exactly like the serial executor.
    fn assert_recovers(exec: &mut ShardedExecutor) {
        let (expected, log) = run_step(1, 2);
        let mut rig = Rig::uneven(2);
        assert_eq!(rig.drive(exec, 64, true), expected);
        assert_eq!(rig.log, log);
    }

    /// A unit panicking on a worker shard makes `drive` panic with the
    /// unit's payload instead of leaving the coordinator at the barrier.
    #[test]
    fn unit_panic_on_a_worker_shard_propagates() {
        let mut exec = ShardedExecutor::new(2);
        let mut rig = Rig::uneven(2);
        rig.units.get_mut(&1).unwrap().panics = true; // shard 1: a worker
        let rxs = &mut rig.rxs;
        let msg = drive_expecting_panic(&mut exec, &mut rig.units, |_| {
            let n = rxs
                .values_mut()
                .map(|rx| rx.drain_into(&mut Vec::new()))
                .sum();
            (n, n)
        });
        assert_eq!(msg, "unit 1 failed");
        assert!(exec.pool_state().is_none(), "the poisoned pool is dropped");
        assert_recovers(&mut exec);
    }

    /// A unit panicking on shard 0 (the caller's thread) releases the
    /// workers waiting for it and propagates.
    #[test]
    fn unit_panic_on_shard_zero_propagates() {
        let mut exec = ShardedExecutor::new(2);
        let mut rig = Rig::uneven(2);
        rig.units.get_mut(&0).unwrap().panics = true; // shard 0: the caller
        rig.units.get_mut(&0).unwrap().busy_rounds = 4;
        let rxs = &mut rig.rxs;
        let msg = drive_expecting_panic(&mut exec, &mut rig.units, |_| {
            let n = rxs
                .values_mut()
                .map(|rx| rx.drain_into(&mut Vec::new()))
                .sum();
            (n, n)
        });
        assert_eq!(msg, "unit 0 failed");
        assert_recovers(&mut exec);
    }

    /// A panicking hub releases the workers parked at the barrier and
    /// propagates.
    #[test]
    fn hub_panic_propagates() {
        let mut exec = ShardedExecutor::new(2);
        let mut rig = Rig::uneven(2);
        let mut calls = 0;
        let msg = drive_expecting_panic(&mut exec, &mut rig.units, |_| {
            calls += 1;
            if calls == 2 {
                panic!("hub failed");
            }
            (1, 0)
        });
        assert_eq!(msg, "hub failed");
        assert_recovers(&mut exec);
    }
}
