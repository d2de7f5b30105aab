//! Per-process OpenMP runtime: parallel regions and the thread context.

use crate::lock::OmpLock;
use crate::team::{static_range, Team};
use crate::{JoinHandle, Runtime, SchedError, SchedResult, SimTime};
use home_trace::{
    AccessKind, BarrierId, Collector, EventKind, LockId, MemLoc, Rank, RegionId, SrcLoc, Tid,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;

/// Virtual-time costs of OpenMP constructs (per occurrence).
#[derive(Debug, Clone, Copy)]
pub struct OmpCosts {
    /// Cost charged to the master per forked thread.
    pub fork_per_thread: SimTime,
    /// Cost of one barrier participation.
    pub barrier: SimTime,
    /// Cost of entering a critical section.
    pub critical: SimTime,
    /// Cost of recording one instrumentation event (charged only when the
    /// event is actually admitted by the collector's filter — this is how
    /// instrumentation overhead becomes visible in the makespan).
    pub event: SimTime,
}

impl OmpCosts {
    /// Defaults patterned on commodity hardware.
    pub(crate) fn default_costs() -> Self {
        OmpCosts {
            fork_per_thread: SimTime::from_micros(2),
            barrier: SimTime::from_micros(1),
            critical: SimTime::from_nanos(200),
            event: SimTime::from_nanos(120),
        }
    }

    /// Zero costs for pure-semantics tests.
    pub fn zero() -> Self {
        OmpCosts {
            fork_per_thread: SimTime::ZERO,
            barrier: SimTime::ZERO,
            critical: SimTime::ZERO,
            event: SimTime::ZERO,
        }
    }
}

impl Default for OmpCosts {
    fn default() -> Self {
        OmpCosts::default_costs()
    }
}

/// The OpenMP runtime of one MPI process.
///
/// Owns the region counter, named critical-section locks, and the trace
/// [`Collector`] all events of this process flow through. Clone freely.
///
/// ```
/// use home_interp::{OmpCosts, OmpProc, Runtime, SchedConfig};
/// use home_trace::{Collector, Rank};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let rt = Runtime::new(SchedConfig::deterministic(0));
/// let proc = OmpProc::with_costs(rt.clone(), Rank(0), Collector::null(), OmpCosts::zero());
/// let sum = Arc::new(AtomicU64::new(0));
/// let s2 = Arc::clone(&sum);
/// rt.spawn("rank0", async move {
///     proc.parallel(4, async move |ctx| {
///         for i in ctx.for_static(100) {
///             s2.fetch_add(i, Ordering::Relaxed);
///         }
///         ctx.barrier().await
///     })
///     .await
///     .unwrap();
/// });
/// rt.run().unwrap();
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// ```
#[derive(Clone)]
pub struct OmpProc {
    rt: Runtime,
    rank: Rank,
    collector: Collector,
    costs: OmpCosts,
    regions: Rc<Cell<u64>>,
    locks: Rc<RefCell<HashMap<String, OmpLock>>>,
}

impl OmpProc {
    /// Create the runtime for `rank`, emitting events into `collector`.
    pub fn new(rt: Runtime, rank: Rank, collector: Collector) -> Self {
        OmpProc::with_costs(rt, rank, collector, OmpCosts::default_costs())
    }

    /// Create with explicit construct costs.
    pub fn with_costs(rt: Runtime, rank: Rank, collector: Collector, costs: OmpCosts) -> Self {
        OmpProc {
            rt,
            rank,
            collector,
            costs,
            regions: Rc::default(),
            locks: Rc::default(),
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The scheduler.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The trace collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The construct cost table.
    pub fn costs(&self) -> &OmpCosts {
        &self.costs
    }

    /// Get or create the named critical-section lock. Only the first entry
    /// of a name pays for its key.
    fn critical_lock(&self, name: &str) -> OmpLock {
        let mut locks = self.locks.borrow_mut();
        if let Some(lock) = locks.get(name) {
            return lock.clone();
        }
        let lock = OmpLock::new(self.rt.clone(), name);
        locks.insert(name.to_string(), lock.clone());
        lock
    }

    /// Emit an event from the master's *sequential* part (outside regions).
    pub(crate) fn emit_seq(&self, loc: Option<SrcLoc>, kind: EventKind) {
        self.emit_inner(Tid(0), None, loc, kind);
    }

    fn emit_inner(&self, tid: Tid, region: Option<RegionId>, loc: Option<SrcLoc>, kind: EventKind) {
        let recorded = self.collector.emit(
            self.rank,
            tid,
            region,
            self.rt.clock().as_nanos(),
            loc,
            kind,
        );
        if recorded {
            self.rt.advance(self.costs.event);
        }
    }

    /// Execute `f` on a team of `nthreads` OpenMP threads
    /// (`#pragma omp parallel num_threads(nthreads)`). The calling virtual
    /// thread becomes the master (tid 0); `nthreads − 1` workers are forked.
    /// Nested parallelism is not supported.
    ///
    /// Returns the first error any team member hit (deadlock/shutdown).
    pub async fn parallel<F>(&self, nthreads: usize, f: F) -> SchedResult<()>
    where
        F: AsyncFn(&OmpCtx) -> SchedResult<()> + 'static,
    {
        assert!(nthreads >= 1, "a team needs at least one thread");
        let region = RegionId(self.regions.replace(self.regions.get() + 1));
        let team = Team::new(
            self.rt.clone(),
            nthreads,
            format!("rank{}.region{}", self.rank.0, region.0),
        );
        self.emit_inner(
            Tid(0),
            None,
            None,
            EventKind::Fork {
                region,
                nthreads: nthreads as u32,
            },
        );
        self.rt
            .advance(self.costs.fork_per_thread.scale(nthreads as f64));

        let f = Rc::new(f);
        let mut handles: Vec<JoinHandle<SchedResult<()>>> = Vec::with_capacity(nthreads - 1);
        for t in 1..nthreads {
            let proc = self.clone();
            let team = team.clone();
            let f = Rc::clone(&f);
            handles.push(self.rt.spawn(
                format!("rank{}.r{}.t{}", self.rank.0, region.0, t),
                async move {
                    let ctx = OmpCtx::new(proc, team, region, Tid(t as u32));
                    f(&ctx).await
                },
            ));
        }
        let master_ctx = OmpCtx::new(self.clone(), team, region, Tid(0));
        let master_result = f(&master_ctx).await;

        let mut first_err: Option<SchedError> = master_result.err();
        for h in handles {
            match h.wait().await {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(crate::JoinError::Panicked(msg)) => {
                    panic!("OpenMP worker thread panicked: {msg}")
                }
                Err(crate::JoinError::Sched(e)) => first_err = first_err.or(Some(e)),
            }
        }
        self.emit_inner(Tid(0), None, None, EventKind::JoinRegion { region });
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for OmpProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmpProc").field("rank", &self.rank).finish()
    }
}

/// Execution context of one OpenMP thread inside a parallel region.
///
/// Not `Sync`: each thread owns its context. Worksharing constructs
/// (`single`, `sections`, dynamic `for`, reductions) rely on SPMD execution:
/// every team member must encounter them in the same order.
pub struct OmpCtx {
    proc: OmpProc,
    team: Team,
    region: RegionId,
    tid: Tid,
    constructs: Cell<u64>,
    loc: RefCell<Option<SrcLoc>>,
}

impl OmpCtx {
    fn new(proc: OmpProc, team: Team, region: RegionId, tid: Tid) -> Self {
        OmpCtx {
            proc,
            team,
            region,
            tid,
            constructs: Cell::new(0),
            loc: RefCell::new(None),
        }
    }

    /// `omp_get_thread_num()`.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// `omp_get_num_threads()`.
    pub fn nthreads(&self) -> usize {
        self.team.nthreads()
    }

    /// The dynamic region instance.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The owning process's rank.
    pub fn rank(&self) -> Rank {
        self.proc.rank()
    }

    /// The OpenMP runtime of this process.
    pub fn proc(&self) -> &OmpProc {
        &self.proc
    }

    /// The scheduler.
    pub fn runtime(&self) -> &Runtime {
        self.proc.runtime()
    }

    /// Set the source location attached to subsequently emitted events
    /// (used by the interpreter to point reports at DSL lines).
    pub(crate) fn set_loc(&self, loc: Option<SrcLoc>) {
        *self.loc.borrow_mut() = loc;
    }

    fn current_loc(&self) -> Option<SrcLoc> {
        self.loc.borrow().clone()
    }

    fn next_construct(&self) -> u64 {
        let c = self.constructs.get();
        self.constructs.set(c + 1);
        c
    }

    /// Emit an event from this thread (tagged with rank/tid/region/time).
    pub fn emit(&self, kind: EventKind) {
        self.proc
            .emit_inner(self.tid, Some(self.region), self.current_loc(), kind);
    }

    /// Charge virtual compute time.
    pub fn advance(&self, dt: SimTime) {
        self.runtime().advance(dt);
    }

    /// A voluntary scheduling point.
    pub async fn yield_now(&self) -> SchedResult<()> {
        self.runtime().yield_now().await
    }

    /// `#pragma omp barrier`.
    pub async fn barrier(&self) -> SchedResult<()> {
        self.advance(self.proc.costs().barrier);
        let epoch = self.team.barrier_wait().await?;
        self.emit(EventKind::Barrier {
            barrier: BarrierId(self.region.0 as u32),
            epoch,
        });
        Ok(())
    }

    /// `#pragma omp critical(name)`: `body` runs holding the named lock.
    pub async fn critical<R>(&self, name: &str, body: impl Future<Output = R>) -> SchedResult<R> {
        let held = self.enter_critical(name).await?;
        let r = body.await;
        self.exit_critical(&held);
        Ok(r)
    }

    /// The entry half of [`OmpCtx::critical`], for a caller that runs the
    /// body itself: charge the construct, acquire the named lock, record
    /// the acquisition. Hand what it returns to [`OmpCtx::exit_critical`]
    /// however the body ends.
    pub async fn enter_critical(&self, name: &str) -> SchedResult<(OmpLock, LockId)> {
        let lock = self.proc.critical_lock(name);
        let lock_id = self.proc.collector().intern_lock(name);
        self.advance(self.proc.costs().critical);
        lock.acquire().await?;
        self.emit(EventKind::Acquire { lock: lock_id });
        Ok((lock, lock_id))
    }

    /// The exit half of [`OmpCtx::critical`]: record the release and free
    /// the lock.
    pub(crate) fn exit_critical(&self, (lock, lock_id): &(OmpLock, LockId)) {
        self.emit(EventKind::Release { lock: *lock_id });
        lock.release();
    }

    /// `#pragma omp single`: exactly one thread runs `body`; implicit
    /// barrier.
    pub async fn single<R>(&self, body: impl Future<Output = R>) -> SchedResult<Option<R>> {
        let r = self.single_nowait(body).await;
        self.barrier().await?;
        Ok(r)
    }

    /// `#pragma omp single nowait`: `body` runs on the one thread that
    /// claims the construct and is dropped unstarted on the others.
    pub async fn single_nowait<R>(&self, body: impl Future<Output = R>) -> Option<R> {
        let construct = self.next_construct();
        if self.team.claim_single(construct) {
            Some(body.await)
        } else {
            None
        }
    }

    /// `#pragma omp master`: only tid 0 runs `body`; no barrier.
    pub async fn master<R>(&self, body: impl Future<Output = R>) -> Option<R> {
        if self.tid.0 == 0 {
            Some(body.await)
        } else {
            None
        }
    }

    /// Static `for` schedule: this thread's block of `0..n`.
    pub fn for_static(&self, n: u64) -> Range<u64> {
        static_range(n, self.nthreads(), self.tid.index())
    }

    /// Dynamic `for` schedule over `0..n` in chunks of `chunk`: an iterator
    /// of index ranges claimed on demand.
    pub(crate) fn for_dynamic(&self, n: u64, chunk: u64) -> DynFor {
        DynFor {
            team: self.team.clone(),
            construct: self.next_construct(),
            n,
            chunk: chunk.max(1),
        }
    }

    /// `#pragma omp sections`: the `n` sections are distributed over the
    /// team — `section(i)` runs exactly once for each `i` in `0..n`, on
    /// whichever thread claims it; implicit barrier at the end.
    pub async fn sections(
        &self,
        n: usize,
        mut section: impl AsyncFnMut(usize) -> SchedResult<()>,
    ) -> SchedResult<()> {
        let construct = self.next_construct();
        while let Some(ix) = self.team.claim_index(construct, n as u64) {
            section(ix as usize).await?;
        }
        self.barrier().await
    }

    /// Team-wide reduction: combine every thread's `value` with `op`;
    /// all threads receive the result (includes a barrier).
    pub async fn reduce(&self, value: f64, op: impl Fn(f64, f64) -> f64) -> SchedResult<f64> {
        let construct = self.next_construct();
        self.team.reduce_contribute(construct, value, op);
        self.barrier().await?;
        // Never `None`: this thread contributed above.
        Ok(self.team.reduce_result(construct).unwrap_or(value))
    }

    /// Record a write of shared variable `name` (optionally one element).
    pub fn write_var(&self, name: &str, index: Option<u64>) {
        let var = self.proc.collector().intern_var(name);
        let loc = match index {
            Some(i) => MemLoc::Elem(var, i),
            None => MemLoc::Var(var),
        };
        self.emit(EventKind::Access {
            loc,
            kind: AccessKind::Write,
        });
    }
}

/// Iterator over dynamically scheduled loop chunks.
pub(crate) struct DynFor {
    team: Team,
    construct: u64,
    n: u64,
    chunk: u64,
}

impl Iterator for DynFor {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        self.team.claim_chunk(self.construct, self.n, self.chunk)
    }
}
