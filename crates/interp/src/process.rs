//! The per-rank MPI call interface.

use crate::collective::{CollectiveOp, Contribution, ReduceOp, Slot};
use crate::error::{MpiError, MpiResult};
use crate::msg::{Message, Payload, SrcSpec, Status, TagSpec};
use crate::reqs::ReqState;
use crate::world::World;
use crate::{BlockReason, Runtime, SimTime, Vtid};
use home_trace::{CommId, Rank, ReqId, ThreadLevel, COMM_WORLD};
use std::sync::Arc;

/// Handle through which one MPI process issues calls.
///
/// A `Process` may be cloned and shared among the OpenMP threads of its
/// rank — which is precisely how thread-safety violations arise; the
/// simulator is deliberately permissive and lets the HOME analyses observe
/// the consequences.
#[derive(Clone)]
pub struct Process {
    world: World,
    rank: Rank,
}

fn log2_ceil(n: usize) -> u64 {
    (usize::BITS - (n.max(1) - 1).leading_zeros()) as u64
}

impl Process {
    pub(crate) fn new(world: World, rank: Rank) -> Process {
        Process { world, rank }
    }

    /// This process's world rank.
    pub fn rank(&self) -> u32 {
        self.rank.0
    }

    /// World size (`MPI_Comm_size` on `MPI_COMM_WORLD`).
    pub(crate) fn world_size(&self) -> usize {
        self.world.size()
    }

    /// Size of `comm`.
    pub(crate) fn comm_size(&self, comm: CommId) -> MpiResult<usize> {
        self.world.state().comms.size(comm)
    }

    /// This process's rank within `comm`, if it is a member.
    pub(crate) fn comm_rank(&self, comm: CommId) -> MpiResult<Option<u32>> {
        self.world.state().comms.comm_rank(comm, self.rank)
    }

    /// The world this process belongs to.
    pub fn world(&self) -> &World {
        &self.world
    }

    fn rt(&self) -> &Runtime {
        self.world.runtime()
    }

    fn me_vtid(&self) -> Vtid {
        match self.rt().current_vtid() {
            Some(me) => me,
            None => panic!("MPI calls must run on a virtual thread"),
        }
    }

    async fn pre_op(&self) -> MpiResult<ThreadLevel> {
        self.rt().yield_now().await?;
        self.world.check_active(self.rank)
    }

    // ---- lifecycle ---------------------------------------------------------

    /// `MPI_Init`: single-threaded initialization (provides
    /// [`ThreadLevel::Single`]).
    pub async fn init(&self) -> MpiResult<ThreadLevel> {
        self.init_with(ThreadLevel::Single).await
    }

    /// `MPI_Init_thread`: request `required`, receive
    /// `min(required, max_thread_level)`.
    pub async fn init_thread(&self, required: ThreadLevel) -> MpiResult<ThreadLevel> {
        let cap = self.world.config().max_thread_level;
        self.init_with(required.min(cap)).await
    }

    async fn init_with(&self, provided: ThreadLevel) -> MpiResult<ThreadLevel> {
        self.rt().yield_now().await?;
        let vtid = self.me_vtid();
        let mut st = self.world.state();
        let p = &mut st.procs[self.rank.index()];
        if p.level.is_some() {
            return Err(MpiError::AlreadyInitialized);
        }
        p.level = Some(provided);
        p.main_vtid = Some(vtid);
        Ok(provided)
    }

    /// The thread level this process was initialized with.
    pub fn thread_level(&self) -> Option<ThreadLevel> {
        self.world.state().procs[self.rank.index()].level
    }

    /// `MPI_Is_thread_main`: is the calling virtual thread the one that
    /// initialized MPI on this process?
    pub fn is_thread_main(&self) -> bool {
        let vtid = self.rt().current_vtid();
        self.world.state().procs[self.rank.index()].main_vtid == vtid && vtid.is_some()
    }

    /// `MPI_Finalize`: synchronizes all processes (modelled as a world-wide
    /// rendezvous), then marks this process finalized.
    pub async fn finalize(&self) -> MpiResult<()> {
        self.collective(
            COMM_WORLD,
            CollectiveOp::Finalize,
            Arc::new(Vec::new()),
            None,
        )
        .await?;
        self.world.state().procs[self.rank.index()].finalized = true;
        Ok(())
    }

    // ---- point-to-point ----------------------------------------------------

    /// `MPI_Send`: eager buffered send (returns as soon as the message is
    /// in flight, as small-message MPI implementations do).
    pub async fn send(&self, dest: u32, tag: i32, comm: CommId, data: Payload) -> MpiResult<()> {
        self.pre_op().await?;
        let rt = self.rt();
        let cfg = self.world.config().clone();
        rt.advance(cfg.latency.send_overhead);
        let available_at = rt.clock() + cfg.latency.transfer_time(data.len());
        let (woken, _) = self.deliver_message(dest, tag, comm, data, available_at, None)?;
        for w in woken {
            rt.unblock(w);
        }
        Ok(())
    }

    /// `MPI_Ssend`: synchronous (rendezvous) send — returns only once a
    /// matching receive has been posted and consumed the message. The
    /// classic head-to-head `Ssend`/`Ssend` pattern therefore deadlocks,
    /// which the scheduler detects and reports.
    pub async fn ssend(&self, dest: u32, tag: i32, comm: CommId, data: Payload) -> MpiResult<()> {
        self.pre_op().await?;
        let rt = self.rt();
        let cfg = self.world.config().clone();
        rt.advance(cfg.latency.send_overhead);
        let available_at = rt.clock() + cfg.latency.transfer_time(data.len());
        let me = self.me_vtid();
        let (woken, uid) = self.deliver_message(dest, tag, comm, data, available_at, Some(me))?;
        for w in woken {
            rt.unblock(w);
        }
        // Wait until a receive matches the message (the sweep removes our
        // uid from the sync-waiter table and wakes us).
        loop {
            {
                let st = self.world.state();
                if !st.sync_waiters.contains_key(&uid) {
                    return Ok(());
                }
            }
            rt.block_current(BlockReason::Message(format!(
                "MPI_Ssend(to={dest}, tag={tag}, {comm}) awaiting matching receive"
            )))
            .await?;
        }
    }

    /// Shared delivery path for `send`/`ssend`. Returns threads to wake and
    /// the message uid.
    fn deliver_message(
        &self,
        dest: u32,
        tag: i32,
        comm: CommId,
        data: Payload,
        available_at: SimTime,
        sync_waiter: Option<Vtid>,
    ) -> MpiResult<(Vec<Vtid>, u64)> {
        let mut st = self.world.state();
        let dst_world = st.comms.world_rank(comm, dest)?;
        let my_crank = st
            .comms
            .comm_rank(comm, self.rank)?
            .ok_or(MpiError::InvalidComm)?;
        let fifo_seq = st.fifo_next(self.rank, dst_world, tag, comm);
        let uid = st.msg_uid();
        if let Some(w) = sync_waiter {
            st.sync_waiters.insert(uid, w);
        }
        let woken = st.deliver(
            dst_world,
            Message {
                src: my_crank,
                src_world: self.rank,
                tag,
                comm,
                data,
                available_at_ns: available_at.as_nanos(),
                fifo_seq,
                uid,
            },
        );
        Ok((woken, uid))
    }

    /// `MPI_Isend`: same transfer as [`Process::send`] plus a request handle
    /// whose completion stands for send-buffer reuse.
    pub async fn isend(
        &self,
        dest: u32,
        tag: i32,
        comm: CommId,
        data: Payload,
    ) -> MpiResult<ReqId> {
        let complete_at = self.rt().clock() + self.world.config().latency.send_overhead;
        self.send(dest, tag, comm, data).await?;
        let mut st = self.world.state();
        Ok(st.reqs.alloc(
            self.rank,
            ReqState::SendInFlight {
                complete_at_ns: complete_at.as_nanos(),
            },
        ))
    }

    /// `MPI_Irecv`: post a nonblocking receive.
    pub async fn irecv(&self, src: SrcSpec, tag: TagSpec, comm: CommId) -> MpiResult<ReqId> {
        self.pre_op().await?;
        let woken;
        let req;
        {
            let mut st = self.world.state();
            let size = st.comms.size(comm)?;
            if st.comms.comm_rank(comm, self.rank)?.is_none() {
                return Err(MpiError::InvalidComm);
            }
            if let SrcSpec::Rank(r) = src {
                if r as usize >= size {
                    return Err(MpiError::InvalidRank {
                        rank: r as i32,
                        comm_size: size,
                    });
                }
            }
            let post_seq = st.reqs.next_post_seq();
            req = st.reqs.alloc(
                self.rank,
                ReqState::PendingRecv {
                    dst: self.rank,
                    src,
                    tag,
                    comm,
                    post_seq,
                },
            );
            woken = st.sweep(self.rank);
        }
        for w in woken {
            self.rt().unblock(w);
        }
        Ok(req)
    }

    /// `MPI_Wait`: block until `req` completes. For receive requests the
    /// payload is returned alongside the status.
    pub async fn wait(&self, req: ReqId) -> MpiResult<(Option<Payload>, Status)> {
        self.pre_op().await?;
        let rt = self.rt();
        let recv_overhead = self.world.config().latency.recv_overhead;
        loop {
            let desc = {
                let mut st = self.world.state();
                let r = st.reqs.get_mut(req)?;
                if r.owner != self.rank {
                    // Requests are process-local objects.
                    return Err(MpiError::RequestUnknown);
                }
                match &r.state {
                    ReqState::ReadyRecv(msg) => {
                        let msg = msg.clone();
                        r.state = ReqState::Consumed;
                        drop(st);
                        rt.merge_clock(SimTime::from_nanos(msg.available_at_ns));
                        rt.advance(recv_overhead);
                        return Ok((Some(Arc::clone(&msg.data)), Status::of(&msg)));
                    }
                    ReqState::SendInFlight { complete_at_ns } => {
                        let t = *complete_at_ns;
                        r.state = ReqState::Consumed;
                        drop(st);
                        rt.merge_clock(SimTime::from_nanos(t));
                        return Ok((None, Status::empty()));
                    }
                    ReqState::Consumed => return Err(MpiError::RequestConsumed),
                    ReqState::PendingRecv { src, tag, comm, .. } => {
                        let desc = format!(
                            "MPI_Wait({req}: recv src={}, tag={}, {comm})",
                            src.to_i32(),
                            tag.to_i32()
                        );
                        let me = self.me_vtid();
                        r.waiters.push(me);
                        desc
                    }
                }
            };
            rt.block_current(BlockReason::Message(desc)).await?;
        }
    }

    /// `MPI_Test`: nonblocking completion check.
    pub async fn test(&self, req: ReqId) -> MpiResult<Option<(Option<Payload>, Status)>> {
        self.pre_op().await?;
        let rt = self.rt();
        let recv_overhead = self.world.config().latency.recv_overhead;
        let mut st = self.world.state();
        let r = st.reqs.get_mut(req)?;
        match &r.state {
            ReqState::ReadyRecv(msg) => {
                let msg = msg.clone();
                r.state = ReqState::Consumed;
                drop(st);
                rt.merge_clock(SimTime::from_nanos(msg.available_at_ns));
                rt.advance(recv_overhead);
                Ok(Some((Some(Arc::clone(&msg.data)), Status::of(&msg))))
            }
            ReqState::SendInFlight { complete_at_ns } => {
                let t = *complete_at_ns;
                r.state = ReqState::Consumed;
                drop(st);
                rt.merge_clock(SimTime::from_nanos(t));
                Ok(Some((None, Status::empty())))
            }
            ReqState::Consumed => Err(MpiError::RequestConsumed),
            ReqState::PendingRecv { .. } => Ok(None),
        }
    }

    /// `MPI_Waitall`: wait for every request, in order.
    pub async fn waitall(&self, reqs: &[ReqId]) -> MpiResult<Vec<Status>> {
        let mut out = Vec::with_capacity(reqs.len());
        for &r in reqs {
            out.push(self.wait(r).await?.1);
        }
        Ok(out)
    }

    /// `MPI_Recv`: blocking receive (equivalent to `irecv` + `wait`, which
    /// preserves posting-order matching fairness).
    pub async fn recv(
        &self,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommId,
    ) -> MpiResult<(Payload, Status)> {
        let req = self.irecv(src, tag, comm).await?;
        let (data, status) = self.wait(req).await?;
        Ok((data.ok_or(MpiError::RequestUnknown)?, status))
    }

    /// `MPI_Sendrecv`: combined send and receive without deadlock.
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &self,
        dest: u32,
        send_tag: i32,
        data: Payload,
        src: SrcSpec,
        recv_tag: TagSpec,
        comm: CommId,
    ) -> MpiResult<(Payload, Status)> {
        let rreq = self.irecv(src, recv_tag, comm).await?;
        self.send(dest, send_tag, comm, data).await?;
        let (payload, status) = self.wait(rreq).await?;
        Ok((payload.ok_or(MpiError::RequestUnknown)?, status))
    }

    /// `MPI_Probe`: block until a matching message is visible, without
    /// consuming it.
    pub async fn probe(&self, src: SrcSpec, tag: TagSpec, comm: CommId) -> MpiResult<Status> {
        self.pre_op().await?;
        let rt = self.rt();
        loop {
            {
                let mut st = self.world.state();
                st.comms.get(comm)?;
                if let Some(m) = st.mailbox[self.rank.index()]
                    .iter()
                    .find(|m| m.matches(src, tag, comm))
                {
                    let status = Status::of(m);
                    let t = m.available_at_ns;
                    drop(st);
                    rt.merge_clock(SimTime::from_nanos(t));
                    return Ok(status);
                }
                let me = self.me_vtid();
                st.recv_waiters[self.rank.index()].push(me);
            }
            let desc = format!(
                "MPI_Probe(src={}, tag={}, {comm})",
                src.to_i32(),
                tag.to_i32()
            );
            rt.block_current(BlockReason::Message(desc)).await?;
        }
    }

    /// `MPI_Iprobe`: nonblocking probe.
    pub async fn iprobe(
        &self,
        src: SrcSpec,
        tag: TagSpec,
        comm: CommId,
    ) -> MpiResult<Option<Status>> {
        self.pre_op().await?;
        let st = self.world.state();
        st.comms.get(comm)?;
        Ok(st.mailbox[self.rank.index()]
            .iter()
            .find(|m| m.matches(src, tag, comm))
            .map(Status::of))
    }

    // ---- collectives -------------------------------------------------------

    async fn collective(
        &self,
        comm: CommId,
        op: CollectiveOp,
        data: Payload,
        color_key: Option<(i32, i32)>,
    ) -> MpiResult<(Payload, Option<CommId>)> {
        self.pre_op().await?;
        let rt = self.rt();
        let cfg = self.world.config().clone();
        rt.advance(cfg.collective_overhead);

        // Phase 1: claim a slot and contribute.
        let (my_ix, crank) = {
            let mut st = self.world.state();
            let ws = &mut *st;
            let size = ws.comms.size(comm)?;
            if let Some(root) = op.root().filter(|&root| root as usize >= size) {
                return Err(MpiError::InvalidRank {
                    rank: root as i32,
                    comm_size: size,
                });
            }
            let crank = ws
                .comms
                .comm_rank(comm, self.rank)?
                .ok_or(MpiError::InvalidComm)?;
            let cs = ws.collectives.entry(comm).or_default();
            let my_ix = cs.claim(crank);
            while cs.slots.len() <= my_ix {
                cs.slots.push(Slot::new(op));
            }
            let slot = &mut cs.slots[my_ix];
            if let Err(e) = slot.check_match(op) {
                slot.failed = Some(e.clone());
                let waiters = std::mem::take(&mut slot.waiters);
                drop(st);
                for w in waiters {
                    rt.unblock(w);
                }
                return Err(e);
            }
            slot.contributions.insert(
                crank,
                Contribution {
                    data,
                    color_key,
                    arrived_at_ns: rt.clock().as_nanos(),
                },
            );
            if slot.contributions.len() == size {
                let waiters = Self::finalize_slot(&mut ws.comms, slot, &cfg, comm, size);
                drop(st);
                for w in waiters {
                    rt.unblock(w);
                }
            }
            (my_ix, crank)
        };

        // Phase 2: wait for the slot to complete.
        loop {
            {
                let mut st = self.world.state();
                let slot = st
                    .collectives
                    .get_mut(&comm)
                    .and_then(|cs| cs.slots.get_mut(my_ix))
                    .ok_or(MpiError::InvalidComm)?;
                if let Some(e) = &slot.failed {
                    return Err(e.clone());
                }
                if let Some(res) = &slot.result {
                    let complete = res.complete_at_ns;
                    let payload = res
                        .per_rank
                        .get(crank as usize)
                        .cloned()
                        .unwrap_or_default();
                    let new_comm = res.new_comm.get(crank as usize).copied().flatten();
                    drop(st);
                    rt.merge_clock(SimTime::from_nanos(complete));
                    return Ok((payload, new_comm));
                }
                let me = self.me_vtid();
                slot.waiters.push(me);
            }
            let desc = format!("{}({comm}, slot {my_ix})", op.kind());
            rt.block_current(BlockReason::Barrier(desc)).await?;
        }
    }

    /// Complete a full slot: compute the result, create communicators for
    /// dup/split, and return the waiters to wake.
    fn finalize_slot(
        comms: &mut crate::comm::CommTable,
        slot: &mut Slot,
        cfg: &crate::config::MpiConfig,
        comm: CommId,
        size: usize,
    ) -> Vec<Vtid> {
        let extra_ns = cfg.latency.base_latency.as_nanos() * log2_ceil(size)
            + cfg.collective_overhead.as_nanos();
        let new_comms: MpiResult<Vec<Option<CommId>>> = match slot.op {
            CollectiveOp::CommDup => comms.dup(comm).map(|id| vec![Some(id); size]),
            CollectiveOp::CommSplit => {
                let cks: Vec<(i32, i32)> = (0..size as u32)
                    .map(|r| slot.contributions.get(&r).and_then(|c| c.color_key))
                    .map(|ck| ck.unwrap_or((-1, 0)))
                    .collect();
                comms.split(comm, &cks)
            }
            _ => Ok(Vec::new()),
        };
        match (slot.compute(size, extra_ns), new_comms) {
            (Ok(mut result), Ok(new_comm)) => {
                result.new_comm = new_comm;
                slot.result = Some(result);
            }
            (Err(e), _) | (_, Err(e)) => slot.failed = Some(e),
        }
        std::mem::take(&mut slot.waiters)
    }

    /// `MPI_Barrier`.
    pub async fn barrier(&self, comm: CommId) -> MpiResult<()> {
        self.collective(comm, CollectiveOp::Barrier, Arc::new(Vec::new()), None)
            .await?;
        Ok(())
    }

    /// `MPI_Bcast`: returns the root's payload on every rank.
    pub async fn bcast(&self, root: u32, data: Payload, comm: CommId) -> MpiResult<Payload> {
        Ok(self
            .collective(comm, CollectiveOp::Bcast { root }, data, None)
            .await?
            .0)
    }

    /// `MPI_Reduce`: root receives the combined payload (`None` elsewhere).
    pub async fn reduce(
        &self,
        op: ReduceOp,
        root: u32,
        data: Payload,
        comm: CommId,
    ) -> MpiResult<Option<Payload>> {
        let crank = self.comm_rank(comm)?.ok_or(MpiError::InvalidComm)?;
        let (payload, _) = self
            .collective(comm, CollectiveOp::Reduce { op, root }, data, None)
            .await?;
        Ok(if crank == root { Some(payload) } else { None })
    }

    /// `MPI_Allreduce`.
    pub async fn allreduce(&self, op: ReduceOp, data: Payload, comm: CommId) -> MpiResult<Payload> {
        Ok(self
            .collective(comm, CollectiveOp::Allreduce { op }, data, None)
            .await?
            .0)
    }

    /// `MPI_Gather`: root receives concatenation in rank order.
    pub async fn gather(
        &self,
        root: u32,
        data: Payload,
        comm: CommId,
    ) -> MpiResult<Option<Payload>> {
        let crank = self.comm_rank(comm)?.ok_or(MpiError::InvalidComm)?;
        let (payload, _) = self
            .collective(comm, CollectiveOp::Gather { root }, data, None)
            .await?;
        Ok(if crank == root { Some(payload) } else { None })
    }

    /// `MPI_Allgather`.
    pub async fn allgather(&self, data: Payload, comm: CommId) -> MpiResult<Payload> {
        Ok(self
            .collective(comm, CollectiveOp::Allgather, data, None)
            .await?
            .0)
    }

    /// `MPI_Scatter`: root's payload is cut into equal chunks.
    pub async fn scatter(&self, root: u32, data: Payload, comm: CommId) -> MpiResult<Payload> {
        Ok(self
            .collective(comm, CollectiveOp::Scatter { root }, data, None)
            .await?
            .0)
    }

    /// `MPI_Alltoall`.
    pub async fn alltoall(&self, data: Payload, comm: CommId) -> MpiResult<Payload> {
        Ok(self
            .collective(comm, CollectiveOp::Alltoall, data, None)
            .await?
            .0)
    }

    /// `MPI_Comm_dup`.
    pub async fn comm_dup(&self, comm: CommId) -> MpiResult<CommId> {
        let (_, nc) = self
            .collective(comm, CollectiveOp::CommDup, Arc::new(Vec::new()), None)
            .await?;
        nc.ok_or(MpiError::InvalidComm)
    }

    /// `MPI_Comm_split`: negative `color` = `MPI_UNDEFINED` (returns `None`).
    pub async fn comm_split(
        &self,
        comm: CommId,
        color: i32,
        key: i32,
    ) -> MpiResult<Option<CommId>> {
        let (_, nc) = self
            .collective(
                comm,
                CollectiveOp::CommSplit,
                Arc::new(Vec::new()),
                Some((color, key)),
            )
            .await?;
        Ok(nc)
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process").field("rank", &self.rank).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use crate::msg::payload;
    use crate::{Runtime, SchedConfig, SchedError};

    /// Run a body per rank on a deterministic world; panics propagate.
    fn run_world<F>(n: usize, seed: u64, f: F)
    where
        F: AsyncFn(Process) + 'static,
    {
        run_world_cfg(n, seed, MpiConfig::test(), f).unwrap();
    }

    fn run_world_cfg<F>(n: usize, seed: u64, cfg: MpiConfig, f: F) -> Result<World, SchedError>
    where
        F: AsyncFn(Process) + 'static,
    {
        let rt = Runtime::new(SchedConfig::deterministic(seed));
        let world = World::new(rt.clone(), n, cfg);
        let f = std::rc::Rc::new(f);
        let mut handles = Vec::new();
        for r in 0..n as u32 {
            let p = world.process(r);
            let f = std::rc::Rc::clone(&f);
            handles.push(rt.spawn(format!("rank{r}"), async move { f(p).await }));
        }
        let result = rt.run();
        for h in handles {
            h.join().expect("rank panicked");
        }
        result.map(|_| world)
    }

    #[test]
    fn init_lifecycle() {
        run_world(2, 0, async |p| {
            assert!(p.world.state().procs[p.rank.index()].level.is_none());
            let lvl = p.init_thread(ThreadLevel::Multiple).await.unwrap();
            assert_eq!(lvl, ThreadLevel::Multiple);
            assert!(p.world.state().procs[p.rank.index()].level.is_some());
            assert!(p.is_thread_main());
            assert_eq!(p.init().await, Err(MpiError::AlreadyInitialized));
            p.finalize().await.unwrap();
            assert!(p.world.state().procs[p.rank.index()].finalized);
            assert_eq!(
                p.send(0, 0, COMM_WORLD, payload(vec![])).await,
                Err(MpiError::AlreadyFinalized)
            );
        });
    }

    #[test]
    fn thread_level_is_capped() {
        run_world_cfg(
            1,
            0,
            MpiConfig {
                max_thread_level: ThreadLevel::Funneled,
                ..MpiConfig::test()
            },
            async |p| {
                let lvl = p.init_thread(ThreadLevel::Multiple).await.unwrap();
                assert_eq!(lvl, ThreadLevel::Funneled);
            },
        )
        .unwrap();
    }

    #[test]
    fn call_before_init_fails() {
        run_world(1, 0, async |p| {
            assert_eq!(
                p.send(0, 0, COMM_WORLD, payload(vec![])).await,
                Err(MpiError::NotInitialized)
            );
        });
    }

    #[test]
    fn simple_send_recv() {
        run_world(2, 1, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.send(1, 7, COMM_WORLD, payload(vec![1.0, 2.0, 3.0]))
                    .await
                    .unwrap();
            } else {
                let (data, st) = p
                    .recv(SrcSpec::Rank(0), TagSpec::Tag(7), COMM_WORLD)
                    .await
                    .unwrap();
                assert_eq!(*data, vec![1.0, 2.0, 3.0]);
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert_eq!(st.count, 3);
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn wildcard_recv_reports_actual_envelope() {
        run_world(3, 2, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 2 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (_, st) = p
                        .recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                        .await
                        .unwrap();
                    seen.push((st.source, st.tag));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(0, 10), (1, 11)]);
            } else {
                let tag = 10 + p.rank() as i32;
                p.send(2, tag, COMM_WORLD, payload(vec![0.0]))
                    .await
                    .unwrap();
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn fifo_non_overtaking_same_channel() {
        run_world(2, 3, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                for i in 0..10 {
                    p.send(1, 0, COMM_WORLD, payload(vec![i as f64]))
                        .await
                        .unwrap();
                }
            } else {
                for i in 0..10 {
                    let (d, _) = p
                        .recv(SrcSpec::Rank(0), TagSpec::Tag(0), COMM_WORLD)
                        .await
                        .unwrap();
                    assert_eq!(d[0], i as f64, "messages must not overtake");
                }
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn tag_selective_matching() {
        run_world(2, 4, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.send(1, 5, COMM_WORLD, payload(vec![5.0])).await.unwrap();
                p.send(1, 6, COMM_WORLD, payload(vec![6.0])).await.unwrap();
            } else {
                // Receive the *second* tag first.
                let (d6, _) = p
                    .recv(SrcSpec::Rank(0), TagSpec::Tag(6), COMM_WORLD)
                    .await
                    .unwrap();
                let (d5, _) = p
                    .recv(SrcSpec::Rank(0), TagSpec::Tag(5), COMM_WORLD)
                    .await
                    .unwrap();
                assert_eq!((d5[0], d6[0]), (5.0, 6.0));
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn isend_irecv_wait() {
        run_world(2, 5, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                let r = p.isend(1, 0, COMM_WORLD, payload(vec![9.0])).await.unwrap();
                let (data, st) = p.wait(r).await.unwrap();
                assert!(data.is_none());
                assert_eq!(st, Status::empty());
                assert_eq!(p.wait(r).await, Err(MpiError::RequestConsumed));
            } else {
                let r = p
                    .irecv(SrcSpec::Rank(0), TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap();
                let (data, st) = p.wait(r).await.unwrap();
                assert_eq!(*data.unwrap(), vec![9.0]);
                assert_eq!(st.tag, 0);
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn test_polls_without_blocking() {
        run_world(2, 6, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 1 {
                let r = p
                    .irecv(SrcSpec::Rank(0), TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap();
                let mut polls = 0u32;
                loop {
                    if let Some((data, _)) = p.test(r).await.unwrap() {
                        assert_eq!(*data.unwrap(), vec![4.0]);
                        break;
                    }
                    polls += 1;
                    assert!(polls < 100_000, "sender never arrived");
                }
            } else {
                p.send(1, 3, COMM_WORLD, payload(vec![4.0])).await.unwrap();
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn waitall_completes_everything() {
        run_world(2, 7, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                let mut rs = Vec::new();
                for i in 0..4 {
                    rs.push(
                        p.isend(1, i, COMM_WORLD, payload(vec![i as f64]))
                            .await
                            .unwrap(),
                    );
                }
                p.waitall(&rs).await.unwrap();
            } else {
                let mut rs = Vec::new();
                for i in 0..4 {
                    rs.push(
                        p.irecv(SrcSpec::Rank(0), TagSpec::Tag(i), COMM_WORLD)
                            .await
                            .unwrap(),
                    );
                }
                let sts = p.waitall(&rs).await.unwrap();
                for (i, st) in sts.iter().enumerate() {
                    assert_eq!(st.tag, i as i32);
                }
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn probe_then_recv() {
        run_world(2, 8, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.send(1, 42, COMM_WORLD, payload(vec![1.0, 2.0]))
                    .await
                    .unwrap();
            } else {
                let st = p
                    .probe(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap();
                assert_eq!(st.tag, 42);
                assert_eq!(st.count, 2);
                // Probe must not consume.
                let (d, _) = p
                    .recv(SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), COMM_WORLD)
                    .await
                    .unwrap();
                assert_eq!(d.len(), 2);
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn iprobe_is_nonblocking() {
        run_world(1, 9, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            assert_eq!(
                p.iprobe(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap(),
                None
            );
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        run_world(2, 10, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let peer = 1 - p.rank();
            let (d, _) = p
                .sendrecv(
                    peer,
                    0,
                    payload(vec![p.rank() as f64]),
                    SrcSpec::Rank(peer),
                    TagSpec::Tag(0),
                    COMM_WORLD,
                )
                .await
                .unwrap();
            assert_eq!(d[0], peer as f64);
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn ssend_completes_once_received() {
        run_world(2, 30, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.ssend(1, 5, COMM_WORLD, payload(vec![7.0])).await.unwrap();
                // After ssend returns, the receive must have matched.
            } else {
                let (d, st) = p
                    .recv(SrcSpec::Rank(0), TagSpec::Tag(5), COMM_WORLD)
                    .await
                    .unwrap();
                assert_eq!(*d, vec![7.0]);
                assert_eq!(st.tag, 5);
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn head_to_head_ssend_deadlocks() {
        // The classic rendezvous deadlock: both ranks Ssend first.
        let result = run_world_cfg(2, 31, MpiConfig::test(), async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let peer = 1 - p.rank();
            let e = p
                .ssend(peer, 0, COMM_WORLD, payload(vec![1.0]))
                .await
                .unwrap_err();
            assert!(matches!(e, MpiError::Sched(SchedError::Deadlock(_))));
        });
        match result {
            Err(SchedError::Deadlock(info)) => {
                assert!(info.involves("MPI_Ssend"), "{info}");
            }
            other => panic!("expected rendezvous deadlock, got {other:?}"),
        }
    }

    #[test]
    fn ssend_unblocks_on_late_recv() {
        run_world(2, 32, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.ssend(1, 9, COMM_WORLD, payload(vec![1.0])).await.unwrap();
            } else {
                // Delay before posting the receive; the sender must wait.
                for _ in 0..5 {
                    p.world().runtime().yield_now().await.unwrap();
                }
                p.recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap();
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn head_to_head_blocking_recv_deadlocks() {
        // Both ranks recv before sending — the classic deadlock; the
        // scheduler must detect and report it rather than hang.
        let result = run_world_cfg(2, 11, MpiConfig::test(), async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let peer = 1 - p.rank();
            let e = p
                .recv(SrcSpec::Rank(peer), TagSpec::Tag(0), COMM_WORLD)
                .await
                .unwrap_err();
            assert!(matches!(e, MpiError::Sched(SchedError::Deadlock(_))));
        });
        assert!(matches!(result, Err(SchedError::Deadlock(_))));
    }

    #[test]
    fn collectives_barrier_bcast_reduce() {
        run_world(4, 12, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            p.barrier(COMM_WORLD).await.unwrap();
            let v = if p.rank() == 0 {
                payload(vec![3.5])
            } else {
                payload(vec![])
            };
            let b = p.bcast(0, v, COMM_WORLD).await.unwrap();
            assert_eq!(*b, vec![3.5]);
            let r = p
                .reduce(ReduceOp::Sum, 0, payload(vec![p.rank() as f64]), COMM_WORLD)
                .await
                .unwrap();
            if p.rank() == 0 {
                assert_eq!(*r.unwrap(), vec![0.0 + 1.0 + 2.0 + 3.0]);
            } else {
                assert!(r.is_none());
            }
            let a = p
                .allreduce(ReduceOp::Max, payload(vec![p.rank() as f64]), COMM_WORLD)
                .await
                .unwrap();
            assert_eq!(*a, vec![3.0]);
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn gather_scatter_allgather_alltoall() {
        run_world(2, 13, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let g = p
                .gather(0, payload(vec![p.rank() as f64]), COMM_WORLD)
                .await
                .unwrap();
            if p.rank() == 0 {
                assert_eq!(*g.unwrap(), vec![0.0, 1.0]);
            }
            let ag = p
                .allgather(payload(vec![p.rank() as f64 + 10.0]), COMM_WORLD)
                .await
                .unwrap();
            assert_eq!(*ag, vec![10.0, 11.0]);
            let sc = if p.rank() == 0 {
                p.scatter(0, payload(vec![1.0, 2.0, 3.0, 4.0]), COMM_WORLD)
                    .await
                    .unwrap()
            } else {
                p.scatter(0, payload(vec![]), COMM_WORLD).await.unwrap()
            };
            if p.rank() == 0 {
                assert_eq!(*sc, vec![1.0, 2.0]);
            } else {
                assert_eq!(*sc, vec![3.0, 4.0]);
            }
            let base = p.rank() as f64 * 10.0;
            let at = p
                .alltoall(payload(vec![base, base + 1.0]), COMM_WORLD)
                .await
                .unwrap();
            if p.rank() == 0 {
                assert_eq!(*at, vec![0.0, 10.0]);
            } else {
                assert_eq!(*at, vec![1.0, 11.0]);
            }
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn collective_mismatch_is_poisoned() {
        let result = run_world_cfg(2, 14, MpiConfig::test(), async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let e = if p.rank() == 0 {
                p.barrier(COMM_WORLD).await.unwrap_err()
            } else {
                p.bcast(0, payload(vec![1.0]), COMM_WORLD)
                    .await
                    .unwrap_err()
            };
            assert!(
                matches!(e, MpiError::CollectiveMismatch { .. }),
                "got {e:?}"
            );
        });
        // Both ranks saw the poisoned slot and returned; no deadlock needed.
        result.unwrap();
    }

    #[test]
    fn a_root_outside_the_communicator_is_an_error_on_every_rank() {
        run_world(2, 14, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let out_of_range = MpiError::InvalidRank {
                rank: 9,
                comm_size: 2,
            };
            let data = || payload(vec![1.0]);
            assert_eq!(
                p.reduce(ReduceOp::Sum, 9, data(), COMM_WORLD).await,
                Err(out_of_range.clone())
            );
            assert_eq!(
                p.gather(9, data(), COMM_WORLD).await,
                Err(out_of_range.clone())
            );
            assert_eq!(p.bcast(9, data(), COMM_WORLD).await, Err(out_of_range));
            // No slot was claimed: the next collective still lines up.
            p.barrier(COMM_WORLD).await.unwrap();
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn comm_dup_and_split() {
        run_world(4, 15, async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            let dup = p.comm_dup(COMM_WORLD).await.unwrap();
            assert_ne!(dup, COMM_WORLD);
            assert_eq!(p.comm_size(dup).unwrap(), 4);
            // Split into even/odd halves.
            let half = p
                .comm_split(COMM_WORLD, (p.rank() % 2) as i32, p.rank() as i32)
                .await
                .unwrap()
                .unwrap();
            assert_eq!(p.comm_size(half).unwrap(), 2);
            let my_half_rank = p.comm_rank(half).unwrap().unwrap();
            assert_eq!(my_half_rank, p.rank() / 2);
            // Communicate within the split communicator.
            let peer = 1 - my_half_rank;
            let (d, _) = p
                .sendrecv(
                    peer,
                    0,
                    payload(vec![p.rank() as f64]),
                    SrcSpec::Rank(peer),
                    TagSpec::Tag(0),
                    half,
                )
                .await
                .unwrap();
            // Peer in my half is my rank ± 2.
            let expect = if p.rank() < 2 {
                p.rank() + 2
            } else {
                p.rank() - 2
            };
            assert_eq!(d[0], expect as f64);
            p.finalize().await.unwrap();
        });
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let world = run_world_cfg(2, 16, MpiConfig::cluster(), async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.send(1, 0, COMM_WORLD, payload(vec![0.0; 1000]))
                    .await
                    .unwrap();
            } else {
                p.recv(SrcSpec::Rank(0), TagSpec::Tag(0), COMM_WORLD)
                    .await
                    .unwrap();
            }
            p.finalize().await.unwrap();
        })
        .unwrap();
        let makespan = world.runtime().makespan();
        // At least base latency must have elapsed.
        assert!(makespan >= MpiConfig::cluster().latency.base_latency);
    }

    #[test]
    fn no_leaked_requests_or_messages_after_clean_run() {
        let world = run_world_cfg(2, 17, MpiConfig::test(), async |p| {
            p.init_thread(ThreadLevel::Multiple).await.unwrap();
            if p.rank() == 0 {
                p.send(1, 0, COMM_WORLD, payload(vec![1.0])).await.unwrap();
            } else {
                p.recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                    .await
                    .unwrap();
            }
            p.finalize().await.unwrap();
        })
        .unwrap();
        assert_eq!(world.live_requests(), 0);
        assert_eq!(world.undelivered_messages(), 0);
        assert!(world.all_finalized());
    }

    #[test]
    fn any_source_race_schedule_dependent() {
        // Two senders to one receiver with ANY_SOURCE: across seeds both
        // arrival orders must occur — the message-race nondeterminism the
        // paper's checks rely on.
        let mut first_sources = std::collections::HashSet::new();
        for seed in 0..40 {
            let rt = Runtime::new(SchedConfig::deterministic(seed));
            let world = World::new(rt.clone(), 3, MpiConfig::test());
            let observed = std::rc::Rc::new(std::cell::Cell::new(None));
            for r in 0..3u32 {
                let p = world.process(r);
                let obs = std::rc::Rc::clone(&observed);
                rt.spawn(format!("rank{r}"), async move {
                    p.init_thread(ThreadLevel::Multiple).await.unwrap();
                    if p.rank() == 2 {
                        let (_, st) = p
                            .recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                            .await
                            .unwrap();
                        obs.set(Some(st.source));
                        let _ = p
                            .recv(SrcSpec::Any, TagSpec::Any, COMM_WORLD)
                            .await
                            .unwrap();
                    } else {
                        p.send(2, 0, COMM_WORLD, payload(vec![p.rank() as f64]))
                            .await
                            .unwrap();
                    }
                    p.finalize().await.unwrap();
                });
            }
            rt.run().unwrap();
            first_sources.insert(observed.get().unwrap());
        }
        assert_eq!(
            first_sources.len(),
            2,
            "both senders should win the race under some seed"
        );
    }
}
