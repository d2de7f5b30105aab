//! The interpreter: executes IR programs over the MPI/OpenMP simulators
//! with tool-controlled selective instrumentation.

use crate::config::RunConfig;
use crate::env::Env;
use crate::{
    payload, DeadlockInfo, DynFor, MpiError, OmpCtx, OmpLock, OmpProc, Payload, Process, ReduceOp,
    Runtime, SchedError, SimTime, SrcSpec, TagSpec, World,
};
use home_ir::{Expr, IrReduceOp, IrThreadLevel, MpiStmt, Program, Schedule, Stmt, StmtKind};
use home_trace::{
    Collector, CommId, EventKind, LockId, MemorySink, MonitoredVar, MpiCallKind, MpiCallRecord,
    Rank, ReqId, SrcLoc, ThreadLevel, Trace, TraceSink, COMM_WORLD,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Fatal interpreter errors (non-fatal MPI misuse becomes an
/// [`MpiIncident`] instead).
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Scheduler-level failure (deadlock/shutdown) — aborts the rank.
    Sched(SchedError),
    /// Program-level error (undeclared variable, nested parallel, …).
    Runtime(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sched(e) => write!(f, "{e}"),
            ExecError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl From<ExecError> for home_trace::HomeError {
    fn from(e: ExecError) -> Self {
        home_trace::HomeError::Exec {
            rank: None,
            message: e.to_string(),
        }
    }
}

impl From<SchedError> for ExecError {
    fn from(e: SchedError) -> Self {
        ExecError::Sched(e)
    }
}

/// A non-fatal MPI misuse observed at runtime (e.g. a call after finalize,
/// a collective mismatch): recorded and execution continues, so the
/// checkers get a complete trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiIncident {
    /// World rank.
    pub rank: u32,
    /// Source line of the call.
    pub line: u32,
    /// Surface call name.
    pub call: String,
    /// Error description.
    pub error: String,
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The recorded event trace (contents depend on the tool's filter).
    pub trace: Trace,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// Events recorded (post-filter).
    pub events_recorded: u64,
    /// Scheduling decisions the run took.
    pub steps: u64,
    /// Whole-system deadlock, if the run got stuck.
    pub deadlock: Option<DeadlockInfo>,
    /// Non-fatal MPI misuse incidents.
    pub mpi_errors: Vec<MpiIncident>,
    /// Rank-level runtime errors (undeclared variables etc.).
    pub runtime_errors: Vec<(u32, String)>,
    /// Tool label.
    pub tool: String,
}

impl RunResult {
    /// True when the run completed without deadlock or runtime errors.
    pub fn clean(&self) -> bool {
        self.deadlock.is_none() && self.runtime_errors.is_empty()
    }
}

#[derive(Clone)]
struct ProcShared {
    program: Arc<Program>,
    /// Source file name every event location of the run carries.
    file: Arc<str>,
    cfg: Arc<RunConfig>,
    mpi: Process,
    omp: OmpProc,
    requests: Rc<RefCell<HashMap<String, ReqId>>>,
    /// Communicator handles created by `mpi_comm_dup`/`mpi_comm_split`,
    /// shared by all threads of the process.
    comms: Rc<RefCell<HashMap<String, CommId>>>,
    incidents: Rc<RefCell<Vec<MpiIncident>>>,
    runtime_errors: Rc<RefCell<Vec<(u32, String)>>>,
    /// Every message buffer the run has needed, by `(fill bits, length)`.
    payloads: Rc<RefCell<HashMap<(u64, usize), Payload>>>,
}

impl ProcShared {
    fn runtime_error(&self, msg: String) {
        self.runtime_errors
            .borrow_mut()
            .push((self.mpi.rank(), msg));
    }
}

struct ExecState<'a> {
    shared: ProcShared,
    env: Env,
    omp: Option<&'a OmpCtx>,
    /// Current `call` nesting depth (recursion guard).
    call_depth: u32,
    /// Innermost loop index, used to attribute `compute` accesses to array
    /// *elements* rather than whole arrays (threads of a worksharing loop
    /// touch disjoint rows, and the access trace should say so).
    loop_index: Option<i64>,
}

impl ExecState<'_> {
    fn rt(&self) -> &Runtime {
        self.shared.omp.runtime()
    }

    fn rank(&self) -> u32 {
        self.shared.mpi.rank()
    }

    fn tid(&self) -> u32 {
        self.omp.map(|c| c.tid().0).unwrap_or(0)
    }

    fn nthreads(&self) -> usize {
        self.omp.map(|c| c.nthreads()).unwrap_or(1)
    }

    /// A message of `len` words, all `fill`. Nothing ever writes to a
    /// payload, so the run keeps one buffer per shape and every message of
    /// that shape shares it.
    fn payload(&self, fill: f64, len: usize) -> Payload {
        let mut payloads = self.shared.payloads.borrow_mut();
        let shared = payloads
            .entry((fill.to_bits(), len))
            .or_insert_with(|| payload(vec![fill; len]));
        Arc::clone(shared)
    }

    fn emit(&self, line: u32, kind: EventKind) {
        // A selective tool rejects most events (every plain access, for
        // HOME); those must not pay for a location they never carry.
        if !self.shared.omp.collector().filter().admits(&kind) {
            return;
        }
        let loc = SrcLoc::new(Arc::clone(&self.shared.file), line);
        match self.omp {
            Some(ctx) => {
                ctx.set_loc(Some(loc));
                ctx.emit(kind);
                ctx.set_loc(None);
            }
            None => self.shared.omp.emit_seq(Some(loc), kind),
        }
    }

    /// Bind the request handle `req` to `id`; a handle posted before keeps
    /// its key.
    fn remember_request(&self, req: &str, id: ReqId) {
        let mut requests = self.shared.requests.borrow_mut();
        match requests.get_mut(req) {
            Some(slot) => *slot = id,
            None => {
                requests.insert(req.to_string(), id);
            }
        }
    }

    fn incident(&self, stmt: &Stmt, call: &str, error: String) {
        self.shared.incidents.borrow_mut().push(MpiIncident {
            rank: self.rank(),
            line: stmt.line,
            call: call.to_string(),
            error,
        });
    }
}

fn eval(st: &ExecState<'_>, e: &Expr) -> Result<i64, ExecError> {
    use home_ir::BinOp::*;
    Ok(match e {
        Expr::Int(v) => *v,
        Expr::Any => -1,
        Expr::Rank => st.rank() as i64,
        Expr::Size => st.shared.mpi.world_size() as i64,
        Expr::ThreadId => st.tid() as i64,
        Expr::NumThreads => st.nthreads() as i64,
        Expr::Var(name) => st
            .env
            .get(name)
            .ok_or_else(|| ExecError::Runtime(format!("undeclared variable `{name}`")))?,
        Expr::Neg(inner) => -eval(st, inner)?,
        Expr::Not(inner) => (eval(st, inner)? == 0) as i64,
        Expr::Bin(op, a, b) => {
            let x = eval(st, a)?;
            // Short-circuit logic.
            match op {
                And if x == 0 => return Ok(0),
                Or if x != 0 => return Ok(1),
                _ => {}
            }
            let y = eval(st, b)?;
            match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(ExecError::Runtime("division by zero".into()));
                    }
                    x / y
                }
                Mod => {
                    if y == 0 {
                        return Err(ExecError::Runtime("modulo by zero".into()));
                    }
                    x % y
                }
                Eq => (x == y) as i64,
                Ne => (x != y) as i64,
                Lt => (x < y) as i64,
                Le => (x <= y) as i64,
                Gt => (x > y) as i64,
                Ge => (x >= y) as i64,
                And => (y != 0) as i64,
                Or => (y != 0) as i64,
            }
        }
    })
}

/// One open block of a virtual thread's walk: the statements it has left
/// and what leaving it undoes.
struct Frame<'p> {
    rest: std::slice::Iter<'p, Stmt>,
    exit: Exit<'p>,
}

impl<'p> Frame<'p> {
    fn new(block: &'p [Stmt], exit: Exit<'p>) -> Self {
        Frame {
            rest: block.iter(),
            exit,
        }
    }
}

/// What a block's end does, by the construct that opened it.
enum Exit<'p> {
    /// The body [`exec_body`] was given: nothing.
    Body,
    /// Closes the block's scope; `barrier`: then waits at the team's
    /// implicit barrier (`single` inside a team).
    Scope { barrier: bool },
    /// A `call`: closes the callee's scope and leaves one call level.
    Call,
    /// `critical` inside a team: closes the scope, records the release and
    /// frees the lock — also when an error unwinds through it.
    Critical((OmpLock, LockId)),
    /// A loop: starts the next iteration, or ends the loop.
    Loop(Loop<'p>),
}

/// A `for`, `omp for` or `omp sections`, one iteration at a time.
struct Loop<'p> {
    each: Each<'p>,
    indices: Indices,
    /// The loop index around the loop, put back when it ends.
    outer: Option<i64>,
    /// An iteration's scope is open.
    open: bool,
    /// The team's implicit barrier follows the loop (worksharing inside a
    /// team).
    barrier: bool,
}

/// What one iteration of a [`Loop`] runs.
enum Each<'p> {
    /// The body, with the variable bound to the index (`for`, `omp for`).
    Index(&'p str, &'p [Stmt]),
    /// The section the index names (`omp sections`).
    Section(&'p [Vec<Stmt>]),
}

/// A loop's indices, taken one at a time as iterations start: a dynamic
/// schedule claims its next chunk only when this thread's last one is done.
enum Indices {
    Range(Range<i64>),
    Dynamic {
        lo: i64,
        chunks: DynFor,
        chunk: Range<u64>,
    },
}

impl Iterator for Indices {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        match self {
            Indices::Range(range) => range.next(),
            Indices::Dynamic { lo, chunks, chunk } => loop {
                if let Some(i) = chunk.next() {
                    return Some(*lo + i as i64);
                }
                *chunk = chunks.next()?;
            },
        }
    }
}

/// Run `body` on one virtual thread: one loop over an explicit stack of
/// open blocks, so that however deep the program nests, a suspension is
/// one future deep here. A nested block is a pushed [`Frame`]; its end is
/// [`exit_block`]. On an error the open frames unwind innermost first, as
/// `?` through nested calls would: a critical section records its release
/// and frees its lock; barriers are skipped.
async fn exec_body<'p>(
    st: &mut ExecState<'_>,
    program: &'p Program,
    body: &'p [Stmt],
) -> Result<(), ExecError> {
    let mut frames = Vec::with_capacity(8);
    frames.push(Frame::new(body, Exit::Body));
    let result = loop {
        let Some(frame) = frames.last_mut() else {
            break Ok(());
        };
        let step = match frame.rest.next() {
            Some(stmt) => exec_stmt(st, program, stmt, &mut frames).await,
            None => exit_block(st, &mut frames).await,
        };
        if let Err(e) = step {
            break Err(e);
        }
    };
    if let (Err(_), Some(ctx)) = (&result, st.omp) {
        for frame in frames.iter().rev() {
            if let Exit::Critical(held) = &frame.exit {
                ctx.exit_critical(held);
            }
        }
    }
    result
}

/// The innermost block ran out: start its loop's next iteration, or leave
/// it.
async fn exit_block(st: &mut ExecState<'_>, frames: &mut Vec<Frame<'_>>) -> Result<(), ExecError> {
    let Some(frame) = frames.last_mut() else {
        return Ok(());
    };
    if let Exit::Loop(lp) = &mut frame.exit {
        if lp.open {
            st.env.pop();
        }
        if let Some(i) = lp.indices.next() {
            st.env.push();
            frame.rest = match lp.each {
                Each::Index(var, body) => {
                    st.env.declare(var, false, i);
                    st.loop_index = Some(i);
                    body.iter()
                }
                Each::Section(sections) => sections[i as usize].iter(),
            };
            lp.open = true;
            return Ok(());
        }
    }
    let barrier = match frames.pop().map(|f| f.exit) {
        None | Some(Exit::Body) => false,
        Some(Exit::Scope { barrier }) => {
            st.env.pop();
            barrier
        }
        Some(Exit::Call) => {
            st.env.pop();
            st.call_depth -= 1;
            false
        }
        Some(Exit::Critical(held)) => {
            st.env.pop();
            if let Some(ctx) = st.omp {
                ctx.exit_critical(&held);
            }
            false
        }
        Some(Exit::Loop(lp)) => {
            st.loop_index = lp.outer;
            lp.barrier
        }
    };
    match st.omp {
        Some(ctx) if barrier => Ok(ctx.barrier().await?),
        _ => Ok(()),
    }
}

/// Open a block in a scope of its own.
fn open_scope<'p>(
    st: &mut ExecState<'_>,
    frames: &mut Vec<Frame<'p>>,
    block: &'p [Stmt],
    barrier: bool,
) {
    st.env.push();
    frames.push(Frame::new(block, Exit::Scope { barrier }));
}

/// Open a loop; its first iteration starts at the walk's next step.
fn open_loop<'p>(
    st: &ExecState<'_>,
    frames: &mut Vec<Frame<'p>>,
    each: Each<'p>,
    indices: Indices,
    barrier: bool,
) {
    frames.push(Frame {
        rest: [].iter(),
        exit: Exit::Loop(Loop {
            each,
            indices,
            outer: st.loop_index,
            open: false,
            barrier,
        }),
    });
}

/// Run one statement: a simple one to its end, a construct with a body up
/// to the point where the body starts (pushed onto `frames`).
async fn exec_stmt<'p>(
    st: &mut ExecState<'_>,
    program: &'p Program,
    stmt: &'p Stmt,
    frames: &mut Vec<Frame<'p>>,
) -> Result<(), ExecError> {
    match &stmt.kind {
        StmtKind::Decl { name, shared, init } => {
            let v = eval(st, init)?;
            st.env.declare(name, *shared, v);
        }
        StmtKind::Assign { name, value } => {
            let v = eval(st, value)?;
            if !st.env.set(name, v) {
                return Err(ExecError::Runtime(format!(
                    "assignment to undeclared variable `{name}`"
                )));
            }
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let block = if eval(st, cond)? != 0 {
                then_block
            } else {
                else_block
            };
            open_scope(st, frames, block, false);
        }
        StmtKind::For {
            var,
            from,
            to,
            body,
        } => {
            let lo = eval(st, from)?;
            let hi = eval(st, to)?;
            open_loop(
                st,
                frames,
                Each::Index(var, body),
                Indices::Range(lo..hi),
                false,
            );
        }
        StmtKind::OmpParallel {
            num_threads,
            body: _,
        } => {
            if st.omp.is_some() {
                return Err(ExecError::Runtime(
                    "nested omp parallel is not supported".into(),
                ));
            }
            let mut n = eval(st, num_threads)?;
            if n <= 0 {
                n = st.shared.cfg.threads_per_proc as i64;
            }
            let shared = st.shared.clone();
            let env_fork = st.env.fork();
            let region_stmt = stmt.id;
            let region = st.shared.omp.parallel(n as usize, async move |ctx| {
                let program = Arc::clone(&shared.program);
                // The region statement id comes from this very program, so
                // the lookup only misses on a malformed IR — report it as a
                // per-rank runtime error instead of panicking the worker.
                let body = match program.stmt(region_stmt).map(|s| &s.kind) {
                    Some(StmtKind::OmpParallel { body, .. }) => body,
                    _ => {
                        shared.runtime_error(format!(
                            "malformed IR: statement {region_stmt:?} is not a parallel region"
                        ));
                        return Ok(());
                    }
                };
                let mut worker = ExecState {
                    shared: shared.clone(),
                    env: env_fork.fork(),
                    omp: Some(ctx),
                    loop_index: None,
                    call_depth: 0,
                };
                // The one box per team member: the walk recurses here.
                match Box::pin(exec_body(&mut worker, &program, body)).await {
                    Ok(()) => Ok(()),
                    Err(ExecError::Sched(e)) => Err(e),
                    Err(ExecError::Runtime(msg)) => {
                        shared.runtime_error(msg);
                        Ok(())
                    }
                }
            });
            // Merge back shared-variable effects: shared slots alias, so
            // nothing to do; private variables keep their pre-region values
            // (firstprivate semantics).
            region.await?;
        }
        StmtKind::OmpFor {
            var,
            from,
            to,
            schedule,
            body,
        } => {
            let lo = eval(st, from)?;
            let hi = eval(st, to)?;
            let n = (hi - lo).max(0) as u64;
            let each = Each::Index(var, body);
            match (st.omp, schedule) {
                // Outside a parallel region the loop degenerates to
                // sequential execution.
                (None, _) => open_loop(st, frames, each, Indices::Range(lo..hi), false),
                (Some(ctx), Schedule::Static) => {
                    let mine = ctx.for_static(n);
                    let indices = Indices::Range(lo + mine.start as i64..lo + mine.end as i64);
                    open_loop(st, frames, each, indices, true);
                }
                (Some(ctx), Schedule::Dynamic { chunk }) => {
                    let chunks = ctx.for_dynamic(n, *chunk);
                    let indices = Indices::Dynamic {
                        lo,
                        chunks,
                        chunk: 0..0,
                    };
                    open_loop(st, frames, each, indices, true);
                }
            }
        }
        StmtKind::OmpSections { sections } => {
            let each = Each::Section(sections);
            match st.omp {
                None => {
                    let indices = Indices::Range(0..sections.len() as i64);
                    open_loop(st, frames, each, indices, false);
                }
                Some(ctx) => {
                    let chunks = ctx.for_dynamic(sections.len() as u64, 1);
                    let indices = Indices::Dynamic {
                        lo: 0,
                        chunks,
                        chunk: 0..0,
                    };
                    open_loop(st, frames, each, indices, true);
                }
            }
        }
        StmtKind::OmpSingle { body } => match st.omp {
            None => open_scope(st, frames, body, false),
            Some(ctx) => {
                if ctx.single_nowait(async {}).await.is_some() {
                    open_scope(st, frames, body, true);
                } else {
                    ctx.barrier().await?;
                }
            }
        },
        StmtKind::OmpMaster { body } => {
            if st.tid() == 0 {
                open_scope(st, frames, body, false);
            }
        }
        StmtKind::OmpCritical { name, body } => match st.omp {
            None => open_scope(st, frames, body, false),
            Some(ctx) => {
                let held = ctx.enter_critical(name).await?;
                st.env.push();
                frames.push(Frame::new(body, Exit::Critical(held)));
            }
        },
        StmtKind::OmpBarrier => {
            if let Some(ctx) = st.omp {
                ctx.barrier().await?;
            }
        }
        StmtKind::OmpAtomic { name, value } => {
            // An atomic update is a reserved tiny critical section.
            let update = |st: &mut ExecState<'_>| {
                let v = eval(st, value)?;
                if !st.env.set(name, v) {
                    return Err(ExecError::Runtime(format!(
                        "atomic update of undeclared variable `{name}`"
                    )));
                }
                Ok(())
            };
            match st.omp {
                None => update(st)?,
                Some(ctx) => ctx.critical("__omp_atomic", async { update(st) }).await??,
            }
        }
        StmtKind::Compute {
            flops,
            reads,
            writes,
        } => {
            let f = eval(st, flops)?.max(0) as u64;
            let cfg = &st.shared.cfg;
            st.rt().advance(SimTime::from_secs_f64(
                f as f64 * cfg.ns_per_flop * cfg.instrumentation.compute_slowdown / 1e9,
            ));
            // One bool admits or rejects every `Access`; a selective tool
            // (HOME, on every `check`) rejects them all, and must not pay
            // for interning names it never records.
            if st.shared.omp.collector().filter().accesses {
                let reads = reads.iter().map(|r| (r, home_trace::AccessKind::Read));
                let writes = writes.iter().map(|w| (w, home_trace::AccessKind::Write));
                for (name, kind) in reads.chain(writes) {
                    let var = st.shared.omp.collector().intern_var(name);
                    let loc = match st.loop_index {
                        Some(i) => home_trace::MemLoc::Elem(var, i.max(0) as u64),
                        None => home_trace::MemLoc::Var(var),
                    };
                    st.emit(stmt.line, EventKind::Access { loc, kind });
                }
            }
            st.rt().yield_now().await?;
        }
        StmtKind::Mpi(call) => exec_mpi(st, stmt, call).await?,
        StmtKind::Call { name } => {
            let Some(func) = program.function(name) else {
                return Err(ExecError::Runtime(format!(
                    "call to unknown function `{name}`"
                )));
            };
            if st.call_depth >= 64 {
                return Err(ExecError::Runtime(format!(
                    "call depth limit exceeded in `{name}` (recursion?)"
                )));
            }
            // Inlined semantics: the callee runs in the caller's
            // environment under a fresh scope.
            st.call_depth += 1;
            st.env.push();
            frames.push(Frame::new(&func.body, Exit::Call));
        }
    }
    Ok(())
}

fn to_trace_level(l: IrThreadLevel) -> ThreadLevel {
    match l {
        IrThreadLevel::Single => ThreadLevel::Single,
        IrThreadLevel::Funneled => ThreadLevel::Funneled,
        IrThreadLevel::Serialized => ThreadLevel::Serialized,
        IrThreadLevel::Multiple => ThreadLevel::Multiple,
    }
}

fn to_reduce_op(op: IrReduceOp) -> ReduceOp {
    match op {
        IrReduceOp::Sum => ReduceOp::Sum,
        IrReduceOp::Prod => ReduceOp::Prod,
        IrReduceOp::Min => ReduceOp::Min,
        IrReduceOp::Max => ReduceOp::Max,
    }
}

/// Monitored variables written by the wrapper of each call class
/// (paper §IV-B: each wrapper stores its arguments before the real call).
fn monitored_vars_of(kind: MpiCallKind) -> &'static [MonitoredVar] {
    use MonitoredVar::*;
    match kind {
        MpiCallKind::Send
        | MpiCallKind::Ssend
        | MpiCallKind::Sendrecv
        | MpiCallKind::Recv
        | MpiCallKind::Isend
        | MpiCallKind::Irecv
        | MpiCallKind::Probe
        | MpiCallKind::Iprobe => &[Src, Tag, Comm],
        MpiCallKind::Wait | MpiCallKind::Test | MpiCallKind::Waitall => &[Request],
        MpiCallKind::Finalize => &[Finalize],
        k if k.is_collective() => &[Collective, Comm],
        _ => &[],
    }
}

/// Map a checklist monitored-variable name onto the trace enum.
fn monitored_var_of_name(name: &str) -> Option<MonitoredVar> {
    use MonitoredVar::*;
    match name {
        "srctmp" => Some(Src),
        "tagtmp" => Some(Tag),
        "commtmp" => Some(Comm),
        "requesttmp" => Some(Request),
        "collectivetmp" => Some(Collective),
        "finalizetmp" => Some(Finalize),
        _ => None,
    }
}

async fn exec_mpi(st: &ExecState<'_>, stmt: &Stmt, call: &MpiStmt) -> Result<(), ExecError> {
    let cfg = &*st.shared.cfg;
    let instr = &cfg.instrumentation;
    let line = stmt.line;
    let proc = &st.shared.mpi;

    // Selective instrumentation: HOME wraps only checklist-selected sites;
    // unselective tools wrap everything (minus un-wrappable probes). A
    // selective tool looks the site up once, and only a wrapped site reads
    // its per-site monitored set: when the interprocedural static phase
    // attached one, the wrapper stores exactly those variables. Coarse
    // checklists (`monitored: None`) and unselective tools fall back to the
    // per-kind table in `monitored_vars_of`.
    let (mut instrumented, site_monitored) = if instr.selective {
        match cfg.checklist.as_ref().and_then(|c| c.site(stmt.id)) {
            Some(site) if site.instrument => (true, site.monitored.as_deref()),
            _ => (false, None),
        }
    } else {
        (true, None)
    };
    if matches!(call, MpiStmt::Probe { .. } | MpiStmt::Iprobe { .. }) && !instr.wrap_probe {
        instrumented = false;
    }

    // Marmot-style central-manager cost applies to every MPI call when set.
    if instr.mpi_call_extra > SimTime::ZERO {
        st.rt().advance(instr.mpi_call_extra);
    }

    // Resolve an optional communicator handle name to its id; an unknown
    // handle is a recorded incident and the call is skipped.
    let resolve_comm = |st: &ExecState<'_>, name: &Option<String>| -> Option<CommId> {
        match name {
            None => Some(COMM_WORLD),
            Some(n) => {
                let cm = st.shared.comms.borrow().get(n).copied();
                if cm.is_none() {
                    st.incident(stmt, call.name(), format!("unknown communicator `{n}`"));
                }
                cm
            }
        }
    };

    let mk_record = |kind: MpiCallKind,
                     peer: Option<i64>,
                     tag: Option<i64>,
                     request: Option<ReqId>,
                     comm: CommId| {
        MpiCallRecord {
            kind,
            peer: peer.map(|p| p as i32),
            tag: tag.map(|t| t as i32),
            comm,
            request,
            is_main_thread: proc.is_thread_main(),
            thread_level: proc.thread_level(),
        }
    };

    let wrap = |st: &ExecState<'_>, record: &MpiCallRecord| {
        if !instrumented {
            return;
        }
        st.emit(
            line,
            EventKind::MpiCall {
                call: record.clone(),
            },
        );
        let write = |var| {
            st.emit(
                line,
                EventKind::MonitoredWrite {
                    var,
                    call: record.clone(),
                },
            );
        };
        match site_monitored {
            Some(names) => names
                .iter()
                .filter_map(|name| monitored_var_of_name(name))
                .for_each(write),
            None => monitored_vars_of(record.kind)
                .iter()
                .copied()
                .for_each(write),
        }
    };

    // Execute, converting scheduler failures to fatal errors and other MPI
    // misuse to recorded incidents.
    macro_rules! check {
        ($st:expr, $res:expr, $name:expr) => {
            match $res {
                Ok(v) => Some(v),
                Err(MpiError::Sched(e)) => return Err(ExecError::Sched(e)),
                Err(other) => {
                    $st.incident(stmt, $name, other.to_string());
                    None
                }
            }
        };
    }

    match call {
        MpiStmt::Init => {
            let res = proc.init().await;
            if let Some(level) = check!(st, res, "mpi_init") {
                if instrumented || instr.filter.mpi_calls {
                    st.emit(
                        line,
                        EventKind::MpiInit {
                            level,
                            requested_by_init_thread: false,
                        },
                    );
                }
            }
        }
        MpiStmt::InitThread { required } => {
            let res = proc.init_thread(to_trace_level(*required)).await;
            if let Some(level) = check!(st, res, "mpi_init_thread") {
                if instrumented || instr.filter.mpi_calls {
                    st.emit(
                        line,
                        EventKind::MpiInit {
                            level,
                            requested_by_init_thread: true,
                        },
                    );
                }
            }
        }
        MpiStmt::Finalize => {
            let record = mk_record(MpiCallKind::Finalize, None, None, None, COMM_WORLD);
            wrap(st, &record);
            let res = proc.finalize().await;
            check!(st, res, "mpi_finalize");
        }
        MpiStmt::Send {
            dest,
            tag,
            count,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let d = eval(st, dest)?;
            let t = eval(st, tag)?;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Send, Some(d), Some(t), None, cm);
            wrap(st, &record);
            let res = proc
                .send(d.max(0) as u32, t as i32, cm, st.payload(0.0, c))
                .await;
            check!(st, res, "mpi_send");
        }
        MpiStmt::Ssend {
            dest,
            tag,
            count,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let d = eval(st, dest)?;
            let t = eval(st, tag)?;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Ssend, Some(d), Some(t), None, cm);
            wrap(st, &record);
            let res = proc
                .ssend(d.max(0) as u32, t as i32, cm, st.payload(0.0, c))
                .await;
            check!(st, res, "mpi_ssend");
        }
        MpiStmt::Recv { src, tag, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let s = eval(st, src)?;
            let t = eval(st, tag)?;
            let record = mk_record(MpiCallKind::Recv, Some(s), Some(t), None, cm);
            wrap(st, &record);
            let res = proc
                .recv(SrcSpec::from_i32(s as i32), TagSpec::from_i32(t as i32), cm)
                .await;
            check!(st, res, "mpi_recv");
        }
        MpiStmt::Isend {
            dest,
            tag,
            count,
            req,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let d = eval(st, dest)?;
            let t = eval(st, tag)?;
            let c = eval(st, count)?.max(0) as usize;
            let res = proc
                .isend(d.max(0) as u32, t as i32, cm, st.payload(0.0, c))
                .await;
            if let Some(id) = check!(st, res, "mpi_isend") {
                let record = mk_record(MpiCallKind::Isend, Some(d), Some(t), Some(id), cm);
                wrap(st, &record);
                st.remember_request(req, id);
            }
        }
        MpiStmt::Irecv {
            src,
            tag,
            req,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let s = eval(st, src)?;
            let t = eval(st, tag)?;
            let res = proc
                .irecv(SrcSpec::from_i32(s as i32), TagSpec::from_i32(t as i32), cm)
                .await;
            if let Some(id) = check!(st, res, "mpi_irecv") {
                let record = mk_record(MpiCallKind::Irecv, Some(s), Some(t), Some(id), cm);
                wrap(st, &record);
                st.remember_request(req, id);
            }
        }
        MpiStmt::Wait { req } => {
            let id = st.shared.requests.borrow().get(req).copied();
            match id {
                Some(id) => {
                    let record = mk_record(MpiCallKind::Wait, None, None, Some(id), COMM_WORLD);
                    wrap(st, &record);
                    let res = proc.wait(id).await;
                    check!(st, res, "mpi_wait");
                }
                None => st.incident(stmt, "mpi_wait", format!("unknown request `{req}`")),
            }
        }
        MpiStmt::Waitall { reqs } => {
            for req in reqs {
                let id = st.shared.requests.borrow().get(req).copied();
                match id {
                    Some(id) => {
                        let record =
                            mk_record(MpiCallKind::Waitall, None, None, Some(id), COMM_WORLD);
                        wrap(st, &record);
                        let res = proc.wait(id).await;
                        check!(st, res, "mpi_waitall");
                    }
                    None => st.incident(stmt, "mpi_waitall", format!("unknown request `{req}`")),
                }
            }
        }
        MpiStmt::Test { req } => {
            let id = st.shared.requests.borrow().get(req).copied();
            match id {
                Some(id) => {
                    let record = mk_record(MpiCallKind::Test, None, None, Some(id), COMM_WORLD);
                    wrap(st, &record);
                    let res = proc.test(id).await;
                    check!(st, res, "mpi_test");
                }
                None => st.incident(stmt, "mpi_test", format!("unknown request `{req}`")),
            }
        }
        MpiStmt::Probe { src, tag, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let s = eval(st, src)?;
            let t = eval(st, tag)?;
            let record = mk_record(MpiCallKind::Probe, Some(s), Some(t), None, cm);
            wrap(st, &record);
            let res = proc
                .probe(SrcSpec::from_i32(s as i32), TagSpec::from_i32(t as i32), cm)
                .await;
            check!(st, res, "mpi_probe");
        }
        MpiStmt::Iprobe { src, tag, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let s = eval(st, src)?;
            let t = eval(st, tag)?;
            let record = mk_record(MpiCallKind::Iprobe, Some(s), Some(t), None, cm);
            wrap(st, &record);
            let res = proc
                .iprobe(SrcSpec::from_i32(s as i32), TagSpec::from_i32(t as i32), cm)
                .await;
            check!(st, res, "mpi_iprobe");
        }
        MpiStmt::Barrier { comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let record = mk_record(MpiCallKind::Barrier, None, None, None, cm);
            wrap(st, &record);
            let res = proc.barrier(cm).await;
            check!(st, res, "mpi_barrier");
        }
        MpiStmt::Bcast { root, count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let r = eval(st, root)?.max(0) as u32;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Bcast, Some(r as i64), None, None, cm);
            wrap(st, &record);
            let me = proc.comm_rank(cm).ok().flatten();
            let data = if me == Some(r) {
                st.payload(1.0, c)
            } else {
                st.payload(0.0, 0)
            };
            let res = proc.bcast(r, data, cm).await;
            check!(st, res, "mpi_bcast");
        }
        MpiStmt::Reduce {
            op,
            root,
            count,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let r = eval(st, root)?.max(0) as u32;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Reduce, Some(r as i64), None, None, cm);
            wrap(st, &record);
            let res = proc
                .reduce(to_reduce_op(*op), r, st.payload(proc.rank() as f64, c), cm)
                .await;
            check!(st, res, "mpi_reduce");
        }
        MpiStmt::Allreduce { op, count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Allreduce, None, None, None, cm);
            wrap(st, &record);
            let res = proc
                .allreduce(to_reduce_op(*op), st.payload(proc.rank() as f64, c), cm)
                .await;
            check!(st, res, "mpi_allreduce");
        }
        MpiStmt::Gather { root, count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let r = eval(st, root)?.max(0) as u32;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Gather, Some(r as i64), None, None, cm);
            wrap(st, &record);
            let res = proc.gather(r, st.payload(proc.rank() as f64, c), cm).await;
            check!(st, res, "mpi_gather");
        }
        MpiStmt::Allgather { count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Allgather, None, None, None, cm);
            wrap(st, &record);
            let res = proc.allgather(st.payload(proc.rank() as f64, c), cm).await;
            check!(st, res, "mpi_allgather");
        }
        MpiStmt::Scatter { root, count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let r = eval(st, root)?.max(0) as u32;
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Scatter, Some(r as i64), None, None, cm);
            wrap(st, &record);
            let size = proc.comm_size(cm).unwrap_or(1);
            let me = proc.comm_rank(cm).ok().flatten();
            let data = if me == Some(r) {
                st.payload(0.0, c * size)
            } else {
                st.payload(0.0, 0)
            };
            let res = proc.scatter(r, data, cm).await;
            check!(st, res, "mpi_scatter");
        }
        MpiStmt::Alltoall { count, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let c = eval(st, count)?.max(0) as usize;
            let record = mk_record(MpiCallKind::Alltoall, None, None, None, cm);
            wrap(st, &record);
            let size = proc.comm_size(cm).unwrap_or(1);
            let res = proc.alltoall(st.payload(0.0, c * size), cm).await;
            check!(st, res, "mpi_alltoall");
        }
        MpiStmt::CommDup { into, comm } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let record = mk_record(MpiCallKind::CommDup, None, None, None, cm);
            wrap(st, &record);
            let res = proc.comm_dup(cm).await;
            if let Some(new) = check!(st, res, "mpi_comm_dup") {
                st.shared.comms.borrow_mut().insert(into.clone(), new);
            }
        }
        MpiStmt::CommSplit {
            color,
            key,
            into,
            comm,
        } => {
            let Some(cm) = resolve_comm(st, comm) else {
                return Ok(());
            };
            let col = eval(st, color)?;
            let k = eval(st, key)?;
            let record = mk_record(MpiCallKind::CommSplit, None, None, None, cm);
            wrap(st, &record);
            let res = proc.comm_split(cm, col as i32, k as i32).await;
            if let Some(maybe_new) = check!(st, res, "mpi_comm_split") {
                match maybe_new {
                    Some(new) => {
                        st.shared.comms.borrow_mut().insert(into.clone(), new);
                    }
                    None => {
                        // MPI_UNDEFINED: this rank is not in any new group.
                        st.shared.comms.borrow_mut().remove(into);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Execute `program` on `cfg.nprocs` simulated MPI processes and return the
/// recorded trace plus run metadata.
pub fn run(program: &Program, cfg: &RunConfig) -> RunResult {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let mut result = run_with_sink(&Arc::new(program.clone()), cfg, sink.clone());
    result.trace = sink.borrow_mut().drain();
    result
}

/// [`run`] of a program the caller shares (one that runs it many times
/// copies it once, not per run), streaming every recorded event into `sink`
/// instead of materializing a trace: the returned [`RunResult::trace`] is
/// empty and the sink sees events live, in recording (sequence) order — the
/// hook the online detection engine (`home-stream`) plugs into. The caller
/// keeps a clone of `sink` and reads it back through that.
pub fn run_with_sink(
    program: &Arc<Program>,
    cfg: &RunConfig,
    sink: Rc<RefCell<dyn TraceSink>>,
) -> RunResult {
    let cfg = Arc::new(cfg.clone());
    let rt = Runtime::new(cfg.sched.clone());
    let world = World::new(rt.clone(), cfg.nprocs, cfg.mpi.clone());
    let collector = Collector::new(sink, cfg.instrumentation.filter);
    let file: Arc<str> = format!("{}.hmp", program.name).into();
    let incidents = Rc::new(RefCell::new(Vec::new()));
    let runtime_errors = Rc::new(RefCell::new(Vec::new()));
    let payloads = Rc::new(RefCell::new(HashMap::new()));

    let mut omp_costs = cfg.omp_costs;
    omp_costs.event = cfg.instrumentation.event_cost;

    for r in 0..cfg.nprocs as u32 {
        let shared = ProcShared {
            program: Arc::clone(program),
            file: Arc::clone(&file),
            cfg: Arc::clone(&cfg),
            mpi: world.process(r),
            omp: OmpProc::with_costs(rt.clone(), Rank(r), collector.clone(), omp_costs),
            requests: Rc::default(),
            comms: Rc::default(),
            incidents: Rc::clone(&incidents),
            runtime_errors: Rc::clone(&runtime_errors),
            payloads: Rc::clone(&payloads),
        };
        let program = Arc::clone(program);
        rt.spawn(format!("rank{r}"), async move {
            let mut st = ExecState {
                shared,
                env: Env::new(),
                omp: None,
                loop_index: None,
                call_depth: 0,
            };
            // Boxed like a team member's body, so that the walk's state
            // machine is compiled once. (A deadlock or a shutdown is
            // recorded at the runtime level.)
            let walk = Box::pin(exec_body(&mut st, &program, &program.body));
            if let Err(ExecError::Runtime(msg)) = walk.await {
                st.shared.runtime_error(msg);
            }
        });
    }

    let sched_result = rt.run();
    let deadlock = match sched_result {
        Err(SchedError::Deadlock(d)) => Some(d),
        _ => None,
    };

    RunResult {
        trace: Trace::default(),
        makespan: rt.makespan(),
        events_recorded: collector.events_recorded(),
        steps: rt.steps(),
        deadlock,
        mpi_errors: incidents.take(),
        runtime_errors: runtime_errors.take(),
        tool: cfg.instrumentation.name.clone(),
    }
}
