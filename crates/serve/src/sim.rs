//! The online serving simulation: a continuously-draining
//! locality-scheduled engine fed by a stream of timestamped requests.
//!
//! # Model
//!
//! Requests arrive on a virtual clock (see [`crate::trace`]) and are
//! admitted into the scheduler's bounded pending queue — a fork with
//! the object's base address as the locality hint. `lanes` serving
//! lanes drain the engine concurrently with arrivals: whenever a lane
//! is idle and work is pending, it is granted the next drain unit (one
//! parent bin group, sub-bins in sorted order) by
//! [`Scheduler::drain_next`]. Service time is the paper's timing model
//! over the unit's simulated cache behaviour; the lane is busy until
//! the unit completes.
//!
//! Cache state is shared and mutated in **grant order** — lanes model
//! time overlap, not cache interference. This keeps the simulation
//! deterministic and makes execution order independent of the lane
//! count, which the t=0 online-vs-offline equivalence suite relies on.
//!
//! # Cold vs. warm
//!
//! A request is a *warm hit* when at most half of the cache lines it
//! touches miss in L2 (zero-length probes are trivially warm); it is a
//! *cold miss* otherwise. Locality scheduling raises the warm-hit rate
//! by running requests for one hot object back-to-back.

use crate::event::{Event, EventHeap};
use crate::metrics::{percentile, ServeReport};
use crate::trace::Request;
use cachesim::{MachineModel, SimReport, SimSink};
use locality_sched::{
    BinPolicy, EvictionPolicy, PaperBlockHash, RunMode, Scheduler, SchedulerConfig, SingleBin,
    TopologyPolicy, UniqueBin,
};
use memtrace::TraceSink;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Fixed per-request instruction overhead (dispatch, parse, reply).
const REQUEST_BASE_INSTRUCTIONS: u64 = 40;
/// Instructions modeled per cache line of payload scanned.
const INSTRUCTIONS_PER_LINE: u64 = 4;

/// Error returned when a serving run cannot be configured — e.g. a
/// machine whose caches are too small to carve separated serving bins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    fn new(message: impl Into<String>) -> Self {
        ServeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid serving configuration: {}", self.message)
    }
}

impl Error for ServeError {}

/// What happens to an arrival when the admission queue is full.
///
/// Rejecting turns away the *new* request; the shedding policies
/// instead cancel an already-queued request — SLO-aware load shedding,
/// trading work already buffered (and the memory-time it wasted) for
/// the fresh arrival. A cancelled request's thread record stays in its
/// bin as a tombstone and is discarded for free when the bin drains;
/// the engine's drain order is untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Turn the arriving request away (the classic bounded queue).
    Reject,
    /// Cancel the oldest waiting request to admit the arrival — the
    /// queued request least likely to still meet any latency target.
    ShedOldest,
    /// Cancel the newest waiting request to admit the arrival,
    /// preserving the seniority of long-waiting work.
    ShedNewest,
    /// Cancel every waiting request whose age already exceeds
    /// `slo_ns` (its completion could not meet the SLO even if served
    /// immediately); reject the arrival only if nothing had expired.
    DeadlineDrop {
        /// Maximum useful age of a queued request, nanoseconds.
        slo_ns: u64,
    },
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::Reject => write!(f, "reject"),
            AdmissionPolicy::ShedOldest => write!(f, "shed-oldest"),
            AdmissionPolicy::ShedNewest => write!(f, "shed-newest"),
            AdmissionPolicy::DeadlineDrop { slo_ns } => write!(f, "deadline-drop({slo_ns})"),
        }
    }
}

/// Serving-side knobs, independent of the trace.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Concurrent serving lanes (drain units in flight).
    pub lanes: usize,
    /// Admission bound: the maximum number of waiting (admitted,
    /// not-yet-served, not-shed) requests.
    pub queue_bound: u64,
    /// What to do with an arrival that finds the queue full.
    pub admission: AdmissionPolicy,
    /// Bin-record retirement policy for the online engine; bounds the
    /// bin table on long runs. [`EvictionPolicy::Off`] reproduces the
    /// paper's never-free behaviour.
    pub eviction: EvictionPolicy,
    /// Record the per-request execution log (id, miss deltas) — the
    /// equivalence suite's witness — and the lane-dispatch
    /// [`ScheduleLog`](memtrace::ScheduleLog) in
    /// [`ServeOutcome::schedule`], the happens-before engine's witness.
    /// Costs memory; off for benches.
    pub log_execution: bool,
}

impl ServeConfig {
    /// Four lanes over a 4096-deep admission queue, shedding the
    /// oldest waiting request under overload, with the live bin table
    /// capped at twice the queue bound; no logging.
    pub fn default_bench() -> Self {
        ServeConfig {
            lanes: 4,
            queue_bound: 4096,
            admission: AdmissionPolicy::ShedOldest,
            eviction: EvictionPolicy::LruCap { max_records: 8192 },
            log_execution: false,
        }
    }
}

/// The bin policies the serving experiment compares. Mirrors the
/// `BENCH_topology` row naming: `flat` is the paper's block-hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePolicy {
    /// Single-level block hash at the L2 block size.
    Flat,
    /// Two-level L1-in-L2 binning: the first two rungs of the
    /// topology ladder.
    Hierarchical,
    /// Binning at every level of the machine's topology tree (equal to
    /// `Hierarchical` on two-level machines, deeper on NUMA models).
    Topology,
    /// Everything in one bin: FIFO service, no locality.
    SingleBin,
    /// Every request its own bin: fork-order service, maximal bins.
    UniqueBin,
}

impl ServePolicy {
    /// Short identifier used in JSON rows and test labels.
    pub fn name(self) -> &'static str {
        match self {
            ServePolicy::Flat => "flat",
            ServePolicy::Hierarchical => "hierarchical",
            ServePolicy::Topology => "topology",
            ServePolicy::SingleBin => "single_bin",
            ServePolicy::UniqueBin => "unique_bin",
        }
    }

    /// All five policies, in the order benches report them.
    pub fn all() -> [ServePolicy; 5] {
        [
            ServePolicy::Flat,
            ServePolicy::Hierarchical,
            ServePolicy::Topology,
            ServePolicy::SingleBin,
            ServePolicy::UniqueBin,
        ]
    }
}

/// One executed request in the equivalence log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// Trace id of the request.
    pub id: u64,
    /// L1 misses its payload scan added.
    pub l1_misses: u64,
    /// L2 misses its payload scan added.
    pub l2_misses: u64,
    /// L1 cache lines touched (the scan's access count).
    pub lines: u64,
    /// Distinct L2 lines the payload spans — the denominator of the
    /// warm/cold classification.
    pub l2_lines: u64,
}

/// Everything one serving run produces.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Aggregate metrics (the bench row).
    pub report: ServeReport,
    /// Final cache-simulation report.
    pub sim: SimReport,
    /// Execution log when [`ServeConfig::log_execution`] was set.
    pub log: Vec<ExecRecord>,
    /// Lane-dispatch schedule events when
    /// [`ServeConfig::log_execution`] was set (empty otherwise): actor
    /// 0 is the grant loop, actors 1..=lanes the serving lanes. Each
    /// granted drain unit appears as a
    /// [`Handoff`](memtrace::SchedEvent::Handoff) from the grant loop
    /// to its lane followed by that lane's
    /// [`DrainBegin`](memtrace::SchedEvent::DrainBegin)/[`DrainEnd`](memtrace::SchedEvent::DrainEnd)
    /// pair. Lanes model *time* overlap only — cache state still
    /// mutates in grant order on actor 0, which is why every unit's
    /// hand-off chains through actor 0 and the log is totally ordered
    /// by construction.
    pub schedule: memtrace::ScheduleLog,
}

/// Lifecycle of a pending-slab slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingState {
    /// Admitted, waiting for its bin to drain.
    Waiting,
    /// Served; the slot is on the free list awaiting reuse.
    Done,
    /// Cancelled by a shedding admission policy while queued; its
    /// thread record is a tombstone that drains for free.
    Shed,
}

/// Compact pending-request record (one slab slot). Slots are recycled
/// as soon as the engine retires their thread, so the slab's size
/// tracks the number of requests *in flight*, not run history.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: u64,
    arrival_ns: u64,
    addr: u64,
    bytes: u64,
    state: PendingState,
}

/// Shared mutable state the scheduled request bodies run against.
struct ExecCtx {
    sink: SimSink,
    /// Pending-request slab, indexed by the slot a fork carries.
    requests: Vec<Pending>,
    /// Retired slots available for reuse.
    free_slots: Vec<usize>,
    /// Waiting (admitted − served − shed) requests — the live queue
    /// depth the admission bound applies to. The engine's `pending()`
    /// additionally counts shed tombstones.
    in_queue: u64,
    records: Vec<ExecRecord>,
    /// Arrival time of each entry in `records` (kept parallel so
    /// latency accounting needs no lookup into the recycled slab).
    arrivals: Vec<u64>,
    l1_line: u64,
    l2_line: u64,
}

impl ExecCtx {
    fn new(machine: &MachineModel) -> Self {
        ExecCtx {
            sink: SimSink::new(machine.hierarchy()),
            requests: Vec::new(),
            free_slots: Vec::new(),
            in_queue: 0,
            records: Vec::new(),
            arrivals: Vec::new(),
            l1_line: machine.l1_line(),
            l2_line: machine.l2_line(),
        }
    }

    /// Claims a slab slot for an admitted request.
    fn admit(&mut self, req: &Request) -> usize {
        let pending = Pending {
            id: req.id,
            arrival_ns: req.arrival_ns,
            addr: req.addr,
            bytes: req.bytes,
            state: PendingState::Waiting,
        };
        self.in_queue += 1;
        match self.free_slots.pop() {
            Some(slot) => {
                self.requests[slot] = pending;
                slot
            }
            None => {
                self.requests.push(pending);
                self.requests.len() - 1
            }
        }
    }
}

/// The scheduled thread body: scan the request's payload, one 8-byte
/// read per L1 line, and account instructions, recording the miss
/// delta. A slot shed while queued is a tombstone — no cache traffic,
/// no record; the slot is simply retired.
fn serve_thread(ctx: &mut ExecCtx, slot: usize, _arg2: usize) {
    let req = ctx.requests[slot];
    match req.state {
        PendingState::Waiting => {}
        PendingState::Shed => {
            ctx.free_slots.push(slot);
            return;
        }
        PendingState::Done => unreachable!("slot {slot} drained twice"),
    }
    let l1_before = ctx.sink.hierarchy().l1_stats().misses();
    let l2_before = ctx.sink.hierarchy().l2_stats().misses();
    let end = req.addr.saturating_add(req.bytes);
    let lines = scan_lines(req.addr, req.bytes, ctx.l1_line);
    ctx.sink.read_lines(memtrace::Addr::new(req.addr), 8, lines);
    ctx.sink
        .instructions(REQUEST_BASE_INSTRUCTIONS + INSTRUCTIONS_PER_LINE * lines);
    let l2_lines = if req.bytes == 0 {
        0
    } else {
        end.div_ceil(ctx.l2_line) - req.addr / ctx.l2_line
    };
    ctx.records.push(ExecRecord {
        id: req.id,
        l1_misses: ctx.sink.hierarchy().l1_stats().misses() - l1_before,
        l2_misses: ctx.sink.hierarchy().l2_stats().misses() - l2_before,
        lines,
        l2_lines,
    });
    ctx.arrivals.push(req.arrival_ns);
    ctx.in_queue -= 1;
    ctx.requests[slot].state = PendingState::Done;
    ctx.free_slots.push(slot);
}

/// L1 lines a payload scan reads: one per `l1_line` stride from `addr`
/// up to the end of its `bytes`, the end saturating at the top of the
/// address space.
fn scan_lines(addr: u64, bytes: u64, l1_line: u64) -> u64 {
    (addr.saturating_add(bytes) - addr).div_ceil(l1_line)
}

/// Serving bin geometry for `machine`: one block per level of its
/// topology tree, coarsest at half that level's capacity and every
/// finer block capped at its own level's capacity, 1/8 of the next
/// coarser capacity, *and* half the next coarser block (the same
/// separation rule `BinGeometry` applies to the paper kernels — the
/// levels must stay apart or nesting silently degenerates to flat).
/// On a plain L1/L2 machine this reduces exactly to the original
/// two-level rule: parent at half the L2, sub-bins at
/// `min(L1, L2/8)`.
///
/// # Errors
///
/// A machine whose coarsest level is so small that its block collapses
/// below 2 bytes cannot keep the levels separated; that is a
/// configuration error, not a silently-flat hierarchy.
fn serve_ladder(machine: &MachineModel) -> Result<Vec<u64>, ServeError> {
    let caps = machine.topology().capacities();
    let depth = caps.len();
    let mut blocks = vec![0u64; depth];
    blocks[depth - 1] = prev_power_of_two(caps[depth - 1] / 2);
    if blocks[depth - 1] < 2 {
        return Err(ServeError::new(format!(
            "machine '{}' has coarsest capacity {} — the {}-byte serving parent block cannot \
             hold a separated sub-block",
            machine.name(),
            caps[depth - 1],
            blocks[depth - 1],
        )));
    }
    for level in (0..depth - 1).rev() {
        let budget = caps[level].min((caps[level + 1] / 8).max(1));
        blocks[level] = prev_power_of_two(budget).min(blocks[level + 1] / 2);
    }
    Ok(blocks)
}

/// The ladder's two finest rungs: the L1/L2 blocks the flat and
/// two-level policies bin at.
fn finest_rungs(ladder: &[u64]) -> (u64, u64) {
    (ladder[0], ladder[ladder.len().min(2) - 1])
}

#[cfg(test)]
fn serve_blocks(machine: &MachineModel) -> Result<(u64, u64), ServeError> {
    Ok(finest_rungs(&serve_ladder(machine)?))
}

/// The nested policy for `policy` over `ladder`: the two finest rungs
/// for [`ServePolicy::Hierarchical`], every rung for
/// [`ServePolicy::Topology`].
fn nested_policy(ladder: &[u64], policy: ServePolicy) -> TopologyPolicy {
    let (l1_block, l2_block) = finest_rungs(ladder);
    let blocks = match policy {
        ServePolicy::Hierarchical => &[l1_block, l2_block][..],
        _ => ladder,
    };
    TopologyPolicy::uniform(blocks, false).expect("separated powers of two are valid")
}

fn prev_power_of_two(value: u64) -> u64 {
    match value {
        0 => 1,
        v => 1 << (63 - v.leading_zeros()),
    }
}

/// Streams `trace` through the online engine under `policy` on
/// `machine` and returns the outcome. The trace may be any request
/// iterator with non-decreasing arrival times — millions of requests
/// stream through without being materialized.
///
/// # Errors
///
/// Returns [`ServeError`] when `machine`'s caches cannot carve
/// separated serving bins (see `serve_blocks`).
pub fn run_serve<I: Iterator<Item = Request>>(
    trace: I,
    machine: &MachineModel,
    config: &ServeConfig,
    policy: ServePolicy,
) -> Result<ServeOutcome, ServeError> {
    let ladder = serve_ladder(machine)?;
    let (_, l2_block) = finest_rungs(&ladder);
    let sched_config = SchedulerConfig::builder()
        .block_size(l2_block)
        .eviction(config.eviction)
        .build()
        .map_err(|e| ServeError::new(e.to_string()))?;
    Ok(match policy {
        ServePolicy::Flat => run_serve_with(
            trace,
            machine,
            config,
            policy,
            sched_config,
            PaperBlockHash::from_config(&sched_config),
        ),
        ServePolicy::Hierarchical | ServePolicy::Topology => run_serve_with(
            trace,
            machine,
            config,
            policy,
            sched_config,
            nested_policy(&ladder, policy),
        ),
        ServePolicy::SingleBin => {
            run_serve_with(trace, machine, config, policy, sched_config, SingleBin)
        }
        ServePolicy::UniqueBin => run_serve_with(
            trace,
            machine,
            config,
            policy,
            sched_config,
            UniqueBin::default(),
        ),
    })
}

/// [`run_serve`] generic over an explicit [`BinPolicy`].
fn run_serve_with<I, P>(
    mut trace: I,
    machine: &MachineModel,
    config: &ServeConfig,
    policy: ServePolicy,
    sched_config: SchedulerConfig,
    bin_policy: P,
) -> ServeOutcome
where
    I: Iterator<Item = Request>,
    P: BinPolicy,
{
    let mut sched: Scheduler<ExecCtx, P> = Scheduler::with_policy(sched_config, bin_policy);
    sched.enable_online();
    let timing = machine.timing();
    let overhead_ns = machine.thread_overhead_ns();

    let mut ctx = ExecCtx::new(machine);

    let mut events = EventHeap::new();
    let mut lane_free = vec![true; config.lanes.max(1)];
    let mut schedule = memtrace::ScheduleLog::new(lane_free.len() as u32 + 1);
    let mut now = 0u64;
    let mut offered = 0u64;
    let mut rejected = 0u64;
    let mut shed = 0u64;
    // Σ bytes × queued-nanoseconds over shed requests: memory a
    // request held while waiting, only to be thrown away.
    let mut wasted_byte_ns = 0u128;
    let mut drains = 0u64;
    let mut max_depth = 0u64;
    let mut depth_integral = 0u128;
    let mut latencies: Vec<u64> = Vec::new();
    let mut warm_hits = 0u64;
    let mut total_latency = 0u128;
    let mut total_slowdown_x1000 = 0u128;
    let mut log = Vec::new();
    // Admission order of waiting slots, for the shedding policies.
    // Entries are lazily invalidated (a served slot is recycled with a
    // new id) and compacted once stale entries dominate.
    let mut admission_order: VecDeque<(usize, u64)> = VecDeque::new();
    let track_order = config.admission != AdmissionPolicy::Reject;

    // Seed the heap with the first arrival; each pop chains the next,
    // so only one un-admitted request is ever held.
    let mut next_arrival = trace.next();
    if let Some(req) = &next_arrival {
        events.push(req.arrival_ns, Event::Arrival(0));
    }

    loop {
        // Drain every event at the current instant before dispatching:
        // simultaneous arrivals are all admitted first, which is what
        // makes a t=0 trace equivalent to the offline batch run.
        while events.peek_time() == Some(now) {
            match events.pop().expect("peeked").1 {
                Event::Arrival(_) => {
                    let req = next_arrival.take().expect("arrival event without request");
                    offered += 1;
                    let mut admit = ctx.in_queue < config.queue_bound;
                    if !admit {
                        let freed = shed_for(
                            config.admission,
                            &mut admission_order,
                            &mut ctx,
                            now,
                            &mut wasted_byte_ns,
                        );
                        shed += freed;
                        admit = freed > 0;
                    }
                    if admit {
                        let slot = ctx.admit(&req);
                        if track_order {
                            admission_order.push_back((slot, req.id));
                            // Compact once stale (served/shed) entries
                            // dominate; valid entries number ≤ in_queue.
                            let compact_at =
                                config.queue_bound.saturating_mul(2).saturating_add(16);
                            if admission_order.len() as u64 > compact_at {
                                let requests = &ctx.requests;
                                admission_order.retain(|&(slot, id)| {
                                    requests[slot].id == id
                                        && requests[slot].state == PendingState::Waiting
                                });
                            }
                        }
                        sched.fork(serve_thread, slot, 0, req.hints());
                        max_depth = max_depth.max(ctx.in_queue);
                    } else {
                        rejected += 1;
                    }
                    next_arrival = trace.next();
                    if let Some(next) = &next_arrival {
                        events.push(next.arrival_ns.max(now), Event::Arrival(0));
                    }
                }
                Event::LaneFree(lane) => lane_free[lane] = true,
            }
        }

        // Grant drain units to idle lanes. Grants are sequential in
        // (tour rank, ready order); a lane is busy for the modeled
        // service time of its whole unit.
        while sched.pending() > 0 {
            let Some(lane) = lane_free.iter().position(|&idle| idle) else {
                break;
            };
            let before = ctx.records.len();
            if sched.drain_next(&mut ctx).is_none() {
                break;
            }
            drains += 1;
            if config.log_execution {
                let actor = lane as u32 + 1;
                let unit = u32::try_from(drains - 1).expect("drain ordinal fits u32");
                schedule.push(memtrace::SchedEvent::Handoff { from: 0, to: actor });
                schedule.push(memtrace::SchedEvent::DrainBegin { actor, unit });
                schedule.push(memtrace::SchedEvent::DrainEnd { actor, unit });
            }
            let mut unit_ns = 0u64;
            for (record, &arrival) in ctx.records[before..].iter().zip(&ctx.arrivals[before..]) {
                let instructions = REQUEST_BASE_INSTRUCTIONS + INSTRUCTIONS_PER_LINE * record.lines;
                let service = timing.estimate_with_threads(
                    instructions,
                    record.l1_misses,
                    record.l2_misses,
                    1,
                    overhead_ns,
                );
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let service_ns = (service.total() * 1e9).round().max(1.0) as u64;
                unit_ns += service_ns;
                let completion = now + unit_ns;
                let latency = completion.saturating_sub(arrival);
                latencies.push(latency);
                total_latency += u128::from(latency);
                total_slowdown_x1000 +=
                    u128::from(latency.saturating_mul(1000) / service_ns.max(1));
                if 2 * record.l2_misses <= record.l2_lines {
                    warm_hits += 1;
                }
                if config.log_execution {
                    log.push(*record);
                }
            }
            let lane_ready = now + unit_ns.max(1);
            lane_free[lane] = false;
            events.push(lane_ready, Event::LaneFree(lane));
        }
        if !config.log_execution {
            ctx.records.clear();
            ctx.arrivals.clear();
        }

        // Advance the clock to the next event; simulation ends when no
        // events remain (all arrivals admitted or rejected, all lanes
        // idle again).
        let Some(next) = events.peek_time() else {
            break;
        };
        let elapsed = next - now;
        depth_integral += u128::from(ctx.in_queue) * u128::from(elapsed);
        now = next;
    }

    let admitted = offered - rejected;
    let completed = latencies.len() as u64;
    latencies.sort_unstable();
    let report = ServeReport {
        policy: policy.name(),
        lanes: config.lanes.max(1) as u64,
        offered,
        admitted,
        rejected,
        shed,
        completed,
        warm_hits,
        cold_misses: completed - warm_hits,
        drains,
        max_queue_depth: max_depth,
        mean_queue_depth_x1000: if now > 0 {
            u64::try_from(depth_integral * 1000 / u128::from(now)).unwrap_or(u64::MAX)
        } else {
            0
        },
        p50_latency_ns: percentile(&latencies, 50),
        p99_latency_ns: percentile(&latencies, 99),
        mean_latency_ns: if completed > 0 {
            u64::try_from(total_latency / u128::from(completed)).unwrap_or(u64::MAX)
        } else {
            0
        },
        mean_slowdown_x1000: if completed > 0 {
            u64::try_from(total_slowdown_x1000 / u128::from(completed)).unwrap_or(u64::MAX)
        } else {
            0
        },
        makespan_ns: now,
        evictions: sched.evictions(),
        peak_live_bin_records: sched.peak_bins() as u64,
        wasted_memory_time: u64::try_from(wasted_byte_ns / 1_000_000).unwrap_or(u64::MAX),
    };
    if config.log_execution {
        schedule.push(memtrace::SchedEvent::Barrier);
    }
    ServeOutcome {
        report,
        sim: ctx.sink.report(),
        log,
        schedule,
    }
}

/// Cancels waiting requests per `policy` to make room for an arrival
/// at `now`; returns how many were cancelled (0 ⇒ reject the
/// arrival). Stale `order` entries — slots recycled since admission
/// (id mismatch) or no longer waiting — are discarded as encountered.
fn shed_for(
    policy: AdmissionPolicy,
    order: &mut VecDeque<(usize, u64)>,
    ctx: &mut ExecCtx,
    now: u64,
    wasted_byte_ns: &mut u128,
) -> u64 {
    fn is_waiting(ctx: &ExecCtx, slot: usize, id: u64) -> bool {
        ctx.requests[slot].id == id && ctx.requests[slot].state == PendingState::Waiting
    }
    fn cancel(ctx: &mut ExecCtx, slot: usize, now: u64, wasted_byte_ns: &mut u128) {
        let req = &mut ctx.requests[slot];
        *wasted_byte_ns += u128::from(req.bytes) * u128::from(now.saturating_sub(req.arrival_ns));
        req.state = PendingState::Shed;
        ctx.in_queue -= 1;
    }
    match policy {
        AdmissionPolicy::Reject => 0,
        AdmissionPolicy::ShedOldest => {
            while let Some((slot, id)) = order.pop_front() {
                if is_waiting(ctx, slot, id) {
                    cancel(ctx, slot, now, wasted_byte_ns);
                    return 1;
                }
            }
            0
        }
        AdmissionPolicy::ShedNewest => {
            while let Some((slot, id)) = order.pop_back() {
                if is_waiting(ctx, slot, id) {
                    cancel(ctx, slot, now, wasted_byte_ns);
                    return 1;
                }
            }
            0
        }
        AdmissionPolicy::DeadlineDrop { slo_ns } => {
            // Valid entries sit in arrival order, so the scan can stop
            // at the first one still within its deadline.
            let mut freed = 0u64;
            while let Some(&(slot, id)) = order.front() {
                if !is_waiting(ctx, slot, id) {
                    order.pop_front();
                    continue;
                }
                if ctx.requests[slot].arrival_ns.saturating_add(slo_ns) > now {
                    break;
                }
                order.pop_front();
                cancel(ctx, slot, now, wasted_byte_ns);
                freed += 1;
            }
            freed
        }
    }
}

/// The offline oracle the equivalence suite compares against: fork
/// every request up front (ignoring arrival times and the admission
/// bound), then drain the whole engine with the batch scheduler. The
/// execution log uses the same thread body over the same machine, so
/// a t=0 online run must match it record for record.
///
/// # Errors
///
/// Returns [`ServeError`] when `machine`'s caches cannot carve
/// separated serving bins (see `serve_blocks`).
pub fn run_offline<I: Iterator<Item = Request>>(
    trace: I,
    machine: &MachineModel,
    policy: ServePolicy,
) -> Result<Vec<ExecRecord>, ServeError> {
    let ladder = serve_ladder(machine)?;
    let (_, l2_block) = finest_rungs(&ladder);
    let sched_config = SchedulerConfig::builder()
        .block_size(l2_block)
        .build()
        .expect("power-of-two block is valid");
    Ok(match policy {
        ServePolicy::Flat => run_offline_with(
            trace,
            machine,
            sched_config,
            PaperBlockHash::from_config(&sched_config),
        ),
        ServePolicy::Hierarchical | ServePolicy::Topology => {
            run_offline_with(trace, machine, sched_config, nested_policy(&ladder, policy))
        }
        ServePolicy::SingleBin => run_offline_with(trace, machine, sched_config, SingleBin),
        ServePolicy::UniqueBin => {
            run_offline_with(trace, machine, sched_config, UniqueBin::default())
        }
    })
}

fn run_offline_with<I, P>(
    trace: I,
    machine: &MachineModel,
    sched_config: SchedulerConfig,
    bin_policy: P,
) -> Vec<ExecRecord>
where
    I: Iterator<Item = Request>,
    P: BinPolicy,
{
    let mut sched: Scheduler<ExecCtx, P> = Scheduler::with_policy(sched_config, bin_policy);
    let mut ctx = ExecCtx::new(machine);
    for req in trace {
        let slot = ctx.admit(&req);
        sched.fork(serve_thread, slot, 0, req.hints());
    }
    sched.run(&mut ctx, RunMode::Consume);
    ctx.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceConfig, TraceGen};
    use memtrace::{Access, Addr};

    fn tiny_trace(requests: u64) -> TraceGen {
        TraceGen::new(TraceConfig {
            seed: 11,
            requests,
            objects: 256,
            zipf_s: 0.99,
            object_bytes: 4096,
            mean_interarrival_ns: 500,
            burst_factor: 4,
            burst_len: 32,
            calm_len: 96,
        })
    }

    fn legacy_config(lanes: usize, queue_bound: u64, log_execution: bool) -> ServeConfig {
        ServeConfig {
            lanes,
            queue_bound,
            admission: AdmissionPolicy::Reject,
            eviction: EvictionPolicy::Off,
            log_execution,
        }
    }

    #[test]
    fn serves_every_admitted_request() {
        let machine = MachineModel::r8000();
        let config = legacy_config(2, u64::MAX, true);
        let out = run_serve(tiny_trace(2000), &machine, &config, ServePolicy::Flat).unwrap();
        assert_eq!(out.report.offered, 2000);
        assert_eq!(out.report.rejected, 0);
        assert_eq!(out.report.shed, 0);
        assert_eq!(out.report.completed, 2000);
        assert_eq!(out.log.len(), 2000);
        assert_eq!(
            out.report.warm_hits + out.report.cold_misses,
            out.report.completed
        );
        assert!(out.report.makespan_ns > 0);
        assert!(out.report.p99_latency_ns >= out.report.p50_latency_ns);
        assert!(out.sim.data_references() > 0);
        assert_eq!(out.report.evictions, 0);
        assert!(out.report.peak_live_bin_records > 0);
        assert_eq!(out.report.wasted_memory_time, 0);
    }

    /// The payload scan `serve_thread` ran before it read whole runs:
    /// `read` once per L1 line, the stride's overflow past a saturated
    /// end made explicit. Returns the lines read.
    fn per_line_scan(addr: u64, bytes: u64, l1_line: u64, mut read: impl FnMut(u64)) -> u64 {
        let (end, mut addr, mut lines) = (addr.saturating_add(bytes), addr, 0u64);
        while addr < end {
            read(addr);
            lines += 1;
            match addr.checked_add(l1_line) {
                Some(next) => addr = next,
                None => break,
            }
        }
        lines
    }

    #[test]
    fn scan_lines_counts_the_per_line_loop() {
        let check = |addr: u64, bytes: u64, l1_line: u64| {
            assert_eq!(
                scan_lines(addr, bytes, l1_line),
                per_line_scan(addr, bytes, l1_line, |_| {}),
                "addr {addr:#x}, {bytes} bytes, {l1_line}-byte lines"
            );
        };
        for l1_line in [32u64, 64] {
            for addr in [0u64, 5, 31, 32, 0x1_0000 + 17] {
                for bytes in [0u64, 1, 7, 31, 32, 33, 300, 4096, 8199] {
                    check(addr, bytes, l1_line);
                }
            }
            // Ends that saturate at the top of the address space.
            for addr in [u64::MAX - 100, u64::MAX - 1, u64::MAX] {
                for bytes in [0u64, 1, 100, 1000, u64::MAX] {
                    check(addr, bytes, l1_line);
                }
            }
        }
    }

    #[test]
    fn line_runs_serve_exactly_like_the_per_line_scan() {
        // Zero-byte probes, payloads starting mid-line and ending
        // mid-line, and repeats that find their lines warm.
        let shapes = [
            (0x1_0000u64, 4096u64),
            (0x1_0000 + 5, 300),
            (0x2_0000 + 31, 0),
            (0x2_0000 + 17, 33),
            (0x4_0000 + 120, 8192 + 7),
            (0x8_0000, 1),
            (0x1_0000 + 5, 300),
            (0x4_0000 + 120, 8192 + 7),
        ];
        let trace: Vec<Request> = (0..64u64)
            .map(|id| {
                let (addr, bytes) = shapes[(id * 5 % 8) as usize];
                Request {
                    id,
                    arrival_ns: id * 700,
                    object: addr >> 16,
                    addr,
                    bytes,
                }
            })
            .collect();
        let config = legacy_config(2, u64::MAX, true);
        for machine in [MachineModel::r8000(), MachineModel::r10000()] {
            let name = machine.name();
            let out =
                run_serve(trace.iter().copied(), &machine, &config, ServePolicy::Flat).unwrap();
            assert_eq!(out.log.len(), 64);
            assert!(out.log.iter().any(|r| r.lines == 0));
            assert!(out.log.iter().any(|r| r.l1_misses < r.lines));
            // Replay the served scans in execution order through the
            // per-line loop: every record must match it, so the
            // `ServeReport` built from the records matches too.
            let mut sink = SimSink::new(machine.hierarchy());
            for record in &out.log {
                let req = trace[record.id as usize];
                let l1_before = sink.hierarchy().l1_stats().misses();
                let l2_before = sink.hierarchy().l2_stats().misses();
                let lines = per_line_scan(req.addr, req.bytes, machine.l1_line(), |addr| {
                    sink.access(Access::read(Addr::new(addr), 8));
                });
                sink.instructions(REQUEST_BASE_INSTRUCTIONS + INSTRUCTIONS_PER_LINE * lines);
                let expected = ExecRecord {
                    id: req.id,
                    l1_misses: sink.hierarchy().l1_stats().misses() - l1_before,
                    l2_misses: sink.hierarchy().l2_stats().misses() - l2_before,
                    lines,
                    l2_lines: record.l2_lines,
                };
                assert_eq!(*record, expected, "{name}");
            }
            assert_eq!(out.sim, sink.report(), "{name}");
        }
    }

    #[test]
    fn lane_schedule_log_chains_every_unit_through_the_grant_loop() {
        use memtrace::SchedEvent;
        let machine = MachineModel::r8000();
        let config = legacy_config(3, u64::MAX, true);
        let out = run_serve(tiny_trace(1500), &machine, &config, ServePolicy::Flat).unwrap();
        let log = &out.schedule;
        assert_eq!(log.actors, 4, "grant loop + 3 lanes");
        assert_eq!(log.events.last(), Some(&SchedEvent::Barrier));
        // One Handoff + DrainBegin + DrainEnd triple per drain, units
        // numbered densely in grant order, every hand-off from actor 0.
        let mut next_unit = 0u32;
        let mut granted_to = None;
        for &event in &log.events {
            match event {
                SchedEvent::Handoff { from, to } => {
                    assert_eq!(from, 0);
                    assert!((1..=3).contains(&to));
                    granted_to = Some(to);
                }
                SchedEvent::DrainBegin { actor, unit } => {
                    assert_eq!(Some(actor), granted_to, "begin follows its grant");
                    assert_eq!(unit, next_unit, "units dense in grant order");
                }
                SchedEvent::DrainEnd { actor, unit } => {
                    assert_eq!(Some(actor), granted_to);
                    assert_eq!(unit, next_unit);
                    next_unit += 1;
                }
                SchedEvent::Barrier => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(u64::from(next_unit), out.report.drains);
        // The log is a deterministic artifact of the run.
        let again = run_serve(tiny_trace(1500), &machine, &config, ServePolicy::Flat).unwrap();
        assert_eq!(log.digest(), again.schedule.digest());
        // Logging off ⇒ no schedule recorded.
        let quiet = legacy_config(3, u64::MAX, false);
        let silent = run_serve(tiny_trace(200), &machine, &quiet, ServePolicy::Flat).unwrap();
        assert!(silent.schedule.is_empty());
    }

    #[test]
    fn locality_policy_beats_fifo_on_warm_hits() {
        let machine = MachineModel::r8000();
        let config = legacy_config(1, u64::MAX, false);
        let flat = run_serve(tiny_trace(4000), &machine, &config, ServePolicy::Flat).unwrap();
        let fifo = run_serve(tiny_trace(4000), &machine, &config, ServePolicy::SingleBin).unwrap();
        assert!(
            flat.report.warm_hits >= fifo.report.warm_hits,
            "flat {} < fifo {}",
            flat.report.warm_hits,
            fifo.report.warm_hits
        );
    }

    #[test]
    fn outcome_is_deterministic_across_runs() {
        let machine = MachineModel::r10000();
        let config = ServeConfig::default_bench();
        let a = run_serve(
            tiny_trace(3000),
            &machine,
            &config,
            ServePolicy::Hierarchical,
        )
        .unwrap();
        let b = run_serve(
            tiny_trace(3000),
            &machine,
            &config,
            ServePolicy::Hierarchical,
        )
        .unwrap();
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn bounded_queue_rejects_and_accounts() {
        let machine = MachineModel::r8000();
        let config = legacy_config(1, 8, false);
        let out = run_serve(tiny_trace(2000), &machine, &config, ServePolicy::Flat).unwrap();
        assert_eq!(out.report.offered, 2000);
        assert_eq!(out.report.admitted + out.report.rejected, 2000);
        assert_eq!(out.report.completed, out.report.admitted);
        assert_eq!(out.report.shed, 0);
        assert!(out.report.max_queue_depth <= 8);
    }

    #[test]
    fn shedding_admits_at_the_expense_of_queued_work() {
        let machine = MachineModel::r8000();
        for admission in [
            AdmissionPolicy::ShedOldest,
            AdmissionPolicy::ShedNewest,
            AdmissionPolicy::DeadlineDrop { slo_ns: 20_000 },
        ] {
            let config = ServeConfig {
                lanes: 1,
                queue_bound: 8,
                admission,
                eviction: EvictionPolicy::Off,
                log_execution: false,
            };
            let out = run_serve(tiny_trace(2000), &machine, &config, ServePolicy::Flat).unwrap();
            assert_eq!(out.report.offered, 2000, "{admission:?}");
            assert_eq!(
                out.report.admitted + out.report.rejected,
                2000,
                "{admission:?}"
            );
            assert_eq!(
                out.report.completed + out.report.shed,
                out.report.admitted,
                "{admission:?}"
            );
            assert!(out.report.shed > 0, "{admission:?} never shed");
            assert!(
                out.report.wasted_memory_time > 0,
                "{admission:?} shed {} requests with no wasted memory-time",
                out.report.shed
            );
            assert!(out.report.max_queue_depth <= 8, "{admission:?}");
        }
    }

    #[test]
    fn shed_oldest_admits_more_than_reject_turns_away() {
        // Shedding trades queued work for arrivals: every shed frees a
        // seat, so `rejected` can only shrink relative to Reject.
        let machine = MachineModel::r8000();
        let reject = run_serve(
            tiny_trace(2000),
            &machine,
            &legacy_config(1, 8, false),
            ServePolicy::Flat,
        )
        .unwrap();
        let shed_config = ServeConfig {
            admission: AdmissionPolicy::ShedOldest,
            ..legacy_config(1, 8, false)
        };
        let shed = run_serve(tiny_trace(2000), &machine, &shed_config, ServePolicy::Flat).unwrap();
        assert!(
            shed.report.admitted > reject.report.admitted,
            "shedding admitted {} <= reject's {}",
            shed.report.admitted,
            reject.report.admitted
        );
    }

    #[test]
    fn serve_blocks_keep_levels_apart() {
        for machine in [
            MachineModel::r8000(),
            MachineModel::r10000(),
            MachineModel::modern(),
            MachineModel::numa2(),
        ] {
            let (l1, l2) = serve_blocks(&machine).unwrap();
            assert!(l1 < l2, "{}: {l1} !< {l2}", machine.name());
            assert!(l1.is_power_of_two() && l2.is_power_of_two());
        }
    }

    #[test]
    fn serve_ladder_follows_the_topology_tree() {
        let ladder = serve_ladder(&MachineModel::numa2()).unwrap();
        assert_eq!(ladder.len(), 4, "{ladder:?}");
        for pair in ladder.windows(2) {
            assert!(pair[0].is_power_of_two(), "{ladder:?}");
            assert!(pair[0] <= pair[1] / 2, "levels not separated: {ladder:?}");
        }
        // Two-level machines reduce to the original L1/L2 rule.
        let machine = MachineModel::r8000();
        let (l1, l2) = serve_blocks(&machine).unwrap();
        assert_eq!(l2, prev_power_of_two(machine.l2_capacity() / 2));
        let l1_budget = machine.l1_capacity().min(machine.l2_capacity() / 8);
        assert_eq!(l1, prev_power_of_two(l1_budget).min(l2 / 2));
    }

    #[test]
    fn topology_policy_matches_hierarchical_on_two_level_machines() {
        let machine = MachineModel::r8000();
        let config = ServeConfig::default_bench();
        let h = run_serve(
            tiny_trace(2000),
            &machine,
            &config,
            ServePolicy::Hierarchical,
        )
        .unwrap();
        let t = run_serve(tiny_trace(2000), &machine, &config, ServePolicy::Topology).unwrap();
        assert_eq!(h.report.warm_hits, t.report.warm_hits);
        assert_eq!(h.report.completed, t.report.completed);
        assert_eq!(h.report.drains, t.report.drains);
        assert_eq!(h.report.p99_latency_ns, t.report.p99_latency_ns);
        assert_eq!(h.sim.l2.misses(), t.sim.l2.misses());
    }

    #[test]
    fn topology_policy_serves_a_numa_machine() {
        let machine = MachineModel::numa2();
        let config = ServeConfig::default_bench();
        let out = run_serve(tiny_trace(2000), &machine, &config, ServePolicy::Topology).unwrap();
        assert_eq!(out.report.offered, 2000);
        assert_eq!(out.report.completed + out.report.shed, out.report.admitted);
    }

    #[test]
    fn degenerate_l2_is_a_config_error_not_a_flat_hierarchy() {
        use cachesim::{CacheConfig, HierarchyConfig};
        let tiny = CacheConfig::new(2, 1, 1).unwrap();
        let machine = MachineModel::custom(
            "tiny",
            1e9,
            1.0,
            10.0,
            100.0,
            HierarchyConfig::new(tiny, tiny),
            100.0,
        );
        let err = run_serve(
            tiny_trace(10),
            &machine,
            &ServeConfig::default_bench(),
            ServePolicy::Hierarchical,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("invalid serving configuration"),
            "{err}"
        );
        assert!(run_offline(tiny_trace(10), &machine, ServePolicy::Flat).is_err());
    }
}
