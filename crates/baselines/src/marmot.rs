//! The Marmot baseline model.
//!
//! Per the paper (Section V-B): Marmot performs purely dynamic checking
//! through a central debug process — it "can only detect violations if they
//! actually appear in a run made with MARMOT". It has no lockset or
//! happens-before prediction, so a racy pair whose calls happen to
//! serialize in the observed schedule is missed (the paper's false
//! negatives), and every MPI call pays a round-trip to the manager (its
//! overhead profile).

use home_stream::{Race, RaceAccess};
use home_trace::{Event, EventKind, MemLoc, Tid, Trace};
use std::collections::HashSet;

/// One wrapped MPI call as observed in the trace: the `MpiCall` entry event
/// plus its contiguous monitored writes (the wrapper emits them without a
/// scheduling point, so within a rank they are adjacent).
struct CallBlock<'a> {
    tid: Tid,
    /// Rank-local index of the first event of the block.
    start: usize,
    /// Rank-local index one past the last event of the block.
    end: usize,
    /// The monitored writes of this call.
    writes: Vec<(MemLoc, &'a Event)>,
}

/// Find *manifest* concurrency on monitored variables: two MPI calls from
/// different threads of one process whose executions visibly overlapped in
/// the observed schedule.
///
/// Overlap proxy: call B's wrapper block begins after call A's block and
/// before the next event thread A emitted *after* its block — i.e. B
/// entered MPI while A had not yet moved past its (typically blocking)
/// call. If thread A emitted nothing further, its call is treated as
/// extending to the end of the trace.
pub fn manifest_races(trace: &Trace) -> Vec<Race> {
    let mut races = Vec::new();
    for &rank in trace.ranks() {
        let events: Vec<&Event> = trace.by_rank(rank).collect();
        let calls = call_blocks(&events);
        // First event index of `tid` at or after `pos`.
        let next_event_of = |tid: Tid, pos: usize| -> usize {
            events
                .iter()
                .enumerate()
                .skip(pos)
                .find(|(_, e)| e.tid == tid)
                .map(|(i, _)| i)
                .unwrap_or(usize::MAX)
        };
        // Dedupe per (variable, call-site pair, thread pair): repeated
        // executions of the same racy pair report once, but distinct racy
        // call sites each report.
        // A region's JoinRegion event bounds every call made inside it:
        // after the join, the region's threads are gone.
        let join_of = |region: home_trace::RegionId| -> usize {
            events
                .iter()
                .enumerate()
                .find(|(_, e)| matches!(e.kind, EventKind::JoinRegion { region: r } if r == region))
                .map(|(i, _)| i)
                .unwrap_or(usize::MAX)
        };
        let mut seen: HashSet<(MemLoc, u32, u32, Tid, Tid)> = HashSet::new();
        for a in &calls {
            // A's call is "still running" until its next own event, and in
            // no case past the end of its region.
            let mut a_busy_until = next_event_of(a.tid, a.end);
            if a.start < events.len() {
                if let Some(region) = events[a.start].region {
                    a_busy_until = a_busy_until.min(join_of(region));
                }
            }
            for b in &calls {
                if b.tid == a.tid || b.start <= a.start {
                    continue;
                }
                if b.start >= a_busy_until {
                    continue; // A had already moved on — no observed overlap.
                }
                for (loc_a, ev_a) in &a.writes {
                    for (loc_b, ev_b) in &b.writes {
                        if loc_a != loc_b {
                            continue;
                        }
                        let line = |e: &Event| e.loc.as_ref().map(|l| l.line).unwrap_or(0);
                        let (la, lb) = (line(ev_a), line(ev_b));
                        let key = (
                            *loc_a,
                            la.min(lb),
                            la.max(lb),
                            a.tid.min(b.tid),
                            a.tid.max(b.tid),
                        );
                        if !seen.insert(key) {
                            continue;
                        }
                        let (Some(first), Some(second)) = (access_of(ev_a), access_of(ev_b)) else {
                            continue; // not an access event: nothing to report
                        };
                        races.push(Race {
                            rank,
                            loc: *loc_a,
                            first,
                            second,
                        });
                    }
                }
            }
        }
    }
    races
}

/// Group a rank's events into wrapper call blocks.
fn call_blocks<'a>(events: &[&'a Event]) -> Vec<CallBlock<'a>> {
    let mut blocks: Vec<CallBlock<'a>> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let e = events[i];
        let is_call_start = matches!(e.kind, EventKind::MpiCall { .. })
            || matches!(e.kind, EventKind::MonitoredWrite { .. });
        if !is_call_start {
            i += 1;
            continue;
        }
        let tid = e.tid;
        let start = i;
        let mut writes = Vec::new();
        // Consume the MpiCall entry (if present) and following monitored
        // writes from the same thread.
        while i < events.len() && events[i].tid == tid {
            match &events[i].kind {
                EventKind::MpiCall { .. } if i == start => {}
                EventKind::MonitoredWrite { .. } => match events[i].kind.access() {
                    Some((loc, _)) => writes.push((loc, events[i])),
                    // A monitored write always carries an access; tolerate
                    // a malformed event by ending the block instead of
                    // panicking.
                    None => break,
                },
                _ => break,
            }
            i += 1;
        }
        blocks.push(CallBlock {
            tid,
            start,
            end: i,
            writes,
        });
    }
    blocks
}

fn access_of(e: &Event) -> Option<RaceAccess> {
    let (_, kind) = e.kind.access()?;
    Some(RaceAccess {
        seq: e.seq,
        tid: e.tid,
        region: e.region,
        kind,
        loc: e.loc.clone(),
        mpi: e.kind.mpi_call().cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use home_trace::{MonitoredVar, MpiCallKind, MpiCallRecord, Rank, RegionId, SrcLoc};

    fn ev_at(seq: u64, tid: u32, line: u32, kind: EventKind) -> Event {
        Event {
            seq,
            rank: Rank(0),
            tid: Tid(tid),
            region: Some(RegionId(0)),
            time_ns: seq,
            loc: Some(SrcLoc::new("m.hmp", line)),
            kind,
        }
    }

    fn ev(seq: u64, tid: u32, kind: EventKind) -> Event {
        ev_at(seq, tid, seq as u32, kind)
    }

    /// A wrapper block at a fixed call site: MpiCall entry + Src/Tag/Comm
    /// writes.
    fn call_at(seq: &mut u64, tid: u32, line: u32) -> Vec<Event> {
        let record = MpiCallRecord::of_kind(MpiCallKind::Recv);
        let mut out = vec![ev_at(
            *seq,
            tid,
            line,
            EventKind::MpiCall {
                call: record.clone(),
            },
        )];
        for var in [MonitoredVar::Src, MonitoredVar::Tag, MonitoredVar::Comm] {
            *seq += 1;
            out.push(ev_at(
                *seq,
                tid,
                line,
                EventKind::MonitoredWrite {
                    var,
                    call: record.clone(),
                },
            ));
        }
        *seq += 1;
        out
    }

    fn call(seq: &mut u64, tid: u32) -> Vec<Event> {
        call_at(seq, tid, 1)
    }

    fn barrier(seq: &mut u64, tid: u32) -> Event {
        let e = ev(
            *seq,
            tid,
            EventKind::Barrier {
                barrier: home_trace::BarrierId(0),
                epoch: 0,
            },
        );
        *seq += 1;
        e
    }

    #[test]
    fn interleaved_call_blocks_are_manifest() {
        let mut seq = 0;
        let mut events = call(&mut seq, 0);
        events.extend(call(&mut seq, 1)); // t1's block while t0 still blocked
        events.push(barrier(&mut seq, 0));
        let races = manifest_races(&Trace::from_events(events));
        // One race per monitored variable (src, tag, comm).
        assert_eq!(races.len(), 3);
        assert!(races
            .iter()
            .any(|r| r.loc == MemLoc::Monitored(MonitoredVar::Tag)));
    }

    #[test]
    fn serialized_call_blocks_are_missed() {
        let mut seq = 0;
        let mut events = call(&mut seq, 0);
        events.push(barrier(&mut seq, 0)); // t0 moved on before t1 started
        events.extend(call(&mut seq, 1));
        assert!(manifest_races(&Trace::from_events(events)).is_empty());
    }

    #[test]
    fn last_call_extends_to_trace_end() {
        let mut seq = 0;
        let mut events = call(&mut seq, 0);
        events.extend(call(&mut seq, 1));
        assert_eq!(manifest_races(&Trace::from_events(events)).len(), 3);
    }

    #[test]
    fn same_thread_calls_never_race() {
        let mut seq = 0;
        let mut events = call(&mut seq, 0);
        events.extend(call(&mut seq, 0));
        assert!(manifest_races(&Trace::from_events(events)).is_empty());
    }

    #[test]
    fn pairs_dedupe_per_location_and_threads() {
        let mut seq = 0;
        let mut events = call(&mut seq, 0);
        events.extend(call(&mut seq, 1));
        events.extend(call(&mut seq, 0));
        events.extend(call(&mut seq, 1));
        assert_eq!(manifest_races(&Trace::from_events(events)).len(), 3);
    }
}
