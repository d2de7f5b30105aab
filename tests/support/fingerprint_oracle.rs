//! The schedule fingerprint `home-explore` used until PR 21, kept as the
//! reference for the partition the structural hash must reproduce: every
//! event's payload goes through `format!("{:?}", kind)` and the bytes are
//! hashed unseparated. Slow (a `String` per event) and deliberately left
//! as it was.

use home::interp::RunResult;
use home::trace::FxHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;

pub fn formatted_fingerprint(result: &RunResult) -> u64 {
    let mut per_rank: BTreeMap<u32, FxHasher> = BTreeMap::new();
    for e in result.trace.events() {
        let h = per_rank.entry(e.rank.0).or_default();
        h.write_u32(e.tid.0);
        match e.region {
            Some(r) => {
                h.write_u8(1);
                h.write_u64(r.0);
            }
            None => h.write_u8(0),
        }
        match &e.loc {
            Some(l) => {
                h.write_u8(1);
                h.write(l.file.as_bytes());
                h.write_u32(l.line);
            }
            None => h.write_u8(0),
        }
        h.write(format!("{:?}", e.kind).as_bytes());
    }
    let mut combined = FxHasher::default();
    for (rank, h) in per_rank {
        combined.write_u32(rank);
        combined.write_u64(h.finish());
    }
    for i in &result.mpi_errors {
        combined.write_u32(i.rank);
        combined.write_u32(i.line);
        combined.write(i.call.as_bytes());
        combined.write(i.error.as_bytes());
    }
    match &result.deadlock {
        Some(d) => {
            combined.write_u8(1);
            let mut blocked: Vec<String> = d
                .blocked
                .iter()
                .map(|b| format!("{}:{}", b.name, b.reason))
                .collect();
            blocked.sort_unstable();
            for b in blocked {
                combined.write(b.as_bytes());
            }
        }
        None => combined.write_u8(0),
    }
    combined.finish()
}
