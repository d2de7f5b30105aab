//! Back-compatibility of the static→dynamic contract after the
//! interprocedural per-site refactor: the coarse (global-union) checklist
//! model keeps working — old serialized checklists deserialize, coarse and
//! per-site checklists wrap the identical call sites — while the per-site
//! sets strictly shrink the emitted monitored writes on real programs.

use home::prelude::*;
use home::static_analysis::Checklist;
use std::sync::Arc;

fn bundled_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir("programs")
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().is_some_and(|x| x == "hmp") {
            let src = std::fs::read_to_string(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, parse(&src).unwrap()));
        }
    }
    assert!(out.len() >= 6, "bundled corpus went missing");
    out
}

#[test]
fn per_site_and_coarse_checklists_wrap_identical_sites_on_all_programs() {
    let mut strict_shrinks = Vec::new();
    for (name, p) in bundled_programs() {
        let checklist = analyze(&p).checklist;
        // The pre-interprocedural coarse model: no per-site monitored
        // sets, each wrapper writes the full per-kind variable table.
        let mut coarse = checklist.clone();
        coarse.sites.iter_mut().for_each(|s| s.monitored = None);
        // The refinement never changes *which* sites are instrumented,
        // nor the global monitored-variable union old consumers read.
        assert_eq!(
            checklist.instrumented_nodes(),
            coarse.instrumented_nodes(),
            "{name}"
        );
        assert_eq!(checklist.monitored_vars, coarse.monitored_vars, "{name}");

        let run_with = |cl: Checklist| {
            let cfg = RunConfig::test(2, 1)
                .with_instrumentation(Instrumentation::home())
                .with_checklist(Arc::new(cl));
            run(&p, &cfg)
        };
        let fine = run_with(checklist);
        let broad = run_with(coarse);
        assert_eq!(
            fine.trace.mpi_calls().count(),
            broad.trace.mpi_calls().count(),
            "{name}: same wrapped sites either way"
        );
        let (mw_fine, mw_broad) = (
            fine.trace.monitored_writes().count(),
            broad.trace.monitored_writes().count(),
        );
        assert!(mw_fine <= mw_broad, "{name}: refinement never adds writes");
        if mw_fine < mw_broad {
            strict_shrinks.push(name);
        }
    }
    assert!(
        strict_shrinks.len() >= 2,
        "per-site sets must strictly shrink emitted writes on at least \
         two bundled programs, got {strict_shrinks:?}"
    );
}

#[test]
fn pre_per_site_checklist_json_still_deserializes() {
    // A checklist serialized before the per-site fields existed: no
    // `monitored`, `must_locks`, or `multi_thread` keys anywhere.
    let old = r#"{
        "sites": [{
            "node": 5,
            "line": 9,
            "name": "mpi_recv",
            "in_hybrid_region": true,
            "reachable": true,
            "instrument": true,
            "is_collective": false,
            "tag_thread_distinct": false,
            "peer_thread_distinct": false,
            "init_level": null
        }],
        "monitored_vars": ["srctmp", "tagtmp", "commtmp"]
    }"#;
    let cl: Checklist = serde_json::from_str(old).unwrap();
    assert_eq!(cl.instrumented_count(), 1);
    assert_eq!(cl.monitored_vars, vec!["srctmp", "tagtmp", "commtmp"]);
    let site = &cl.sites[0];
    assert_eq!(site.monitored, None, "absent per-site set reads as coarse");
    assert!(site.must_locks.is_empty());
    assert!(!site.multi_thread);
    assert_eq!(cl.site_monitored(site.node), None);
}

#[test]
fn round_tripped_checklist_preserves_per_site_sets() {
    let src = std::fs::read_to_string("programs/interproc2.hmp").unwrap();
    let cl = analyze(&parse(&src).unwrap()).checklist;
    let json = serde_json::to_string(&cl).unwrap();
    let back: Checklist = serde_json::from_str(&json).unwrap();
    for (a, b) in cl.sites.iter().zip(&back.sites) {
        assert_eq!(a, b);
    }
    assert_eq!(cl.monitored_vars, back.monitored_vars);
}
