//! Fixture corpus tests: every lint code must fire on its bad fixture
//! with the exact (lint, line) diagnostics, stay silent on the clean
//! fixture, and be suppressible through the allowlist.

use deepcheck::{analyze_source, Allowlist, Report};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Run a fixture as if it lived in `crate_name`, returning (lint, line).
fn lints_of(crate_name: &str, name: &str) -> Vec<(String, u32)> {
    analyze_source(
        crate_name,
        &format!("crates/{crate_name}/src/{name}"),
        &fixture(name),
    )
    .into_iter()
    .map(|f| (f.lint.to_string(), f.line))
    .collect()
}

#[test]
fn d001_fires_on_every_clock_and_entropy_source() {
    assert_eq!(
        lints_of("scr", "d001_bad.rs"),
        vec![
            ("D001".to_string(), 5),  // Instant::now
            ("D001".to_string(), 10), // SystemTime
            ("D001".to_string(), 15), // thread_rng
            ("D001".to_string(), 20), // env::var
            ("D001".to_string(), 24), // rand::random
            ("D001".to_string(), 28), // StdRng::from_entropy
            ("D001".to_string(), 33), // OsRng
        ]
    );
}

#[test]
fn d002_fires_on_hash_iteration_in_virtual_time_crates() {
    assert_eq!(
        lints_of("scr", "d002_bad.rs"),
        vec![
            ("D002".to_string(), 13), // queues.iter()
            ("D002".to_string(), 21), // dead.retain()
            ("D002".to_string(), 27), // for kv in &pending
            ("D002".to_string(), 34), // for (_, q) in &self.queues
        ]
    );
}

#[test]
fn d002_is_scoped_to_virtual_time_crates() {
    // The same source in the bench crate (host-side) is not a finding.
    let findings = analyze_source("bench", "crates/bench/src/x.rs", &fixture("d002_bad.rs"));
    assert!(
        findings.is_empty(),
        "bench is outside the contract: {findings:?}"
    );
}

#[test]
fn d003_fires_on_available_parallelism() {
    assert_eq!(
        lints_of("ompss", "d003_bad.rs"),
        vec![("D003".to_string(), 5)]
    );
}

#[test]
fn d004_fires_on_unmanaged_parallelism() {
    assert_eq!(
        lints_of("xpic", "d004_bad.rs"),
        vec![
            ("D004".to_string(), 5),  // thread::scope
            ("D004".to_string(), 17), // AtomicU64 + from_bits
            ("D007".to_string(), 17), // Relaxed load on the gating atomic
            ("D007".to_string(), 18), // Relaxed store on the gating atomic
        ]
    );
}

#[test]
fn d005_fires_on_host_clock_types_in_obs() {
    assert_eq!(
        lints_of("obs", "d005_wallclock_bad.rs"),
        vec![
            ("D005".to_string(), 4), // use std::time
            ("D005".to_string(), 7), // Instant type mention
            ("D001".to_string(), 8), // SystemTime (also a D001 source)
            ("D005".to_string(), 8), // SystemTime in obs
        ]
    );
}

#[test]
fn d005_wall_clock_rule_is_scoped_to_obs() {
    // The same source elsewhere only trips the general D001 rule.
    let findings = analyze_source(
        "scr",
        "crates/scr/src/x.rs",
        &fixture("d005_wallclock_bad.rs"),
    );
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].lint, "D001");
}

#[test]
fn d005_fires_on_discarded_span_guards_workspace_wide() {
    assert_eq!(
        lints_of("xpic", "d005_guard_bad.rs"),
        vec![
            ("D005".to_string(), 4), // open_span result dropped
            ("D005".to_string(), 8), // obs_open result dropped
        ]
    );
}

#[test]
fn m001_fires_on_collectives_under_rank_conditionals() {
    assert_eq!(
        lints_of("psmpi", "m001_collective_bad.rs"),
        vec![
            ("M001".to_string(), 9),  // bcast under rank == 0
            ("M001".to_string(), 15), // barrier under rank % 2
        ]
    );
}

#[test]
fn m001_fires_on_tag_literal_mismatches() {
    assert_eq!(
        lints_of("psmpi", "m001_tags_bad.rs"),
        vec![
            ("M001".to_string(), 7), // tag 7 sent, never received
            ("M001".to_string(), 9), // tag 8 received, never sent
        ]
    );
}

#[test]
fn m001_fires_on_use_after_disconnect() {
    assert_eq!(
        lints_of("psmpi", "m001_disconnect_bad.rs"),
        vec![("M001".to_string(), 9)] // ic2 used after ic2.disconnect()
    );
}

#[test]
fn d006_fires_on_missing_ranks_and_inversions() {
    assert_eq!(
        lints_of("psmpi", "d006_bad.rs"),
        vec![
            ("D006".to_string(), 7),  // `orphan` has no rank
            ("D006".to_string(), 13), // state (10) taken under table (20)
            ("D006".to_string(), 20), // table re-acquired while held
        ]
    );
}

#[test]
fn d006_is_scoped_to_virtual_time_crates() {
    // deepcheck itself (a host tool) carries no lock hierarchy.
    let findings = analyze_source(
        "deepcheck",
        "crates/deepcheck/src/x.rs",
        &fixture("d006_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d007_fires_on_relaxed_gates_not_counters() {
    assert_eq!(
        lints_of("psmpi", "d007_bad.rs"),
        vec![
            ("D007".to_string(), 11), // Relaxed store on `ready`
            ("D007".to_string(), 15), // Relaxed load on `ready`
                                      // `count` (fetch_add counter + load-only stats) stays silent.
        ]
    );
}

#[test]
fn d008_fires_on_blocking_call_under_live_guard() {
    assert_eq!(
        lints_of("psmpi", "d008_bad.rs"),
        vec![
            ("D008".to_string(), 11), // recv_match while nic_free is held
                                      // `good` drops the guard first and stays silent.
        ]
    );
}

#[test]
fn m002_fires_on_cross_comm_framing_and_width_mismatches() {
    assert_eq!(
        lints_of("psmpi", "m002_bad.rs"),
        vec![
            ("M002".to_string(), 3), // tag 7 sent on `a`, received on `b`
            ("M002".to_string(), 4), // …and the recv side of the same flow
            ("M002".to_string(), 6), // u64 sent, u32 received (tag 9)
            ("M002".to_string(), 8), // bytes sent, typed recv (tag 11)
                                     // tag 21 flows on one comm and stays silent.
        ]
    );
}

#[test]
fn m003_fires_on_discarded_requests_and_spares_consumed_ones() {
    assert_eq!(
        lints_of("psmpi", "m003_bad.rs"),
        vec![
            ("M003".to_string(), 5),  // isend_bytes(...).unwrap();
            ("M003".to_string(), 9),  // irecv_bytes(...).expect(...);
            ("M003".to_string(), 13), // isend_slice(...)?;
            ("M003".to_string(), 18), // isend_bytes((c, 1), ..).unwrap();
                                      // bound, chained and returned requests stay silent.
        ]
    );
}

#[test]
fn snippet_waivers_survive_line_shifts() {
    let path = "crates/psmpi/src/d008_bad.rs";
    let src = fixture("d008_bad.rs");
    let allow = Allowlist::parse(&format!(
        "[[allow]]\nlint = \"D008\"\npath = \"{path}\"\nreason = \"fixture: receive intentionally overlaps the guard\"\nsnippet = \"let env = mb.recv_match(1, None, None);\"\n"
    ))
    .unwrap();
    let report = Report::new(analyze_source("psmpi", path, &src), &allow, 1, "h".into());
    assert_eq!(
        report.violations().count(),
        0,
        "snippet pin covers the site"
    );

    // Two lines inserted above: the finding moves but its content does not,
    // so the waiver still covers it (the old line-number scheme went stale).
    let shifted = format!("// shifted\n// shifted\n{src}");
    let findings = analyze_source("psmpi", path, &shifted);
    assert_eq!(findings.iter().find(|f| f.lint == "D008").unwrap().line, 13);
    let report = Report::new(findings, &allow, 1, "h".into());
    assert_eq!(report.violations().count(), 0, "waiver survives the shift");
    assert!(report.unused_allow.is_empty());
}

#[test]
fn fnv_snippet_waivers_cover_the_hashed_site() {
    let path = "crates/psmpi/src/d008_bad.rs";
    let src = fixture("d008_bad.rs");
    let hash = deepcheck::fnv1a64_hex("let env = mb.recv_match(1, None, None);".as_bytes());
    let allow = Allowlist::parse(&format!(
        "[[allow]]\nlint = \"D008\"\npath = \"{path}\"\nreason = \"fixture: hashed pin\"\nsnippet = \"{hash}\"\n"
    ))
    .unwrap();
    let report = Report::new(analyze_source("psmpi", path, &src), &allow, 1, "h".into());
    assert_eq!(report.violations().count(), 0);
}

#[test]
fn clean_fixture_is_silent_in_the_strictest_crate() {
    // Run as a virtual-time crate so D002/D004 are active too.
    let findings = analyze_source("psmpi", "crates/psmpi/src/clean.rs", &fixture("clean.rs"));
    assert!(
        findings.is_empty(),
        "clean fixture must produce nothing: {findings:?}"
    );
}

#[test]
fn allowlist_suppresses_exactly_the_documented_site() {
    let findings = analyze_source(
        "ompss",
        "crates/ompss/src/d003_bad.rs",
        &fixture("d003_bad.rs"),
    );
    assert_eq!(findings.len(), 1);
    let allow = Allowlist::parse(
        "[[allow]]\nlint = \"D003\"\npath = \"crates/ompss/src/d003_bad.rs\"\nreason = \"fixture: sanctioned sizing site\"\n",
    )
    .unwrap();
    let report = Report::new(findings.clone(), &allow, 1, "fnv1a64:0".to_string());
    assert_eq!(
        report.violations().count(),
        0,
        "the entry covers the finding"
    );
    assert_eq!(
        report.judged.len(),
        1,
        "the finding is still reported, just allowed"
    );
    assert!(report.unused_allow.is_empty());

    // A different path is NOT covered: the allowlist is site-specific.
    let elsewhere = analyze_source(
        "ompss",
        "crates/ompss/src/other.rs",
        &fixture("d003_bad.rs"),
    );
    let report = Report::new(elsewhere, &allow, 1, "fnv1a64:0".to_string());
    assert_eq!(report.violations().count(), 1);
    assert_eq!(report.unused_allow.len(), 1, "and the entry is now stale");
}

#[test]
fn test_modules_are_exempt() {
    let src = r#"
        pub fn shipped() {}
        #[cfg(test)]
        mod tests {
            fn toy() {
                let t = std::time::Instant::now();
                let n = std::thread::available_parallelism();
                let _ = (t, n);
            }
        }
    "#;
    assert!(analyze_source("scr", "crates/scr/src/x.rs", src).is_empty());
}
