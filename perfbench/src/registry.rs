//! The benchmark's contract in one place: its workloads, its end-to-end
//! metrics with their regression bounds, and its per-layer metrics, each
//! naming the end-to-end metric and the workloads it should move.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`perfbench --emit-benchmark-json`) and a test keeps the two equal.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so that regressions on it reject a
    /// change. An ungated workload still runs and is checked on demand.
    pub gated: bool,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "xpic_cb",
        gated: true,
        why: "the paper's partitioned xPic run (field solver on CN, particles on BN); host time \
              goes to the PIC kernels, intercomm p2p and CG allreduces; bypasses scr and sched",
    },
    // Ungated: some runs sat in one slow spell of the host from start to
    // end, and its jobs slow down more in such spells than the other
    // workloads' (fastest job 1.80-2.20 s against 1.30-1.59 s). Over ten
    // seeds the quartile spread of run minima read 0.23, 0.06 and 0.30 in
    // three sets, against the largest bound of 0.25.
    WorkloadDef {
        name: "xpic_ckpt",
        gated: false,
        why: "the same physics under a seeded fault plan with AsyncDelta buddy checkpoints: \
              pack, delta, drain, restart and a respawn per recovery run beside the compute",
    },
    WorkloadDef {
        name: "ring_p2p",
        gated: true,
        why: "64-rank 8 KiB ring with almost no compute: router, mailbox match, buffer pool, \
              codec and simnet pricing, which the xpic workloads barely touch",
    },
    // Ungated: whole runs sat at one of a few host speed levels (every job
    // of a run at 1.60-1.62 s, of another at 1.15-1.45 s), so no per-run
    // statistic held still. Over ten seeds the quartile spread of run
    // medians read 0.16 and 0.26 in two sets, against the largest bound of
    // 0.25; over five, that of run minima read 0.12-0.25.
    WorkloadDef {
        name: "sched_trace",
        gated: false,
        why: "12,000-job bursty trace scheduled under independent and node-locked policies: \
              sched, core resources and max_min_shares, no psmpi or xpic",
    },
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_job",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, with the end-to-end metric (or `none`) and the
/// workloads it should move. It should stay flat on the others.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const XPIC_BOTH: &[&str] = &["xpic_cb", "xpic_ckpt"];
const XPIC_CB: &[&str] = &["xpic_cb"];
const XPIC_CKPT: &[&str] = &["xpic_ckpt"];
const RING: &[&str] = &["ring_p2p"];
const SCHED: &[&str] = &["sched_trace"];
const PSMPI_ALL: &[&str] = &["xpic_cb", "xpic_ckpt", "ring_p2p"];
const NONE: &[&str] = &[];

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "xpic.push_ns_per_particle",
        unit: "ns/particle",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_BOTH,
    },
    PerLayer {
        name: "xpic.deposit_ns_per_particle",
        unit: "ns/particle",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_BOTH,
    },
    PerLayer {
        name: "xpic.field_solve_ns_per_cell_iter",
        unit: "ns/cell-iter",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CB,
    },
    PerLayer {
        name: "xpic.cg_iters",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CB,
    },
    PerLayer {
        name: "xpic.pack_state_ns_per_byte",
        unit: "ns/byte",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "xpic.unpack_state_ns_per_byte",
        unit: "ns/byte",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "psmpi.self_send_ns_per_msg",
        unit: "ns/msg",
        better: Better::Lower,
        moves: "work_per_s",
        on: RING,
    },
    PerLayer {
        name: "psmpi.launch_us_per_rank_at4",
        unit: "us/rank",
        better: Better::Lower,
        moves: "setup_s",
        on: PSMPI_ALL,
    },
    PerLayer {
        name: "psmpi.launch_us_per_rank_at64",
        unit: "us/rank",
        better: Better::Lower,
        moves: "setup_s",
        on: PSMPI_ALL,
    },
    PerLayer {
        name: "psmpi.allreduce_ns_at2",
        unit: "ns/call",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CB,
    },
    PerLayer {
        name: "psmpi.allreduce_ns_at4",
        unit: "ns/call",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CB,
    },
    PerLayer {
        name: "psmpi.spawn_us",
        unit: "us/spawn",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_BOTH,
    },
    PerLayer {
        name: "psmpi.msgs_per_job",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: PSMPI_ALL,
    },
    PerLayer {
        name: "psmpi.bytes_per_job",
        unit: "bytes",
        better: Better::Lower,
        moves: "work_per_s",
        on: PSMPI_ALL,
    },
    PerLayer {
        name: "psmpi.pool_hit_rate",
        unit: "ratio",
        better: Better::Higher,
        moves: "cpu_s_per_job",
        on: RING,
    },
    PerLayer {
        name: "simnet.p2p_time_ns",
        unit: "ns/call",
        better: Better::Lower,
        moves: "work_per_s",
        on: RING,
    },
    PerLayer {
        name: "simnet.max_min_shares_ns",
        unit: "ns/call",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "hwmodel.cost_ns",
        unit: "ns/call",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CB,
    },
    PerLayer {
        name: "scr.delta_encode_ns_per_byte",
        unit: "ns/byte",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "scr.delta_useful_ratio",
        unit: "ratio",
        better: Better::Higher,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "scr.checkpoint_ns_per_byte",
        unit: "ns/byte",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "scr.restart_ns_per_byte",
        unit: "ns/byte",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "scr.recoveries",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "scr.ckpts_taken",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: XPIC_CKPT,
    },
    PerLayer {
        name: "sched.independent.ns_per_event",
        unit: "ns/event",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "sched.node_locked.ns_per_event",
        unit: "ns/event",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "sched.events",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "sched.backfill_starts",
        unit: "count",
        better: Better::Higher,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "sched.requeues",
        unit: "count",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "core.alloc_release_ns",
        unit: "ns/pair",
        better: Better::Lower,
        moves: "work_per_s",
        on: SCHED,
    },
    PerLayer {
        name: "obs.attached_overhead",
        unit: "ratio",
        better: Better::Lower,
        moves: "none",
        on: NONE,
    },
    PerLayer {
        name: "trace.overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        moves: "none",
        on: NONE,
    },
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
}

/// `BENCHMARK.json` as generated from the tables above.
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let gated: Vec<&WorkloadDef> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let sep = if i + 1 < gated.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is a valid metric or workload name: starts with a letter
    /// or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is valid: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "workload name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "metric name {name}");
            assert!(valid_unit(unit), "unit {unit} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
    }

    #[test]
    fn end_to_end_bounds_follow_the_contract() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.bound, max, "setup_s carries the largest bound");
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in PER_LAYER {
            if m.moves == "none" {
                assert!(
                    m.on.is_empty(),
                    "{} moves nothing, so names no workload",
                    m.name
                );
                continue;
            }
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown end-to-end metric {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(
                    workloads.contains(w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let run_seconds = on_disk
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"run_seconds\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("run_seconds in BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(run_seconds));
    }
}
