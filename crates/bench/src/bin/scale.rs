//! Simulator-throughput benchmark at 1000+ simulated nodes.
//!
//! Runs the ring neighbor exchange of [`cb_bench::scale`] and reports the
//! *host-side* cost of simulating it: messages delivered per wall-clock
//! second, nanoseconds of host time per delivered message, and the
//! buffer-pool hit rate. Results go to `BENCH_scale.json` (keys sorted,
//! deterministic serialization — only the measured values vary run to
//! run).
//!
//! `--smoke` runs a reduced configuration as a CI regression gate: the
//! run must stay under a ns/message ceiling and over a msgs/sec floor.
//! The ceiling is 1.5x the slowest of fifteen measured smoke runs, so it
//! trips on a regression in the delivery path (a global lock, an
//! allocation or a wake-up syscall per message), not on host jitter.
//!
//! Wall-clock use is deliberate and confined to this binary (deepcheck
//! D001 allowlist): the workload underneath is pure virtual time.

use cb_bench::scale::{run_ring, ScaleConfig};
use obs::HostMetrics;
use std::time::Instant;

/// Smoke gate: host cost per delivered message must stay under this.
/// Fifteen smoke runs (1000 nodes x 8 rounds, thread spawn amortized over
/// 8000 messages) on a 2-vCPU host measured 13.2-20.0 us/msg; the ceiling
/// is 1.5x the slowest, rounded up. Ratchet it down, never up.
const SMOKE_MAX_NS_PER_MSG: f64 = 30_000.0;

/// Smoke gate: sustained delivery rate must stay above this (~1/9 of the
/// ~93k msgs/s measured on the reference single-core container).
const SMOKE_MIN_MSGS_PER_SEC: f64 = 10_000.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut cfg = ScaleConfig::full();
    let mut out_path = "BENCH_scale.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                i += 1;
                cfg.nodes = args[i].parse().expect("--nodes <n>");
            }
            "--rounds" => {
                i += 1;
                cfg.rounds = args[i].parse().expect("--rounds <n>");
            }
            "--elems" => {
                i += 1;
                cfg.elems = args[i].parse().expect("--elems <n>");
            }
            "--pool-buffers" => {
                i += 1;
                cfg.pool_buffers = Some(args[i].parse().expect("--pool-buffers <n>"));
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            _ => {}
        }
        i += 1;
    }
    // Env fallback for sweep scripts: CB_POOL_BUFFERS sizes the pool when
    // no explicit flag is given (host-side knob; virtual time unaffected).
    if cfg.pool_buffers.is_none() {
        if let Ok(v) = std::env::var("CB_POOL_BUFFERS") {
            cfg.pool_buffers = Some(v.parse().expect("CB_POOL_BUFFERS must be an integer"));
        }
    }
    // The full default shape finishes in well under a second, so --smoke
    // runs it unchanged: the gate keeps the whole 1000-node fan-out and a
    // per-node regression cannot hide in a smaller run.
    let t0 = Instant::now();
    let stats = run_ring(&cfg);
    let wall = t0.elapsed();
    // Second pass with round barriers: exact per-round pool counters.
    // Kept out of the timed run above because the barrier wakeups are
    // host cost the throughput gate should not absorb (the virtual
    // makespan is identical; run_ring's tests assert so).
    let rounds_stats = run_ring(&ScaleConfig {
        per_round: true,
        ..cfg
    });

    let wall_s = wall.as_secs_f64();
    let msgs = stats.delivered_msgs as f64;
    let msgs_per_sec = msgs / wall_s;
    let ns_per_msg = wall.as_nanos() as f64 / msgs;

    let mut m = HostMetrics::new();
    m.set("nodes", stats.nodes as f64);
    m.set("rounds", stats.rounds as f64);
    m.set("elems_per_msg", stats.elems as f64);
    m.set("delivered_msgs", msgs);
    m.set("wall_s", wall_s);
    m.set("msgs_per_sec", msgs_per_sec);
    m.set("ns_per_msg", ns_per_msg);
    m.set("virtual_makespan_s", stats.makespan.as_secs());
    // The retention bound in force for this run — the knob PR 8 identified
    // as the binding constraint under synchronized bursts.
    m.set(
        "pool_capacity",
        cfg.pool_buffers
            .unwrap_or(psmpi::DEFAULT_MAX_POOLED_BUFFERS) as f64,
    );
    m.set("pool_hits", stats.pool.hits as f64);
    m.set("pool_misses", stats.pool.misses as f64);
    m.set("pool_reclaim_failures", stats.pool.reclaim_failures as f64);
    m.set("pool_hit_rate", stats.pool.hit_rate());
    // Per-round pool deltas from the barrier-synchronized pass: the early
    // rounds allocate the pool up to the burst's concurrency (capped by
    // the pool bound), later rounds trend toward pure hits. The
    // steady-state rate excludes round 0's cold fill. Note the
    // synchronized bursts are a *harder* pool workload than the
    // free-running ring above: every rank's send races for a staging
    // buffer at the same host instant.
    let mut warm = psmpi::PoolStats::default();
    for (i, p) in rounds_stats.per_round_pool.iter().enumerate() {
        m.set(&format!("pool_hits_round_{i}"), p.hits as f64);
        m.set(&format!("pool_misses_round_{i}"), p.misses as f64);
        if i > 0 {
            warm.hits += p.hits;
            warm.misses += p.misses;
        }
    }
    m.set("pool_steady_state_hit_rate", warm.hit_rate());

    let json = format!("{}\n", m.to_json());
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    println!(
        "scale: {} nodes x {} rounds — {:.0} msgs/s, {:.0} ns/msg, pool hit rate {:.2}, \
         virtual makespan {:.6} s (wrote {out_path})",
        stats.nodes,
        stats.rounds,
        msgs_per_sec,
        ns_per_msg,
        stats.pool.hit_rate(),
        stats.makespan.as_secs()
    );

    if smoke {
        assert!(
            ns_per_msg <= SMOKE_MAX_NS_PER_MSG,
            "scale smoke: {ns_per_msg:.0} ns/delivered-message exceeds the \
             {SMOKE_MAX_NS_PER_MSG:.0} ns ceiling — message delivery got an \
             order of magnitude slower"
        );
        assert!(
            msgs_per_sec >= SMOKE_MIN_MSGS_PER_SEC,
            "scale smoke: {msgs_per_sec:.0} msgs/sec is under the \
             {SMOKE_MIN_MSGS_PER_SEC:.0} floor"
        );
        println!(
            "scale smoke OK: {ns_per_msg:.0} ns/msg (ceiling {SMOKE_MAX_NS_PER_MSG:.0}), \
             {msgs_per_sec:.0} msgs/s (floor {SMOKE_MIN_MSGS_PER_SEC:.0})"
        );
    }
}
