//! perfbench — host cost of the Cluster-Booster reproduction, end to end
//! and per layer.
//!
//! ```text
//! perfbench --workload <xpic_cb|xpic_ckpt|ring_p2p|sched_trace> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench --golden --workload <w> --seed <n>   # print one job's outputs
//! perfbench --emit-benchmark-json <run_seconds>  # regenerate BENCHMARK.json
//! ```
//!
//! `--trace 0` is the timed pass and reports the end-to-end metrics;
//! `--trace 1` is the traced pass and reports the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod host;
mod probes;
mod registry;
mod trace;
mod workloads;

use host::{cpu_seconds, median, minimum, peak_rss_mb};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Checked, Inputs, Shape, Workload};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed jobs per run, however short `--seconds` is.
const MIN_JOBS: usize = 5;
/// Untraced and traced jobs of the traced pass.
const TRACE_JOBS: usize = 2;
/// Stored virtual outputs: `<workload> <seed> <outputs>` per line.
const GOLDENS: &str = include_str!("../goldens.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
    golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::XpicCb,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: "perfbench/out".to_string(),
        golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--golden" {
            args.golden = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out-dir" => args.out_dir = value,
            "--emit-benchmark-json" => {
                let secs = value
                    .parse()
                    .map_err(|_| format!("bad run_seconds {value}"))?;
                print!("{}", registry::benchmark_json(secs));
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The stored outputs of `workload` at `seed`, if any.
fn golden(workload: Workload, seed: u64) -> Option<&'static str> {
    GOLDENS.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, virt) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload.name() && s.parse() == Ok(seed)).then_some(virt)
    })
}

/// Outcome bookkeeping shared by both passes: every job's check, and the
/// run-wide checks (agreement, goldens, the fault-free reference).
struct Verdicts {
    attempted: u64,
    failed: u64,
    first: Option<String>,
    problems: Vec<String>,
}

impl Verdicts {
    fn new() -> Verdicts {
        Verdicts {
            attempted: 0,
            failed: 0,
            first: None,
            problems: Vec::new(),
        }
    }

    /// Record one job's check. Every job must agree bit for bit with the
    /// first; `counted` jobs are the ones `attempted`/`failed` report.
    fn job(&mut self, checked: Option<&Checked>, counted: bool) {
        let mut bad = match checked {
            None => {
                self.problems.push("a job panicked".to_string());
                true
            }
            Some(c) => {
                self.problems.extend(c.problems.iter().cloned());
                !c.problems.is_empty()
            }
        };
        if let Some(c) = checked {
            match &self.first {
                None => self.first = Some(c.virt.clone()),
                Some(f) if *f != c.virt => {
                    self.problems
                        .push(format!("job outputs disagree: {} vs {}", c.virt, f));
                    bad = true;
                }
                Some(_) => {}
            }
        }
        if counted {
            self.attempted += 1;
            self.failed += u64::from(bad);
        }
    }

    /// Run-wide checks after the jobs.
    fn finish(&mut self, args: &Args, inputs: &Inputs, physics: Option<&str>) {
        if let (Some(want), Some(got)) = (golden(args.workload, args.seed), &self.first) {
            if want != got {
                self.problems.push(format!(
                    "outputs {got} differ from the stored golden {want}"
                ));
            }
        }
        if let (Some(reference), Some(got)) = (inputs.reference_physics(), physics) {
            if reference != got {
                self.problems.push(format!(
                    "recovered run {got} differs from the fault-free run {reference}"
                ));
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.first.is_some()
    }
}

/// Run one job and check it outside the timed interval. Returns the job's
/// host seconds, CPU seconds and check (`None` if it panicked).
fn timed_job(inputs: &Inputs, deep: bool, tr: &mut Tracer) -> (f64, f64, Option<Checked>) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| inputs.run(tr)));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let checked = raw.ok().map(|raw| inputs.check(&raw, deep, tr));
    (wall, cpu, checked)
}

/// The JSON result line. `metrics` must be exactly `registered`, in order.
fn result_line(v: &Verdicts, metrics: &[(&str, f64)], registered: &[&str]) -> String {
    assert!(
        metrics.iter().map(|m| m.0).eq(registered.iter().copied()),
        "reported metrics differ from the registry"
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                registry::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

fn report_problems(v: &Verdicts) {
    for p in v.problems.iter().take(10) {
        println!("  CHECK FAILED: {p}");
    }
}

/// One set-up, timed from `t0`: generate the inputs and run one untimed
/// warm-up job, whose outputs are checked and count as attempted. Also
/// returns the memory high-water mark read right after the warm-up job.
fn set_up(
    args: &Args,
    shape: &Shape,
    t0: Instant,
    deep: bool,
    v: &mut Verdicts,
    off: &mut Tracer,
) -> (Inputs, f64, f64) {
    let inp = Inputs::setup(args.workload, args.seed, shape);
    let warm = catch_unwind(AssertUnwindSafe(|| inp.run(off)));
    let secs = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mb();
    let checked = warm.ok().map(|raw| inp.check(&raw, deep, off));
    v.job(checked.as_ref(), false);
    (inp, secs, peak)
}

/// The timed pass: set up, then run jobs for `--seconds`, setting up again
/// at even intervals.
fn timed_pass(args: &Args, process_start: Instant) -> String {
    let shape = Shape::full();
    let mut off = Tracer::new(false);
    let mut v = Verdicts::new();
    let mut physics = None;
    // One job's high-water mark from a fresh process. Later set-ups and
    // jobs raise it by amounts that depend on how the allocator spread rank
    // threads over its arenas, not on the code.
    let (inputs, first_setup, peak_rss) =
        set_up(args, &shape, process_start, true, &mut v, &mut off);
    let mut setups = vec![first_setup];

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while walls.len() < MIN_JOBS || Instant::now() < deadline || setups.len() < SETUPS {
        // The later set-ups are spread over the run, so that their median
        // is not that of one slow spell of the host at the run's start.
        // Their inputs equal the first set-up's and are dropped.
        let due = args.seconds * setups.len() as f64 / SETUPS as f64;
        if setups.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            setups.push(set_up(args, &shape, Instant::now(), false, &mut v, &mut off).1);
            continue;
        }
        let (wall, cpu, checked) = timed_job(&inputs, false, &mut off);
        walls.push(wall);
        cpus.push(cpu);
        if let Some(c) = &checked {
            physics = Some(c.physics.clone());
        }
        v.job(checked.as_ref(), true);
    }
    v.finish(args, &inputs, physics.as_deref());

    let jobs = walls.len();
    // Per-job timings are the fastest job of the run, not the median. On a
    // shared host, other tenants only ever add time, and a slow spell lasts
    // from seconds to minutes, so it can hold a run's median: over five
    // seeds, run medians of one workload spread by up to 0.25 of their
    // median, and run minima by 0.06-0.12 (README.md, "Measured facts").
    let job_s = minimum(&walls);
    let work = inputs.work();
    let metrics = [
        ("setup_s", median(&setups)),
        ("work_per_s", work / job_s),
        ("cpu_s_per_job", minimum(&cpus)),
        ("peak_rss_mb", peak_rss),
    ];
    let w = args.workload;
    println!(
        "perfbench {} seed={} timed pass: {jobs} timed jobs and {SETUPS} set-ups (each with \
         one warm-up job) spread over the run, fastest of the jobs",
        w.name(),
        args.seed
    );
    println!("  setup_s = {:.4} s (median of {SETUPS})", metrics[0].1);
    println!(
        "  {} = {:.1} 1/s (work_per_s; {work} units per job / fastest job {job_s:.4} s; \
         median job {:.4} s)",
        w.throughput_name(),
        metrics[1].1,
        median(&walls)
    );
    println!(
        "  cpu_s_per_job = {:.3} s (fastest job; median {:.3} s)",
        metrics[2].1,
        median(&cpus)
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  job host seconds: {}", fmt(&walls));
    println!("  job CPU seconds: {}", fmt(&cpus));
    println!("  set-up seconds: {}", fmt(&setups));
    println!(
        "  peak_rss_mb = {:.1} MB (VmHWM after the first set-up and its warm-up job)",
        metrics[3].1
    );
    println!(
        "  error_rate = {} ({} of {} jobs failed)",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    if let Some(f) = &v.first {
        println!("  outputs: {f}");
    }
    report_problems(&v);
    let registered: Vec<&str> = registry::END_TO_END.iter().map(|m| m.name).collect();
    result_line(&v, &metrics, &registered)
}

/// The traced pass: untraced reference jobs, traced jobs, the obs probe
/// and the layer probes, with spans written out at the end.
fn traced_pass(args: &Args) -> String {
    let shape = Shape::full();
    let w = args.workload;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut v = Verdicts::new();

    let inputs = Inputs::setup(w, args.seed, &shape);
    let warm = catch_unwind(AssertUnwindSafe(|| inputs.run(&mut off)));
    v.job(
        warm.ok()
            .map(|raw| inputs.check(&raw, true, &mut off))
            .as_ref(),
        false,
    );

    let mut untraced = Vec::new();
    let mut physics = None;
    for _ in 0..TRACE_JOBS {
        let (wall, _, checked) = timed_job(&inputs, false, &mut off);
        untraced.push(wall);
        v.job(checked.as_ref(), true);
    }
    for job in 1..=TRACE_JOBS as u64 {
        tr.set_job(job);
        let span = tr.begin("job");
        let raw = catch_unwind(AssertUnwindSafe(|| inputs.run(&mut tr)));
        tr.end(span, 1.0);
        let checked = raw.ok().map(|raw| inputs.check(&raw, false, &mut tr));
        if let Some(c) = &checked {
            physics = Some(c.physics.clone());
        }
        v.job(checked.as_ref(), true);
    }
    v.finish(args, &inputs, physics.as_deref());

    // Messages and bytes of an xpic job come from an attached recorder;
    // the obs overhead is always measured on an xpic_cb job.
    if let Some((_, msgs, bytes)) = inputs.run_fresh(true) {
        tr.count("psmpi.msgs_per_job", msgs as f64);
        tr.count("psmpi.bytes_per_job", bytes as f64);
    }
    let obs_inputs = Inputs::setup(Workload::XpicCb, args.seed, &shape);
    let (mut detached, mut attached) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_JOBS {
        for (attach, secs) in [(false, &mut detached), (true, &mut attached)] {
            let (s, _, _) = obs_inputs.run_fresh(attach).expect("xpic_cb runs fresh");
            secs.push(s);
        }
    }

    tr.set_job(0);
    let span = tr.begin("probes");
    probes::run_all(&mut tr, w, args.seed, &shape);
    tr.end(span, 1.0);

    let med = |name: &str| {
        let v = tr.ns_per_unit(name);
        assert!(!v.is_empty(), "no spans named {name}");
        median(&v)
    };
    let count = |name: &str| tr.counts().get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics = [
        ("xpic.push_ns_per_particle", med("xpic.boris_push")),
        ("xpic.deposit_ns_per_particle", med("xpic.deposit")),
        (
            "xpic.field_solve_ns_per_cell_iter",
            med("xpic.solve_component"),
        ),
        ("xpic.cg_iters", count("xpic.cg_iters")),
        ("xpic.pack_state_ns_per_byte", med("xpic.pack_state")),
        ("xpic.unpack_state_ns_per_byte", med("xpic.unpack_state")),
        ("psmpi.self_send_ns_per_msg", med("psmpi.self_send")),
        (
            "psmpi.launch_us_per_rank_at4",
            med("psmpi.launch_at4") * 1e-3,
        ),
        (
            "psmpi.launch_us_per_rank_at64",
            med("psmpi.launch_at64") * 1e-3,
        ),
        ("psmpi.allreduce_ns_at2", med("psmpi.allreduce_at2")),
        ("psmpi.allreduce_ns_at4", med("psmpi.allreduce_at4")),
        ("psmpi.spawn_us", med("psmpi.comm_spawn") * 1e-3),
        ("psmpi.msgs_per_job", count("psmpi.msgs_per_job")),
        ("psmpi.bytes_per_job", count("psmpi.bytes_per_job")),
        (
            "psmpi.pool_hit_rate",
            ratio(count("psmpi.pool_hits"), count("psmpi.pool_gets")),
        ),
        ("simnet.p2p_time_ns", med("simnet.p2p_time")),
        ("simnet.max_min_shares_ns", med("simnet.max_min_shares")),
        ("hwmodel.cost_ns", med("hwmodel.cost_time")),
        ("scr.delta_encode_ns_per_byte", med("scr.encode_delta")),
        (
            "scr.delta_useful_ratio",
            ratio(count("scr.delta_useful"), count("scr.delta_attempts")),
        ),
        ("scr.checkpoint_ns_per_byte", med("scr.checkpoint")),
        ("scr.restart_ns_per_byte", med("scr.restart")),
        ("scr.recoveries", count("scr.recoveries")),
        ("scr.ckpts_taken", count("scr.ckpts_taken")),
        (
            "sched.independent.ns_per_event",
            med("sched.independent.run"),
        ),
        (
            "sched.node_locked.ns_per_event",
            med("sched.node_locked.run"),
        ),
        ("sched.events", count("sched.events")),
        ("sched.backfill_starts", count("sched.backfill_starts")),
        ("sched.requeues", count("sched.requeues")),
        ("core.alloc_release_ns", med("core.alloc_release")),
        (
            "obs.attached_overhead",
            median(&attached) / median(&detached),
        ),
        (
            "trace.overhead_ratio",
            median(&tr.total_secs("job")) / median(&untraced),
        ),
    ];

    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        let path = format!("{}/trace_{}_{}.json", args.out_dir, w.name(), args.seed);
        std::fs::write(&path, tr.to_json()).map(|()| path)
    });
    println!(
        "perfbench {} seed={} traced pass: {TRACE_JOBS} untraced + {TRACE_JOBS} traced jobs, \
         then layer probes (medians of per-span self time per unit)",
        w.name(),
        args.seed
    );
    match written {
        Ok(path) => println!("  spans written to {path}"),
        Err(e) => println!("  spans not written: {e}"),
    }
    for ((name, value), m) in metrics.iter().zip(registry::PER_LAYER) {
        println!(
            "  {name} = {value:.4} {} (should move {} on [{}])",
            m.unit,
            m.moves,
            m.on.join(", ")
        );
    }
    report_problems(&v);
    let registered: Vec<&str> = registry::PER_LAYER.iter().map(|m| m.name).collect();
    result_line(&v, &metrics, &registered)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.golden {
        let inputs = Inputs::setup(args.workload, args.seed, &Shape::full());
        let mut off = Tracer::new(false);
        let raw = inputs.run(&mut off);
        let c = inputs.check(&raw, true, &mut off);
        println!("{} {} {}", args.workload.name(), args.seed, c.virt);
        return if c.problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host available_parallelism={parallelism}");
    let line = if args.trace {
        traced_pass(&args)
    } else {
        timed_pass(&args, process_start)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_name_known_workloads_and_are_found_by_seed() {
        assert!(
            !GOLDENS.trim().is_empty(),
            "goldens.txt holds the default seeds"
        );
        for line in GOLDENS.lines() {
            let mut parts = line.splitn(3, ' ');
            let w = Workload::parse(parts.next().unwrap()).expect("known workload");
            let seed: u64 = parts.next().unwrap().parse().expect("numeric seed");
            assert_eq!(golden(w, seed), parts.next());
        }
        assert_eq!(golden(Workload::XpicCb, u64::MAX), None);
    }
}
