//! End-to-end and per-layer benchmark of the Qutes pipeline.
//!
//! ```text
//! python3 perfbench/run.py --workload frontdoor --seed 1 --seconds 30 --trace 0
//! python3 perfbench/run.py --self-test
//! ```
//!
//! One client, one process on one CPU, closed loop: each job is one call to
//! `qutes::run_source` (what `qutes run` calls), the next sent only after
//! the previous one returns. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates an untraced and a traced pass over the same job
//! list and reports the per-layer metrics. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/REASONING.md` for why each workload and metric exists.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{
    check_histogram, check_lines, generate, load_examples, Examples, Histogram, Job, WORKLOADS,
};

/// Set-ups per run; `setup_s` is their median. The first runs before
/// timing starts, the others at even intervals of the run, between
/// blocks, so that a stall of the host touches few of them.
const SETUPS: usize = 9;

/// Latencies reserved per slot: more blocks than a 60 s run completes.
const SLOT_RESERVE: usize = 128;

/// What one job returns, in a form that compares bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    pub output: Vec<String>,
    pub hist: Option<Histogram>,
    pub qasm: Option<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Thread cap handed to the program: the CPUs this process may use, as
/// the program's kernels count them. `run.py` pins the benchmark to one
/// CPU, so the cap is 1 there.
fn thread_cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_config(job: &Job) -> qutes::RunConfig {
    qutes::RunConfig {
        shots: job.shots,
        noise: job
            .noisy
            .then(|| qutes::sim::NoiseModel::depolarizing(workload::NOISE)),
        shot_threads: thread_cap(),
        ..qutes::RunConfig::default()
    }
}

/// One job through the facade, as `qutes run` makes it.
fn facade_job(job: &Job) -> Result<JobOutput, String> {
    let out =
        qutes::run_source(black_box(&job.source), &run_config(job)).map_err(|e| e.to_string())?;
    let qasm = if job.export {
        Some(qutes::to_qasm3(&out.circuit).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(JobOutput {
        output: out.output,
        hist: out.counts.as_ref().map(Histogram::from_counts),
        qasm,
    })
}

fn check(job: &Job, r: &Result<JobOutput, String>) -> Result<(), String> {
    let out = r.as_ref().map_err(|e| format!("error: {e}"))?;
    check_lines(job, &out.output)?;
    check_histogram(job, out.hist.as_ref())?;
    if let Some(q) = &out.qasm {
        if !q.contains("OPENQASM 3.0;") {
            return Err("to_qasm3 output has no OPENQASM 3.0 header".into());
        }
    }
    Ok(())
}

/// Jobs attempted and the failures among them, each with its job.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, job: &Job, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failures
                .push(format!("job {} {}: {e}", job.id, job.name));
        }
    }
}

/// Loads the examples and generates the first block of jobs, then runs
/// its shipped (seed-independent) jobs and the workload's warm-up jobs
/// once. Returns the examples, the block and the time taken.
fn setup(a: &Args, tally: &mut Tally) -> Result<(Examples, Vec<Job>, f64), String> {
    let t0 = Instant::now();
    let examples = load_examples(Path::new("."))?;
    let jobs = generate(&a.workload, a.seed, 0, &examples)?;
    let extra = workload::warmup(&a.workload);
    for job in jobs.iter().filter(|j| j.shipped()).chain(&extra) {
        let r = facade_job(job);
        tally.record(job, check(job, &r));
    }
    Ok((examples, jobs, t0.elapsed().as_secs_f64()))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least 10 samples beyond it: its value
/// and the percentile. With 10 samples or fewer, the maximum.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(0.0), 100.0);
    }
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total ticks of all CPUs so far (`/proc/stat`): time the
/// hypervisor gave this VM's vCPUs to someone else.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Share of CPU time stolen by the hypervisor since `from`.
fn steal_share(from: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    let d = total.saturating_sub(from.1);
    if d == 0 {
        0.0
    } else {
        steal.saturating_sub(from.0) as f64 / d as f64
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Run facts: host, toolchain, source and the settings of this run.
/// `run.py` supplies what needs a subprocess or the file tree in
/// `PERFBENCH_PROVENANCE` (a JSON object).
fn provenance(a: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let outer = std::env::var("PERFBENCH_PROVENANCE").unwrap_or_else(|_| "{}".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"thread_cap\": {{\"shot_threads\": {}, \"kernel_threads\": {}}}, \"cpu_model\": {}, \"build_profile\": \"{profile}\", \"host\": {outer}}}",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        thread_cap(),
        thread_cap(),
        qutes::sim::parallel::num_threads(),
        json_str(&cpu),
    )
}

/// A metric for the result line and its human-readable echo.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted,
        tally.failures.len(),
        body.join(", ")
    );
}

/// `--trace 0`: whole blocks of the job stream, closed loop, until
/// `--seconds` have gone by, then the end-to-end metrics.
fn end_to_end(a: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let (examples, mut jobs, t) = setup(a, &mut tally)?;
    let mut setup_times = vec![t];
    let budget = Duration::from_secs_f64(a.seconds);
    let ticks = cpu_ticks();
    let start = Instant::now();
    // Set-ups inside the run do not count against `--seconds`.
    let mut in_setup = Duration::ZERO;
    // Latencies of each slot of the block make-up, over the blocks, as
    // f32 (7 significant digits) and reserved up front, so the
    // benchmark's own bookkeeping adds about the same to `peak_rss_mb`
    // however many blocks a run completes.
    let mut slot_ms: Vec<Vec<f32>> = (0..jobs.len())
        .map(|_| Vec::with_capacity(SLOT_RESERVE))
        .collect();
    let mut shots = 0u64;
    let mut blocks = 0u64;
    while blocks == 0 || start.elapsed() - in_setup < budget {
        let due = budget.mul_f64(setup_times.len() as f64 / SETUPS as f64);
        if setup_times.len() < SETUPS && start.elapsed() - in_setup >= due {
            let t = Instant::now();
            setup_times.push(setup(a, &mut tally)?.2);
            in_setup += t.elapsed();
        }
        if blocks > 0 {
            jobs = generate(&a.workload, a.seed, blocks, &examples)?;
        }
        for job in &jobs {
            let t = Instant::now();
            let r = black_box(facade_job(job));
            slot_ms[job.slot].push((t.elapsed().as_secs_f64() * 1e3) as f32);
            shots += job.shots as u64;
            tally.record(job, check(job, &r));
        }
        blocks += 1;
    }
    // A run shorter than the set-ups' schedule makes the rest now.
    while setup_times.len() < SETUPS {
        setup_times.push(setup(a, &mut tally)?.2);
    }
    let peak_mb = peak_rss_mb();
    let setup_s = median(&mut setup_times);
    let mut slot_ms: Vec<Vec<f64>> = slot_ms
        .into_iter()
        .map(|v| v.into_iter().map(f64::from).collect())
        .collect();
    let mut lat_ms: Vec<f64> = slot_ms.iter().flatten().copied().collect();
    // A block's jobs over the block's time at the median latency of each
    // of its slots: throughput as the program sustains it, which a host
    // stall or a burst of another tenant's work on the CPU moves less
    // than it moves a sum of all latencies.
    let block_ms: f64 = slot_ms.iter_mut().map(|v| median(v)).sum();
    let jobs_per_s = 1e3 * slot_ms.len() as f64 / block_ms;
    let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let jobs_done = lat_ms.len();
    let p50 = median(&mut lat_ms);
    let (tail_ms, tail_pct) = tail(&lat_ms);
    let fail_ratio = tally.failures.len() as f64 / tally.attempted as f64;
    println!("provenance {}", provenance(a));
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * steal_share(ticks)
    );
    println!(
        "closed loop: 1 client, {} jobs per block, {blocks} blocks, {jobs_done} timed jobs; job_tail_ms is p{tail_pct:.2} ({jobs_done} samples)",
        jobs.len()
    );
    println!(
        "metric {:<24} {:>16.6} 1/s",
        "shots_per_s",
        shots as f64 / busy_s
    );
    println!(
        "metric {:<24} {:>16.6} 1/s (all timed jobs over their summed latency)",
        "jobs_per_busy_s",
        jobs_done as f64 / busy_s
    );
    println!(
        "metric {:<24} {:>16.6} ratio ({} of {} jobs)",
        "fail_ratio",
        fail_ratio,
        tally.failures.len(),
        tally.attempted
    );
    let metrics = [
        metric("setup_s", setup_s, "s"),
        metric("job_p50_ms", p50, "ms"),
        metric("job_tail_ms", tail_ms, "ms"),
        metric("jobs_per_s", jobs_per_s, "1/s"),
        metric("peak_rss_mb", peak_mb, "MiB"),
    ];
    print_result(&tally, &metrics);
    Ok(())
}

/// Token count of each job, for `frontend.tokens`.
fn token_counts(jobs: &[Job]) -> Vec<u64> {
    jobs.iter()
        .map(|j| qutes::frontend::lex(&j.source).map_or(0, |t| t.len() as u64))
        .collect()
}

/// One untraced pass then one traced pass over `jobs`. Traced outputs
/// must equal the untraced ones bit for bit. Returns the traced layers
/// and the untraced pass time in ns.
fn traced_pair(
    jobs: &[Job],
    tokens: &[u64],
    rec: &mut trace::Recorder,
    tally: &mut Tally,
) -> (trace::Layers, u64) {
    qutes::obs::set_enabled(false);
    let mut plain = Vec::with_capacity(jobs.len());
    let mut plain_ns = 0u64;
    for job in jobs {
        let t = Instant::now();
        let r = black_box(facade_job(job));
        plain_ns += t.elapsed().as_nanos() as u64;
        tally.record(job, check(job, &r));
        plain.push(r);
    }
    qutes::obs::set_enabled(true);
    let mut layers = trace::Layers::default();
    for ((job, &tok), untraced) in jobs.iter().zip(tokens).zip(&plain) {
        let r = trace::run_job(rec, job, &run_config(job), tok, &mut layers);
        let verdict = check(job, &r).and_then(|()| match (&r, untraced) {
            (Ok(t), Ok(u)) if t != u => Err("traced output differs from untraced".to_string()),
            _ => Ok(()),
        });
        tally.record(job, verdict);
    }
    qutes::obs::set_enabled(false);
    (layers, plain_ns)
}

/// `--trace 1`: untraced/traced pass pairs until `--seconds` have gone
/// by. Times are per-pass means; counts are per pass and must repeat
/// exactly in every pass.
fn per_layer(a: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let (_, jobs, _) = setup(a, &mut tally)?;
    let tokens = token_counts(&jobs);
    let mut rec = trace::Recorder::new();
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut total = trace::Layers::default();
    let mut plain_ns = 0u64;
    let mut first: Option<Vec<(&str, u64)>> = None;
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < budget {
        let (layers, p) = traced_pair(&jobs, &tokens, &mut rec, &mut tally);
        let counts = layers.work_counts();
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                tally.failures.push(format!(
                    "pass {passes}: work counts {counts:?} differ from pass 0 {f:?}"
                ));
            }
            Some(_) => {}
        }
        total.add(&layers);
        plain_ns += p;
        passes += 1;
    }
    let per = |v: u64| v as f64 / passes as f64;
    let l = &total;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let metrics = [
        metric("frontend.lex_ns", per(l.lex_ns), "ns"),
        metric("frontend.parse_ns", per(l.parse_ns), "ns"),
        metric("frontend.tokens", per(l.tokens), "count"),
        metric("frontend.parse_calls", per(l.parse_calls), "count"),
        metric("analysis.dispatch_ns", per(l.dispatch_ns), "ns"),
        metric("analysis.estimate_ns", per(l.estimate_ns), "ns"),
        metric("analysis.tableau_jobs", per(l.tableau_jobs), "count"),
        metric("facade.glue_ns", per(l.glue_ns), "ns"),
        metric("core.typecheck_ns", per(l.typecheck_ns), "ns"),
        metric("core.interp_ns", per(l.interp_ns), "ns"),
        metric("core.qubits", per(l.qubits), "count"),
        metric("core.gates", per(l.gates), "count"),
        metric("qsim.kernel_ns", per(l.kernel_ns), "ns"),
        metric("qsim.kernel_calls", per(l.kernel_calls), "count"),
        metric(
            "qsim.parallel_share",
            ratio(l.kernel_parallel, l.kernel_parallel + l.kernel_serial),
            "ratio",
        ),
        metric("qsim.amps_touched", per(l.amps_touched), "count"),
        metric("qsim.ns_per_amp", ratio(l.kernel_ns, l.amps_touched), "ns"),
        metric("qcirc.execute_ns", per(l.execute_ns), "ns"),
        metric("qcirc.optimize_ns", per(l.optimize_ns), "ns"),
        metric("qcirc.gates_after_opt", per(l.gates_after_opt), "count"),
        metric(
            "qcirc.opt_kept_ratio",
            ratio(l.gates_after_opt, l.opt_before),
            "ratio",
        ),
        metric("qcirc.per_shot_jobs", per(l.per_shot_jobs), "count"),
        metric("qcirc.shots", per(l.shots), "count"),
        metric("qasm.export_ns", per(l.export_ns), "ns"),
        metric("qasm.bytes", per(l.qasm_bytes), "count"),
        metric("trace.overhead", ratio(l.job_ns, plain_ns), "ratio"),
    ];
    let prov = provenance(a);
    println!("provenance {prov}");
    println!("traced: {} jobs per pass, {passes} untraced/traced pass pairs; times and counts are per pass", jobs.len());
    let (top, top_ns) = l
        .self_times()
        .into_iter()
        .max_by_key(|&(_, ns)| ns)
        .unwrap_or(("none", 0));
    let front = l.lex_ns + l.parse_ns + l.estimate_ns + l.glue_ns;
    println!(
        "largest layer by self time: {top} ({:.3} ms per pass); front half + glue {:.3} ms vs qsim.kernel_ns {:.3} ms",
        per(top_ns) / 1e6,
        per(front) / 1e6,
        per(l.kernel_ns) / 1e6
    );
    let path = write_trace(a, &prov, &jobs, &rec, l, passes)?;
    println!("spans and obs counters written to {path}");
    print_result(&tally, &metrics);
    Ok(())
}

/// Writes the spans and the attached obs counters when the run ends.
fn write_trace(
    a: &Args,
    prov: &str,
    jobs: &[Job],
    rec: &trace::Recorder,
    l: &trace::Layers,
    passes: u64,
) -> Result<String, String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
    let mut s = format!("{{\"provenance\": {prov}, \"passes\": {passes}, \"self_ns\": {{");
    let selfs: Vec<String> = l
        .self_times()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    s += &selfs.join(", ");
    s += "}, \"obs\": {";
    let obs: Vec<String> = l
        .obs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    s += &obs.join(", ");
    s += "}, \"jobs\": [";
    let names: Vec<String> = jobs.iter().map(|j| json_str(&j.name)).collect();
    s += &names.join(", ");
    s += "], \"spans\": [\n";
    let spans: Vec<String> = rec
        .spans
        .iter()
        .map(|sp| {
            format!(
                "{{\"name\": \"{}\", \"job\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.name,
                sp.job,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start_ns,
                sp.end_ns
            )
        })
        .collect();
    s += &spans.join(",\n");
    s += "\n]}\n";
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `--self-test`: the job list is a function of the seed, another seed
/// changes it, and two traced passes give exactly equal work counts.
fn self_test() -> Result<(), String> {
    let examples = load_examples(Path::new("."))?;
    let mut bad = Vec::new();
    for w in WORKLOADS {
        let a = generate(w, 1, 0, &examples)?;
        for block in [0, 1] {
            if generate(w, 1, block, &examples)? != generate(w, 1, block, &examples)? {
                bad.push(format!("{w}: seed 1 gave two job lists for block {block}"));
            }
        }
        if a == generate(w, 2, 0, &examples)? || a == generate(w, 1, 1, &examples)? {
            bad.push(format!("{w}: another seed or block gave the same job list"));
        }
        let tokens = token_counts(&a);
        let mut tally = Tally::default();
        let mut rec = trace::Recorder::new();
        let (l1, _) = traced_pair(&a, &tokens, &mut rec, &mut tally);
        let (l2, _) = traced_pair(&a, &tokens, &mut rec, &mut tally);
        let (c1, c2) = (l1.work_counts(), l2.work_counts());
        println!("{w}: work counts {c1:?}");
        if c1 != c2 {
            bad.push(format!("{w}: work counts differ: {c1:?} vs {c2:?}"));
        }
        bad.extend(tally.failures.iter().map(|f| format!("{w}: {f}")));
    }
    if bad.is_empty() {
        println!("self-test passed");
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

fn main() {
    let result = parse_args().and_then(|a| {
        if a.self_test {
            self_test()
        } else if a.trace {
            per_layer(&a)
        } else {
            end_to_end(&a)
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(super::tail(&v), (90.0, 90.0));
        assert_eq!(super::tail(&v[..5]), (5.0, 100.0));
        assert_eq!(super::median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
