//! The traced run: the facade's job, made as the chain of public calls
//! `resolve_backend` -> `parse` -> `check_program` -> `run_program`
//! (0 shots) -> shot replay -> `to_qasm3`, with a span recorded by the
//! benchmark around each call and the program's own `qutes::obs`
//! counters read back after it.

use crate::workload::{Histogram, Job};
use crate::JobOutput;
use qutes::obs::{self, Snapshot};
use qutes::qcirc::{execute, BackendChoice, ExecutionConfig};
use qutes::RunConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval recorded by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, job: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) -> u64 {
        let end = self.now();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Runs `f` as a child span of `parent` and returns its result and
    /// the obs snapshot of exactly that call. The collector reset before
    /// and the snapshot after are recorded as `trace.obs` spans, so they
    /// are not mistaken for glue.
    fn call<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64, Snapshot) {
        let b = self.open("trace.obs", job, Some(parent));
        obs::reset();
        self.close(b);
        let s = self.open(name, job, Some(parent));
        let out = f();
        let ns = self.close(s);
        let b = self.open("trace.obs", job, Some(parent));
        let snap = obs::snapshot();
        self.close(b);
        (out, ns, snap)
    }
}

/// Per-layer work and self time, summed over jobs. Times are ns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    pub job_ns: u64,
    pub lex_ns: u64,
    pub parse_ns: u64,
    pub tokens: u64,
    pub parse_calls: u64,
    pub dispatch_ns: u64,
    pub estimate_ns: u64,
    pub tableau_jobs: u64,
    pub glue_ns: u64,
    pub typecheck_ns: u64,
    pub interp_ns: u64,
    pub qubits: u64,
    pub gates: u64,
    pub kernel_ns: u64,
    pub kernel_calls: u64,
    pub kernel_parallel: u64,
    pub kernel_serial: u64,
    pub amps_touched: u64,
    pub execute_ns: u64,
    pub optimize_ns: u64,
    pub opt_before: u64,
    pub gates_after_opt: u64,
    pub per_shot_jobs: u64,
    pub shots: u64,
    pub export_ns: u64,
    pub qasm_bytes: u64,
    /// `kernel.*`, `backend.mode.*` and `opt.*` from `qutes::obs`.
    pub obs: BTreeMap<String, u64>,
}

impl Layers {
    /// The counts that must repeat exactly for a seed.
    pub fn work_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("frontend.tokens", self.tokens),
            ("frontend.parse_calls", self.parse_calls),
            ("core.qubits", self.qubits),
            ("core.gates", self.gates),
            ("qcirc.gates_after_opt", self.gates_after_opt),
            ("qcirc.shots", self.shots),
            ("qsim.amps_touched", self.amps_touched),
            ("analysis.tableau_jobs", self.tableau_jobs),
        ]
    }

    /// Self time of every layer; together they make up `job_ns`.
    pub fn self_times(&self) -> [(&'static str, u64); 10] {
        [
            ("frontend.lex_ns", self.lex_ns),
            ("frontend.parse_ns", self.parse_ns),
            ("analysis.estimate_ns", self.estimate_ns),
            ("core.typecheck_ns", self.typecheck_ns),
            ("core.interp_ns", self.interp_ns),
            ("qsim.kernel_ns", self.kernel_ns),
            ("qcirc.optimize_ns", self.optimize_ns),
            ("qcirc.execute_ns", self.execute_ns),
            ("qasm.export_ns", self.export_ns),
            ("facade.glue_ns", self.glue_ns),
        ]
    }

    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            job_ns,
            lex_ns,
            parse_ns,
            tokens,
            parse_calls,
            dispatch_ns,
            estimate_ns,
            tableau_jobs,
            glue_ns,
            typecheck_ns,
            interp_ns,
            qubits,
            gates,
            kernel_ns,
            kernel_calls,
            kernel_parallel,
            kernel_serial,
            amps_touched,
            execute_ns,
            optimize_ns,
            opt_before,
            gates_after_opt,
            per_shot_jobs,
            shots,
            export_ns,
            qasm_bytes
        );
        for (k, v) in &o.obs {
            *self.obs.entry(k.clone()).or_insert(0) += v;
        }
    }
}

fn timer(s: &Snapshot, name: &str) -> (u64, u64) {
    s.timers
        .get(name)
        .map_or((0, 0), |t| (t.count, t.total_ns as u64))
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn keep_obs(into: &mut BTreeMap<String, u64>, s: &Snapshot) {
    for (k, v) in &s.counters {
        if ["kernel.", "backend.mode.", "opt."]
            .iter()
            .any(|p| k.starts_with(p))
        {
            *into.entry(k.to_string()).or_insert(0) += v;
        }
    }
    for (k, t) in &s.timers {
        if k.starts_with("kernel.") {
            *into.entry(format!("{k}.ns")).or_insert(0) += t.total_ns as u64;
            *into.entry(format!("{k}.calls")).or_insert(0) += t.count;
        }
    }
}

/// Runs one job as the traced chain. `tokens` is the job's token count,
/// used to count the tokens each lex call reads.
pub fn run_job(
    rec: &mut Recorder,
    job: &Job,
    cfg: &RunConfig,
    tokens: u64,
    layers: &mut Layers,
) -> Result<JobOutput, String> {
    let root = rec.open("job", job.id, None);
    let result = chain(rec, job, cfg, root, tokens, layers);
    let job_ns = rec.close(root);
    // Glue: job time the child spans leave unassigned, minus the
    // benchmark's own obs bookkeeping.
    let (mut children, mut bookkeeping) = (0u64, 0u64);
    for s in rec.spans.iter().skip(root + 1) {
        if s.parent == Some(root) {
            if s.name == "trace.obs" {
                bookkeeping += s.end_ns - s.start_ns;
            } else {
                children += s.end_ns - s.start_ns;
            }
        }
    }
    layers.job_ns += job_ns.saturating_sub(bookkeeping);
    layers.glue_ns += job_ns.saturating_sub(children + bookkeeping);
    result
}

fn chain(
    rec: &mut Recorder,
    job: &Job,
    cfg: &RunConfig,
    root: usize,
    tokens: u64,
    l: &mut Layers,
) -> Result<JobOutput, String> {
    let id = job.id;
    let src = job.source.as_str();
    // One interrupt handle for the whole job, as `qutes_core::run_source`
    // arms it: the interpreter and the shot replay observe the same one.
    let intr = cfg.effective_interrupt();

    let (resolved, ns, snap) = rec.call("facade.resolve_backend", id, root, || {
        qutes::resolve_backend(src, cfg)
    });
    let (lex_n, lex_ns) = timer(&snap, "stage.lex");
    let (parse_n, parse_ns) = timer(&snap, "stage.parse");
    l.lex_ns += lex_ns;
    l.parse_ns += parse_ns;
    l.tokens += tokens * lex_n;
    l.parse_calls += parse_n;
    l.dispatch_ns += ns;
    l.estimate_ns += ns.saturating_sub(lex_ns + parse_ns);
    l.tableau_jobs += u64::from(resolved == BackendChoice::Tableau);

    let (program, ns, snap) = rec.call("frontend.parse", id, root, || qutes::parse(src));
    let (lex_n, lex_ns) = timer(&snap, "stage.lex");
    l.lex_ns += lex_ns;
    l.parse_ns += ns.saturating_sub(lex_ns);
    l.tokens += tokens * lex_n;
    l.parse_calls += timer(&snap, "stage.parse").0;
    let program = program.map_err(|d| format!("parse: {d:?}"))?;

    let (diags, ns, _) = rec.call("core.check_program", id, root, || {
        qutes::core::check_program(&program)
    });
    l.typecheck_ns += ns;
    if !diags.is_empty() {
        return Err(format!("typecheck: {diags:?}"));
    }

    let mut run_cfg = cfg.clone();
    run_cfg.backend = resolved;
    run_cfg.shots = 0;
    run_cfg.interrupt = Some(intr.clone());
    run_cfg.time_budget = None;
    let (outcome, ns, snap) = rec.call("core.run_program", id, root, || {
        qutes::core::run_program(&program, &run_cfg)
    });
    let outcome = outcome.map_err(|e| e.to_string())?;
    let (kernel_calls, kernel_ns) = snap
        .timers
        .iter()
        .filter(|(k, _)| k.starts_with("kernel."))
        .fold((0, 0), |(c, n), (_, t)| {
            (c + t.count, n + t.total_ns as u64)
        });
    l.kernel_ns += kernel_ns;
    l.kernel_calls += kernel_calls;
    l.kernel_parallel += counter(&snap, "kernel.dispatch.parallel");
    l.kernel_serial += counter(&snap, "kernel.dispatch.serial");
    l.interp_ns += ns.saturating_sub(kernel_ns);
    let gates = outcome.circuit.len() as u64;
    l.qubits += outcome.qubits_used as u64;
    l.gates += gates;
    if resolved != BackendChoice::Tableau {
        let amps = 1u64
            .checked_shl(outcome.qubits_used as u32)
            .unwrap_or(u64::MAX);
        l.amps_touched = l.amps_touched.saturating_add(gates.saturating_mul(amps));
    }
    keep_obs(&mut l.obs, &snap);

    // The shot replay, configured and entered as `qutes_core` does it:
    // the supervised entry point when the degrade policy allows partial
    // histograms (the default), `run_shots_cfg` otherwise.
    let hist = if cfg.shots > 0 && outcome.circuit.num_clbits() > 0 {
        let mut exec = ExecutionConfig::default()
            .with_shots(cfg.shots)
            .with_seed(cfg.seed)
            .with_opt_level(cfg.opt_level)
            .with_observe(cfg.observe)
            .with_shot_threads(cfg.shot_threads)
            .with_interrupt(intr.clone())
            .with_backend(match resolved {
                BackendChoice::Auto => BackendChoice::Statevector,
                other => other,
            });
        if let Some(nm) = &cfg.noise {
            exec = exec.with_noise(nm.clone());
        }
        if let Some(b) = cfg.memory_budget_bytes {
            exec = exec.with_memory_budget(b);
        }
        let (counts, ns, snap) = if cfg.degrade.allow_partial {
            let (r, ns, snap) = rec.call("qcirc.run_shots_supervised", id, root, || {
                execute::run_shots_supervised(&outcome.circuit, &exec)
            });
            (r.map(|o| o.counts), ns, snap)
        } else {
            rec.call("qcirc.run_shots_cfg", id, root, || {
                execute::run_shots_cfg(&outcome.circuit, &exec)
            })
        };
        let counts = counts.map_err(|e| e.to_string())?;
        let (_, opt_ns) = timer(&snap, "stage.optimize");
        l.optimize_ns += opt_ns;
        l.execute_ns += ns.saturating_sub(opt_ns);
        l.opt_before += counter(&snap, "opt.gates_before");
        l.gates_after_opt += counter(&snap, "opt.gates_after");
        l.per_shot_jobs += u64::from(counter(&snap, "backend.mode.per_shot") > 0);
        l.shots += counts.shots() as u64;
        keep_obs(&mut l.obs, &snap);
        Some(Histogram::from_counts(&counts))
    } else {
        None
    };

    let qasm = if job.export {
        let (qasm, ns, _) = rec.call("qasm.to_qasm3", id, root, || {
            qutes::to_qasm3(&outcome.circuit)
        });
        let qasm = qasm.map_err(|e| e.to_string())?;
        l.export_ns += ns;
        l.qasm_bytes += qasm.len() as u64;
        Some(qasm)
    } else {
        None
    };

    Ok(JobOutput {
        output: outcome.output,
        hist,
        qasm,
    })
}
