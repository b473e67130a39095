//! The two workloads: one untraced pass each, the correctness check of
//! its output, and a traced pass that rebuilds the same work from the
//! program's public stage calls with spans around each call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aspsolver::SolveMemo;
use provgraph::compiled::CorpusSession;
use provgraph::{diff, par, PropertyGraph};
use provmark_core::generalize::{self, Generalized, PairStrategy};
use provmark_core::pipeline::{self, BenchStatus, CellOutcome, MeasuredCell};
use provmark_core::suite::{BenchSpec, Expectation};
use provmark_core::tool::{Tool, ToolInstance, ToolKind};
use provmark_core::{compare, report, suite, BenchmarkOptions, PipelineError};
use provshard::elastic::{self, CellResult, CellTask, ElasticOptions, MemoCounters, TaskStore};
use provshard::RunConfig;

use crate::spans::{total_ms, Recorder, Span, SpanId};
use crate::sys::Scratch;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 2] = ["table2_quick", "drive_quick"];

/// End-to-end metrics `(name, unit)`, printed for every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("process.cpu_s", "s"),
    ("tool.record.spade_ms", "ms"),
    ("tool.record.opus_ms", "ms"),
    ("tool.record.camflow_ms", "ms"),
    ("tool.transform.spade_ms", "ms"),
    ("tool.transform.opus_ms", "ms"),
    ("tool.transform.camflow_ms", "ms"),
    ("generalize.spade_ms", "ms"),
    ("generalize.opus_ms", "ms"),
    ("generalize.camflow_ms", "ms"),
    ("compiled.add_ms", "ms"),
    ("compare_ms", "ms"),
    ("report_ms", "ms"),
    ("aspsolver.memo_lookups", "count"),
    ("aspsolver.memo_misses", "count"),
    ("aspsolver.memo_hit_ratio", "ratio"),
    ("graph.trial_elements", "count"),
    ("par.idle_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("elastic.plan_ms", "ms"),
    ("elastic.claim_ms", "ms"),
    ("elastic.heartbeat_ms", "ms"),
    ("elastic.cell_ms", "ms"),
    ("elastic.publish_ms", "ms"),
    ("elastic.harvest_ms", "ms"),
    ("elastic.wait_ms", "ms"),
    ("elastic.requeues", "count"),
    ("elastic.stale_publishes", "count"),
    ("elastic.workers_spawned", "count"),
];

/// Span names of the cell stages, and the per-layer metric each feeds.
const STAGES: [(&str, &str); 11] = [
    ("tool.record.spade", "tool.record.spade_ms"),
    ("tool.record.opus", "tool.record.opus_ms"),
    ("tool.record.camflow", "tool.record.camflow_ms"),
    ("tool.transform.spade", "tool.transform.spade_ms"),
    ("tool.transform.opus", "tool.transform.opus_ms"),
    ("tool.transform.camflow", "tool.transform.camflow_ms"),
    ("generalize.spade", "generalize.spade_ms"),
    ("generalize.opus", "generalize.opus_ms"),
    ("generalize.camflow", "generalize.camflow_ms"),
    ("compiled.add", "compiled.add_ms"),
    ("compare", "compare_ms"),
];

/// Span names of the elastic protocol steps the drive replay times.
const ELASTIC: [(&str, &str); 6] = [
    ("elastic.plan", "elastic.plan_ms"),
    ("elastic.claim", "elastic.claim_ms"),
    ("elastic.heartbeat", "elastic.heartbeat_ms"),
    ("elastic.cell", "elastic.cell_ms"),
    ("elastic.publish", "elastic.publish_ms"),
    ("elastic.harvest", "elastic.harvest_ms"),
];

/// Per-layer values of one pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Outputs checked and outputs found wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Outputs checked (cells or runs).
    pub attempted: u64,
    /// Outputs that did not match their reference.
    pub failed: u64,
}

impl Check {
    /// Fold another check into this one.
    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One measured pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall-clock of the program calls, excluding checks and clean-up.
    pub wall_s: f64,
    /// Correctness of the pass's output.
    pub check: Check,
    /// Per-layer values (traced passes; counters of untraced drives).
    pub layers: Layers,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Table2,
    Drive,
}

/// The reference Table 2 report and its cells in canonical order.
struct Reference {
    report: String,
    cells: Vec<CellOutcome>,
}

/// Inputs generated during set-up.
#[derive(Default)]
struct Inputs {
    rows: Vec<Expectation>,
    names: Vec<String>,
    specs: Vec<BenchSpec>,
    tasks: Vec<CellTask>,
}

/// One workload, bound to a seed and a scratch directory.
pub struct Bench<'s> {
    kind: Kind,
    cfg: RunConfig,
    threads: usize,
    scratch: &'s Scratch,
    reference: Reference,
    inputs: Inputs,
}

impl<'s> Bench<'s> {
    /// Bind workload `name` to `seed` and build its correctness oracle:
    /// the Table 2 report computed cell by cell, sequentially and without
    /// a solve memo. Not timed.
    pub fn new(
        name: &str,
        seed: u64,
        threads: usize,
        scratch: &'s Scratch,
    ) -> Result<Self, String> {
        let kind = match name {
            "table2_quick" => Kind::Table2,
            "drive_quick" => Kind::Drive,
            _ => return Err(format!("unknown workload `{name}`")),
        };
        let mut cfg = RunConfig::quick();
        cfg.opts.base_seed = seed;
        let reference = reference(&cfg)?;
        Ok(Bench {
            kind,
            cfg,
            threads,
            scratch,
            reference,
            inputs: Inputs::default(),
        })
    }

    /// Set-up's input generation: specs, the cell plan.
    pub fn generate_inputs(&mut self) {
        let mut inputs = Inputs::default();
        match self.kind {
            Kind::Table2 => {
                inputs.rows = suite::table2();
                inputs.names = inputs.rows.iter().map(|e| e.syscall.to_owned()).collect();
                inputs.specs = inputs
                    .rows
                    .iter()
                    .filter_map(|e| suite::spec(e.syscall))
                    .collect();
            }
            Kind::Drive => inputs.tasks = elastic::plan_cells(&self.cfg),
        }
        self.inputs = inputs;
    }

    /// Passes timed back to back as one untraced sample. A `table2_quick`
    /// pass takes 0.15-0.35 s on a 2-vCPU host; one-pass samples that
    /// short spread by more than a quarter between runs, four of them
    /// last over a second. A drive pass lasts seconds.
    pub fn sample_passes(&self) -> usize {
        match self.kind {
            Kind::Table2 => 4,
            Kind::Drive => 1,
        }
    }

    /// One untraced pass.
    pub fn pass(&self) -> Pass {
        match self.kind {
            Kind::Table2 => self.table2_pass(),
            Kind::Drive => self.drive_pass(),
        }
    }

    /// One traced pass: the same work rebuilt from public calls, with a
    /// span around each.
    pub fn traced_pass(&self, rec: &Recorder) -> Pass {
        match self.kind {
            Kind::Table2 => self.table2_traced(rec),
            Kind::Drive => self.drive_replay(rec),
        }
    }

    /// Per-layer values derived from both kinds of pass: the harness's
    /// tracing overhead on the matrix workload (traced minus untraced
    /// pass wall), the protocol's waiting time on the drive.
    pub fn derive(&self, untraced_wall_ms: f64, traced_wall_ms: f64, layers: &mut Layers) {
        if self.kind == Kind::Drive {
            let wait = elastic_wait_ms(self.threads, untraced_wall_ms, layers);
            layers.insert("elastic.wait_ms", wait);
        } else {
            layers.insert("trace.overhead_ms", traced_wall_ms - untraced_wall_ms);
        }
    }

    fn table2_pass(&self) -> Pass {
        let t = crate::spans::now();
        let rows = pipeline::run_matrix_cells(
            &self.inputs.names,
            &self.cfg.opts,
            self.cfg.opus_db_iterations,
        );
        let rows: Vec<(Expectation, [CellOutcome; 3])> = match rows {
            Ok(rows) => rows
                .iter()
                .map(|(exp, cells)| (*exp, outcomes(cells)))
                .collect(),
            Err(_) => Vec::new(),
        };
        let report = report::render_matrix_report(&rows);
        let wall_s = t.elapsed().as_secs_f64();
        Pass {
            wall_s,
            check: self.check_rows(&rows, &report),
            ..Pass::default()
        }
    }

    fn table2_traced(&self, rec: &Recorder) -> Pass {
        let memo = SolveMemo::new();
        let elements = AtomicU64::new(0);
        let t = crate::spans::now();
        let pass = rec.span("pass", None);
        let cells: Vec<[CellOutcome; 3]> = par::par_map(&self.inputs.specs, |spec| {
            let row = rec.span("row", pass.id());
            ToolKind::all().map(|kind| {
                rebuild_cell(spec, kind, &self.cfg, Some(&memo), rec, row.id(), &elements)
            })
        });
        let rows: Vec<(Expectation, [CellOutcome; 3])> =
            self.inputs.rows.iter().copied().zip(cells).collect();
        let report = {
            let _s = rec.span("report", pass.id());
            report::render_matrix_report(&rows)
        };
        drop(pass);
        let wall_s = t.elapsed().as_secs_f64();
        let spans = rec.take();
        let threads = self.threads.min(self.inputs.specs.len());
        let layers = matrix_layers(
            &spans,
            threads,
            memo.hits(),
            memo.misses(),
            elements.into_inner(),
        );
        let mut check = self.check_rows(&rows, &report);
        check.failed += u64::from(span_invariants(&spans, &layers).is_err());
        Pass {
            wall_s,
            check,
            layers,
            spans,
        }
    }

    fn drive_pass(&self) -> Pass {
        let dir = self.scratch.fresh("drive");
        let t = crate::spans::now();
        let outcome = elastic::drive_elastic_in_process(
            self.threads,
            &self.cfg,
            &dir,
            &ElasticOptions::quick(),
        );
        let wall_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let attempted = self.reference_cells() as u64;
        let Ok(outcome) = outcome else {
            return Pass {
                wall_s,
                check: Check {
                    attempted,
                    failed: attempted,
                },
                ..Pass::default()
            };
        };
        let reference = self.reference.report.as_str();
        let differing_lines = outcome
            .report
            .lines()
            .zip(reference.lines())
            .filter(|(a, b)| a != b)
            .count()
            + outcome
                .report
                .lines()
                .count()
                .abs_diff(reference.lines().count());
        let failed = if outcome.report == reference && outcome.failures.is_empty() {
            0
        } else {
            (outcome.failures.len() + differing_lines).clamp(1, attempted as usize) as u64
        };
        let mut layers = memo_layers(outcome.memo.hits, outcome.memo.misses);
        layers.insert("elastic.requeues", outcome.requeues as f64);
        layers.insert("elastic.stale_publishes", outcome.stale_publishes as f64);
        layers.insert("elastic.workers_spawned", outcome.workers_spawned as f64);
        Pass {
            wall_s,
            check: Check { attempted, failed },
            layers,
            spans: Vec::new(),
        }
    }

    /// The elastic protocol replayed from outside over the same planned
    /// cells: `threads` workers claim, heartbeat once, run and publish
    /// each cell, then one harvest reads every result back.
    fn drive_replay(&self, rec: &Recorder) -> Pass {
        let dir = self.scratch.fresh("replay");
        let errors = Mutex::new(Vec::new());
        let t = crate::spans::now();
        let pass = rec.span("pass", None);
        let store = {
            let _s = rec.span("elastic.plan", pass.id());
            TaskStore::init(&dir, &self.inputs.tasks)
        };
        let rows = store.map_err(|e| e.to_string()).and_then(|store| {
            std::thread::scope(|scope| {
                for worker in 0..self.threads {
                    let (store, errors, parent) = (&store, &errors, pass.id());
                    scope.spawn(move || {
                        if let Err(e) = replay_worker(store, worker, rec, parent) {
                            errors
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(e.to_string());
                        }
                    });
                }
            });
            let _s = rec.span("elastic.harvest", pass.id());
            harvest(&store).map_err(|e| e.to_string())
        });
        drop(pass);
        let wall_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let spans = rec.take();
        let layers: Layers = ELASTIC
            .iter()
            .map(|&(span, metric)| (metric, total_ms(&spans, span)))
            .collect();
        let errors = errors.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut check = match rows {
            Ok(rows) if errors.is_empty() => {
                self.check_rows(&rows, &report::render_matrix_report(&rows))
            }
            _ => {
                for e in errors.iter() {
                    eprintln!("drive replay: {e}");
                }
                let n = self.reference_cells() as u64;
                Check {
                    attempted: n,
                    failed: n,
                }
            }
        };
        check.failed += u64::from(span_invariants(&spans, &layers).is_err());
        Pass {
            wall_s,
            check,
            layers,
            spans,
        }
    }

    fn reference_cells(&self) -> usize {
        self.reference.cells.len()
    }

    /// Check matrix rows cell by cell against the reference and against
    /// the paper's Table 2, and the rendered report byte for byte.
    fn check_rows(&self, rows: &[(Expectation, [CellOutcome; 3])], report: &str) -> Check {
        let reference = &self.reference;
        let attempted = reference.cells.len();
        let mut failed = attempted.saturating_sub(rows.len() * 3);
        for (i, (exp, cells)) in rows.iter().enumerate() {
            for (t, (cell, expected)) in cells
                .iter()
                .zip([exp.spade, exp.opus, exp.camflow])
                .enumerate()
            {
                let agrees = cell.completed() && cell.is_ok() == expected.is_ok();
                if !agrees || reference.cells.get(i * 3 + t) != Some(cell) {
                    failed += 1;
                }
            }
        }
        if failed == 0 && report != reference.report {
            failed = 1;
        }
        Check {
            attempted: attempted as u64,
            failed: failed.min(attempted) as u64,
        }
    }
}

/// The reference report: every cell run on its own, in order, through
/// `run_matrix_cell` with the solve memo off.
fn reference(cfg: &RunConfig) -> Result<Reference, String> {
    let opts = BenchmarkOptions {
        use_solve_memo: false,
        ..cfg.opts.clone()
    };
    let mut cells = Vec::new();
    for exp in suite::table2() {
        for tool in 0..ToolKind::all().len() {
            let cell = pipeline::run_matrix_cell(exp.syscall, tool, &opts, cfg.opus_db_iterations)
                .map_err(|e| format!("reference cell {}/{tool}: {e}", exp.syscall))?;
            cells.push((exp.syscall.to_owned(), tool, cell));
        }
    }
    let rows = pipeline::merge_matrix_cells(cells).map_err(|e| e.to_string())?;
    Ok(Reference {
        report: report::render_matrix_report(&rows),
        cells: rows.into_iter().flat_map(|(_, cells)| cells).collect(),
    })
}

fn outcomes(cells: &[MeasuredCell; 3]) -> [CellOutcome; 3] {
    std::array::from_fn(|i| CellOutcome::of(&cells[i]))
}

/// The tool of one matrix column, as the matrix runners build it: OPUS
/// with the run's simulated Neo4j start-up cost, the others at baseline.
fn tool_for(kind: ToolKind, cfg: &RunConfig) -> Tool {
    match (kind, cfg.opus_db_iterations) {
        (ToolKind::Opus, Some(iters)) => Tool::Opus(opus::OpusConfig {
            db_startup_iterations: iters,
            ..opus::OpusConfig::default()
        }),
        _ => Tool::baseline(kind),
    }
}

/// Span names of one tool's record, transform and generalize stages.
fn stage_spans(kind: ToolKind) -> [&'static str; 3] {
    match kind {
        ToolKind::Spade | ToolKind::SpadeNeo4j => [
            "tool.record.spade",
            "tool.transform.spade",
            "generalize.spade",
        ],
        ToolKind::Opus => ["tool.record.opus", "tool.transform.opus", "generalize.opus"],
        ToolKind::CamFlow => [
            "tool.record.camflow",
            "tool.transform.camflow",
            "generalize.camflow",
        ],
    }
}

/// One matrix cell rebuilt from the public stage calls (record →
/// transform → generalize, per variant; then the comparison's session
/// adds and `compare_in`), in the order the pipeline makes them, so the
/// outcome equals the pipeline's.
fn rebuild_cell(
    spec: &BenchSpec,
    kind: ToolKind,
    cfg: &RunConfig,
    memo: Option<&SolveMemo>,
    rec: &Recorder,
    parent: Option<SpanId>,
    elements: &AtomicU64,
) -> CellOutcome {
    let cell = rec.span("cell", parent);
    let mut inst = tool_for(kind, cfg).instantiate();
    let stages = Stages {
        names: stage_spans(kind),
        memo,
        rec,
        parent: cell.id(),
        elements,
    };
    stages
        .run(&mut inst, spec, &cfg.opts)
        .unwrap_or_else(|e| CellOutcome {
            status: format!("error: {e}"),
            matching_cost: None,
            discarded_trials: None,
            result_size: None,
        })
}

/// What the stages of one rebuilt cell share.
struct Stages<'a> {
    names: [&'static str; 3],
    memo: Option<&'a SolveMemo>,
    rec: &'a Recorder,
    parent: Option<SpanId>,
    elements: &'a AtomicU64,
}

impl Stages<'_> {
    fn run(
        &self,
        inst: &mut ToolInstance,
        spec: &BenchSpec,
        opts: &BenchmarkOptions,
    ) -> Result<CellOutcome, PipelineError> {
        if opts.trials < 2 {
            return Err(PipelineError::NotEnoughTrials(opts.trials));
        }
        let mut session = CorpusSession::new();
        let bg = self.variant(inst, &mut session, spec, opts, "background", opts.base_seed)?;
        let fg_seed = opts.base_seed.wrapping_add(10_000);
        let fg = self.variant(inst, &mut session, spec, opts, "foreground", fg_seed)?;
        let (bg_id, fg_id) = {
            let _s = self.rec.span("compiled.add", self.parent);
            (session.add(&bg.graph), session.add(&fg.graph))
        };
        let cmp = {
            let _s = self.rec.span("compare", self.parent);
            compare::compare_in(&session, bg_id, fg_id, &fg.graph, self.memo)?
        };
        let status = if diff::effective_size(&cmp.result) == 0 {
            BenchStatus::Empty
        } else {
            BenchStatus::Ok
        };
        Ok(CellOutcome {
            status: status.render().to_owned(),
            matching_cost: Some(cmp.matching_cost),
            discarded_trials: Some(bg.discarded + fg.discarded),
            result_size: Some(cmp.result.size()),
        })
    }

    fn variant(
        &self,
        inst: &mut ToolInstance,
        session: &mut CorpusSession,
        spec: &BenchSpec,
        opts: &BenchmarkOptions,
        variant: &'static str,
        seed_base: u64,
    ) -> Result<Generalized, PipelineError> {
        let [record, transform, generalize_span] = self.names;
        let program = if variant == "background" {
            spec.background()
        } else {
            spec.foreground()
        };
        let natives = {
            let _s = self.rec.span(record, self.parent);
            (0..opts.trials)
                .map(|i| inst.record(&program, seed_base.wrapping_add(i as u64), opts.noise))
                .collect::<Result<Vec<_>, _>>()?
        };
        let mut graphs: Vec<PropertyGraph> = Vec::with_capacity(natives.len());
        let mut unparseable = 0;
        {
            let _s = self.rec.span(transform, self.parent);
            for native in natives {
                match inst.transform(native) {
                    Ok(g) => graphs.push(g),
                    Err(PipelineError::Transform { .. }) if opts.filter_graphs => unparseable += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        let size: usize = graphs.iter().map(PropertyGraph::size).sum();
        self.elements.fetch_add(size as u64, Ordering::Relaxed);
        let mut generalized = {
            let _s = self.rec.span(generalize_span, self.parent);
            generalize::generalize_trials_in(
                session,
                &graphs,
                PairStrategy::default(),
                variant,
                self.memo,
            )?
        };
        generalized.discarded += unparseable;
        Ok(generalized)
    }
}

fn replay_worker(
    store: &TaskStore,
    worker: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Result<(), PipelineError> {
    let span = rec.span("elastic.worker", parent);
    let memo = SolveMemo::new();
    loop {
        let task = {
            let _s = rec.span("elastic.claim", span.id());
            store.claim_next(worker)?
        };
        let Some(task) = task else {
            return Ok(());
        };
        {
            let _s = rec.span("elastic.heartbeat", span.id());
            store.write_heartbeat(&task, worker)?;
        }
        let before = MemoCounters::of(&memo);
        let cell = {
            let _s = rec.span("elastic.cell", span.id());
            let (opts, iters) = (&task.config.opts, task.config.opus_db_iterations);
            pipeline::run_matrix_cell_with_memo(&task.syscall, task.tool, opts, iters, Some(&memo))?
        };
        let result = CellResult {
            memo: MemoCounters::of(&memo).since(&before),
            syscall: task.syscall,
            tool: task.tool,
            epoch: task.epoch,
            config: task.config,
            cell,
        };
        let _s = rec.span("elastic.publish", span.id());
        store.publish(&result)?;
    }
}

fn harvest(store: &TaskStore) -> Result<Vec<(Expectation, [CellOutcome; 3])>, PipelineError> {
    let mut cells = Vec::new();
    for (id, epoch) in store.done_entries()? {
        let result = store.load_result(&id, epoch)?;
        cells.push((result.syscall, result.tool, result.cell));
    }
    pipeline::merge_matrix_cells(cells)
}

/// Workers × drive wall − Σ the replayed protocol steps: the drive's
/// heartbeat wait, polling and joins.
fn elastic_wait_ms(workers: usize, drive_wall_ms: f64, layers: &Layers) -> f64 {
    let busy: f64 = ELASTIC
        .iter()
        .map(|(_, m)| layers.get(m).copied().unwrap_or(0.0))
        .sum();
    workers as f64 * drive_wall_ms - busy
}

fn memo_layers(hits: u64, misses: u64) -> Layers {
    let lookups = hits + misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    Layers::from([
        ("aspsolver.memo_lookups", lookups as f64),
        ("aspsolver.memo_misses", misses as f64),
        ("aspsolver.memo_hit_ratio", ratio),
    ])
}

/// Per-layer values of a traced matrix pass. Rows run on at most
/// `threads` threads at once.
fn matrix_layers(spans: &[Span], threads: usize, hits: u64, misses: u64, elements: u64) -> Layers {
    let mut layers = memo_layers(hits, misses);
    for (span, metric) in STAGES {
        layers.insert(metric, total_ms(spans, span));
    }
    layers.insert("report_ms", total_ms(spans, "report"));
    layers.insert("graph.trial_elements", elements as f64);
    let row = total_ms(spans, "row");
    let stage: f64 = STAGES.iter().map(|(span, _)| total_ms(spans, span)).sum();
    layers.insert(
        "par.idle_ms",
        threads as f64 * total_ms(spans, "pass") - row,
    );
    layers.insert("unattributed_ms", row - stage);
    layers
}

/// The traced pass's spans nest, and its derived times are not negative.
pub fn span_invariants(spans: &[Span], layers: &Layers) -> Result<(), String> {
    crate::spans::check_nesting(spans)?;
    non_negative(layers)
}

/// Stage ≤ row ≤ threads × wall (`unattributed_ms` and `par.idle_ms` are
/// not negative), and the drive's spans leave a wait of zero or more of
/// its workers' wall (`elastic.wait_ms`). A layer not present reads 0.
pub fn non_negative(layers: &Layers) -> Result<(), String> {
    // Sums of integer-nanosecond spans rounded to f64 milliseconds.
    const SLACK_MS: f64 = 1e-6;
    for metric in ["unattributed_ms", "par.idle_ms", "elastic.wait_ms"] {
        let v = layers.get(metric).copied().unwrap_or(0.0);
        if v < -SLACK_MS {
            return Err(format!("{metric} is negative: {v}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(crate::stats::valid_metric_name(name), "{name}");
            assert!(crate::stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for (_, metric) in STAGES.iter().chain(ELASTIC.iter()) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    fn span(
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        start_ms: u64,
        end_ms: u64,
    ) -> Span {
        Span {
            id,
            name,
            parent,
            thread: 0,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        }
    }

    #[test]
    fn breakdown_of_a_synthetic_pass() {
        // Two threads; two rows of 40 and 30 ms inside a 50 ms pass.
        let spans = vec![
            span(0, "pass", None, 0, 50),
            span(1, "row", Some(0), 0, 40),
            span(2, "row", Some(0), 5, 35),
            span(3, "tool.record.opus", Some(1), 1, 21),
            span(4, "compare", Some(2), 5, 15),
            span(5, "report", Some(0), 45, 50),
        ];
        let layers = matrix_layers(&spans, 2, 3, 1, 77);
        assert_eq!(layers["tool.record.opus_ms"], 20.0);
        assert_eq!(layers["compare_ms"], 10.0);
        assert_eq!(layers["report_ms"], 5.0);
        assert_eq!(layers["unattributed_ms"], 40.0);
        assert_eq!(layers["par.idle_ms"], 30.0);
        assert_eq!(layers["aspsolver.memo_lookups"], 4.0);
        assert_eq!(layers["aspsolver.memo_hit_ratio"], 0.75);
        assert_eq!(layers["graph.trial_elements"], 77.0);
        span_invariants(&spans, &layers).unwrap();

        // The same rows claimed to run on one thread overrun the pass.
        let one_thread = matrix_layers(&spans, 1, 0, 0, 0);
        assert!(span_invariants(&spans, &one_thread).is_err());
    }

    #[test]
    fn drive_wait_must_not_be_negative() {
        // Spans summing to more than both workers' wall leave a negative wait.
        let spans = vec![
            span(0, "pass", None, 0, 10),
            span(1, "elastic.cell", Some(0), 0, 9),
        ];
        let mut layers: Layers = ELASTIC
            .iter()
            .map(|&(span, metric)| (metric, total_ms(&spans, span)))
            .collect();
        layers.insert("elastic.wait_ms", elastic_wait_ms(2, 5.0, &layers));
        assert_eq!(layers["elastic.wait_ms"], 1.0);
        span_invariants(&spans, &layers).unwrap();
        layers.insert("elastic.wait_ms", elastic_wait_ms(2, 4.0, &layers));
        assert_eq!(layers["elastic.wait_ms"], -1.0);
        assert!(non_negative(&layers).is_err());
    }
}
