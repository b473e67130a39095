//! Sharded Table 2 matrix runner: the distribution layer over
//! `provmark_core`'s plan / execute / merge pipeline split.
//!
//! A matrix run is bounded by one process no matter how many cores or
//! machines are available; this crate makes it distributable with three
//! self-describing, versioned JSON artifacts and a worker binary:
//!
//! 1. **Plan** — [`plan`] splits the matrix into [`ShardManifest`]s:
//!    each names the rows one worker executes plus the complete run
//!    configuration (trials, seed, noise, filtering, simulated OPUS
//!    startup cost), so a manifest alone fully determines a worker's
//!    work — no shared state, no ambient configuration.
//! 2. **Execute** — the `provmark-shard` binary (or [`execute`]
//!    in-process) runs one manifest's cells through the ordinary
//!    pipeline and emits a [`PartialResults`] artifact of per-cell
//!    [`CellOutcome`]s. Cells are seeded and per-cell deterministic, so
//!    a shard's cells equal the same cells of a single-process run
//!    regardless of which host executed them.
//! 3. **Merge** — [`merge`] reassembles partials through
//!    `provmark_core`'s deterministic merge and renders the canonical
//!    matrix report, **byte-identical** to the single-process
//!    [`single_report`] (asserted by this crate's integration tests and
//!    the CI sharded smoke).
//!
//! [`drive_local`] is the local driver mode: it runs the crash-tolerant
//! [`elastic`] execution layer — per-cell claimable tasks, heartbeats,
//! epoch-bumped re-dispatch of dead claims, and typed per-cell failures
//! when retries run out — over N concurrent worker *processes* of the
//! current executable (`provmark-shard work …`). All artifact writes
//! are atomic ([`atomic_write`]), so no reader can observe a torn file.
//!
//! # Artifact versioning
//!
//! Both artifact kinds carry a `format` tag and a `version` number
//! ([`MANIFEST_VERSION`] / [`PARTIAL_VERSION`]), plus the
//! [`provgraph::snapshot::SNAPSHOT_VERSION`] of the session snapshot
//! format in effect, so heterogeneous runner fleets detect skew up
//! front: readers reject any other format/version with typed
//! [`PipelineError`]s instead of guessing (same rule as the snapshot
//! format itself — no in-place extensions, every layout change bumps
//! the version).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod elastic;

use std::path::Path;

use provmark_core::pipeline::{
    self, merge_matrix_summaries, plan_matrix_shards, run_matrix_cells, summarize_rows,
    CellOutcome, MatrixShard, SummaryRow,
};
use provmark_core::report::render_matrix_report;
use provmark_core::{BenchmarkOptions, PipelineError};
use serde_json::{Map, Value};

/// Version of the shard-manifest JSON layout.
///
/// v2: the run configuration gained the `use_solve_memo` switch (the
/// session-level solve memo; on by default).
pub const MANIFEST_VERSION: u32 = 2;

/// Version of the partial-results JSON layout.
///
/// v2: the run configuration gained the `use_solve_memo` switch.
pub const PARTIAL_VERSION: u32 = 2;

/// Simulated OPUS Neo4j startup iterations used by `--quick` runs (the
/// CI smoke configuration; same scale as the tier-1 matrix test).
pub const QUICK_OPUS_DB_ITERATIONS: u64 = 500;

/// The full configuration of a matrix run, shipped inside every
/// manifest so workers need nothing but the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Pipeline options (trials, seed, noise, filtering).
    pub opts: BenchmarkOptions,
    /// Simulated OPUS Neo4j startup override (`None` = tool default).
    pub opus_db_iterations: Option<u64>,
}

impl RunConfig {
    /// The default (full-cost) configuration.
    pub fn full() -> Self {
        RunConfig {
            opts: BenchmarkOptions::default(),
            opus_db_iterations: None,
        }
    }

    /// The `--quick` configuration: default options with the simulated
    /// Neo4j startup scaled down ([`QUICK_OPUS_DB_ITERATIONS`]).
    pub fn quick() -> Self {
        RunConfig {
            opts: BenchmarkOptions::default(),
            opus_db_iterations: Some(QUICK_OPUS_DB_ITERATIONS),
        }
    }
}

/// A self-describing shard manifest: one worker's complete assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// The planned shard (index, count, row names).
    pub shard: MatrixShard,
    /// The run configuration every shard of the plan shares.
    pub config: RunConfig,
}

impl ShardManifest {
    /// Render as the versioned manifest JSON document.
    pub fn to_json_string(&self) -> String {
        let mut doc = Map::new();
        doc.insert(
            "format".into(),
            Value::String("provmark-shard-manifest".into()),
        );
        doc.insert("version".into(), exact_num(MANIFEST_VERSION.into()));
        doc.insert(
            "snapshot_format_version".into(),
            exact_num(provgraph::snapshot::SNAPSHOT_VERSION.into()),
        );
        doc.insert(
            "shard_index".into(),
            exact_num(self.shard.shard_index as u64),
        );
        doc.insert(
            "shard_count".into(),
            exact_num(self.shard.shard_count as u64),
        );
        doc.insert(
            "syscalls".into(),
            Value::Array(
                self.shard
                    .syscalls
                    .iter()
                    .map(|s| Value::String(s.clone()))
                    .collect(),
            ),
        );
        insert_config(&mut doc, &self.config);
        // provlint: allow(panic-in-lib) -- serialization only fails on non-finite floats; every number here passed exact_num
        serde_json::to_string_pretty(&Value::Object(doc)).expect("manifest serializes")
    }

    /// Parse and validate a manifest document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] on malformed JSON, a wrong
    /// format tag, an unsupported manifest version or missing fields;
    /// [`PipelineError::Snapshot`] when the manifest was produced
    /// against a different session-snapshot format version (runner
    /// skew).
    pub fn from_json_str(text: &str) -> Result<ShardManifest, PipelineError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| artifact(format!("manifest is not valid JSON: {e}")))?;
        check_header(&doc, "provmark-shard-manifest", MANIFEST_VERSION)?;
        let shard = MatrixShard {
            shard_index: get_usize(&doc, "shard_index")?,
            shard_count: get_usize(&doc, "shard_count")?,
            syscalls: match &doc["syscalls"] {
                Value::Array(items) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| artifact("manifest field `syscalls` must hold strings"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(artifact("manifest field `syscalls` must be an array")),
            },
        };
        if shard.shard_index >= shard.shard_count {
            return Err(PipelineError::InvalidShardIndex {
                index: shard.shard_index,
                count: shard.shard_count,
            });
        }
        Ok(ShardManifest {
            shard,
            config: extract_config(&doc)?,
        })
    }
}

/// Write the run configuration into an artifact document — shared by
/// manifests and partials, so the merge can verify that every partial
/// was produced under one configuration.
///
/// The seed is serialized as a **string**: the vendored JSON shim backs
/// numbers with `f64`, which would silently round seeds above 2^53.
pub(crate) fn insert_config(doc: &mut Map<String, Value>, config: &RunConfig) {
    let mut options = Map::new();
    options.insert("trials".into(), exact_num(config.opts.trials as u64));
    options.insert(
        "base_seed".into(),
        Value::String(config.opts.base_seed.to_string()),
    );
    options.insert("noise".into(), Value::Bool(config.opts.noise));
    options.insert(
        "filter_graphs".into(),
        Value::Bool(config.opts.filter_graphs),
    );
    options.insert(
        "use_solve_memo".into(),
        Value::Bool(config.opts.use_solve_memo),
    );
    doc.insert("options".into(), Value::Object(options));
    doc.insert(
        "opus_db_iterations".into(),
        config.opus_db_iterations.map_or(Value::Null, exact_num),
    );
}

/// Parse the run configuration back out of an artifact document.
pub(crate) fn extract_config(doc: &Value) -> Result<RunConfig, PipelineError> {
    let options = &doc["options"];
    let base_seed: u64 = options["base_seed"]
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| artifact("field `base_seed` must be a u64 encoded as a string"))?;
    let opts = BenchmarkOptions {
        trials: get_usize(options, "trials")?,
        base_seed,
        noise: get_bool(options, "noise")?,
        filter_graphs: get_bool(options, "filter_graphs")?,
        use_solve_memo: get_bool(options, "use_solve_memo")?,
        // Deliberately not serialized: the cache is observably invisible
        // (warm and cold runs are byte-identical), so it is runner-local
        // configuration — wired per invocation via `--solve-cache` — and
        // never part of a run's recorded identity.
        solve_cache: None,
        // Same rationale: tracing is observably outcome-neutral, wired
        // per invocation via `--trace`, never part of a run's identity.
        trace: None,
    };
    let opus_db_iterations = match &doc["opus_db_iterations"] {
        Value::Null => None,
        v => Some(
            v.as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| {
                    artifact("field `opus_db_iterations` must be a non-negative integer or null")
                })? as u64,
        ),
    };
    Ok(RunConfig {
        opts,
        opus_db_iterations,
    })
}

/// The partial-results artifact one worker emits: the summarized rows
/// of its shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialResults {
    /// Index of the shard these rows came from.
    pub shard_index: usize,
    /// Shard count of the plan the shard belonged to.
    pub shard_count: usize,
    /// The run configuration the cells were measured under (copied from
    /// the manifest) — [`merge`] refuses partials whose configurations
    /// disagree, so shards of different plans cannot be silently mixed
    /// into a chimera report.
    pub config: RunConfig,
    /// Summarized matrix rows, in the shard's execution order.
    pub rows: Vec<SummaryRow>,
}

impl PartialResults {
    /// Render as the versioned partial-results JSON document.
    pub fn to_json_string(&self) -> String {
        let mut doc = Map::new();
        doc.insert(
            "format".into(),
            Value::String("provmark-shard-partial".into()),
        );
        doc.insert("version".into(), exact_num(PARTIAL_VERSION.into()));
        doc.insert(
            "snapshot_format_version".into(),
            exact_num(provgraph::snapshot::SNAPSHOT_VERSION.into()),
        );
        doc.insert("shard_index".into(), exact_num(self.shard_index as u64));
        doc.insert("shard_count".into(), exact_num(self.shard_count as u64));
        insert_config(&mut doc, &self.config);
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|(syscall, cells)| {
                let mut row = Map::new();
                row.insert("syscall".into(), Value::String(syscall.clone()));
                row.insert(
                    "cells".into(),
                    Value::Array(cells.iter().map(cell_to_json).collect()),
                );
                Value::Object(row)
            })
            .collect();
        doc.insert("rows".into(), Value::Array(rows));
        // provlint: allow(panic-in-lib) -- serialization only fails on non-finite floats; every number here passed exact_num
        serde_json::to_string_pretty(&Value::Object(doc)).expect("partial serializes")
    }

    /// Parse and validate a partial-results document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ShardArtifact`] / [`PipelineError::Snapshot`] on
    /// the same header conditions as [`ShardManifest::from_json_str`].
    pub fn from_json_str(text: &str) -> Result<PartialResults, PipelineError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| artifact(format!("partial results are not valid JSON: {e}")))?;
        check_header(&doc, "provmark-shard-partial", PARTIAL_VERSION)?;
        let rows = match &doc["rows"] {
            Value::Array(items) => items
                .iter()
                .map(|row| {
                    let syscall = row["syscall"]
                        .as_str()
                        .ok_or_else(|| artifact("row is missing `syscall`"))?
                        .to_owned();
                    let cells = match &row["cells"] {
                        Value::Array(cells) if cells.len() == 3 => {
                            let parsed: Vec<CellOutcome> =
                                cells.iter().map(cell_from_json).collect::<Result<_, _>>()?;
                            // provlint: allow(panic-in-lib) -- the match arm guarantees exactly 3 cells
                            <[CellOutcome; 3]>::try_from(parsed).expect("length checked")
                        }
                        _ => {
                            return Err(artifact(format!(
                                "row `{syscall}` must carry exactly 3 cells"
                            )))
                        }
                    };
                    Ok((syscall, cells))
                })
                .collect::<Result<_, PipelineError>>()?,
            _ => return Err(artifact("partial field `rows` must be an array")),
        };
        Ok(PartialResults {
            shard_index: get_usize(&doc, "shard_index")?,
            shard_count: get_usize(&doc, "shard_count")?,
            config: extract_config(&doc)?,
            rows,
        })
    }
}

pub(crate) fn cell_to_json(cell: &CellOutcome) -> Value {
    let mut c = Map::new();
    c.insert("status".into(), Value::String(cell.status.clone()));
    c.insert(
        "matching_cost".into(),
        cell.matching_cost.map_or(Value::Null, exact_num),
    );
    c.insert(
        "discarded_trials".into(),
        cell.discarded_trials
            .map_or(Value::Null, |v| exact_num(v as u64)),
    );
    c.insert(
        "result_size".into(),
        cell.result_size
            .map_or(Value::Null, |v| exact_num(v as u64)),
    );
    Value::Object(c)
}

pub(crate) fn cell_from_json(v: &Value) -> Result<CellOutcome, PipelineError> {
    let opt = |field: &str| -> Result<Option<u64>, PipelineError> {
        match &v[field] {
            Value::Null => Ok(None),
            x => x
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| Some(n as u64))
                .ok_or_else(|| {
                    artifact(format!(
                        "cell field `{field}` must be a non-negative integer or null"
                    ))
                }),
        }
    };
    Ok(CellOutcome {
        status: v["status"]
            .as_str()
            .ok_or_else(|| artifact("cell is missing `status`"))?
            .to_owned(),
        matching_cost: opt("matching_cost")?,
        discarded_trials: opt("discarded_trials")?.map(|x| x as usize),
        result_size: opt("result_size")?.map(|x| x as usize),
    })
}

/// Encode a non-negative integer as a JSON number, asserting it stays
/// inside the shim's exactly-representable `f64` range (<= 2^53).
/// Seeds — the one field that can exceed that range — are serialized
/// as strings instead (see [`insert_config`]).
pub(crate) fn exact_num(n: u64) -> Value {
    debug_assert!(n <= 1u64 << 53, "integer exceeds the exact f64 range");
    // provlint: allow(lossy-cast-in-serde) -- bound asserted above; the vendored JSON shim backs numbers with f64
    Value::Number(n as f64)
}

pub(crate) fn artifact(detail: impl Into<String>) -> PipelineError {
    PipelineError::ShardArtifact {
        detail: detail.into(),
    }
}

/// Read and parse one partial-results artifact from disk, naming the
/// offending **file path and shard position** in every artifact error.
///
/// A truncated or mid-write partial (a worker killed between `write`
/// and `fsync`, an interrupted copy) used to surface as a bare "not
/// valid JSON" message, leaving the operator to bisect which of N
/// artifacts was broken; this wrapper pins the failure to the file so
/// only that shard needs re-executing. Unreadable files are reported
/// the same way; typed non-artifact errors (e.g. snapshot-version skew)
/// pass through unchanged.
pub fn load_partial(path: &Path, index: usize) -> Result<PartialResults, PipelineError> {
    let annotate =
        |detail: String| artifact(format!("partial #{index} (`{}`): {detail}", path.display()));
    let text = std::fs::read_to_string(path)
        .map_err(|e| annotate(format!("cannot read the artifact: {e}")))?;
    PartialResults::from_json_str(&text).map_err(|e| match e {
        PipelineError::ShardArtifact { detail } => annotate(detail),
        other => other,
    })
}

/// Validate the `format` / `version` / `snapshot_format_version` header
/// shared by both artifact kinds.
pub(crate) fn check_header(doc: &Value, format: &str, version: u32) -> Result<(), PipelineError> {
    match doc["format"].as_str() {
        Some(found) if found == format => {}
        Some(found) => {
            return Err(artifact(format!(
                "expected a `{format}` document, found `{found}`"
            )))
        }
        None => {
            return Err(artifact(format!(
                "missing `format` tag (expected `{format}`)"
            )))
        }
    }
    let found = get_usize(doc, "version")?;
    if found != version as usize {
        return Err(artifact(format!(
            "{format} version {found} is not supported (this build reads version \
             {version}); re-plan with a matching build"
        )));
    }
    let snap_raw = get_usize(doc, "snapshot_format_version")?;
    let snap = u32::try_from(snap_raw).map_err(|_| {
        artifact(format!(
            "snapshot_format_version {snap_raw} outside u32 range"
        ))
    })?;
    if snap != provgraph::snapshot::SNAPSHOT_VERSION {
        return Err(PipelineError::Snapshot {
            source: provgraph::snapshot::SnapshotError::UnsupportedVersion {
                found: snap,
                supported: provgraph::snapshot::SNAPSHOT_VERSION,
            },
        });
    }
    Ok(())
}

pub(crate) fn get_usize(doc: &Value, field: &str) -> Result<usize, PipelineError> {
    doc[field]
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as usize)
        .ok_or_else(|| artifact(format!("field `{field}` must be a non-negative integer")))
}

pub(crate) fn get_bool(doc: &Value, field: &str) -> Result<bool, PipelineError> {
    doc[field]
        .as_bool()
        .ok_or_else(|| artifact(format!("field `{field}` must be a boolean")))
}

/// Plan a `shard_count`-way split of the matrix under `config`.
///
/// # Errors
///
/// [`PipelineError::InvalidShardCount`] on an unusable count.
pub fn plan(shard_count: usize, config: &RunConfig) -> Result<Vec<ShardManifest>, PipelineError> {
    Ok(plan_matrix_shards(shard_count)?
        .into_iter()
        .map(|shard| ShardManifest {
            shard,
            config: config.clone(),
        })
        .collect())
}

/// Execute one manifest in-process, producing its partial results.
///
/// # Errors
///
/// [`PipelineError::UnknownBenchmark`] when the manifest names a row
/// outside Table 2 (per-cell pipeline errors are reported inside the
/// cells, not raised).
pub fn execute(manifest: &ShardManifest) -> Result<PartialResults, PipelineError> {
    let rows = run_matrix_cells(
        &manifest.shard.syscalls,
        &manifest.config.opts,
        manifest.config.opus_db_iterations,
    )?;
    Ok(PartialResults {
        shard_index: manifest.shard.shard_index,
        shard_count: manifest.shard.shard_count,
        config: manifest.config.clone(),
        rows: summarize_rows(&rows),
    })
}

/// Deterministically merge partial results and render the canonical
/// matrix report.
///
/// # Errors
///
/// [`PipelineError::ShardMerge`] when the partials came from different
/// plans (disagreeing run configurations or shard counts) or do not
/// reassemble the full matrix (missing, duplicate or foreign rows) —
/// mixing shards of different runs would produce a chimera report that
/// matches no single-process run.
pub fn merge(parts: Vec<PartialResults>) -> Result<String, PipelineError> {
    if let Some((first, rest)) = parts.split_first() {
        for part in rest {
            if part.config != first.config {
                return Err(PipelineError::ShardMerge {
                    detail: format!(
                        "shard {} was measured under a different run configuration than \
                         shard {} (trials/seed/noise/filtering/OPUS cost differ) — \
                         execute every shard from one plan",
                        part.shard_index, first.shard_index
                    ),
                });
            }
            if part.shard_count != first.shard_count {
                return Err(PipelineError::ShardMerge {
                    detail: format!(
                        "partials come from different plans ({}-shard vs {}-shard)",
                        first.shard_count, part.shard_count
                    ),
                });
            }
        }
    }
    let merged = merge_matrix_summaries(parts.into_iter().map(|p| p.rows))?;
    Ok(render_matrix_report(&merged))
}

/// Run the matrix in-process (no sharding) and render the same report
/// the sharded path merges to — the byte-identity reference.
pub fn single_report(config: &RunConfig) -> String {
    let rows = pipeline::run_matrix(&config.opts, config.opus_db_iterations);
    let merged =
        // provlint: allow(panic-in-lib) -- a single complete run can never produce conflicting partials
        merge_matrix_summaries([summarize_rows(&rows)]).expect("a full single-process run merges");
    render_matrix_report(&merged)
}

/// Write `contents` to `path` atomically **and durably**: write to a
/// hidden temp file in the destination directory, `fsync` it, `rename`
/// over the final path, then `fsync` the directory so the rename itself
/// survives a crash.
///
/// Readers can therefore never observe a torn artifact at `path` — a
/// writer killed mid-write leaves only a `.{name}.tmp.*` file behind,
/// which every artifact scan skips — and once this returns `Ok` the
/// artifact is on stable storage, not just in the page cache (a power
/// loss after a claim or result was published cannot un-publish it).
/// Used for provshard's artifact writes (manifests, partials,
/// re-dispatched cell tasks, cell results, reports); the plan's task
/// files land as one durable batch, and heartbeats, which are liveness
/// signals rather than artifacts, are plain overwrites. Delegates to
/// [`aspsolver::write_bytes_durable`], the same primitive the solve
/// cache uses.
///
/// # Errors
///
/// Any I/O error from the write, the syncs or the rename.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    aspsolver::write_bytes_durable(path, contents.as_bytes())
}

/// Local driver mode: spawn `worker_count` elastic worker **processes**
/// of the current executable (`provmark-shard work …`) over a shared
/// run directory, supervise claims/heartbeats/re-dispatch, and merge
/// the per-cell results into the canonical report (see the [`elastic`]
/// module for the protocol).
///
/// `work_dir` receives the claim-protocol directories and per-worker
/// stderr captures (kept for inspection).
///
/// # Errors
///
/// [`PipelineError::InvalidShardCount`] on an unusable worker count
/// (same validation as the classic row-shard plan);
/// [`PipelineError::CellsExhausted`] when cells ran out of retries (the
/// merged report still exists, with those cells marked `lost`);
/// otherwise as [`elastic::drive_elastic`].
pub fn drive_local(
    worker_count: usize,
    config: &RunConfig,
    work_dir: &Path,
) -> Result<String, PipelineError> {
    plan_matrix_shards(worker_count)?;
    let outcome = elastic::drive_elastic(
        worker_count,
        config,
        work_dir,
        &elastic::ElasticOptions::default(),
    )?;
    if outcome.failures.is_empty() {
        Ok(outcome.report)
    } else {
        Err(PipelineError::CellsExhausted {
            failures: outcome.failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> ShardManifest {
        plan(3, &RunConfig::quick()).unwrap().swap_remove(1)
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let manifest = sample_manifest();
        let text = manifest.to_json_string();
        let back = ShardManifest::from_json_str(&text).unwrap();
        assert_eq!(back, manifest);
        assert!(text.contains("\"format\": \"provmark-shard-manifest\""));
        assert!(text.contains("\"snapshot_format_version\""));
    }

    #[test]
    fn partial_roundtrips_through_json() {
        let partial = PartialResults {
            shard_index: 2,
            shard_count: 3,
            config: RunConfig::quick(),
            rows: vec![(
                "creat".to_owned(),
                [
                    CellOutcome {
                        status: "ok".into(),
                        matching_cost: Some(4),
                        discarded_trials: Some(1),
                        result_size: Some(7),
                    },
                    CellOutcome {
                        status: "empty".into(),
                        matching_cost: Some(0),
                        discarded_trials: Some(0),
                        result_size: Some(0),
                    },
                    CellOutcome {
                        status: "error: benchmark `creat` background variant failed".into(),
                        matching_cost: None,
                        discarded_trials: None,
                        result_size: None,
                    },
                ],
            )],
        };
        let back = PartialResults::from_json_str(&partial.to_json_string()).unwrap();
        assert_eq!(back, partial);
    }

    #[test]
    fn wrong_format_tag_rejected() {
        let manifest = sample_manifest();
        let as_partial = PartialResults::from_json_str(&manifest.to_json_string());
        assert!(
            matches!(&as_partial, Err(PipelineError::ShardArtifact { detail })
                if detail.contains("provmark-shard-partial")),
            "{as_partial:?}"
        );
        let err = ShardManifest::from_json_str("{}").unwrap_err();
        assert!(matches!(err, PipelineError::ShardArtifact { .. }));
        let err = ShardManifest::from_json_str("not json").unwrap_err();
        assert!(matches!(err, PipelineError::ShardArtifact { .. }));
    }

    #[test]
    fn artifact_version_skew_rejected() {
        let text = sample_manifest()
            .to_json_string()
            .replace("\"version\": 2", "\"version\": 3");
        let err = ShardManifest::from_json_str(&text).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail }
                if detail.contains("version 3") && detail.contains("re-plan")),
            "{err}"
        );
    }

    #[test]
    fn v1_artifacts_without_memo_field_rejected() {
        // A v1-era manifest (no `use_solve_memo`) must be refused by the
        // version header, not half-parsed into a default configuration.
        let text = sample_manifest()
            .to_json_string()
            .replace("\"version\": 2", "\"version\": 1");
        let err = ShardManifest::from_json_str(&text).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail } if detail.contains("version 1")),
            "{err}"
        );
    }

    #[test]
    fn memo_switch_roundtrips_through_artifacts() {
        let mut config = RunConfig::quick();
        config.opts.use_solve_memo = false;
        let manifest = plan(2, &config).unwrap().swap_remove(0);
        let back = ShardManifest::from_json_str(&manifest.to_json_string()).unwrap();
        assert!(!back.config.opts.use_solve_memo);
        assert_eq!(back.config, config);
    }

    #[test]
    fn truncated_partial_reports_file_path_and_index() {
        let dir = std::env::temp_dir().join(format!("provshard-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = PartialResults {
            shard_index: 1,
            shard_count: 3,
            config: RunConfig::quick(),
            rows: Vec::new(),
        }
        .to_json_string();
        // A mid-write artifact: valid JSON prefix, cut off mid-document.
        let path = dir.join("part-1.json");
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_partial(&path, 1).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail }
                if detail.contains("partial #1")
                    && detail.contains("part-1.json")
                    && detail.contains("JSON")),
            "truncated artifact must name the file and index: {err}"
        );
        // A missing artifact is annotated the same way.
        let err = load_partial(&dir.join("never-written.json"), 2).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardArtifact { detail }
                if detail.contains("partial #2") && detail.contains("never-written.json")),
            "{err}"
        );
        // An intact artifact still loads.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(load_partial(&path, 1).unwrap().shard_index, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_version_skew_rejected_with_typed_error() {
        let text = sample_manifest().to_json_string().replace(
            "\"snapshot_format_version\": 1",
            "\"snapshot_format_version\": 9",
        );
        let err = ShardManifest::from_json_str(&text).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Snapshot {
                    source: provgraph::snapshot::SnapshotError::UnsupportedVersion { found: 9, .. }
                }
            ),
            "snapshot skew must surface as a typed snapshot error"
        );
    }

    #[test]
    fn manifest_with_bad_shard_index_rejected() {
        let text = sample_manifest()
            .to_json_string()
            .replace("\"shard_index\": 1", "\"shard_index\": 7");
        let err = ShardManifest::from_json_str(&text).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InvalidShardIndex { index: 7, count: 3 }
        ));
    }

    #[test]
    fn plan_validates_count() {
        assert!(matches!(
            plan(0, &RunConfig::quick()),
            Err(PipelineError::InvalidShardCount { count: 0, .. })
        ));
    }

    #[test]
    fn merge_rejects_mixed_config_partials() {
        let mut other = RunConfig::quick();
        other.opts.base_seed = 7;
        let part = |shard_index: usize, config: &RunConfig| PartialResults {
            shard_index,
            shard_count: 2,
            config: config.clone(),
            rows: Vec::new(),
        };
        let err = merge(vec![part(0, &RunConfig::quick()), part(1, &other)]).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardMerge { detail }
                if detail.contains("different run configuration")),
            "{err}"
        );
        // Disagreeing plan sizes are rejected too.
        let mut b = part(1, &RunConfig::quick());
        b.shard_count = 3;
        let err = merge(vec![part(0, &RunConfig::quick()), b]).unwrap_err();
        assert!(
            matches!(&err, PipelineError::ShardMerge { detail }
                if detail.contains("different plans")),
            "{err}"
        );
    }

    #[test]
    fn large_seeds_roundtrip_exactly() {
        // The JSON shim backs numbers with f64; seeds ride as strings so
        // values above 2^53 survive the worker boundary bit-exactly.
        let seed = (1u64 << 53) + 1;
        let mut config = RunConfig::quick();
        config.opts.base_seed = seed;
        let manifest = plan(2, &config).unwrap().swap_remove(0);
        let back = ShardManifest::from_json_str(&manifest.to_json_string()).unwrap();
        assert_eq!(back.config.opts.base_seed, seed);
    }

    #[test]
    fn malformed_cell_numbers_rejected() {
        let clean = PartialResults {
            shard_index: 0,
            shard_count: 1,
            config: RunConfig::quick(),
            rows: vec![(
                "creat".to_owned(),
                [
                    CellOutcome {
                        status: "ok".into(),
                        matching_cost: Some(3),
                        discarded_trials: Some(0),
                        result_size: Some(3),
                    },
                    CellOutcome {
                        status: "ok".into(),
                        matching_cost: Some(0),
                        discarded_trials: Some(0),
                        result_size: Some(3),
                    },
                    CellOutcome {
                        status: "ok".into(),
                        matching_cost: Some(0),
                        discarded_trials: Some(0),
                        result_size: Some(3),
                    },
                ],
            )],
        }
        .to_json_string();
        for bad in ["-3", "1.5"] {
            let text = clean.replace("\"matching_cost\": 3", &format!("\"matching_cost\": {bad}"));
            assert_ne!(text, clean, "replacement must hit");
            let err = PartialResults::from_json_str(&text).unwrap_err();
            assert!(
                matches!(&err, PipelineError::ShardArtifact { detail }
                    if detail.contains("matching_cost")),
                "{bad}: {err:?}"
            );
        }
    }
}
