//! The seed-sweep driver: N seeds fanned across cores, merged
//! deterministically, with per-seed panic isolation.
//!
//! # Determinism
//!
//! Each seed runs under its own thread-local deterministic
//! [`StatsRecorder`] (wall-clock span durations masked), so a seed's
//! snapshot is a pure function of its scenario. The campaign merge then
//! folds per-seed snapshots in **ascending seed-index order** — float
//! sums are order-sensitive in the low bits, so canonical fold order is
//! what makes the merged JSON byte-identical across worker counts and
//! seed-*completion* orders ([`bc_core::par::par_map`] already returns
//! results slot-indexed, regardless of which worker finished first).
//!
//! # Failure accounting
//!
//! A seed that panics, returns a [`bc_des::DesError`], or cannot open
//! its trace sink is recorded as a typed [`SeedFailure`] in the report —
//! the campaign never aborts and never loses a seed. Panics are caught
//! *inside* the worker closure (`catch_unwind`), before the scoped-join
//! in `par_map` would re-raise them.

use crate::sinks::RotatingJsonl;
use bc_core::par::par_map;
use bc_des::{DesReport, Scenario};
use bc_obs::json::{escape_into, number_into};
use bc_obs::recorders::{FanoutRecorder, JsonlRecorder, StatsRecorder, StatsSnapshot};
use bc_obs::Recorder;
use bc_units::{Joules, Seconds};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a campaign streams its per-seed traces.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Directory for the rotated files (created if missing).
    pub dir: PathBuf,
    /// Size cap per file; the sink rotates past it (min 1).
    pub max_file_bytes: u64,
}

impl TraceConfig {
    /// Traces under `dir`, rotated at `max_file_bytes`.
    #[must_use]
    pub fn new(dir: &Path, max_file_bytes: u64) -> Self {
        TraceConfig {
            dir: dir.to_path_buf(),
            max_file_bytes,
        }
    }
}

/// How a campaign executes.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Worker threads for the seed fan-out (`0`/`1` = inline).
    pub workers: usize,
    /// Per-seed JSONL trace streaming (`None` = stats only).
    pub trace: Option<TraceConfig>,
    /// Test pin: the order seed *tasks* are started, as a permutation
    /// of seed indices. Results are merged by seed index regardless, so
    /// any execution order must produce byte-identical output — tests
    /// pin adversarial orders to prove it. `None` = natural order.
    pub execution_order: Option<Vec<usize>>,
}

impl CampaignConfig {
    /// A stats-only campaign on `workers` threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        CampaignConfig {
            workers,
            trace: None,
            execution_order: None,
        }
    }

    /// Streams per-seed traces as rotated JSONL under `trace.dir`.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Pins the order seed tasks are started (testing hook).
    #[must_use]
    pub fn with_execution_order(mut self, order: Vec<usize>) -> Self {
        self.execution_order = Some(order);
        self
    }
}

/// Why a campaign could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// `execution_order` is not a permutation of `0..seeds.len()`.
    BadExecutionOrder {
        /// Number of seeds in the campaign.
        seeds: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::BadExecutionOrder { seeds } => {
                write!(f, "execution order must be a permutation of 0..{seeds}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Typed per-seed failure. The campaign records it and moves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedFailure {
    /// The seed's run panicked; the payload rendered as text.
    Panic(String),
    /// The engine returned a [`bc_des::DesError`], rendered as text.
    Run(String),
    /// The seed's trace sink could not be opened or finished.
    Sink(String),
}

impl SeedFailure {
    /// Stable kind label (`panic` / `run` / `sink`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SeedFailure::Panic(_) => "panic",
            SeedFailure::Run(_) => "run",
            SeedFailure::Sink(_) => "sink",
        }
    }

    /// The failure message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            SeedFailure::Panic(m) | SeedFailure::Run(m) | SeedFailure::Sink(m) => m,
        }
    }
}

impl fmt::Display for SeedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// Simulation-determined summary of one completed seed (no wall-clock
/// quantities — everything here is byte-stable across reruns).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSummary {
    /// Charging rounds dispatched.
    pub rounds: usize,
    /// Replan triggers ([`DesReport::replans`]).
    pub replans: usize,
    /// Events processed within the horizon.
    pub events_processed: u64,
    /// Events ever scheduled.
    pub events_scheduled: u64,
    /// Sensors that ever died.
    pub sensors_ever_dead: usize,
    /// Sensors lost to injected hardware faults.
    pub fault_deaths: usize,
    /// Fraction of sensor-time alive.
    pub availability: f64,
    /// Total charger energy.
    pub charger_energy_j: Joules,
    /// Sensor-seconds spent dead.
    pub downtime_sensor_s: Seconds,
    /// Lowest battery level observed.
    pub min_battery_j: Joules,
    /// The seed's deterministic stats snapshot.
    pub snapshot: StatsSnapshot,
    /// Rotated trace files written for this seed (empty without a
    /// [`TraceConfig`]). Excluded from the deterministic JSON.
    pub trace_files: Vec<PathBuf>,
}

impl SeedSummary {
    fn from_report(report: &DesReport, snapshot: StatsSnapshot, trace_files: Vec<PathBuf>) -> Self {
        SeedSummary {
            rounds: report.rounds,
            replans: report.replans,
            events_processed: report.events_processed,
            events_scheduled: report.events_scheduled,
            sensors_ever_dead: report.sensors_ever_dead,
            fault_deaths: report.fault_deaths,
            availability: report.availability,
            charger_energy_j: report.charger_energy_j,
            downtime_sensor_s: report.downtime_sensor_s,
            min_battery_j: report.min_battery_j,
            snapshot,
            trace_files,
        }
    }
}

/// What happened to one seed.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedOutcome {
    /// The run finished; its summary.
    Completed(SeedSummary),
    /// The run was lost; the typed reason.
    Failed(SeedFailure),
}

/// One seed's slot in the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult {
    /// The seed value.
    pub seed: u64,
    /// Its outcome.
    pub outcome: SeedOutcome,
}

/// Outcome of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-seed results, in the input seed order (not completion order).
    pub seeds: Vec<SeedResult>,
    /// Deterministic fold of every completed seed's snapshot, in seed
    /// order.
    pub merged: StatsSnapshot,
    /// Worker threads the sweep ran on.
    pub workers: usize,
}

impl CampaignReport {
    /// Seeds that completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.seeds
            .iter()
            .filter(|s| matches!(s.outcome, SeedOutcome::Completed(_)))
            .count()
    }

    /// Seeds recorded as failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.seeds.len() - self.completed()
    }

    /// Every typed failure with its seed, in seed order.
    pub fn failures(&self) -> impl Iterator<Item = (u64, &SeedFailure)> {
        self.seeds.iter().filter_map(|s| match &s.outcome {
            SeedOutcome::Failed(f) => Some((s.seed, f)),
            SeedOutcome::Completed(_) => None,
        })
    }

    /// Total events processed across completed seeds.
    #[must_use]
    pub fn events_processed_total(&self) -> u64 {
        self.summaries().map(|(_, s)| s.events_processed).sum()
    }

    /// Every completed summary with its seed, in seed order.
    pub fn summaries(&self) -> impl Iterator<Item = (u64, &SeedSummary)> {
        self.seeds.iter().filter_map(|s| match &s.outcome {
            SeedOutcome::Completed(sum) => Some((s.seed, sum)),
            SeedOutcome::Failed(_) => None,
        })
    }

    /// Every trace file written by the campaign, in seed order.
    #[must_use]
    pub fn trace_files(&self) -> Vec<PathBuf> {
        self.summaries()
            .flat_map(|(_, s)| s.trace_files.iter().cloned())
            .collect()
    }

    /// The full campaign outcome as one deterministic JSON document:
    /// per-seed results (simulation quantities and typed failures) plus
    /// the merged snapshot. Byte-identical across worker counts and
    /// execution orders — CI diffs it run-over-run.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n\"campaign\": {\n");
        out.push_str(&format!(
            "  \"seeds\": {}, \"completed\": {}, \"failed\": {},\n",
            self.seeds.len(),
            self.completed(),
            self.failed()
        ));
        out.push_str(&format!(
            "  \"events_total\": {},\n",
            self.events_processed_total()
        ));
        out.push_str("  \"results\": [");
        for (i, sr) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            render_seed_result(&mut out, sr);
        }
        out.push_str("\n  ]\n},\n\"merged\": ");
        out.push_str(&self.merged.to_json());
        out.push_str("\n}");
        out
    }

    /// FNV-1a 64-bit hash of [`CampaignReport::snapshot_json`], as 16
    /// hex digits: equal hashes mean byte-identical merged snapshots.
    #[must_use]
    pub fn merge_hash(&self) -> String {
        let h = fnv_fold(FNV_BASIS, self.snapshot_json().as_bytes());
        format!("{h:016x}")
    }
}

fn render_seed_result(out: &mut String, sr: &SeedResult) {
    out.push_str(&format!("{{\"seed\": {}, ", sr.seed));
    match &sr.outcome {
        SeedOutcome::Completed(s) => {
            out.push_str(&format!(
                "\"status\": \"ok\", \"rounds\": {}, \"replans\": {}, \
                 \"events_processed\": {}, \"events_scheduled\": {}, \
                 \"sensors_ever_dead\": {}, \"fault_deaths\": {}, ",
                s.rounds,
                s.replans,
                s.events_processed,
                s.events_scheduled,
                s.sensors_ever_dead,
                s.fault_deaths
            ));
            out.push_str("\"availability\": ");
            number_into(out, s.availability);
            out.push_str(", \"charger_energy_j\": ");
            number_into(out, s.charger_energy_j.get());
            out.push_str(", \"downtime_sensor_s\": ");
            number_into(out, s.downtime_sensor_s.get());
            out.push_str(", \"min_battery_j\": ");
            number_into(out, s.min_battery_j.get());
            out.push('}');
        }
        SeedOutcome::Failed(f) => {
            out.push_str("\"status\": \"failed\", \"kind\": ");
            escape_into(out, f.kind());
            out.push_str(", \"error\": ");
            escape_into(out, f.message());
            out.push('}');
        }
    }
}

/// The FNV-1a 64-bit offset basis: the state before the first byte.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit state `h` and returns the new
/// state; `fnv_fold(FNV_BASIS, bytes)` is the hash of `bytes`.
pub(crate) fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `seeds` through the scenario factory `make`, fanning across
/// `cfg.workers` threads, and merges the outcome deterministically.
///
/// `make(seed)` builds the scenario for one seed; it runs inside the
/// worker (and inside the panic guard), so a panicking factory is also
/// recorded as a typed failure rather than aborting the sweep.
///
/// # Errors
///
/// [`CampaignError`] if the config is inconsistent (a pinned execution
/// order that is not a permutation). Per-seed problems are *not*
/// errors — they land in the report as [`SeedFailure`]s.
pub fn run_campaign<F>(
    seeds: &[u64],
    cfg: &CampaignConfig,
    make: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(u64) -> Scenario + Sync,
{
    let n = seeds.len();
    let order: Vec<usize> = match &cfg.execution_order {
        Some(order) => {
            let mut check: Vec<usize> = order.clone();
            check.sort_unstable();
            if check != (0..n).collect::<Vec<_>>() {
                return Err(CampaignError::BadExecutionOrder { seeds: n });
            }
            order.clone()
        }
        None => (0..n).collect(),
    };
    let slot_results: Vec<(usize, SeedResult)> = par_map(n, cfg.workers, |slot| {
        let idx = order[slot];
        let seed = seeds[idx];
        (idx, run_one_seed(seed, cfg, &make))
    });
    // Slot results arrive in start order; re-key them to seed order so
    // the merge below is canonical no matter who finished when.
    let mut by_index: Vec<Option<SeedResult>> = Vec::with_capacity(n);
    by_index.resize_with(n, || None);
    for (idx, result) in slot_results {
        by_index[idx] = Some(result);
    }
    let seeds_out: Vec<SeedResult> = by_index
        .into_iter()
        .enumerate()
        .map(|(idx, r)| {
            r.unwrap_or(SeedResult {
                seed: seeds[idx],
                outcome: SeedOutcome::Failed(SeedFailure::Panic(String::from(
                    "seed result lost by the worker pool",
                ))),
            })
        })
        .collect();
    let mut merged = StatsSnapshot::default();
    for sr in &seeds_out {
        if let SeedOutcome::Completed(s) = &sr.outcome {
            merged.merge(&s.snapshot);
        }
    }
    Ok(CampaignReport {
        seeds: seeds_out,
        merged,
        workers: cfg.workers.max(1),
    })
}

fn run_one_seed<F>(seed: u64, cfg: &CampaignConfig, make: &F) -> SeedResult
where
    F: Fn(u64) -> Scenario + Sync,
{
    let stats = Arc::new(StatsRecorder::deterministic());
    let jsonl: Option<Arc<JsonlRecorder<RotatingJsonl>>> = match &cfg.trace {
        Some(tc) => {
            match RotatingJsonl::create(&tc.dir, &format!("trace-seed{seed}"), tc.max_file_bytes) {
                Ok(sink) => Some(Arc::new(JsonlRecorder::new(sink))),
                Err(e) => {
                    return SeedResult {
                        seed,
                        outcome: SeedOutcome::Failed(SeedFailure::Sink(e.to_string())),
                    }
                }
            }
        }
        None => None,
    };
    let recorder: Arc<dyn Recorder> = match &jsonl {
        Some(j) => {
            let sinks: Vec<Arc<dyn Recorder>> = vec![stats.clone(), j.clone()];
            Arc::new(FanoutRecorder::new(sinks))
        }
        None => stats.clone(),
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        let scenario = make(seed);
        bc_obs::with_local(recorder, || {
            // Per-seed root span: the DES engine's own `des.run` tree
            // nests under it, so a tree recorder over a campaign groups
            // by seed at the top. If `bc_des::run` panics, the guard's
            // Drop still pops the worker thread's span stack.
            let span = bc_obs::ScopedSpan::enter("campaign", "seed");
            let result = bc_des::run(&scenario);
            span.finish();
            result
        })
    }));
    // The fanout (sole other holder of the jsonl Arc) died with the
    // closure, so the unwrap-and-finish below always succeeds; a failure
    // is still accounted for rather than panicking the worker.
    let trace_files = match jsonl.map(Arc::try_unwrap) {
        None => Ok(Vec::new()),
        Some(Ok(rec)) => rec.into_inner().finish().map_err(|e| e.to_string()),
        Some(Err(_)) => Err(String::from("trace sink still shared after the run")),
    };
    let outcome = match (run, trace_files) {
        (Ok(Ok(report)), Ok(files)) => {
            SeedOutcome::Completed(SeedSummary::from_report(&report, stats.snapshot(), files))
        }
        (Ok(Err(des_err)), _) => SeedOutcome::Failed(SeedFailure::Run(des_err.to_string())),
        // `.as_ref()` matters: `&payload` would coerce the Box itself
        // into `&dyn Any` and every downcast would miss.
        (Err(payload), _) => SeedOutcome::Failed(SeedFailure::Panic(panic_text(payload.as_ref()))),
        (Ok(Ok(_)), Err(sink_err)) => SeedOutcome::Failed(SeedFailure::Sink(sink_err)),
    };
    SeedResult { seed, outcome }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}
