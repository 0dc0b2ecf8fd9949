//! The rule catalog and the per-file scanner.
//!
//! Three passes share one engine:
//!
//! * the **core pass** — the original seven `cargo xtask lint` rules
//!   (cast audit, panic ban, typed quantity fields, context bypass, raw
//!   DES time, print ban, naked locks), now matched against
//!   lexer-sanitized code so literals and comments can no longer trip
//!   or suppress them;
//! * the **determinism pass** — bans the three ways nondeterminism has
//!   historically entered plan-affecting code: iteration-order-dependent
//!   collections (`HashMap`/`HashSet`) in `bc-core`/`bc-des`/`bc-serve`,
//!   wall-clock acquisition (`Instant::now`/`SystemTime::now`) outside
//!   `bc_obs::wall`, and ad-hoc `thread::spawn` outside `bc_core::par`;
//! * the **concurrency pass** — raw `Mutex`/`RwLock` acquisition inside
//!   `bc-serve` (which must route through the `bc_serve::sync` poison
//!   recovery helpers) and `static mut` anywhere.
//!
//! Every rule names an escape marker; markers live in *trailing*
//! comments and the engine's `stale-escape` rule reports any marker
//! that stopped suppressing something — so the escape inventory can
//! only shrink, never silently rot.

use crate::lexer::SourceFile;
use std::collections::BTreeSet;
use std::fmt;

/// Every rule the engine knows, across all passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// ` as f64`-style numeric cast without a `cast-ok:` audit marker.
    UnannotatedCast,
    /// `.unwrap()` / `.expect(` in library code.
    PanickingExtractor,
    /// `pub <name>_{j,s,m,…}: f64` field in a quantity crate.
    RawQuantityField,
    /// Shared planner artifact built outside `PlanContext`.
    ContextBypass,
    /// Raw `f64` time arithmetic in `bc-des` outside `clock`.
    RawTime,
    /// `println!`/`eprintln!` in library code.
    PrintBan,
    /// `.lock().unwrap()`-style poison-panicking acquisition.
    NakedLock,
    /// Any raw `.lock(`/`.read(`/`.write(` in `bc-serve` outside
    /// `bc_serve::sync`.
    RawLockAcquire,
    /// `HashMap`/`HashSet` in a plan-affecting crate.
    UnorderedCollection,
    /// `Instant::now`/`SystemTime::now` outside `bc_obs::wall`.
    WallClock,
    /// `thread::spawn` outside `bc_core::par`.
    ThreadSpawn,
    /// `static mut` anywhere in library code.
    StaticMut,
    /// An escape marker that suppresses nothing.
    StaleEscape,
    /// Workspace/crate manifest lint-config drift.
    LintTableDrift,
}

impl RuleId {
    /// Every rule, in catalog (report) order.
    pub const ALL: [RuleId; 14] = [
        RuleId::UnannotatedCast,
        RuleId::PanickingExtractor,
        RuleId::RawQuantityField,
        RuleId::ContextBypass,
        RuleId::RawTime,
        RuleId::PrintBan,
        RuleId::NakedLock,
        RuleId::RawLockAcquire,
        RuleId::UnorderedCollection,
        RuleId::WallClock,
        RuleId::ThreadSpawn,
        RuleId::StaticMut,
        RuleId::StaleEscape,
        RuleId::LintTableDrift,
    ];

    /// Stable kebab-case identifier (report key).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnannotatedCast => "unannotated-cast",
            RuleId::PanickingExtractor => "panicking-extractor",
            RuleId::RawQuantityField => "raw-quantity-field",
            RuleId::ContextBypass => "context-bypass",
            RuleId::RawTime => "raw-time",
            RuleId::PrintBan => "print-ban",
            RuleId::NakedLock => "naked-lock",
            RuleId::RawLockAcquire => "raw-lock",
            RuleId::UnorderedCollection => "det-unordered-collection",
            RuleId::WallClock => "det-wall-clock",
            RuleId::ThreadSpawn => "det-thread-spawn",
            RuleId::StaticMut => "conc-static-mut",
            RuleId::StaleEscape => "stale-escape",
            RuleId::LintTableDrift => "lint-table-drift",
        }
    }

    /// Which pass the rule belongs to.
    pub fn pass(self) -> &'static str {
        match self {
            RuleId::UnannotatedCast
            | RuleId::PanickingExtractor
            | RuleId::RawQuantityField
            | RuleId::ContextBypass
            | RuleId::RawTime
            | RuleId::PrintBan
            | RuleId::NakedLock => "core",
            RuleId::UnorderedCollection | RuleId::WallClock | RuleId::ThreadSpawn => "determinism",
            RuleId::RawLockAcquire | RuleId::StaticMut => "concurrency",
            RuleId::StaleEscape => "engine",
            RuleId::LintTableDrift => "manifest",
        }
    }

    /// The trailing-comment marker that waives the rule on a line, when
    /// the rule supports one.
    pub fn escape(self) -> Option<&'static str> {
        match self {
            RuleId::UnannotatedCast => Some("cast-ok:"),
            RuleId::PanickingExtractor => Some("panic-ok:"),
            RuleId::RawQuantityField => Some("unit-ok:"),
            RuleId::ContextBypass => Some("context-ok:"),
            RuleId::RawTime => Some("time-ok:"),
            RuleId::PrintBan => Some("print-ok:"),
            RuleId::NakedLock | RuleId::RawLockAcquire => Some("lock-ok:"),
            RuleId::UnorderedCollection | RuleId::WallClock | RuleId::ThreadSpawn => {
                Some("det-ok:")
            }
            RuleId::StaticMut => Some("conc-ok:"),
            RuleId::StaleEscape => Some("stale-ok:"),
            RuleId::LintTableDrift => None,
        }
    }

    /// The fix suggestion shown alongside a finding.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::UnannotatedCast => {
                "add `// cast-ok: <reason>` or route through bc-units"
            }
            RuleId::PanickingExtractor => {
                "return an error (see PlanError/ExecError) instead of panicking"
            }
            RuleId::RawQuantityField => {
                "use a bc-units newtype (Joules, Seconds, Meters, ...)"
            }
            RuleId::ContextBypass => {
                "build this artifact through PlanContext, or add `// context-ok: <reason>`"
            }
            RuleId::RawTime => {
                "route timestamps through des::clock (Time, seconds()/minutes()/hours()), \
                 or add `// time-ok: <reason>`"
            }
            RuleId::PrintBan => {
                "emit a bc-obs event instead of printing from library code, \
                 or add `// print-ok: <reason>`"
            }
            RuleId::NakedLock => {
                "recover from poisoning via bc_serve::sync::{lock,read,write}_recover, \
                 or add `// lock-ok: <reason>`"
            }
            RuleId::RawLockAcquire => {
                "bc-serve must acquire locks through bc_serve::sync \
                 (lock_recover/read_recover/write_recover), \
                 or add `// lock-ok: <reason>`"
            }
            RuleId::UnorderedCollection => {
                "iteration order feeds plans: use BTreeMap/BTreeSet (or sort before \
                 iterating) in core/des/serve/campaign, or add `// det-ok: <reason>` \
                 for membership-only use"
            }
            RuleId::WallClock => {
                "acquire wall time through bc_obs::wall::now() so determinism-sensitive \
                 code has one auditable clock source, or add `// det-ok: <reason>`"
            }
            RuleId::ThreadSpawn => {
                "use bc_core::par scoped fan-out (deterministic slot order), \
                 or add `// det-ok: <reason>`"
            }
            RuleId::StaticMut => {
                "replace `static mut` with an atomic, Mutex, or OnceLock, \
                 or add `// conc-ok: <reason>`"
            }
            RuleId::StaleEscape => {
                "this marker no longer suppresses anything: delete it \
                 (or add `// stale-ok: <reason>` if it must stay)"
            }
            RuleId::LintTableDrift => "restore the workspace lint config",
        }
    }

    /// One-line description of where the rule applies, for the report's
    /// rule catalog.
    pub fn scope_doc(self) -> &'static str {
        match self {
            RuleId::UnannotatedCast | RuleId::PanickingExtractor | RuleId::StaticMut => {
                "all library code"
            }
            RuleId::RawQuantityField => "crates/wpt, crates/core",
            RuleId::ContextBypass => {
                "all library code except crates/tsp, core::context, core::candidates"
            }
            RuleId::RawTime => "crates/des except the clock module",
            RuleId::PrintBan => "all library code except binary targets",
            RuleId::NakedLock => "all library code outside the raw-lock scope",
            RuleId::RawLockAcquire => "crates/serve except the sync module",
            RuleId::UnorderedCollection => {
                "crates/core, crates/des, crates/serve, crates/campaign, crates/obs"
            }
            RuleId::WallClock => "all library code except bc_obs::wall and binary targets",
            RuleId::ThreadSpawn => "all library code except bc_core::par and binary targets",
            RuleId::StaleEscape => "every recognized escape marker in scanned code",
            RuleId::LintTableDrift => "root and crate manifests",
        }
    }
}

/// One finding: `file:line:col`, the offending excerpt, and (through
/// [`RuleId::hint`]) how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column of the first match on the line (0 for
    /// file-level findings such as manifest drift).
    pub col: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// The offending source line (trimmed), or a synthesized message for
    /// file-level findings.
    pub excerpt: String,
}

impl Diagnostic {
    /// Report/sort key: findings order by location first, rule second.
    pub fn sort_key(&self) -> (String, usize, usize, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule.name())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {} ({})",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.excerpt.trim(),
            self.rule.hint()
        )
    }
}

/// The numeric casts that require an audit marker in library code.
const CAST_PATTERNS: [&str; 6] = [
    " as f64", " as usize", " as u64", " as u32", " as i64", " as i32",
];

/// Artifact constructions that must go through `bc_core::context` in
/// planner-layer code. The first pattern has no closing paren so the
/// `_par` variant matches too.
const CONTEXT_BYPASS_PATTERNS: [&str; 2] = [
    "CandidateFamily::pair_intersection",
    "DistanceMatrix::from_points(",
];

/// Raw time arithmetic that must stay inside `des::clock`.
const RAW_TIME_PATTERNS: [&str; 3] = ["Seconds(", "_s.0", "as_secs_f64"];

/// Print diagnostics banned from library code (`eprintln!` contains
/// `println!`, so one pattern covers both; kept separate for clarity).
const PRINT_PATTERNS: [&str; 2] = ["println!", "eprintln!"];

/// Lock acquisitions that panic on poison (workspace-wide rule).
const NAKED_LOCK_PATTERNS: [&str; 6] = [
    ".lock().unwrap()",
    ".lock().expect(",
    ".read().unwrap()",
    ".read().expect(",
    ".write().unwrap()",
    ".write().expect(",
];

/// Any raw acquisition at all (bc-serve rule: even a poison-handling
/// call site must live in `bc_serve::sync`, so the recovery policy has
/// one auditable home).
const RAW_LOCK_PATTERNS: [&str; 3] = [".lock(", ".read(", ".write("];

/// Iteration-order-dependent collections (determinism pass).
const UNORDERED_PATTERNS: [&str; 2] = ["HashMap", "HashSet"];

/// Wall-clock acquisition points (determinism pass). Holding or
/// comparing an `Instant` someone else minted is fine; minting one is
/// what must route through `bc_obs::wall`.
const WALL_CLOCK_PATTERNS: [&str; 2] = ["Instant::now", "SystemTime::now"];

/// Ad-hoc thread creation (determinism pass). `std::thread::spawn`
/// contains the pattern; `thread::scope`'s scoped spawns (`s.spawn`) do
/// not match and stay confined to `bc_core::par` by review.
const THREAD_SPAWN_PATTERNS: [&str; 1] = ["thread::spawn"];

/// `static mut` (concurrency pass).
const STATIC_MUT_PATTERNS: [&str; 1] = ["static mut"];

/// Suffixes that mark a field as a physical quantity (matching the
/// `bc-units` catalog).
const QUANTITY_SUFFIXES: [&str; 7] = ["_j", "_s", "_m", "_m2", "_w", "_mps", "_jpm"];

/// Files allowed to construct the shared planner artifacts directly.
fn context_bypass_exempt(label: &str) -> bool {
    label.contains("crates/tsp/")
        || label.ends_with("crates/core/src/context.rs")
        || label.ends_with("crates/core/src/candidates.rs")
}

/// Whether `label` falls under the raw-time rule: all of `bc-des`
/// except the clock module that owns the sanctioned conversions.
fn raw_time_scope(label: &str) -> bool {
    label.contains("crates/des/") && !label.ends_with("clock.rs")
}

/// Binary targets may print and measure wall time — they are the user
/// interface and the benchmark harnesses.
fn bin_target(label: &str) -> bool {
    label.contains("/bin/") || label.ends_with("main.rs")
}

/// Whether `label` is plan-affecting for the unordered-collection rule.
/// The profiler (`crates/obs`) is in scope because it renders
/// byte-stable documents — hash-order iteration would break snapshot
/// determinism.
fn det_collection_scope(label: &str) -> bool {
    label.contains("crates/core/")
        || label.contains("crates/des/")
        || label.contains("crates/serve/")
        || label.contains("crates/campaign/")
        || label.contains("crates/obs/")
}

/// Whether `label` falls under the bc-serve raw-lock rule.
fn raw_lock_scope(label: &str) -> bool {
    label.contains("crates/serve/") && !label.ends_with("sync.rs")
}

/// Whether `label` may acquire wall time directly: only the `bc-obs`
/// wall module (the workspace's single sanctioned clock source).
fn wall_clock_exempt(label: &str) -> bool {
    label.ends_with("crates/obs/src/wall.rs") || bin_target(label)
}

/// Whether `label` may spawn threads directly: only `bc_core::par`
/// (whose scoped fan-out is deterministic by slot order).
fn thread_spawn_exempt(label: &str) -> bool {
    label.ends_with("crates/core/src/par.rs") || bin_target(label)
}

/// Whether `label` is a quantity crate for the typed-field rule.
fn quantity_scope(label: &str) -> bool {
    label.contains("crates/wpt/") || label.contains("crates/core/")
}

/// First match column (1-based) of any of `patterns` in `code`.
fn first_match(code: &str, patterns: &[&str]) -> Option<usize> {
    patterns.iter().filter_map(|p| code.find(p)).min().map(|i| i + 1)
}

/// Scans one library source file; `label` is the workspace-relative
/// path reported in findings. Pure, so the corpus tests feed seeded
/// sources.
pub fn scan_file(label: &str, text: &str) -> Vec<Diagnostic> {
    let sf = SourceFile::parse(text);
    let mut out = Vec::new();
    // (line, marker) pairs that suppressed at least one match.
    let mut used: BTreeSet<(usize, &'static str)> = BTreeSet::new();

    let quantity_crate = quantity_scope(label);
    let lock_scope_serve = raw_lock_scope(label);

    for (idx, code) in sf.code.iter().enumerate() {
        let lineno = idx + 1;
        if sf.test_mask[idx] {
            continue;
        }
        let push = |rule: RuleId, col: usize, out: &mut Vec<Diagnostic>| {
            out.push(Diagnostic {
                file: label.to_string(),
                line: lineno,
                col,
                rule,
                excerpt: sf.raw[idx].trim().to_string(),
            });
        };
        // A rule fires unless its escape marker trails the line; either
        // way the marker's use is recorded for stale detection.
        let mut check = |rule: RuleId, found: Option<usize>, out: &mut Vec<Diagnostic>| {
            let Some(col) = found else { return };
            match rule.escape() {
                Some(marker) if sf.markers_on(lineno).contains(&marker) => {
                    used.insert((lineno, marker));
                }
                _ => push(rule, col, out),
            }
        };

        check(RuleId::UnannotatedCast, first_match(code, &CAST_PATTERNS), &mut out);

        // Lock-rule precedence: in bc-serve, any raw acquisition is the
        // finding (the fix is routing through bc_serve::sync);
        // elsewhere only the panicking forms are, and a lock line never
        // also trips the generic extractor rule (the fix differs).
        if lock_scope_serve {
            let raw = first_match(code, &RAW_LOCK_PATTERNS);
            check(RuleId::RawLockAcquire, raw, &mut out);
            if raw.is_none() {
                check(
                    RuleId::PanickingExtractor,
                    first_match(code, &[".unwrap()", ".expect("]),
                    &mut out,
                );
            }
        } else {
            let naked = first_match(code, &NAKED_LOCK_PATTERNS);
            check(RuleId::NakedLock, naked, &mut out);
            if naked.is_none() {
                check(
                    RuleId::PanickingExtractor,
                    first_match(code, &[".unwrap()", ".expect("]),
                    &mut out,
                );
            }
        }

        if !context_bypass_exempt(label) {
            check(RuleId::ContextBypass, first_match(code, &CONTEXT_BYPASS_PATTERNS), &mut out);
        }
        if raw_time_scope(label) {
            check(RuleId::RawTime, first_match(code, &RAW_TIME_PATTERNS), &mut out);
        }
        if !bin_target(label) {
            check(RuleId::PrintBan, first_match(code, &PRINT_PATTERNS), &mut out);
        }
        if det_collection_scope(label) {
            check(RuleId::UnorderedCollection, first_match(code, &UNORDERED_PATTERNS), &mut out);
        }
        if !wall_clock_exempt(label) {
            check(RuleId::WallClock, first_match(code, &WALL_CLOCK_PATTERNS), &mut out);
        }
        if !thread_spawn_exempt(label) {
            check(RuleId::ThreadSpawn, first_match(code, &THREAD_SPAWN_PATTERNS), &mut out);
        }
        check(RuleId::StaticMut, first_match(code, &STATIC_MUT_PATTERNS), &mut out);

        if quantity_crate {
            if let Some(decl) = raw_quantity_field(code.trim_start()) {
                let col = code.find(decl.trim_end()).map_or(1, |i| i + 1);
                let found = Some(col);
                check(RuleId::RawQuantityField, found, &mut out);
            }
        }
    }

    // Stale markers: any recognized marker that suppressed nothing.
    for (idx, _) in sf.raw.iter().enumerate() {
        let lineno = idx + 1;
        if sf.test_mask[idx] {
            continue;
        }
        let markers = sf.markers_on(lineno);
        if markers.contains(&"stale-ok:") {
            continue;
        }
        for &marker in markers {
            if marker == "stale-ok:" || used.contains(&(lineno, marker)) {
                continue;
            }
            out.push(Diagnostic {
                file: label.to_string(),
                line: lineno,
                col: sf.raw[idx].find(marker).map_or(1, |i| i + 1),
                rule: RuleId::StaleEscape,
                excerpt: format!("`{marker}` suppresses nothing on this line"),
            });
        }
    }

    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Returns the declaration when `line` is a `pub <name>_<unit>: f64`
/// struct field whose name carries a quantity suffix. `line` is
/// sanitized code, so trailing comments arrive pre-blanked.
fn raw_quantity_field(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub ")?;
    let colon = rest.find(':')?;
    let (name, ty) = rest.split_at(colon);
    let name = name.trim();
    let ty = ty[1..].trim().trim_end_matches(',');
    if ty != "f64" {
        return None;
    }
    // Field names are plain identifiers; anything else (fn signatures,
    // generics) has already failed the `find(':')` shape above or fails
    // the identifier check here.
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    QUANTITY_SUFFIXES
        .iter()
        .any(|s| name.ends_with(s))
        .then_some(line)
}
