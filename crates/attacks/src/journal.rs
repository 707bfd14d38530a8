//! The persistent campaign journal: a fingerprint-keyed, append-only
//! JSON-lines file that makes campaigns resumable and incremental.
//!
//! Every *committed* campaign cell (a verdict the verification step has
//! stamped — never an [`AttackError::Interrupted`](crate::AttackError) row)
//! is appended as one flat JSON object keyed by the cell fingerprint:
//! a hash of (host-netlist fingerprint, resolved scheme spec, prepare tag,
//! attack name, budget). A verdict is only replayed under the budget it was
//! reached under: a re-run with another wall clock, iteration cap,
//! conflict limit or query cap re-attacks every cell. Re-running a
//! campaign against the same journal replays
//! recorded cells from disk and schedules only the cells with no recorded
//! verdict, so a grown matrix attacks its new cells only and a crash
//! mid-sweep resumes from the last committed row.
//!
//! Two record types share the file:
//!
//! ```text
//! {"type":"instance","fp":"<16-hex instance fp>","locked_fp":"<16-hex>"}
//! {"type":"cell","fp":"<16-hex cell fp>", ...CampaignCell fields...}
//! ```
//!
//! `instance` records pin the fingerprint of the *locked* netlist the
//! deterministic scheme construction produced. When a resumed campaign
//! re-materialises an instance whose locked fingerprint no longer matches
//! (e.g. a scheme implementation changed between runs), the corpus surfaces
//! a structured setup error telling the operator the journal is stale —
//! silent mixing of old and new verdicts is the failure mode this guards
//! against.
//!
//! Torn writes are expected: a crash can leave a half-appended final line.
//! [`CampaignJournal::open`] parses line by line and skips anything
//! malformed, so a truncated tail costs exactly one re-attacked cell.

use crate::campaign::{cell_from_pairs, cell_json_body, CampaignCell, CampaignError};
use crate::engine::Budget;
use crate::report::{json_str, parse_flat_object, JsonScalar};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The fingerprint of one locked-instance address: host netlist ×
/// resolved spec × prepare tag. Stable across processes (the inputs are
/// already content hashes / canonical strings).
pub fn instance_fingerprint(host_fp: u64, spec: &str, prepare_tag: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    host_fp.hash(&mut hasher);
    spec.hash(&mut hasher);
    prepare_tag.hash(&mut hasher);
    hasher.finish()
}

/// The fingerprint of one campaign cell: its instance address, the attack
/// name and every field of the budget the attack runs under.
pub fn cell_fingerprint(instance_fp: u64, attack: &str, budget: &Budget) -> u64 {
    use std::hash::{Hash, Hasher};
    let Budget {
        time_limit,
        max_iterations,
        sat_conflict_limit,
        max_oracle_queries,
    } = budget;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    instance_fp.hash(&mut hasher);
    attack.hash(&mut hasher);
    time_limit.hash(&mut hasher);
    max_iterations.hash(&mut hasher);
    sat_conflict_limit.hash(&mut hasher);
    max_oracle_queries.hash(&mut hasher);
    hasher.finish()
}

/// An open campaign journal: the replay index loaded from disk plus the
/// append handle new verdicts are committed through.
///
/// Appends happen from harness worker threads (one line per completed
/// cell, under a mutex, flushed immediately) — the "last committed row"
/// a crashed sweep resumes from is literally the last intact line.
pub struct CampaignJournal {
    path: PathBuf,
    file: Mutex<File>,
    cells: Mutex<HashMap<u64, CampaignCell>>,
    instances: Mutex<HashMap<u64, u64>>,
    write_errors: AtomicUsize,
}

impl std::fmt::Debug for CampaignJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignJournal")
            .field("path", &self.path)
            .field("cells", &self.cells.lock().expect("journal lock").len())
            .finish()
    }
}

impl CampaignJournal {
    /// Opens (creating if absent) a journal and loads its replay index.
    /// Malformed lines — e.g. the torn tail of a crashed append — are
    /// skipped; later records win when a fingerprint repeats.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Journal`] when the file cannot be read or
    /// opened for append.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let path = path.into();
        let mut cells = HashMap::new();
        let mut instances = HashMap::new();
        match File::open(&path) {
            Ok(existing) => {
                for line in BufReader::new(existing).lines() {
                    let line = line
                        .map_err(|e| CampaignError::Journal(format!("{}: {e}", path.display())))?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let Some(pairs) = parse_flat_object(&line) else {
                        continue; // torn or foreign line: costs one re-attack
                    };
                    let field = |name: &str| {
                        pairs
                            .iter()
                            .find(|(key, _)| key == name)
                            .map(|(_, value)| value)
                    };
                    let Some(kind) = field("type").and_then(JsonScalar::as_str) else {
                        continue;
                    };
                    let Some(fp) = field("fp")
                        .and_then(JsonScalar::as_str)
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    else {
                        continue;
                    };
                    match kind {
                        "cell" => {
                            if let Some(cell) = cell_from_pairs(&pairs) {
                                cells.insert(fp, cell);
                            }
                        }
                        "instance" => {
                            if let Some(locked_fp) = field("locked_fp")
                                .and_then(JsonScalar::as_str)
                                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                            {
                                instances.insert(fp, locked_fp);
                            }
                        }
                        _ => {}
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(CampaignError::Journal(format!("{}: {e}", path.display()))),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CampaignError::Journal(format!("{}: {e}", path.display())))?;
        Ok(CampaignJournal {
            path,
            file: Mutex::new(file),
            cells: Mutex::new(cells),
            instances: Mutex::new(instances),
            write_errors: AtomicUsize::new(0),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of recorded cell verdicts.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("journal lock").len()
    }

    /// Whether the journal holds no cell verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded verdict for a cell fingerprint, if any.
    pub fn cell(&self, fp: u64) -> Option<CampaignCell> {
        self.cells.lock().expect("journal lock").get(&fp).cloned()
    }

    /// The recorded locked-netlist fingerprint of an instance, if any.
    pub fn instance_locked_fp(&self, fp: u64) -> Option<u64> {
        self.instances
            .lock()
            .expect("journal lock")
            .get(&fp)
            .copied()
    }

    /// Records (once) which locked netlist an instance address produced,
    /// so a later resume can detect stale journals.
    pub fn record_instance(&self, fp: u64, locked_fp: u64) {
        {
            let mut instances = self.instances.lock().expect("journal lock");
            if instances.contains_key(&fp) {
                return;
            }
            instances.insert(fp, locked_fp);
        }
        let mut line = String::with_capacity(64);
        line.push('{');
        json_str(&mut line, "type", "instance");
        line.push(',');
        json_str(&mut line, "fp", &format!("{fp:016x}"));
        line.push(',');
        json_str(&mut line, "locked_fp", &format!("{locked_fp:016x}"));
        line.push_str("}\n");
        self.append(&line);
    }

    /// Commits one completed cell verdict. Thread-safe; flushed per line so
    /// the last committed row survives a crash.
    pub fn record_cell(&self, fp: u64, cell: &CampaignCell) {
        self.cells
            .lock()
            .expect("journal lock")
            .insert(fp, cell.clone());
        let mut line = String::with_capacity(256);
        line.push('{');
        json_str(&mut line, "type", "cell");
        line.push(',');
        json_str(&mut line, "fp", &format!("{fp:016x}"));
        line.push(',');
        cell_json_body(&mut line, cell);
        line.push_str("}\n");
        self.append(&line);
    }

    /// Append failures seen so far. A failing disk degrades durability, not
    /// correctness: the in-memory campaign still completes and reports; only
    /// resumability of the affected rows is lost.
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn append(&self, line: &str) {
        let mut file = self.file.lock().expect("journal lock");
        let failed = file.write_all(line.as_bytes()).is_err() || file.flush().is_err();
        if failed {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Verdict;
    use crate::harness::JobTelemetry;
    use std::time::Duration;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kratt-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample_cell() -> CampaignCell {
        CampaignCell {
            host: "add4".to_string(),
            scheme: "sarlock:k=3".to_string(),
            lint: "2W".to_string(),
            attack: "sat".to_string(),
            outcome: Some("exact-key"),
            verdict: Verdict::Verified,
            key: Some("3'h5".to_string()),
            cdk: 3,
            dk: 3,
            runtime: Duration::from_millis(1500),
            iterations: 7,
            oracle_queries: 9,
            error: None,
            telemetry: JobTelemetry {
                worker: 2,
                queue_wait: Duration::from_millis(250),
                stolen: true,
            },
            replayed: false,
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = instance_fingerprint(1, "sarlock:k=3", "");
        assert_eq!(a, instance_fingerprint(1, "sarlock:k=3", ""));
        assert_ne!(a, instance_fingerprint(2, "sarlock:k=3", ""));
        assert_ne!(a, instance_fingerprint(1, "sarlock:k=4", ""));
        assert_ne!(a, instance_fingerprint(1, "sarlock:k=3", "resynth"));
        let budget = Budget::default();
        let fp = cell_fingerprint(a, "sat", &budget);
        assert_eq!(fp, cell_fingerprint(a, "sat", &budget));
        assert_ne!(fp, cell_fingerprint(a, "scope", &budget));
        // Every budget field is part of the key.
        let variants = [
            Budget {
                time_limit: Some(Duration::from_secs(3)),
                ..Budget::default()
            },
            Budget {
                max_iterations: 7,
                ..Budget::default()
            },
            Budget {
                sat_conflict_limit: Some(100),
                ..Budget::default()
            },
            Budget {
                max_oracle_queries: Some(100),
                ..Budget::default()
            },
        ];
        for variant in &variants {
            assert_ne!(fp, cell_fingerprint(a, "sat", variant), "{variant:?}");
        }
    }

    #[test]
    fn journal_round_trips_cells_and_instances() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let cell = sample_cell();
        let fp = cell_fingerprint(
            instance_fingerprint(42, "sarlock:k=3", ""),
            "sat",
            &Budget::default(),
        );
        {
            let journal = CampaignJournal::open(&path).unwrap();
            assert!(journal.is_empty());
            journal.record_instance(7, 0xDEAD);
            journal.record_instance(7, 0xBEEF); // duplicate: first one wins
            journal.record_cell(fp, &cell);
            assert_eq!(journal.write_errors(), 0);
        }
        let journal = CampaignJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.instance_locked_fp(7), Some(0xDEAD));
        assert_eq!(journal.instance_locked_fp(8), None);
        let replayed = journal.cell(fp).expect("recorded cell");
        assert_eq!(replayed.host, cell.host);
        assert_eq!(replayed.scheme, cell.scheme);
        assert_eq!(replayed.lint, cell.lint);
        assert_eq!(replayed.attack, cell.attack);
        assert_eq!(replayed.outcome, cell.outcome);
        assert_eq!(replayed.verdict, cell.verdict);
        assert_eq!(replayed.key, cell.key);
        assert_eq!((replayed.cdk, replayed.dk), (3, 3));
        assert_eq!(replayed.runtime, cell.runtime);
        assert_eq!(replayed.iterations, 7);
        assert_eq!(replayed.oracle_queries, 9);
        assert_eq!(replayed.telemetry.worker, 2);
        assert!(replayed.telemetry.stolen);
        assert!(journal.cell(fp ^ 1).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_lines_cost_one_cell_not_the_journal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let cell = sample_cell();
        {
            let journal = CampaignJournal::open(&path).unwrap();
            journal.record_cell(1, &cell);
            journal.record_cell(2, &cell);
        }
        // Simulate a crash mid-append: truncate into the middle of the
        // second record.
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.find('\n').unwrap() + 1;
        std::fs::write(&path, &text[..first_len + 20]).unwrap();
        let journal = CampaignJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 1, "intact line replayed, torn line skipped");
        assert!(journal.cell(1).is_some());
        assert!(journal.cell(2).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
