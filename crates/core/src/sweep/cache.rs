//! Persistent cross-campaign content-addressed result cache.
//!
//! The journal makes one campaign resumable; the cache makes *repeated*
//! campaigns cheap. Every completed cell is identified by its FNV-1a
//! [`RunKey`] — a content hash of the region, binding, variant and
//! effective simulator configuration — so a cell whose inputs are
//! unchanged produces byte-identical report output no matter which
//! campaign, process or machine ran it. The cache is therefore just a
//! key-addressed store of [`RunRecord`] lines:
//!
//! ```text
//! <root>/ab/abcdef0123456789.nachos-journal-v3.rec
//! ```
//!
//! The first byte of the key fans entries out, and the record schema
//! ([`JOURNAL_SCHEMA`]) names the file.
//!
//! Invalidation is structural, not temporal: any change to a region,
//! binding, fault plan, variant or simulator knob changes the key, so
//! stale entries are never *wrong*, merely unreachable garbage. A new
//! record layout changes the schema and so every entry's path: entries
//! of an older layout are never read, so they miss rather than misparse.
//! The per-record checksum frame ([`crate::json::checksum_frame`])
//! guards against disk corruption: a flipped byte makes
//! [`ResultCache::lookup`] report [`CacheLookup::Corrupt`], the entry is
//! removed, and the cell simply re-executes.
//!
//! Only **settled** outcomes are cached: `ok`, `mismatch` and
//! `fault_detected` are deterministic conclusions about the inputs.
//! Transient failures (panic, deadlock, error), quarantines and
//! cancellations stay campaign-local — a new campaign deserves a fresh
//! attempt, with its own retry budget, at anything that did not settle.

use super::journal::{RunKey, RunRecord, JOURNAL_SCHEMA, MAX_RECORD_LEN};
use super::RunStatus;
use crate::json::write_atomic;
use std::fs::{self, File};
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};

/// Handle to a cache root directory. Cheap to clone; all state lives on
/// disk, so concurrent supervisors sharing a root are safe (entries are
/// written atomically and content-addressed — the worst race is two
/// processes writing the identical record).
#[derive(Clone, Debug)]
pub struct ResultCache {
    root: PathBuf,
}

/// Outcome of a cache probe.
#[derive(Clone, Debug, PartialEq)]
pub enum CacheLookup {
    /// A valid record for the key (the record's own key was verified
    /// against the probe, so a misfiled entry cannot be served). Boxed:
    /// a record is large and `Miss` is the common campaign-start case.
    Hit(Box<RunRecord>),
    /// No entry.
    Miss,
    /// An entry existed but failed its checksum, failed to parse, or
    /// carried the wrong key; it has been removed (best effort) and the
    /// caller should re-execute the cell.
    Corrupt,
}

/// Aggregate counters from cache interactions during one campaign.
/// Diagnostics only — none of this enters report bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes served from the cache.
    pub hits: usize,
    /// Probes with no entry.
    pub misses: usize,
    /// Entries dropped (and removed) as corrupt.
    pub corrupt: usize,
    /// Records newly promoted into the cache.
    pub stored: usize,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// The conventional cache location: `$XDG_CACHE_HOME/nachos/sweep`,
    /// falling back to `~/.cache/nachos/sweep`, falling back to a
    /// `nachos-sweep-cache` directory under the system temp dir when no
    /// home is known (sandboxed CI).
    #[must_use]
    pub fn default_root() -> PathBuf {
        if let Some(xdg) = std::env::var_os("XDG_CACHE_HOME").filter(|v| !v.is_empty()) {
            return PathBuf::from(xdg).join("nachos").join("sweep");
        }
        if let Some(home) = std::env::var_os("HOME").filter(|v| !v.is_empty()) {
            return PathBuf::from(home)
                .join(".cache")
                .join("nachos")
                .join("sweep");
        }
        std::env::temp_dir().join("nachos-sweep-cache")
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Whether `status` settles a cell permanently enough to serve it
    /// to future campaigns (see the module docs for the policy).
    #[must_use]
    pub fn cacheable(status: RunStatus) -> bool {
        matches!(
            status,
            RunStatus::Ok | RunStatus::Mismatch | RunStatus::FaultDetected
        )
    }

    fn entry_path(&self, key: RunKey) -> PathBuf {
        let hex = key.to_string();
        self.root
            .join(&hex[..2])
            .join(format!("{hex}.{JOURNAL_SCHEMA}.rec"))
    }

    /// Probes the cache for `key`. Corrupt entries (checksum failure,
    /// parse failure, key mismatch, longer than [`MAX_RECORD_LEN`]) are
    /// removed on a best-effort basis so they cost one re-execution,
    /// once.
    #[must_use]
    pub fn lookup(&self, key: RunKey) -> CacheLookup {
        let path = self.entry_path(key);
        // Read at most one byte past the record cap: a longer entry is
        // corrupt, and must not be buffered whole to find that out.
        let mut bytes = Vec::new();
        let read = File::open(&path)
            .and_then(|f| f.take(MAX_RECORD_LEN as u64 + 1).read_to_end(&mut bytes));
        match read {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            // An unreadable entry is indistinguishable from a corrupt
            // one for our purposes: re-execute.
            Err(_) => return CacheLookup::Corrupt,
        }
        let parsed = std::str::from_utf8(&bytes)
            .ok()
            .filter(|_| bytes.len() <= MAX_RECORD_LEN)
            .and_then(|s| RunRecord::from_line(s.trim_end()));
        match parsed {
            Some(rec) if rec.key == key && Self::cacheable(rec.outcome.status) => {
                CacheLookup::Hit(Box::new(rec))
            }
            _ => {
                let _ = fs::remove_file(&path);
                CacheLookup::Corrupt
            }
        }
    }

    /// Promotes one settled record into the cache. Returns `false`
    /// without writing when the record's status is not cacheable
    /// (`Self::cacheable`) or an entry already exists (first write
    /// wins; any valid entry for a key encodes the identical outcome).
    ///
    /// The entry lands atomically (`tmp` + rename), so a crash
    /// mid-store can never leave a torn entry that later reads as
    /// corrupt.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn store(&self, record: &RunRecord) -> io::Result<bool> {
        if !Self::cacheable(record.outcome.status) {
            return Ok(false);
        }
        let path = self.entry_path(record.key);
        if path.exists() {
            return Ok(false);
        }
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        write_atomic(&path, &record.to_line())?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::super::journal::{Attempt, OutcomeRecord};
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("nachos-cache-unit").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u64, status: RunStatus) -> RunRecord {
        RunRecord {
            key: RunKey(key),
            job: "j".into(),
            variant: "nachos".into(),
            outcome: OutcomeRecord {
                status,
                detail: None,
                injected: Vec::new(),
                attempts: vec![Attempt { status, seed: 7 }],
                metrics: None,
            },
        }
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = ResultCache::open(scratch("roundtrip")).unwrap();
        let rec = record(0xabcd_ef01_2345_6789, RunStatus::Ok);
        assert!(cache.store(&rec).unwrap());
        assert!(!cache.store(&rec).unwrap(), "second store is a no-op");
        assert_eq!(
            cache.lookup(rec.key),
            CacheLookup::Hit(Box::new(rec.clone()))
        );
        assert_eq!(cache.lookup(RunKey(1)), CacheLookup::Miss);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn unsettled_statuses_are_never_cached() {
        let cache = ResultCache::open(scratch("policy")).unwrap();
        for status in [
            RunStatus::Panic,
            RunStatus::Deadlock,
            RunStatus::Error,
            RunStatus::Quarantined,
            RunStatus::Cancelled,
        ] {
            let rec = record(status as u64 + 100, status);
            assert!(!cache.store(&rec).unwrap(), "{status} must not be cached");
            assert_eq!(cache.lookup(rec.key), CacheLookup::Miss);
        }
        for status in [RunStatus::Ok, RunStatus::Mismatch, RunStatus::FaultDetected] {
            let rec = record(status as u64 + 200, status);
            assert!(cache.store(&rec).unwrap());
        }
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entry_is_detected_and_self_healed() {
        let cache = ResultCache::open(scratch("corrupt")).unwrap();
        let rec = record(0x1111_2222_3333_4444, RunStatus::Ok);
        assert!(cache.store(&rec).unwrap());
        let path = cache.entry_path(rec.key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(rec.key), CacheLookup::Corrupt);
        assert!(!path.exists(), "the corrupt entry was removed");
        assert_eq!(cache.lookup(rec.key), CacheLookup::Miss, "cost paid once");
        // The cell can be re-stored after re-execution.
        assert!(cache.store(&rec).unwrap());
        assert_eq!(cache.lookup(rec.key), CacheLookup::Hit(Box::new(rec)));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn misfiled_entry_is_rejected() {
        let cache = ResultCache::open(scratch("misfiled")).unwrap();
        let rec = record(0x5555_6666_7777_8888, RunStatus::Ok);
        assert!(cache.store(&rec).unwrap());
        // Copy the (internally valid) entry under a different key's
        // path: the content-address check must refuse to serve it.
        let wrong = RunKey(0x9999_aaaa_bbbb_cccc);
        let wrong_path = cache.entry_path(wrong);
        fs::create_dir_all(wrong_path.parent().unwrap()).unwrap();
        fs::copy(cache.entry_path(rec.key), &wrong_path).unwrap();
        assert_eq!(cache.lookup(wrong), CacheLookup::Corrupt);
        assert!(!wrong_path.exists());
        let _ = fs::remove_dir_all(cache.root());
    }
}
