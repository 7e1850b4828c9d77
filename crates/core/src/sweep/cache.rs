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
//! **Entries are hard links to packs.** One [`ResultCache::store_all`]
//! writes every new record it is given as checksum-framed lines into one
//! temporary pack file, fsyncs it once, and only then hard-links it
//! under each record's entry name; the temporary name is removed last.
//! Durability therefore costs one fsync per store, not one per record,
//! and no entry name ever points at bytes that are not on disk yet. An
//! entry may thus hold several records: a probe picks the line whose
//! key field matches, and verifies and parses only that line. A pack of
//! one record is byte for byte the entry an older binary wrote, so
//! existing caches stay warm. Packs are bounded (64 records and
//! [`MAX_RECORD_LEN`] bytes) so that a probe reads a bounded file.
//!
//! Invalidation is structural, not temporal: any change to a region,
//! binding, fault plan, variant or simulator knob changes the key, so
//! stale entries are never *wrong*, merely unreachable garbage. A new
//! record layout changes the schema and so every entry's path: entries
//! of an older layout are never read, so they miss rather than misparse.
//! The per-record checksum frame ([`crate::json::checksum_frame`])
//! guards against disk corruption: an entry with no valid line for the
//! probed key makes [`ResultCache::lookup`] report
//! [`CacheLookup::Corrupt`], that one link is removed, and the cell
//! simply re-executes; the pack's other keys still hit.
//!
//! Only **settled** outcomes are cached: `ok`, `mismatch` and
//! `fault_detected` are deterministic conclusions about the inputs.
//! Transient failures (panic, deadlock, error), quarantines and
//! cancellations stay campaign-local — a new campaign deserves a fresh
//! attempt, with its own retry budget, at anything that did not settle.

use super::journal::{RunKey, RunRecord, JOURNAL_SCHEMA, MAX_RECORD_LEN};
use super::RunStatus;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The most records one pack holds: every probe of one of its entries
/// reads the whole pack.
const PACK_RECORDS: usize = 64;

/// Numbers this process's temporary pack names.
static PACKS: AtomicU64 = AtomicU64::new(0);

/// Handle to a cache root directory. Cheap to clone; all state lives on
/// disk, so concurrent supervisors sharing a root are safe (entries are
/// linked only once durable, and content-addressed — the worst race is
/// two processes storing the identical record, and the second link is
/// refused).
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
    /// An entry existed but held no line for the key that passes its
    /// checksum, parses and is cacheable; the entry has been removed
    /// (best effort) and the caller should re-execute the cell.
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

    /// Probes the cache for `key`. An entry with no valid line for the
    /// key (checksum failure, parse failure, key mismatch, longer than
    /// [`MAX_RECORD_LEN`]) is removed on a best-effort basis so it costs
    /// one re-execution, once; only that link goes, not the pack's
    /// other entries.
    #[must_use]
    pub fn lookup(&self, key: RunKey) -> CacheLookup {
        let path = self.entry_path(key);
        // Read at most one byte past the pack cap: a longer entry is
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
        let hit = Some(bytes)
            .filter(|b| b.len() <= MAX_RECORD_LEN)
            .and_then(|pack| pack_record(&pack, key));
        match hit {
            Some(rec) => CacheLookup::Hit(Box::new(rec)),
            None => {
                let _ = fs::remove_file(&path);
                CacheLookup::Corrupt
            }
        }
    }

    /// Promotes one settled record into the cache: [`Self::store_all`]
    /// of one record. Returns whether it was stored.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or linking the pack.
    pub fn store(&self, record: &RunRecord) -> io::Result<bool> {
        Ok(self.store_all(std::slice::from_ref(record))? == 1)
    }

    /// Promotes settled records into the cache in one group commit and
    /// returns how many were stored. A record is skipped when its status
    /// is not cacheable ([`Self::cacheable`]), an entry for its key
    /// already exists (first write wins; any valid entry for a key
    /// encodes the identical outcome), or an earlier record of the
    /// batch has its key.
    ///
    /// The rest are written into packs of at most 64 records: each pack
    /// is fsynced before its first link, so a crash at any point leaves
    /// every entry name valid or absent, and at worst a temporary pack
    /// file that no probe ever reads.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or linking a pack; entries
    /// linked before the error stay valid.
    pub fn store_all(&self, records: &[RunRecord]) -> io::Result<usize> {
        let mut keys = HashSet::new();
        let fresh: Vec<(PathBuf, String)> = records
            .iter()
            .filter(|r| Self::cacheable(r.outcome.status) && keys.insert(r.key.0))
            .map(|r| (self.entry_path(r.key), r))
            .filter(|(path, _)| !path.exists())
            .map(|(path, r)| (path, r.to_line()))
            // A probe would read a longer record as corrupt.
            .filter(|(_, line)| line.len() <= MAX_RECORD_LEN)
            .collect();
        let mut stored = 0;
        let mut rest = fresh.as_slice();
        while !rest.is_empty() {
            let mut len = 0;
            let n = rest
                .iter()
                .take(PACK_RECORDS)
                .take_while(|(_, line)| {
                    len += line.len();
                    len <= MAX_RECORD_LEN
                })
                .count();
            let (pack, tail) = rest.split_at(n);
            let tmp = self.root.join(format!(
                "pack-{}-{}.tmp",
                std::process::id(),
                PACKS.fetch_add(1, Ordering::Relaxed)
            ));
            let linked = link_pack(&tmp, pack);
            let _ = fs::remove_file(&tmp);
            stored += linked?;
            rest = tail;
        }
        Ok(stored)
    }
}

/// The record for `key` among a pack's lines. The payload's first two
/// fields are the schema and the key, so only the key's own line is
/// verified and parsed.
fn pack_record(pack: &[u8], key: RunKey) -> Option<RunRecord> {
    let head = format!("{{\"journal\": \"{JOURNAL_SCHEMA}\", \"key\": \"{key}\"");
    pack.split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
        .filter(|line| {
            line.split_once(' ')
                .is_some_and(|(_, p)| p.starts_with(&head))
        })
        .filter_map(RunRecord::from_line)
        .find(|rec| rec.key == key && ResultCache::cacheable(rec.outcome.status))
}

/// Writes `pack`'s lines to `tmp`, fsyncs it, then hard-links it under
/// each entry path. Returns how many links were made: a name another
/// process linked first is skipped.
fn link_pack(tmp: &Path, pack: &[(PathBuf, String)]) -> io::Result<usize> {
    let mut file = File::create(tmp)?;
    let lines: String = pack.iter().map(|(_, line)| line.as_str()).collect();
    file.write_all(lines.as_bytes())?;
    // Durability before visibility: no entry name may point at bytes
    // that are not on disk yet.
    file.sync_all()?;
    // The links need no directory fsync: one a crash loses is a miss,
    // never a wrong hit.
    let mut linked = 0;
    for (path, _) in pack {
        let link = fs::hard_link(tmp, path).or_else(|e| match path.parent() {
            Some(fan_out) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(fan_out)?;
                fs::hard_link(tmp, path)
            }
            _ => Err(e),
        });
        match link {
            Ok(()) => linked += 1,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    Ok(linked)
}

#[cfg(test)]
mod tests {
    use super::super::journal::{Attempt, OutcomeRecord};
    use super::*;
    use proptest::prelude::*;

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

    /// `n` settled records with well-spread keys.
    fn settled(n: u64) -> Vec<RunRecord> {
        (1..=n)
            .map(|i| record(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), RunStatus::Ok))
            .collect()
    }

    fn hit(rec: &RunRecord) -> CacheLookup {
        CacheLookup::Hit(Box::new(rec.clone()))
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = ResultCache::open(scratch("roundtrip")).unwrap();
        let rec = record(0xabcd_ef01_2345_6789, RunStatus::Ok);
        assert!(cache.store(&rec).unwrap());
        assert!(!cache.store(&rec).unwrap(), "second store is a no-op");
        assert_eq!(cache.lookup(rec.key), hit(&rec));
        assert_eq!(cache.lookup(RunKey(1)), CacheLookup::Miss);
        // A pack of one is byte for byte a one-record entry.
        let entry = fs::read_to_string(cache.entry_path(rec.key)).unwrap();
        assert_eq!(entry, rec.to_line());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn every_record_of_a_pack_hits_with_its_own_record() {
        let cache = ResultCache::open(scratch("pack")).unwrap();
        let mut recs = settled(5);
        recs.push(record(0x77, RunStatus::Panic));
        recs.push(recs[0].clone());
        assert_eq!(cache.store_all(&recs).unwrap(), 5);
        for rec in &recs[..5] {
            assert_eq!(cache.lookup(rec.key), hit(rec));
        }
        assert_eq!(cache.lookup(RunKey(0x77)), CacheLookup::Miss);
        let pack = fs::read_to_string(cache.entry_path(recs[0].key)).unwrap();
        let lines: String = recs[..5].iter().map(RunRecord::to_line).collect();
        assert_eq!(pack, lines, "one pack, in batch order");
        assert_eq!(
            cache.store_all(&recs).unwrap(),
            0,
            "a second store stores 0"
        );
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn packs_are_bounded() {
        let cache = ResultCache::open(scratch("bounded")).unwrap();
        let recs = settled(2 * PACK_RECORDS as u64 + 3);
        assert_eq!(cache.store_all(&recs).unwrap(), recs.len());
        let lines = |rec: &RunRecord| {
            let pack = fs::read_to_string(cache.entry_path(rec.key)).unwrap();
            pack.lines().count()
        };
        assert_eq!(lines(&recs[0]), PACK_RECORDS);
        assert_eq!(lines(&recs[PACK_RECORDS]), PACK_RECORDS);
        assert_eq!(lines(&recs[2 * PACK_RECORDS]), 3);
        for rec in &recs {
            assert_eq!(cache.lookup(rec.key), hit(rec));
        }
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
        assert_eq!(cache.lookup(rec.key), hit(&rec));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn one_corrupt_line_costs_only_its_own_key() {
        let cache = ResultCache::open(scratch("corrupt-line")).unwrap();
        let recs = settled(4);
        assert_eq!(cache.store_all(&recs).unwrap(), 4);
        // Flip a byte inside the third record's line, through one of the
        // pack's links: every link sees the same bytes.
        let path = cache.entry_path(recs[0].key);
        let mut bytes = fs::read(&path).unwrap();
        let start: usize = recs[..2].iter().map(|r| r.to_line().len()).sum();
        bytes[start + recs[2].to_line().len() / 2] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(recs[2].key), CacheLookup::Corrupt);
        assert!(
            !cache.entry_path(recs[2].key).exists(),
            "its link is removed"
        );
        for rec in [&recs[0], &recs[1], &recs[3]] {
            assert_eq!(cache.lookup(rec.key), hit(rec), "the pack's other keys hit");
        }
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn a_pack_linked_under_a_key_it_does_not_hold_is_corrupt() {
        let cache = ResultCache::open(scratch("misfiled")).unwrap();
        let recs = settled(2);
        assert_eq!(cache.store_all(&recs).unwrap(), 2);
        // Link the (internally valid) pack under a third key's path: the
        // content-address check must refuse to serve it.
        let wrong = RunKey(0x9999_aaaa_bbbb_cccc);
        let wrong_path = cache.entry_path(wrong);
        fs::create_dir_all(wrong_path.parent().unwrap()).unwrap();
        fs::hard_link(cache.entry_path(recs[0].key), &wrong_path).unwrap();
        assert_eq!(cache.lookup(wrong), CacheLookup::Corrupt);
        assert!(!wrong_path.exists());
        for rec in &recs {
            assert_eq!(cache.lookup(rec.key), hit(rec), "only that link went");
        }
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn a_leftover_pack_temp_is_never_served() {
        let cache = ResultCache::open(scratch("leftover")).unwrap();
        let recs = settled(3);
        // A store killed after its pack's fsync, before any link.
        let lines: String = recs.iter().map(RunRecord::to_line).collect();
        fs::write(cache.root().join("pack-1-0.tmp"), lines).unwrap();
        for rec in &recs {
            assert_eq!(cache.lookup(rec.key), CacheLookup::Miss);
        }
        assert_eq!(cache.store_all(&recs).unwrap(), 3);
        for rec in &recs {
            assert_eq!(cache.lookup(rec.key), hit(rec));
        }
        // A completed store leaves no temporary pack of its own.
        let temps = fs::read_dir(cache.root())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(temps, 1, "only the planted leftover");
        let _ = fs::remove_dir_all(cache.root());
    }

    const STATUSES: [RunStatus; 8] = [
        RunStatus::Ok,
        RunStatus::Mismatch,
        RunStatus::Deadlock,
        RunStatus::FaultDetected,
        RunStatus::Panic,
        RunStatus::Error,
        RunStatus::Quarantined,
        RunStatus::Cancelled,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any split of a record set into `store_all` batches, repeated
        /// keys and unsettled statuses included, stores as many records
        /// and serves the same lookups as storing them one at a time.
        #[test]
        fn batching_never_changes_what_is_served(
            seed in any::<u64>(),
            recs in proptest::collection::vec((0u64..12, 0usize..8, 0u8..3), 1..40),
        ) {
            let records: Vec<RunRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(key, status, _))| {
                    let mut r = record(key, STATUSES[status]);
                    r.job = format!("j{i}");
                    r
                })
                .collect();
            let one = ResultCache::open(scratch(&format!("prop-{seed:016x}-one"))).unwrap();
            let batched = ResultCache::open(scratch(&format!("prop-{seed:016x}-batched"))).unwrap();
            let mut stored_one = 0;
            for r in &records {
                stored_one += usize::from(one.store(r).unwrap());
            }
            // A batch ends after each record whose split draw is 0.
            let mut stored_batched = 0;
            let mut start = 0;
            for (i, &(_, _, split)) in recs.iter().enumerate() {
                if split == 0 || i + 1 == recs.len() {
                    stored_batched += batched.store_all(&records[start..=i]).unwrap();
                    start = i + 1;
                }
            }
            prop_assert_eq!(stored_batched, stored_one);
            for key in 0..12 {
                prop_assert_eq!(batched.lookup(RunKey(key)), one.lookup(RunKey(key)));
            }
            let _ = fs::remove_dir_all(one.root());
            let _ = fs::remove_dir_all(batched.root());
        }
    }
}
