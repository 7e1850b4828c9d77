//! A set-associative cache with true-LRU replacement.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's accelerator L1: 64 KiB, 4-way, 64 B lines, 3 cycles.
    #[must_use]
    pub fn paper_l1() -> Self {
        Self {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 3,
        }
    }

    /// The paper's shared LLC: 4 MiB, 16-way, 64 B lines, 25 cycles.
    #[must_use]
    pub fn paper_llc() -> Self {
        Self {
            size_bytes: 4 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
            latency: 25,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero ways / line size, or
    /// capacity not divisible by `ways * line_bytes`).
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        assert!(self.ways > 0 && self.line_bytes > 0, "degenerate geometry");
        let per_set = u64::from(self.ways) * u64::from(self.line_bytes);
        assert!(
            self.size_bytes.is_multiple_of(per_set) && self.size_bytes > 0,
            "capacity must be a whole number of sets"
        );
        self.size_bytes / per_set
    }
}

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when no accesses).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    /// `tick << 1 | dirty` at the last touch; smallest = LRU victim. The
    /// line is valid only while its tick is after the cache's `epoch`.
    stamp: u64,
}

impl Line {
    fn stamp(tick: u64, dirty: bool) -> u64 {
        (tick << 1) | u64::from(dirty)
    }

    fn valid(self, epoch: u64) -> bool {
        self.stamp >> 1 > epoch
    }

    fn dirty(self) -> bool {
        self.stamp & 1 == 1
    }
}

/// A set-associative, write-back, write-allocate cache model.
///
/// The model tracks tags only — data payloads live in the functional
/// [`crate::DataMemory`]. Timing composition across levels is handled by
/// [`crate::MemoryHierarchy`].
///
/// The tag store is one allocation of `sets × ways` lines, set-major.
/// [`Cache::reset`] touches none of it: the tick keeps counting across
/// resets, and a reset moves the `epoch` up to the current tick, which
/// invalidates every line touched before it.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    num_sets: u64,
    ways: usize,
    stats: CacheStats,
    tick: u64,
    /// `tick` at the last reset: lines last touched at or before it are
    /// invalid.
    epoch: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.ways as usize;
        Self {
            config,
            lines: vec![Line::default(); num_sets as usize * ways],
            num_sets,
            ways,
            stats: CacheStats::default(),
            tick: 0,
            epoch: 0,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The ways of `addr`'s set, and its tag.
    fn set_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr / u64::from(self.config.line_bytes);
        let set = (line % self.num_sets) as usize * self.ways;
        (set..set + self.ways, line / self.num_sets)
    }

    /// Accesses `addr`; returns `true` on hit. On a miss the line is
    /// allocated (write-allocate) and the LRU way evicted, counting a
    /// writeback if the victim was dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let (ways, tag) = self.set_and_tag(addr);
        let epoch = self.epoch;
        let set = &mut self.lines[ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid(epoch) && l.tag == tag) {
            line.stamp = Line::stamp(self.tick, line.dirty() || is_write);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Every invalid line was touched before every valid one, so the
        // oldest touch is an invalid line while one is left, else the LRU.
        let victim = set.iter_mut().min_by_key(|l| l.stamp).expect("ways >= 1");
        if victim.valid(epoch) && victim.dirty() {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            stamp: Line::stamp(self.tick, is_write),
        };
        false
    }

    /// `true` if `addr`'s line is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (ways, tag) = self.set_and_tag(addr);
        self.lines[ways]
            .iter()
            .any(|l| l.valid(self.epoch) && l.tag == tag)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics, in constant time.
    pub fn reset(&mut self) {
        self.epoch = self.tick;
        self.stats = CacheStats::default();
    }

    /// The line-aligned base address of `addr`.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.config.line_bytes) * u64::from(self.config.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 16B lines.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            latency: 1,
        })
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().num_sets(), 256);
        assert_eq!(CacheConfig::paper_llc().num_sets(), 4096);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x10f, false), "same line");
        assert!(!c.access(0x110, false), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 2 == 0): 0x00, 0x20, 0x40.
        c.access(0x00, false);
        c.access(0x20, false);
        c.access(0x00, false); // touch 0x00 -> 0x20 is LRU
        c.access(0x40, false); // evicts 0x20
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = tiny();
        c.access(0x00, true); // dirty
        c.access(0x20, false);
        c.access(0x40, false); // evicts dirty 0x00
        assert_eq!(c.stats().writebacks, 1);
        c.access(0x60, false); // evicts clean 0x20
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0x00, false);
        let before = c.stats();
        assert!(c.probe(0x00));
        assert!(!c.probe(0x999));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0x00, true);
        c.reset();
        assert!(!c.probe(0x00));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(16, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn line_of_alignment() {
        let c = tiny();
        assert_eq!(c.line_of(0x17), 0x10);
        assert_eq!(c.line_of(0x10), 0x10);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 16,
            latency: 1,
        });
    }
}
