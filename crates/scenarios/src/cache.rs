//! Content-addressed sweep memoization: bit-exact `(scenario, params, seed)
//! → Metrics` persistence that makes repeated sweeps incremental.
//!
//! Every sweep job is a pure function of its identity — PR 6 proved the
//! runner bit-identical to serial regardless of thread count — so a cached
//! result can substitute for a live run with **zero** observable difference.
//! This module cashes that determinism in:
//!
//! * [`job_key`] derives a stable 256-bit content hash over the scenario
//!   name, an engine-version salt (see [`engine_salt`]), the canonicalized
//!   [`Params`] (floats hashed via `to_bits()`, never via `format!`), and
//!   the seed.
//! * [`ResultCache`] is the persistent store: a merged index file plus a
//!   write-ahead directory of per-sweep append-only segments. Metrics are
//!   persisted as hex `f64` bit patterns, so a cache hit round-trips
//!   [`Metrics::bits_eq`]-identical to the live value — decimal formatting
//!   never touches the stored floats.
//! * The sweep engine ([`crate::runner`]) consults the cache while it
//!   plans (hits bypass the worker pool entirely and record no cost
//!   observations) and its workers append misses to the sweep's one
//!   segment — the hot path never takes the store's lock. On sweep
//!   completion the segment is fsync'd and merged into the index.
//!
//! A salt change (crate version bump or [`ENGINE_SALT_REV`] bump)
//! invalidates every prior entry: stale entries are ignored at load and
//! garbage-collected at the next commit, which rewrites the index with
//! current-salt entries only.
//!
//! Concurrency model: segment files are uniquely named per (process,
//! writer), each written by one sweep (its workers take turns under the
//! sweep's writer lock), and a commit only deletes its own segments (plus segments recovered from a crashed run at
//! open time). Torn tail lines from a crashed or concurrent writer fail to
//! parse and are skipped. Two racing commits both re-read the on-disk
//! index before rewriting, so the last writer still carries the union of
//! everything it could see; a lost entry is only a future cache miss,
//! never a wrong result.

use crate::error::Error;
use crate::metrics::Metrics;
use crate::params::{ParamValue, Params};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Manual engine-version override: bump whenever simulation semantics
/// change without a crate version bump (e.g. a scheduler tie-break fix
/// within one release). Folded into [`engine_salt`], so a bump invalidates
/// every cached entry.
///
/// The converse rule matters just as much: a change that is *proven*
/// bit-identical — a pure performance refactor whose outputs match the old
/// implementation byte-for-byte — must **not** bump this (or any crate
/// version), precisely so the cache keeps serving entries written before
/// the change. The salt keys what a simulation *computes*, not how fast.
/// The proof obligations are the repo's standing ones: an oracle test
/// against the old implementation and an unchanged `ci/trace_reference.json`
/// (see the PR-9 indexed scheduler, which left this at 1; the
/// `warm_cache_survives_bit_identical_engine_changes` test pins the
/// resulting salt string so an accidental bump fails loudly).
pub const ENGINE_SALT_REV: u32 = 1;

/// The engine-version salt folded into every [`job_key`]: the versions of
/// the crates whose code decides what a simulation computes (`des`,
/// `cluster`, `scenarios`) plus [`ENGINE_SALT_REV`]. Any release that can
/// change simulation semantics changes the salt and therefore every key —
/// and a release that provably cannot (bit-identical internal refactors)
/// must leave it untouched so warm caches survive the upgrade.
pub fn engine_salt() -> String {
    format!(
        "des={}|cluster={}|scenarios={}|rev={}",
        des::VERSION,
        cluster::VERSION,
        env!("CARGO_PKG_VERSION"),
        ENGINE_SALT_REV
    )
}

/// 256-bit content hash identifying one `(salt, scenario, params, seed)`
/// job. Stable across runs, platforms, and param insertion *values* (order
/// is significant — `Params` is an ordered map by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// Lower-hex rendering (64 chars) — the on-disk spelling.
    pub fn hex(&self) -> String {
        let mut out = String::with_capacity(64);
        for b in &self.0 {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes[i] = (hi * 16 + lo) as u8;
        }
        Some(CacheKey(bytes))
    }
}

/// The content hash of one sweep job. Every field that decides the result
/// is folded in with an unambiguous (type-tagged, length-prefixed)
/// encoding; floats contribute their exact bit pattern, so two params that
/// print identically but differ by one ULP — or `0.0` vs `-0.0` — key
/// different entries.
pub fn job_key(salt: &str, scenario: &str, params: &Params, seed: u64) -> CacheKey {
    let mut h = sha256::Sha256::new();
    let mut field = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    field(b"rfaas-sweep-cache-v1");
    field(salt.as_bytes());
    field(scenario.as_bytes());
    for (name, value) in params.iter() {
        field(name.as_bytes());
        match value {
            ParamValue::Bool(b) => field(&[1, *b as u8]),
            ParamValue::U64(n) => {
                let mut buf = [2u8; 9];
                buf[1..].copy_from_slice(&n.to_le_bytes());
                field(&buf);
            }
            ParamValue::F64(x) => {
                let mut buf = [3u8; 9];
                buf[1..].copy_from_slice(&x.to_bits().to_le_bytes());
                field(&buf);
            }
            ParamValue::Str(s) => {
                let mut buf = vec![4u8];
                buf.extend_from_slice(s.as_bytes());
                field(&buf);
            }
        }
    }
    field(&seed.to_le_bytes());
    CacheKey(h.finalize())
}

/// Whether a file merge counts foreign-salt entries toward
/// `stale_dropped`. `Record` at open (first sighting), `Skip` for the
/// commit-time re-read of the same index.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StaleCount {
    Record,
    Skip,
}

/// One cached run: the bit-exact metrics, the scenario that produced them
/// (observability only — the key already commits to it), and the
/// wall-clock the original miss cost — what a hit is credited as saving.
#[derive(Debug, Clone)]
struct CachedRun {
    scenario: String,
    metrics: Metrics,
    secs: f64,
}

/// Hit/miss/size counters for one cache instance, reported by the CLI's
/// `--cache-stats` flag and the JSON artifact's sidecar.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries currently resident (loaded + committed this instance).
    pub entries: u64,
    /// Entries ignored at load/commit because their salt didn't match —
    /// they are garbage-collected at the next index rewrite.
    pub stale_dropped: u64,
    /// Index file size after the last open/commit.
    pub bytes_on_disk: u64,
    /// Sum of the recorded wall-clocks of every hit — the simulated work
    /// this cache instance did not have to redo.
    pub saved_secs: f64,
}

/// Persistent content-addressed `(job key) → Metrics` store.
///
/// Layout under the cache directory:
///
/// ```text
/// <dir>/index.v1.log     merged index, one entry per line
/// <dir>/wal/seg-*.log    per-sweep append-only write-ahead segments
/// ```
///
/// Both use the same line format (tab-separated, `\t`/`\n`/`\\` escaped in
/// text fields, floats as 16-hex-digit bit patterns):
///
/// ```text
/// v1 <key> <salt> <scenario> <secs-bits> <n> (<name> <f64-bits>)*n
/// ```
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    salt: String,
    entries: HashMap<CacheKey, CachedRun>,
    /// WAL segments found at open (a crashed or failed sweep left them):
    /// already merged into `entries`, deleted at the next commit.
    recovered: Vec<PathBuf>,
    hits: u64,
    misses: u64,
    stale_dropped: u64,
    bytes_on_disk: u64,
    saved_secs: f64,
}

impl ResultCache {
    /// Open (creating if needed) the cache at `dir`, keyed by the current
    /// [`engine_salt`].
    pub fn open(dir: &Path) -> Result<ResultCache, Error> {
        ResultCache::open_with_salt(dir, &engine_salt())
    }

    /// Open with an explicit salt — the test hook for simulating engine
    /// version bumps without rebuilding crates.
    pub fn open_with_salt(dir: &Path, salt: &str) -> Result<ResultCache, Error> {
        std::fs::create_dir_all(dir.join("wal"))
            .map_err(|e| Error::cache(dir, format!("creating cache dir: {e}")))?;
        let mut cache = ResultCache {
            dir: dir.to_path_buf(),
            salt: salt.to_string(),
            entries: HashMap::new(),
            recovered: Vec::new(),
            hits: 0,
            misses: 0,
            stale_dropped: 0,
            bytes_on_disk: 0,
            saved_secs: 0.0,
        };
        cache.load_index();
        // Crash recovery: segments a failed/killed sweep never merged are
        // still valid results — absorb them now, delete them at commit.
        for seg in cache.wal_segments()? {
            cache.absorb_file(&seg, StaleCount::Record);
            cache.recovered.push(seg);
        }
        Ok(cache)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn salt(&self) -> &str {
        &self.salt
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn index_path(&self) -> PathBuf {
        self.dir.join("index.v1.log")
    }

    fn wal_segments(&self) -> Result<Vec<PathBuf>, Error> {
        let wal = self.dir.join("wal");
        let mut segs = Vec::new();
        let dir = std::fs::read_dir(&wal)
            .map_err(|e| Error::cache(&wal, format!("reading cache WAL dir: {e}")))?;
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "log") {
                segs.push(path);
            }
        }
        segs.sort();
        Ok(segs)
    }

    fn load_index(&mut self) {
        let path = self.index_path();
        self.absorb_file(&path, StaleCount::Record);
        self.bytes_on_disk = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    }

    /// Merge every parseable current-salt line of `path` into the map.
    /// Unreadable files, torn lines, and foreign-salt entries are skipped
    /// (the latter counted for GC reporting when `stale` says so — the
    /// commit-time re-read of the index would otherwise double-count the
    /// entries `open` already saw) — a cache can only ever miss, never
    /// fail a sweep.
    fn absorb_file(&mut self, path: &Path, stale: StaleCount) {
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for line in text.lines() {
            match parse_line(line) {
                Some(entry) if entry.salt == self.salt => {
                    self.entries.insert(
                        entry.key,
                        CachedRun {
                            scenario: entry.scenario,
                            metrics: entry.metrics,
                            secs: entry.secs,
                        },
                    );
                }
                Some(_) if stale == StaleCount::Record => self.stale_dropped += 1,
                Some(_) | None => {}
            }
        }
    }

    /// Look up one job. Hits hand back a bit-exact clone of the stored
    /// metrics and credit the recorded wall-clock as saved work.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Metrics> {
        match self.entries.get(key) {
            Some(run) => {
                self.hits += 1;
                self.saved_secs += run.secs;
                Some(run.metrics.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Create one append-only WAL segment (the engine makes one per sweep). Segment
    /// names are unique per (process, writer), so concurrent sweeps over
    /// one cache directory never interleave writes within a file.
    pub fn writer(&self) -> Result<CacheWriter, Error> {
        static NEXT_SEGMENT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_SEGMENT.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join("wal")
            .join(format!("seg-{}-{id}.log", std::process::id()));
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::cache(&path, format!("creating cache segment: {e}")))?;
        Ok(CacheWriter {
            path,
            file,
            salt: self.salt.clone(),
        })
    }

    /// Sweep-completion barrier: fsync the given segments, fold them
    /// (and any other segment currently on disk) into the in-memory map,
    /// rewrite the index atomically (write-temp + rename, fsync'd), and
    /// delete the segments this cache owns. Stale-salt entries never make
    /// it into the rewritten index — this is where a salt bump's garbage
    /// collection happens.
    pub fn commit(&mut self, writers: Vec<CacheWriter>) -> Result<(), Error> {
        let mut own: Vec<PathBuf> = Vec::with_capacity(writers.len());
        for w in writers {
            w.file
                .sync_all()
                .map_err(|e| Error::cache(&w.path, format!("fsync cache segment: {e}")))?;
            own.push(w.path);
        }
        // Re-read the on-disk index first: another process may have
        // committed since we opened, and a rewrite must not drop its work.
        let index = self.index_path();
        self.absorb_file(&index, StaleCount::Skip);
        for seg in self.wal_segments()? {
            self.absorb_file(&seg, StaleCount::Skip);
        }

        // Deterministic index layout: entries sorted by key.
        let mut keys: Vec<&CacheKey> = self.entries.keys().collect();
        keys.sort_by_key(|k| k.0);
        let mut text = String::new();
        for key in keys {
            let run = &self.entries[key];
            encode_line(
                &mut text,
                key,
                &self.salt,
                &run.scenario,
                run.secs,
                &run.metrics,
            );
        }
        let tmp = self.dir.join(format!(
            "index.tmp-{}-{}",
            std::process::id(),
            own.first()
                .and_then(|p| p.file_name())
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "solo".to_string())
        ));
        {
            let mut f = File::create(&tmp)
                .map_err(|e| Error::cache(&tmp, format!("creating cache index: {e}")))?;
            f.write_all(text.as_bytes())
                .map_err(|e| Error::cache(&tmp, format!("writing cache index: {e}")))?;
            f.sync_all()
                .map_err(|e| Error::cache(&tmp, format!("fsync cache index: {e}")))?;
        }
        std::fs::rename(&tmp, &index)
            .map_err(|e| Error::cache(&index, format!("publishing cache index: {e}")))?;
        self.bytes_on_disk = text.len() as u64;

        for seg in own.iter().chain(&self.recovered) {
            // A concurrent commit may have raced us to a recovered segment;
            // missing files are fine.
            let _ = std::fs::remove_file(seg);
        }
        self.recovered.clear();
        Ok(())
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len() as u64,
            stale_dropped: self.stale_dropped,
            bytes_on_disk: self.bytes_on_disk,
            saved_secs: self.saved_secs,
        }
    }
}

/// One append-only WAL segment. Appends go through `&self` (`&File` writes
/// need no mutable borrow; the engine serializes a sweep's workers on the
/// segment with a mutex), one `write_all` per entry, so a torn line can
/// only be the file's tail.
#[derive(Debug)]
pub struct CacheWriter {
    path: PathBuf,
    file: File,
    salt: String,
}

impl CacheWriter {
    /// Append one miss's result. The metrics are encoded as exact bit
    /// patterns; `secs` is the job's measured wall-clock (what a future
    /// hit will be credited as saving).
    pub fn append(
        &self,
        key: &CacheKey,
        scenario: &str,
        secs: f64,
        metrics: &Metrics,
    ) -> Result<(), Error> {
        let mut line = String::new();
        encode_line(&mut line, key, &self.salt, scenario, secs, metrics);
        (&self.file)
            .write_all(line.as_bytes())
            .map_err(|e| Error::cache(&self.path, format!("appending to cache segment: {e}")))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One parsed cache line.
struct Entry {
    key: CacheKey,
    salt: String,
    scenario: String,
    secs: f64,
    metrics: Metrics,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn encode_line(
    out: &mut String,
    key: &CacheKey,
    salt: &str,
    scenario: &str,
    secs: f64,
    metrics: &Metrics,
) {
    out.push_str("v1\t");
    out.push_str(&key.hex());
    out.push('\t');
    out.push_str(&esc(salt));
    out.push('\t');
    out.push_str(&esc(scenario));
    out.push_str(&format!("\t{:016x}\t{}", secs.to_bits(), metrics.len()));
    for (name, value) in metrics.iter() {
        out.push('\t');
        out.push_str(&esc(name));
        out.push_str(&format!("\t{:016x}", value.to_bits()));
    }
    out.push('\n');
}

/// An exactly-16-hex-digit `f64` bit pattern. The fixed width is a
/// torn-write detector: a truncated trailing hex field would otherwise
/// still parse (as a shorter number) and silently corrupt the value.
fn parse_f64_bits(field: &str) -> Option<f64> {
    if field.len() != 16 {
        return None;
    }
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

/// Parse one line; `None` for anything malformed (torn tails, foreign
/// formats) — callers skip those.
fn parse_line(line: &str) -> Option<Entry> {
    let mut fields = line.split('\t');
    if fields.next()? != "v1" {
        return None;
    }
    let key = CacheKey::from_hex(fields.next()?)?;
    let salt = unesc(fields.next()?)?;
    let scenario = unesc(fields.next()?)?;
    let secs = parse_f64_bits(fields.next()?)?;
    let n: usize = fields.next()?.parse().ok()?;
    let mut metrics = Metrics::new();
    for _ in 0..n {
        let name = unesc(fields.next()?)?;
        metrics.push(&name, parse_f64_bits(fields.next()?)?);
    }
    if fields.next().is_some() || metrics.len() != n {
        return None; // trailing garbage or duplicate metric names
    }
    Some(Entry {
        key,
        salt,
        scenario,
        secs,
        metrics,
    })
}

/// Minimal SHA-256 (FIPS 180-4). The workspace has no crates.io access, so
/// the cache's content hash is implemented here and pinned by the standard
/// test vectors below — the on-disk format depends on it never changing.
mod sha256 {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    pub(crate) struct Sha256 {
        h: [u32; 8],
        block: [u8; 64],
        len: usize,
        total: u64,
    }

    impl Sha256 {
        pub(crate) fn new() -> Sha256 {
            Sha256 {
                h: H0,
                block: [0; 64],
                len: 0,
                total: 0,
            }
        }

        pub(crate) fn update(&mut self, mut data: &[u8]) {
            self.total = self.total.wrapping_add(data.len() as u64);
            if self.len > 0 {
                let take = (64 - self.len).min(data.len());
                self.block[self.len..self.len + take].copy_from_slice(&data[..take]);
                self.len += take;
                data = &data[take..];
                if self.len == 64 {
                    let block = self.block;
                    self.compress(&block);
                    self.len = 0;
                }
            }
            while data.len() >= 64 {
                let mut block = [0u8; 64];
                block.copy_from_slice(&data[..64]);
                self.compress(&block);
                data = &data[64..];
            }
            if !data.is_empty() {
                self.block[..data.len()].copy_from_slice(data);
                self.len = data.len();
            }
        }

        pub(crate) fn finalize(mut self) -> [u8; 32] {
            let bit_len = self.total.wrapping_mul(8);
            self.update(&[0x80]);
            while self.len != 56 {
                self.update(&[0]);
            }
            self.update(&bit_len.to_be_bytes());
            debug_assert_eq!(self.len, 0);
            let mut out = [0u8; 32];
            for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (hi, v) in self.h.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *hi = hi.wrapping_add(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_hex(data: &[u8]) -> String {
        let mut h = sha256::Sha256::new();
        h.update(data);
        CacheKey(h.finalize()).hex()
    }

    #[test]
    fn sha256_standard_test_vectors() {
        assert_eq!(
            digest_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            digest_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            digest_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block + buffered-boundary paths.
        let long = vec![b'a'; 1_000];
        let mut h = sha256::Sha256::new();
        for chunk in long.chunks(7) {
            h.update(chunk);
        }
        let mut whole = sha256::Sha256::new();
        whole.update(&long);
        assert_eq!(h.finalize(), whole.finalize());
    }

    #[test]
    fn key_depends_on_every_identity_component() {
        let params = Params::new().with("k", 3u64).with("x", 0.5);
        let base = job_key("s", "fig", &params, 42);
        assert_eq!(base, job_key("s", "fig", &params.clone(), 42), "stable");
        assert_ne!(base, job_key("s2", "fig", &params, 42), "salt");
        assert_ne!(base, job_key("s", "fig2", &params, 42), "scenario");
        assert_ne!(base, job_key("s", "fig", &params, 43), "seed");
        let tweaked = Params::new().with("k", 3u64).with("x", 0.25);
        assert_ne!(base, job_key("s", "fig", &tweaked, 42), "param value");
    }

    #[test]
    fn key_hashes_floats_by_bits_not_formatting() {
        let zero = Params::new().with("x", 0.0);
        let neg_zero = Params::new().with("x", -0.0);
        assert_ne!(
            job_key("s", "fig", &zero, 1),
            job_key("s", "fig", &neg_zero, 1),
            "0.0 and -0.0 are different bit patterns, so different keys"
        );
        let ulp = Params::new().with("x", f64::from_bits(0.1f64.to_bits() + 1));
        assert_ne!(
            job_key("s", "fig", &Params::new().with("x", 0.1), 1),
            job_key("s", "fig", &ulp, 1),
            "one ULP apart must key differently"
        );
    }

    #[test]
    fn key_encoding_is_unambiguous_across_field_boundaries() {
        // Length prefixes mean ("ab", "c") and ("a", "bc") cannot collide.
        let a = Params::new().with("ab", "c");
        let b = Params::new().with("a", "bc");
        assert_ne!(job_key("s", "fig", &a, 1), job_key("s", "fig", &b, 1));
        // Type tags: U64(1) vs F64 with the same payload bytes.
        let u = Params::new().with("x", 1u64);
        let f = Params::new().with("x", f64::from_bits(1));
        assert_ne!(job_key("s", "fig", &u, 1), job_key("s", "fig", &f, 1));
    }

    #[test]
    fn line_round_trips_bit_exactly_with_hostile_names() {
        let mut m = Metrics::new();
        m.push("plain", 0.1 + 0.2);
        m.push("tab\tand\nnewline\\slash", -0.0);
        m.push("ulp", f64::from_bits(0x3ff0_0000_0000_0001));
        m.push("nan", f64::NAN);
        let key = job_key("salt\twith\ttabs", "scen", &Params::new(), 7);
        let mut line = String::new();
        encode_line(&mut line, &key, "salt\twith\ttabs", "scen", 1.25, &m);
        assert!(line.ends_with('\n'));
        let entry = parse_line(line.trim_end()).expect("round trip");
        assert_eq!(entry.key, key);
        assert_eq!(entry.salt, "salt\twith\ttabs");
        assert_eq!(entry.secs.to_bits(), 1.25f64.to_bits());
        assert!(entry.metrics.bits_eq(&m), "bit-exact metrics round trip");
    }

    #[test]
    fn torn_and_garbage_lines_are_rejected() {
        let mut m = Metrics::new();
        m.push("a", 1.5);
        m.push("b", 2.5);
        let key = job_key("s", "x", &Params::new(), 1);
        let mut line = String::new();
        encode_line(&mut line, &key, "s", "x", 0.5, &m);
        let line = line.trim_end().to_string();
        assert!(parse_line(&line).is_some());
        // Every strict prefix (a torn tail) must fail to parse.
        for cut in 0..line.len() {
            assert!(
                parse_line(&line[..cut]).is_none(),
                "torn prefix of length {cut} parsed"
            );
        }
        assert!(parse_line(&format!("{line}\textra")).is_none());
        assert!(parse_line("junk").is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn engine_salt_names_every_engine_crate_version() {
        let salt = engine_salt();
        assert!(salt.contains(&format!("des={}", des::VERSION)));
        assert!(salt.contains(&format!("cluster={}", cluster::VERSION)));
        assert!(salt.contains(&format!("rev={ENGINE_SALT_REV}")));
    }
}
