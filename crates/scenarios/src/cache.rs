//! Content-addressed sweep memoization: bit-exact `(scenario, params, seed)
//! → Metrics` persistence that makes repeated sweeps incremental.
//!
//! Every sweep job is a pure function of its identity — PR 6 proved the
//! runner bit-identical to serial regardless of thread count — so a cached
//! result can substitute for a live run with **zero** observable difference.
//! This module cashes that determinism in:
//!
//! * [`job_key`] derives a stable 256-bit content hash over the scenario
//!   name, a salt (the digest of the committed goldens), the canonicalized
//!   [`Params`] (floats hashed via `to_bits()`, never via `format!`), and
//!   the seed.
//! * [`ResultCache`] is the persistent store: one append-only log per salt.
//!   Metrics are persisted as hex `f64` bit patterns, so a cache hit
//!   round-trips [`Metrics::bits_eq`]-identical to the live value — decimal
//!   formatting never touches the stored floats.
//! * The sweep engine ([`crate::runner`]) consults the cache while it
//!   plans (hits bypass the worker pool entirely and record no cost
//!   observations) and its workers append misses to the log through the
//!   sweep's [`CacheWriter`] — the hot path never takes the store's lock.
//!   On sweep completion the log is fsync'd and its new lines replayed.
//!
//! To change what a simulation computes, regenerate the goldens and the
//! salt digest with it: the new salt starts a new log, and opening under
//! one salt deletes every other salt's log.
//!
//! Concurrency and crash model: every append is one `O_APPEND` write of one
//! whole line, so writers — threads, sweeps or processes — never interleave
//! within a line, and a crash or a failed write can only leave a torn last
//! line. Open replays the log and skips lines that fail to parse: the
//! fixed-width fields reject a torn line even when the next writer's line
//! was glued onto it. Open also ends a torn tail with a newline, so the next
//! append starts a line of its own. Racing sweeps may append the same job
//! twice; both lines carry the same bits and replay keeps one. A lost line
//! is only a future cache miss, never a wrong result.

use crate::error::Error;
use crate::metrics::Metrics;
use crate::params::{ParamValue, Params};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The salt folded into every [`job_key`]: the first 128 bits, in lower
/// hex, of the SHA-256 of the committed goldens — every file in this
/// crate's `tests/golden/`, sorted by name, then `ci/trace_reference.json`,
/// each file's name and bytes length-prefixed. Those files pin what the
/// scenarios compute, so the salt moves exactly when a result does. A
/// change that moves a golden byte must regenerate that golden and then
/// this digest (the `salt_is_the_digest_of_the_committed_goldens` test
/// prints the new value), and that re-keys the cache. A bit-identical
/// refactor leaves both alone, and warm caches keep hitting.
///
/// 128 bits are plenty to tell salts apart, and the 32-character salt
/// keeps every default-parameter key within as many SHA-256 blocks as the
/// 46-character version salt it replaced: every lookup hashes it.
const SALT: &str = "acd287ee957b0d6a772dc4cfeda44aac";

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

/// Hit/miss/size counters for one cache instance, reported by the CLI's
/// `--cache-stats` flag and the JSON artifact's sidecar.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries currently resident (replayed at open and at each commit).
    pub entries: u64,
    /// Lines in the other salts' logs that open deleted.
    pub stale_dropped: u64,
    /// Log bytes replayed by the last open/commit.
    pub bytes_on_disk: u64,
    /// Sum of the recorded wall-clocks of every hit — the simulated work
    /// this cache instance did not have to redo.
    pub saved_secs: f64,
}

/// Persistent content-addressed `(job key) → Metrics` store.
///
/// Layout under the cache directory: one log per salt, named by the
/// first 64 bits of the salt's SHA-256,
///
/// ```text
/// <dir>/results-<16 hex digits>.log
/// ```
///
/// one entry per line (tab-separated, `\t`/`\n`/`\\` escaped in text
/// fields, floats as 16-hex-digit bit patterns):
///
/// ```text
/// v2 <key> <scenario> <secs-bits> <n> (<name> <f64-bits>)*n
/// ```
///
/// The scenario is there for a reader of the file; the key already commits
/// to it and to the salt.
///
/// In memory, every replayed line is one record in a single `Vec<u64>`:
///
/// ```text
/// [schema id, secs bits, value bits × (the schema's name count)]
/// ```
///
/// and the index maps each key to its record's offset there. A schema is
/// one distinct list of metric names, stored once however many entries
/// use it — a sweep's entries share their scenario's. An entry therefore
/// costs its index slot and `8 × (2 + metrics)` bytes, not a vector of
/// named pairs. A hit rebuilds [`Metrics`] from the schema's names and the
/// record's bits. A key that appears again in the log (racing sweeps
/// append the same job twice) points at its latest record; the earlier one
/// stays behind, unreferenced, until the next open.
#[derive(Debug, Clone)]
pub struct ResultCache {
    salt: String,
    log: PathBuf,
    /// Job key → offset of its record in `records`.
    entries: HashMap<CacheKey, u32>,
    /// Every replayed record back to back (see the type docs).
    records: Vec<u64>,
    /// The distinct metric-name lists; a record's schema id indexes this.
    schemas: Vec<Vec<String>>,
    /// Each schema's id, to intern a replayed line's names.
    schema_ids: HashMap<Vec<String>, u32>,
    /// How far the log has been replayed into `entries`: always just past
    /// a newline, so a line still being written is read whole next time.
    replayed: u64,
    hits: u64,
    misses: u64,
    stale_dropped: u64,
    saved_secs: f64,
}

impl ResultCache {
    /// Open (creating if needed) the cache at `dir`, keyed by the digest of
    /// the committed goldens this build was compiled with.
    pub fn open(dir: &Path) -> Result<ResultCache, Error> {
        ResultCache::open_with_salt(dir, SALT)
    }

    /// Open with an explicit salt — the test hook for simulating a
    /// regenerated golden without rebuilding crates.
    pub fn open_with_salt(dir: &Path, salt: &str) -> Result<ResultCache, Error> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::cache(dir, format!("creating cache dir: {e}")))?;
        let mut salt_hash = sha256::Sha256::new();
        salt_hash.update(salt.as_bytes());
        let log = dir.join(format!(
            "results-{}.log",
            &CacheKey(salt_hash.finalize()).hex()[..16]
        ));
        let mut cache = ResultCache {
            salt: salt.to_string(),
            log,
            entries: HashMap::new(),
            records: Vec::new(),
            schemas: Vec::new(),
            schema_ids: HashMap::new(),
            replayed: 0,
            hits: 0,
            misses: 0,
            stale_dropped: 0,
            saved_secs: 0.0,
        };
        cache.delete_stale_logs(dir);
        if cache.replay() {
            // A torn last line: end it, so the next append is not glued on.
            // Best effort: a store that cannot be written can still be read.
            if let Ok(writer) = cache.writer() {
                let _ = writer.append_bytes(b"\n");
            }
        }
        Ok(cache)
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

    /// This salt's log file.
    pub fn log_path(&self) -> &Path {
        &self.log
    }

    /// Delete every other salt's log, counting its lines as dropped, and
    /// what the layout before the per-salt log left: the `index.v1.log`
    /// index, its `index.tmp-*` temporaries and the `wal/` segments.
    fn delete_stale_logs(&mut self, dir: &Path) {
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        for path in listing.flatten().map(|entry| entry.path()) {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let stale = (name.starts_with("results-") && name.ends_with(".log"))
                || name == "index.v1.log"
                || name.starts_with("index.tmp-");
            if !stale || path == self.log {
                continue;
            }
            let lines =
                std::fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
            if std::fs::remove_file(&path).is_ok() {
                self.stale_dropped += lines as u64;
            }
        }
        let _ = std::fs::remove_dir_all(dir.join("wal"));
    }

    /// Fold every whole line the log gained since the last replay into the
    /// map, one line in memory at a time; later lines win. Unparseable
    /// lines (torn, or a torn line with the next one glued on) are skipped,
    /// and so is whatever of the log cannot be read — a cache can only ever
    /// miss, never fail a sweep. Returns whether the log ends in a partial
    /// line.
    fn replay(&mut self) -> bool {
        let Ok(mut file) = File::open(&self.log) else {
            return false;
        };
        if file.seek(SeekFrom::Start(self.replayed)).is_err() {
            return false;
        }
        let mut reader = BufReader::new(file);
        let mut line = Vec::new();
        loop {
            line.clear();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return false,
                Ok(n) => {
                    let Some(text) = line.strip_suffix(b"\n") else {
                        return true;
                    };
                    if let Some(parsed) = std::str::from_utf8(text).ok().and_then(parse_line) {
                        self.insert(parsed);
                    }
                    self.replayed += n as u64;
                }
            }
        }
    }

    /// Append one parsed line's record, interning its names, and point its
    /// key at it.
    fn insert(&mut self, line: Line) {
        let at = u32::try_from(self.records.len()).expect("cache records fit a u32 offset");
        let schema = match self.schema_ids.get(line.names.as_slice()) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.schemas.len()).expect("fewer schemas than records");
                self.schemas.push(line.names.clone());
                self.schema_ids.insert(line.names, id);
                id
            }
        };
        self.records.push(u64::from(schema));
        self.records.push(line.secs.to_bits());
        self.records.extend(line.bits);
        self.entries.insert(line.key, at);
    }

    /// Look up one job. Hits hand back the stored metrics bit for bit and
    /// credit the recorded wall-clock as saved work.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Metrics> {
        let Some(&at) = self.entries.get(key) else {
            self.misses += 1;
            return None;
        };
        let record = &self.records[at as usize..];
        self.hits += 1;
        self.saved_secs += f64::from_bits(record[1]);
        let names = &self.schemas[record[0] as usize];
        Some(Metrics::from_distinct(
            names
                .iter()
                .zip(&record[2..])
                .map(|(name, &bits)| (name.clone(), f64::from_bits(bits)))
                .collect(),
        ))
    }

    /// An append handle on the log (the engine takes one per sweep).
    pub fn writer(&self) -> Result<CacheWriter, Error> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log)
            .map_err(|e| Error::cache(&self.log, format!("opening cache log: {e}")))?;
        Ok(CacheWriter {
            path: self.log.clone(),
            file,
        })
    }

    /// Sweep-completion barrier: fsync the sweeps' appends, then replay
    /// what the log gained since the last open or commit — those appends
    /// and any other writer's — so later lookups hit on them.
    pub fn commit(&mut self, writers: Vec<CacheWriter>) -> Result<(), Error> {
        for w in writers {
            w.file
                .sync_all()
                .map_err(|e| Error::cache(&w.path, format!("fsync cache log: {e}")))?;
        }
        // The log may be new: its directory entry must be durable too.
        let dir = self.log.parent().expect("the log lives in the cache dir");
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| Error::cache(dir, format!("fsync cache dir: {e}")))?;
        self.replay();
        Ok(())
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len() as u64,
            stale_dropped: self.stale_dropped,
            bytes_on_disk: self.replayed,
            saved_secs: self.saved_secs,
        }
    }
}

/// An append handle on the log. Appends go through `&self` (`&File` writes
/// need no mutable borrow; the engine serializes a sweep's workers on it
/// with a mutex), one `write_all` per entry on an `O_APPEND` file, so lines
/// of concurrent writers never interleave: only a short write can tear a
/// line, costing it and the line glued onto it.
#[derive(Debug)]
pub struct CacheWriter {
    path: PathBuf,
    file: File,
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
        encode_line(&mut line, key, scenario, secs, metrics);
        self.append_bytes(line.as_bytes())
    }

    fn append_bytes(&self, bytes: &[u8]) -> Result<(), Error> {
        (&self.file)
            .write_all(bytes)
            .map_err(|e| Error::cache(&self.path, format!("appending to cache log: {e}")))
    }
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

fn encode_line(out: &mut String, key: &CacheKey, scenario: &str, secs: f64, metrics: &Metrics) {
    out.push_str("v2\t");
    out.push_str(&key.hex());
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
fn parse_bits(field: &str) -> Option<u64> {
    if field.len() != 16 {
        return None;
    }
    u64::from_str_radix(field, 16).ok()
}

/// One parsed log line: a job's key, the wall-clock its miss cost (what a
/// hit is credited as saving) and its metrics, names and bit patterns
/// apart.
struct Line {
    key: CacheKey,
    secs: f64,
    /// Distinct, in the order the run recorded them.
    names: Vec<String>,
    bits: Vec<u64>,
}

/// Parse one line; `None` for anything malformed — a torn tail, a torn
/// line with the next writer's glued on (every fixed-format field then
/// receives the wrong text), a foreign format — and callers skip those.
fn parse_line(line: &str) -> Option<Line> {
    let mut fields = line.split('\t');
    if fields.next()? != "v2" {
        return None;
    }
    let key = CacheKey::from_hex(fields.next()?)?;
    fields.next()?; // the scenario, for readers of the file
    let secs = f64::from_bits(parse_bits(fields.next()?)?);
    let n: usize = fields.next()?.parse().ok()?;
    let mut names: Vec<String> = Vec::with_capacity(n.min(64));
    let mut bits = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = unesc(fields.next()?)?;
        if names.contains(&name) {
            return None; // duplicate metric names
        }
        names.push(name);
        bits.push(parse_bits(fields.next()?)?);
    }
    if fields.next().is_some() {
        return None; // trailing garbage
    }
    Some(Line {
        key,
        secs,
        names,
        bits,
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
        let a = Params::new().with("ab", ParamValue::parse("c"));
        let b = Params::new().with("a", ParamValue::parse("bc"));
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
        let key = job_key("salt", "scen\twith\ttabs", &Params::new(), 7);
        let mut line = String::new();
        encode_line(&mut line, &key, "scen\twith\ttabs", 1.25, &m);
        let line = line
            .strip_suffix('\n')
            .expect("one line, newline-terminated");
        assert!(!line.contains('\n'));
        let parsed = parse_line(line).expect("round trip");
        assert_eq!(parsed.key, key);
        assert_eq!(parsed.secs.to_bits(), 1.25f64.to_bits());
        let metrics = Metrics::from_distinct(
            parsed
                .names
                .into_iter()
                .zip(parsed.bits.into_iter().map(f64::from_bits))
                .collect(),
        );
        assert!(metrics.bits_eq(&m), "bit-exact metrics round trip");
    }

    #[test]
    fn torn_and_garbage_lines_are_rejected() {
        let mut m = Metrics::new();
        m.push("a", 1.5);
        m.push("b", 2.5);
        let key = job_key("s", "x", &Params::new(), 1);
        let mut line = String::new();
        encode_line(&mut line, &key, "x", 0.5, &m);
        let line = line.trim_end().to_string();
        assert!(parse_line(&line).is_some());
        for cut in 0..line.len() {
            // Every strict prefix (a torn tail) must fail to parse, and so
            // must one with the next writer's whole line glued on.
            assert!(
                parse_line(&line[..cut]).is_none(),
                "torn prefix of length {cut} parsed"
            );
            assert!(
                cut == 0 || parse_line(&format!("{}{line}", &line[..cut])).is_none(),
                "torn prefix of length {cut} with a line glued on parsed"
            );
        }
        assert!(parse_line(&format!("{line}\textra")).is_none());
        assert!(parse_line("junk").is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn salt_is_the_digest_of_the_committed_goldens() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<PathBuf> = std::fs::read_dir(crate_dir.join("tests/golden"))
            .expect("the golden dir is committed")
            .map(|entry| entry.expect("golden dir entry").path())
            .collect();
        files.sort();
        files.push(crate_dir.join("../../ci/trace_reference.json"));
        let mut h = sha256::Sha256::new();
        for path in &files {
            let name = path.file_name().expect("a file").to_string_lossy();
            let bytes = std::fs::read(path).expect("a committed golden");
            for field in [name.as_bytes(), &bytes] {
                h.update(&(field.len() as u64).to_le_bytes());
                h.update(field);
            }
        }
        let digest = &CacheKey(h.finalize()).hex()[..32];
        assert!(
            digest == SALT,
            "the committed goldens changed, so every cached result is stale: \
             set `const SALT: &str = \"{digest}\";` in crates/scenarios/src/cache.rs"
        );
    }
}
