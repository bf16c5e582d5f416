//! Cache persistence: a versioned, line-oriented text format.
//!
//! The on-disk cache is a warm-start artifact, not a source of truth —
//! loading re-derives every fingerprint from the parsed canonical forms,
//! so a corrupt or stale file can cause misses, never wrong proofs. All
//! I/O and parse failures surface as [`CacheIoError`]; this module
//! contains no `unwrap`/`expect`/`panic!` (enforced by
//! `scripts/lint_panics.sh`).
//!
//! Persistence is **crash-safe**: [`save_cache`] writes the whole
//! serialization to `<path>.tmp`, fsyncs it, and renames it over the
//! target, so an interruption at any write boundary leaves either the
//! previous consistent snapshot or a torn `.tmp` that no loader ever
//! reads — never a corrupt target. The interruption points are testable
//! via [`save_cache_with_faults`] (a write-counting injection of the
//! `FaultPlan::io_fail_after_writes` arm),
//! and a service that still finds a corrupt file at boot (e.g. one
//! written by a pre-atomic version, or bit-rot) can
//! [`load_cache_or_quarantine`] it: the bad file is moved aside to
//! `<path>.quarantine` and the service starts cold instead of dying.

use crate::cache::{CachedRun, CachedSummary, ProofCache};
use crate::env::{CanonicalEnv, CanonicalExtra, CanonicalForm, EnvMode};
use pdat_mc::CandidateId;
use pdat_netlist::{CellKind, NetlistStats};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const HEADER: &str = "pdat-proof-cache v1";

/// Failure while saving or loading a cache file.
#[derive(Debug)]
pub enum CacheIoError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Malformed cache file (1-based line number and message).
    Parse {
        /// Line the error was detected on.
        line: usize,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for CacheIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheIoError::Io(e) => write!(f, "cache i/o error: {e}"),
            CacheIoError::Parse { line, msg } => {
                write!(f, "cache file parse error at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for CacheIoError {}

impl From<std::io::Error> for CacheIoError {
    fn from(e: std::io::Error) -> Self {
        CacheIoError::Io(e)
    }
}

fn fmt_stats(out: &mut String, which: &str, s: &NetlistStats) {
    out.push_str(&format!(
        "stats {which} {} {} {} {:016x} {}",
        encode_name(&s.name),
        s.gate_count,
        s.dff_count,
        s.area_um2.to_bits(),
        s.net_count
    ));
    for (kind, n) in &s.histogram {
        out.push_str(&format!(" {}={n}", kind.name()));
    }
    out.push('\n');
}

/// Names may contain spaces; encode as '%'-escaped (space and '%' only).
fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn decode_name(tok: &str) -> String {
    if tok == "%00" {
        return String::new();
    }
    tok.replace("%20", " ").replace("%0A", "\n").replace("%25", "%")
}

/// Serialize every cache entry to `path` atomically: the full
/// serialization is written to `<path>.tmp`, fsynced, and renamed over
/// the target, so a crash at any point leaves either the previous
/// consistent snapshot or a stale `.tmp` (overwritten by the next save)
/// — never a torn target file.
///
/// # Errors
///
/// Returns [`CacheIoError::Io`] on filesystem failure; the target file
/// is untouched on error.
pub fn save_cache(cache: &ProofCache, path: &Path) -> Result<(), CacheIoError> {
    save_cache_with_faults(cache, path, None)
}

/// [`save_cache`] with a deterministic injected interruption: the
/// `fail_after_writes`'th logical write operation (4 KiB chunk writes,
/// then the fsync, then the rename) fails with an I/O error, leaving the
/// filesystem exactly as a `kill -9` at that boundary would — a torn
/// `.tmp` alongside an untouched target. This is the injection site for
/// `FaultPlan::io_fail_after_writes`; pass
/// `None` for the normal un-faulted save.
///
/// # Errors
///
/// Returns [`CacheIoError::Io`] on real or injected filesystem failure;
/// the target file is untouched on error.
pub fn save_cache_with_faults(
    cache: &ProofCache,
    path: &Path,
    fail_after_writes: Option<u64>,
) -> Result<(), CacheIoError> {
    let out = render_cache(cache);
    let tmp = suffixed_path(path, ".tmp");
    let mut budget = WriteBudget::new(fail_after_writes);
    let mut file = fs::File::create(&tmp)?;
    for chunk in out.as_bytes().chunks(4096) {
        budget.spend()?;
        file.write_all(chunk)?;
    }
    budget.spend()?;
    file.sync_all()?;
    drop(file);
    budget.spend()?;
    fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is advisory on
    // some filesystems; a failure here cannot tear anything, so it is
    // deliberately not propagated.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Counts logical write operations and fails the N'th one (testing hook
/// for crash-safety; see [`save_cache_with_faults`]).
struct WriteBudget {
    remaining: Option<u64>,
}

impl WriteBudget {
    fn new(fail_after: Option<u64>) -> WriteBudget {
        WriteBudget {
            remaining: fail_after,
        }
    }

    fn spend(&mut self) -> Result<(), CacheIoError> {
        match self.remaining.as_mut() {
            None => Ok(()),
            Some(0) => Err(CacheIoError::Io(std::io::Error::other(
                "injected i/o fault (io_fail_after_writes)",
            ))),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
        }
    }
}

/// `<path><suffix>` in the same directory (so renames stay atomic).
fn suffixed_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn render_cache(cache: &ProofCache) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (netlist_fp, run) in cache.snapshot() {
        out.push_str(&format!(
            "run {netlist_fp:016x} {:016x}\n",
            run.env.fingerprint()
        ));
        out.push_str(&format!("mode {}\n", mode_tag(run.env.mode)));
        for p in &run.env.ports {
            out.push_str("port");
            for n in p {
                out.push_str(&format!(" {n}"));
            }
            out.push('\n');
        }
        for f in &run.env.forms {
            out.push_str(&format!(
                "form {} {:08x} {:08x} {:08x}\n",
                u8::from(f.half),
                f.mask,
                f.value,
                f.forbidden
            ));
        }
        for e in &run.env.extras {
            match e {
                CanonicalExtra::PinnedInput { nets, value } => {
                    out.push_str(&format!("extra pinned {value:016x}"));
                    for n in nets {
                        out.push_str(&format!(" {n}"));
                    }
                    out.push('\n');
                }
                CanonicalExtra::CodeAt {
                    addr,
                    data,
                    address,
                    word,
                } => {
                    out.push_str(&format!("extra codeat {address:08x} {word:08x}"));
                    for n in addr {
                        out.push_str(&format!(" a{n}"));
                    }
                    for n in data {
                        out.push_str(&format!(" d{n}"));
                    }
                    out.push('\n');
                }
            }
        }
        for id in &run.proved {
            out.push_str(&format!("proved {} {} {}\n", id.net, id.tag, id.other));
        }
        out.push_str(&format!(
            "summary {} {}\n",
            run.summary.candidates, run.summary.sim_survivors
        ));
        fmt_stats(&mut out, "baseline", &run.summary.baseline);
        fmt_stats(&mut out, "optimized", &run.summary.optimized);
        out.push_str("end\n");
    }
    out
}

fn mode_tag(m: EnvMode) -> u8 {
    match m {
        EnvMode::Unconstrained => 0,
        EnvMode::RvPort => 1,
        EnvMode::RvCut => 2,
        EnvMode::ThumbPort => 3,
        EnvMode::ThumbCut => 4,
    }
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn next_line(&mut self) -> Option<&'a str> {
        for (i, l) in self.lines.by_ref() {
            self.line_no = i + 1;
            if !l.trim().is_empty() {
                return Some(l.trim_end());
            }
        }
        None
    }

    fn err(&self, msg: impl Into<String>) -> CacheIoError {
        CacheIoError::Parse {
            line: self.line_no,
            msg: msg.into(),
        }
    }

    fn parse_u64(&self, tok: Option<&str>, radix: u32, what: &str) -> Result<u64, CacheIoError> {
        let t = tok.ok_or_else(|| self.err(format!("missing {what}")))?;
        u64::from_str_radix(t, radix).map_err(|e| self.err(format!("bad {what} `{t}`: {e}")))
    }

    fn parse_u32(&self, tok: Option<&str>, radix: u32, what: &str) -> Result<u32, CacheIoError> {
        let v = self.parse_u64(tok, radix, what)?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} out of range: {v}")))
    }

    fn parse_usize(&self, tok: Option<&str>, what: &str) -> Result<usize, CacheIoError> {
        let v = self.parse_u64(tok, 10, what)?;
        usize::try_from(v).map_err(|_| self.err(format!("{what} out of range: {v}")))
    }

    fn parse_stats(&self, rest: &mut std::str::SplitWhitespace<'_>) -> Result<NetlistStats, CacheIoError> {
        let name = decode_name(rest.next().ok_or_else(|| self.err("missing stats name"))?);
        let gate_count = self.parse_usize(rest.next(), "gate_count")?;
        let dff_count = self.parse_usize(rest.next(), "dff_count")?;
        let area_bits = self.parse_u64(rest.next(), 16, "area bits")?;
        let net_count = self.parse_usize(rest.next(), "net_count")?;
        let mut histogram: BTreeMap<CellKind, usize> = BTreeMap::new();
        for tok in rest {
            let (kind_name, count) = tok
                .split_once('=')
                .ok_or_else(|| self.err(format!("bad histogram token `{tok}`")))?;
            let kind = CellKind::from_name(kind_name)
                .ok_or_else(|| self.err(format!("unknown cell kind `{kind_name}`")))?;
            let n = count
                .parse::<usize>()
                .map_err(|e| self.err(format!("bad histogram count `{count}`: {e}")))?;
            histogram.insert(kind, n);
        }
        Ok(NetlistStats {
            name,
            gate_count,
            dff_count,
            area_um2: f64::from_bits(area_bits),
            net_count,
            histogram,
        })
    }
}

/// Load a cache file and insert every entry into `cache` (an empty or
/// pre-warmed cache both work; duplicate keys are replaced).
///
/// # Errors
///
/// Returns [`CacheIoError::Io`] on filesystem failure and
/// [`CacheIoError::Parse`] on any malformed content — the cache is left
/// with the entries inserted before the error.
pub fn load_cache(cache: &ProofCache, path: &Path) -> Result<usize, CacheIoError> {
    let text = fs::read_to_string(path)?;
    let mut p = Parser {
        lines: text.lines().enumerate(),
        line_no: 0,
    };
    match p.next_line() {
        Some(h) if h == HEADER => {}
        Some(h) => return Err(p.err(format!("bad header `{h}` (want `{HEADER}`)"))),
        None => return Err(p.err("empty cache file")),
    }
    let mut loaded = 0usize;
    loop {
        let Some(line) = p.next_line() else {
            return Ok(loaded);
        };
        let mut toks = line.split_whitespace();
        if toks.next() != Some("run") {
            return Err(p.err(format!("expected `run`, got `{line}`")));
        }
        let netlist_fp = p.parse_u64(toks.next(), 16, "netlist fingerprint")?;
        let want_env_fp = p.parse_u64(toks.next(), 16, "env fingerprint")?;

        let mut mode: Option<EnvMode> = None;
        let mut ports: Vec<Vec<u32>> = Vec::new();
        let mut forms: Vec<CanonicalForm> = Vec::new();
        let mut extras: Vec<CanonicalExtra> = Vec::new();
        let mut proved: Vec<CandidateId> = Vec::new();
        let mut summary: Option<(usize, usize)> = None;
        let mut baseline: Option<NetlistStats> = None;
        let mut optimized: Option<NetlistStats> = None;
        loop {
            let Some(line) = p.next_line() else {
                return Err(p.err("unexpected end of file inside a run"));
            };
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("end") => break,
                Some("mode") => {
                    let tag = self_u8(&p, toks.next())?;
                    mode = Some(
                        EnvMode::from_tag(tag)
                            .ok_or_else(|| p.err(format!("unknown mode tag {tag}")))?,
                    );
                }
                Some("port") => {
                    let mut group = Vec::new();
                    for t in toks {
                        group.push(p.parse_u32(Some(t), 10, "port net")?);
                    }
                    ports.push(group);
                }
                Some("form") => {
                    let half = self_u8(&p, toks.next())? != 0;
                    forms.push(CanonicalForm {
                        half,
                        mask: p.parse_u32(toks.next(), 16, "form mask")?,
                        value: p.parse_u32(toks.next(), 16, "form value")?,
                        forbidden: p.parse_u32(toks.next(), 16, "form forbidden")?,
                    });
                }
                Some("extra") => match toks.next() {
                    Some("pinned") => {
                        let value = p.parse_u64(toks.next(), 16, "pinned value")?;
                        let mut nets = Vec::new();
                        for t in toks {
                            nets.push(p.parse_u32(Some(t), 10, "pinned net")?);
                        }
                        extras.push(CanonicalExtra::PinnedInput { nets, value });
                    }
                    Some("codeat") => {
                        let address = p.parse_u32(toks.next(), 16, "codeat address")?;
                        let word = p.parse_u32(toks.next(), 16, "codeat word")?;
                        let mut addr = Vec::new();
                        let mut data = Vec::new();
                        for t in toks {
                            if let Some(n) = t.strip_prefix('a') {
                                addr.push(p.parse_u32(Some(n), 10, "codeat addr net")?);
                            } else if let Some(n) = t.strip_prefix('d') {
                                data.push(p.parse_u32(Some(n), 10, "codeat data net")?);
                            } else {
                                return Err(p.err(format!("bad codeat net token `{t}`")));
                            }
                        }
                        extras.push(CanonicalExtra::CodeAt {
                            addr,
                            data,
                            address,
                            word,
                        });
                    }
                    other => {
                        return Err(p.err(format!("unknown extra kind {other:?}")));
                    }
                },
                Some("proved") => {
                    proved.push(CandidateId {
                        net: p.parse_u32(toks.next(), 10, "proved net")?,
                        tag: self_u8(&p, toks.next())?,
                        other: p.parse_u32(toks.next(), 10, "proved other")?,
                    });
                }
                Some("summary") => {
                    summary = Some((
                        p.parse_usize(toks.next(), "candidates")?,
                        p.parse_usize(toks.next(), "sim_survivors")?,
                    ));
                }
                Some("stats") => match toks.next() {
                    Some("baseline") => baseline = Some(p.parse_stats(&mut toks)?),
                    Some("optimized") => optimized = Some(p.parse_stats(&mut toks)?),
                    other => {
                        return Err(p.err(format!("unknown stats kind {other:?}")));
                    }
                },
                other => {
                    return Err(p.err(format!("unknown record {other:?}")));
                }
            }
        }
        let mode = mode.ok_or_else(|| p.err("run without `mode`"))?;
        let (candidates, sim_survivors) = summary.ok_or_else(|| p.err("run without `summary`"))?;
        let baseline = baseline.ok_or_else(|| p.err("run without baseline stats"))?;
        let optimized = optimized.ok_or_else(|| p.err("run without optimized stats"))?;
        let env = CanonicalEnv::canonicalize(mode, ports, forms, extras);
        if env.fingerprint() != want_env_fp {
            return Err(p.err(format!(
                "environment fingerprint mismatch: file says {want_env_fp:016x}, \
                 content hashes to {:016x}",
                env.fingerprint()
            )));
        }
        proved.sort_unstable();
        cache.insert(
            netlist_fp,
            CachedRun {
                env,
                proved,
                summary: CachedSummary {
                    candidates,
                    sim_survivors,
                    baseline,
                    optimized,
                },
            },
        );
        loaded += 1;
    }
}

/// Outcome of a resilient cache load ([`load_cache_or_quarantine`]).
#[derive(Debug)]
pub enum LoadOutcome {
    /// The file parsed cleanly; this many entries were inserted.
    Loaded(usize),
    /// No cache file exists; the cache starts cold.
    ColdStart,
    /// The file was corrupt: it was moved to the quarantine path and the
    /// cache starts cold (soundness is unaffected — a missing cache only
    /// costs re-proving).
    Quarantined {
        /// What was wrong with the file.
        error: CacheIoError,
        /// Where the corrupt file was moved.
        quarantine: PathBuf,
    },
}

/// Service-boot loader: like [`load_cache`], but a missing file is a
/// cold start and a corrupt file is *quarantined* — renamed to
/// `<path>.quarantine` (replacing any previous quarantine) — instead of
/// erroring the caller. The cache is only populated on a fully clean
/// parse: a file that fails halfway contributes nothing, so a boot is
/// always "consistent snapshot or cold", never "half a snapshot".
///
/// # Errors
///
/// Returns [`CacheIoError::Io`] only on a real filesystem failure
/// (unreadable file other than `NotFound`, or a failed quarantine
/// rename).
pub fn load_cache_or_quarantine(
    cache: &ProofCache,
    path: &Path,
) -> Result<LoadOutcome, CacheIoError> {
    // Parse into a scratch cache first: `load_cache` inserts entries as
    // it goes, and a parse error halfway through must not leave a
    // partial snapshot in the service's cache.
    let scratch = ProofCache::new();
    match load_cache(&scratch, path) {
        Ok(n) => {
            for (nfp, run) in scratch.snapshot() {
                cache.insert(nfp, (*run).clone());
            }
            Ok(LoadOutcome::Loaded(n))
        }
        Err(CacheIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(LoadOutcome::ColdStart)
        }
        Err(CacheIoError::Io(e)) => Err(CacheIoError::Io(e)),
        Err(error @ CacheIoError::Parse { .. }) => {
            let quarantine = suffixed_path(path, ".quarantine");
            fs::rename(path, &quarantine)?;
            Ok(LoadOutcome::Quarantined { error, quarantine })
        }
    }
}

fn self_u8(p: &Parser<'_>, tok: Option<&str>) -> Result<u8, CacheIoError> {
    let v = p.parse_u64(tok, 10, "byte field")?;
    u8::try_from(v).map_err(|_| p.err(format!("byte field out of range: {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ProofCache;

    fn sample_run() -> CachedRun {
        CachedRun {
            env: CanonicalEnv::canonicalize(
                EnvMode::RvPort,
                vec![vec![3, 4, 5]],
                vec![
                    CanonicalForm {
                        half: false,
                        mask: 0x7F,
                        value: 0x13,
                        forbidden: 1 << 11,
                    },
                    CanonicalForm {
                        half: true,
                        mask: 0xE003,
                        value: 0x0001,
                        forbidden: 0,
                    },
                ],
                vec![
                    CanonicalExtra::PinnedInput {
                        nets: vec![17, 18],
                        value: 0b10,
                    },
                    CanonicalExtra::CodeAt {
                        addr: vec![1, 2],
                        data: vec![3, 4],
                        address: 0x80,
                        word: 0x13,
                    },
                ],
            ),
            proved: vec![
                CandidateId {
                    net: 5,
                    tag: 0,
                    other: 0,
                },
                CandidateId {
                    net: 9,
                    tag: 2,
                    other: 4,
                },
            ],
            summary: CachedSummary {
                candidates: 12,
                sim_survivors: 7,
                baseline: NetlistStats {
                    name: "toy core".to_string(),
                    gate_count: 30,
                    dff_count: 4,
                    area_um2: 123.456,
                    net_count: 44,
                    histogram: [(CellKind::And2, 10), (CellKind::Dff, 4)].into(),
                },
                optimized: NetlistStats {
                    name: "toy core".to_string(),
                    gate_count: 20,
                    dff_count: 2,
                    area_um2: 83.25,
                    net_count: 44,
                    histogram: [(CellKind::And2, 8)].into(),
                },
            },
        }
    }

    #[test]
    fn round_trip_preserves_entries() {
        let dir = std::env::temp_dir().join("pdat_cache_io_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("roundtrip.pdatcache");

        let cache = ProofCache::new();
        cache.insert(0xDEADBEEF, sample_run());
        save_cache(&cache, &path).map_err(|e| e.to_string()).ok();

        let loaded = ProofCache::new();
        let n = load_cache(&loaded, &path).map_err(|e| e.to_string());
        assert_eq!(n, Ok(1));
        match loaded.lookup(0xDEADBEEF, &sample_run().env) {
            crate::cache::CacheLookup::Exact(r) => assert_eq!(*r, sample_run()),
            other => panic!("expected exact hit after reload, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_files_error_without_panicking() {
        let dir = std::env::temp_dir().join("pdat_cache_io_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("corrupt.pdatcache");
        let cache = ProofCache::new();

        for body in [
            "",
            "wrong header\n",
            "pdat-proof-cache v1\nnot-a-run\n",
            "pdat-proof-cache v1\nrun zz 00\n",
            "pdat-proof-cache v1\nrun 0000000000000001 0000000000000002\nmode 9\nend\n",
            "pdat-proof-cache v1\nrun 0000000000000001 0000000000000002\nmode 1\n",
        ] {
            let _ = fs::write(&path, body);
            assert!(
                load_cache(&cache, &path).is_err(),
                "body {body:?} must be rejected"
            );
        }
        // Fingerprint mismatch detected.
        let good = ProofCache::new();
        good.insert(1, sample_run());
        let _ = save_cache(&good, &path);
        let text = fs::read_to_string(&path).unwrap_or_default();
        let tampered = text.replacen("form 0", "form 1", 1);
        let _ = fs::write(&path, tampered);
        assert!(load_cache(&cache, &path).is_err(), "tampered env rejected");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let cache = ProofCache::new();
        let err = load_cache(
            &cache,
            Path::new("/definitely/not/a/real/path.pdatcache"),
        );
        assert!(matches!(err, Err(CacheIoError::Io(_))));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("pdat_cache_io_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("atomic.pdatcache");
        let cache = ProofCache::new();
        cache.insert(7, sample_run());
        save_cache(&cache, &path).expect("save");
        assert!(!suffixed_path(&path, ".tmp").exists(), "tmp renamed away");
        let loaded = ProofCache::new();
        assert_eq!(load_cache(&loaded, &path).ok(), Some(1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interrupted_save_never_corrupts_the_previous_snapshot() {
        let dir = std::env::temp_dir().join("pdat_cache_io_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("torn.pdatcache");
        let cache = ProofCache::new();
        cache.insert(1, sample_run());
        save_cache(&cache, &path).expect("initial save");

        // Kill the save at every write boundary; the target must stay a
        // loadable snapshot of the *previous* save each time.
        let mut injected = 0;
        for fail_after in 0..16u64 {
            let bigger = ProofCache::new();
            bigger.insert(1, sample_run());
            bigger.insert(2, sample_run());
            match save_cache_with_faults(&bigger, &path, Some(fail_after)) {
                Err(CacheIoError::Io(_)) => {
                    injected += 1;
                    let reloaded = ProofCache::new();
                    assert_eq!(
                        load_cache(&reloaded, &path).ok(),
                        Some(1),
                        "fail_after={fail_after}: previous snapshot must survive"
                    );
                }
                Ok(()) => {
                    // Budget outlasted the save: the new snapshot landed.
                    let reloaded = ProofCache::new();
                    assert_eq!(load_cache(&reloaded, &path).ok(), Some(2));
                }
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert!(injected >= 2, "sweep must actually interrupt saves");
        // A later clean save overwrites any torn tmp and the target.
        let bigger = ProofCache::new();
        bigger.insert(1, sample_run());
        bigger.insert(2, sample_run());
        save_cache(&bigger, &path).expect("clean save after torn ones");
        assert!(!suffixed_path(&path, ".tmp").exists());
        let reloaded = ProofCache::new();
        assert_eq!(load_cache(&reloaded, &path).ok(), Some(2));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn quarantine_loader_survives_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join("pdat_cache_io_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("boot.pdatcache");
        let quarantine = suffixed_path(&path, ".quarantine");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&quarantine);

        // Missing file: cold start, no error.
        let cache = ProofCache::new();
        assert!(matches!(
            load_cache_or_quarantine(&cache, &path),
            Ok(LoadOutcome::ColdStart)
        ));
        assert!(cache.is_empty());

        // Corrupt file: quarantined, cache stays empty (even though the
        // file starts with valid entries, nothing partial is kept).
        let good = ProofCache::new();
        good.insert(1, sample_run());
        save_cache(&good, &path).expect("save");
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("run not-a-fingerprint zz\n");
        fs::write(&path, text).expect("corrupt");
        match load_cache_or_quarantine(&cache, &path) {
            Ok(LoadOutcome::Quarantined { error, quarantine: q }) => {
                assert!(matches!(error, CacheIoError::Parse { .. }));
                assert_eq!(q, quarantine);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(cache.is_empty(), "no partial snapshot after quarantine");
        assert!(!path.exists(), "corrupt file moved away");
        assert!(quarantine.exists(), "quarantine file kept for forensics");

        // Next boot is a clean cold start.
        assert!(matches!(
            load_cache_or_quarantine(&cache, &path),
            Ok(LoadOutcome::ColdStart)
        ));

        // And an intact file loads into the caller's cache.
        save_cache(&good, &path).expect("save");
        match load_cache_or_quarantine(&cache, &path) {
            Ok(LoadOutcome::Loaded(1)) => {}
            other => panic!("expected Loaded(1), got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&quarantine);
    }
}
