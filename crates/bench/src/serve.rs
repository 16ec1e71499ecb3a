//! Simulation-as-a-service: a long-running job server with a
//! content-addressed result cache.
//!
//! Sweep experiments re-simulate the same `(workload, configuration,
//! seed)` triples over and over — across figure binaries, across
//! parameter scans that share a baseline, across repeated CI runs. Every
//! simulation is deterministic given its configuration, so a repeat is
//! pure waste. [`serve`] runs a server that keys each request by
//! [`job_digest`] (a stable FNV-1a digest over the workload content, the
//! full [`MachineConfig`], and the optional VP mask — the seed rides
//! inside the config), answers repeats from an on-disk [`ResultCache`]
//! byte-for-byte, and farms cold misses out to a worker pool.
//!
//! A worker runs each job to completion with one [`Machine::run`] call.
//! Nothing about an unfinished run is saved: a job lost with its worker
//! or its server is submitted again and re-run from cycle zero, which
//! reproduces the result bit for bit because the simulator is
//! deterministic.
//!
//! The wire protocol is newline-delimited JSON over TCP, parsed with the
//! in-tree [`pl_trace::json`] parser — no new dependencies. All `u64`
//! values are encoded as decimal *strings* because the parser holds
//! numbers as `f64`, which cannot round-trip values above 2^53 (seeds
//! and memory contents use the full 64 bits).
//!
//! Traced runs ([`pl_base::TraceConfig::enabled`]) are served but never
//! cached: their value is the multi-megabyte event log, which the result
//! wire format deliberately omits, so caching the stats-only residue
//! would poison repeats that actually wanted a trace — and would bloat
//! the cache directory with buffers that defeat its purpose.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

use pl_base::digest::Fnv1a;
use pl_base::{
    Addr, DefenseScheme, Histogram, MachineConfig, Mutation, PinMode, Stats, ThreatModel,
};
use pl_isa::asm::{disassemble, parse_asm};
use pl_isa::Reg;
use pl_machine::{Machine, RunResult};
use pl_secure::VpMask;
use pl_trace::json::{escape, parse, Value};
use pl_workloads::Workload;

/// Version tag mixed into every [`job_digest`]; bump when the job wire
/// schema changes meaning so stale cache entries go cold instead of
/// aliasing.
pub const JOB_DIGEST_SCHEMA: u64 = 2;

// ---------------------------------------------------------------------
// JSON helpers: u64-as-string encoding over the f64-backed parser.
// ---------------------------------------------------------------------

fn ju64(v: u64) -> String {
    format!("\"{v}\"")
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    let field = get(v, key)?;
    if let Some(s) = field.as_str() {
        return s
            .parse()
            .map_err(|_| format!("field `{key}`: bad u64 `{s}`"));
    }
    match field.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("field `{key}` is not a u64")),
    }
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(get_u64(v, key)? as usize)
}

fn get_u8(v: &Value, key: &str) -> Result<u8, String> {
    let n = get_u64(v, key)?;
    u8::try_from(n).map_err(|_| format!("field `{key}`: {n} does not fit u8"))
}

fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn arr_u64(v: &Value) -> Result<u64, String> {
    if let Some(s) = v.as_str() {
        return s.parse().map_err(|_| format!("bad u64 `{s}`"));
    }
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err("array element is not a u64".to_string()),
    }
}

// ---------------------------------------------------------------------
// MachineConfig wire format.
// ---------------------------------------------------------------------

/// Serializes the full configuration. Every field is explicit; the
/// strict deserializer rejects configs with missing fields so a client
/// and server that disagree about the schema fail loudly instead of
/// silently simulating different machines under the same digest.
pub fn config_to_json(cfg: &MachineConfig) -> String {
    let cache = |c: &pl_base::CacheConfig| {
        format!(
            "{{\"hit_latency\":{},\"mshr_entries\":{},\"size_bytes\":{},\"ways\":{}}}",
            ju64(c.hit_latency),
            c.mshr_entries,
            ju64(c.size_bytes),
            c.ways
        )
    };
    format!(
        "{{\"core\":{{\"alu_latency\":{},\"btb_entries\":{},\"commit_width\":{},\
         \"conservative_tso\":{},\"fetch_width\":{},\"issue_width\":{},\"lq_entries\":{},\
         \"mispredict_penalty\":{},\"mul_latency\":{},\"ras_entries\":{},\"rob_entries\":{},\
         \"sq_entries\":{},\"write_buffer_entries\":{}}},\
         \"defense\":{},\"fast_forward\":{},\
         \"mem\":{{\"dram_latency\":{},\"hop_latency\":{},\"l1d\":{},\"llc_slice\":{},\
         \"llc_slices\":{},\"mesh_cols\":{},\"mesh_rows\":{},\"prefetch_degree\":{}}},\
         \"num_cores\":{},\
         \"pinned_loads\":{{\"cpt_entries\":{},\"cst\":{{\"dir_entries\":{},\"dir_records\":{},\
         \"l1_entries\":{},\"l1_records\":{},\"wd\":{}}},\"ideal_cpt\":{},\"ideal_cst\":{},\
         \"lq_id_tag_bits\":{},\"mode\":{}}},\
         \"seed\":{},\"spin_parking\":{},\"threat_model\":{},\
         \"trace\":{{\"buffer_capacity\":{},\"enabled\":{}}},\
         \"verify\":{{\"enabled\":{},\"fault_delay\":{},\"fault_seed\":{},\"mutation\":{},\
         \"snapshot_period\":{}}}}}",
        ju64(cfg.core.alu_latency),
        cfg.core.btb_entries,
        cfg.core.commit_width,
        cfg.core.conservative_tso,
        cfg.core.fetch_width,
        cfg.core.issue_width,
        cfg.core.lq_entries,
        ju64(cfg.core.mispredict_penalty),
        ju64(cfg.core.mul_latency),
        cfg.core.ras_entries,
        cfg.core.rob_entries,
        cfg.core.sq_entries,
        cfg.core.write_buffer_entries,
        cfg.defense.code(),
        cfg.fast_forward,
        ju64(cfg.mem.dram_latency),
        ju64(cfg.mem.hop_latency),
        cache(&cfg.mem.l1d),
        cache(&cfg.mem.llc_slice),
        cfg.mem.llc_slices,
        cfg.mem.mesh_cols,
        cfg.mem.mesh_rows,
        cfg.mem.prefetch_degree,
        cfg.num_cores,
        cfg.pinned_loads.cpt.entries,
        cfg.pinned_loads.cst.dir_entries,
        cfg.pinned_loads.cst.dir_records,
        cfg.pinned_loads.cst.l1_entries,
        cfg.pinned_loads.cst.l1_records,
        cfg.pinned_loads.cst.wd,
        cfg.pinned_loads.ideal_cpt,
        cfg.pinned_loads.ideal_cst,
        cfg.pinned_loads.lq_id_tag_bits,
        cfg.pinned_loads.mode.code(),
        ju64(cfg.seed),
        cfg.spin_parking,
        cfg.threat_model.code(),
        cfg.trace.buffer_capacity,
        cfg.trace.enabled,
        cfg.verify.enabled,
        ju64(cfg.verify.fault_delay),
        ju64(cfg.verify.fault_seed),
        cfg.verify.mutation.code(),
        ju64(cfg.verify.snapshot_period),
    )
}

fn cache_from_json(v: &Value) -> Result<pl_base::CacheConfig, String> {
    Ok(pl_base::CacheConfig {
        size_bytes: get_u64(v, "size_bytes")?,
        ways: get_usize(v, "ways")?,
        hit_latency: get_u64(v, "hit_latency")?,
        mshr_entries: get_usize(v, "mshr_entries")?,
    })
}

/// Strict inverse of [`config_to_json`].
///
/// # Errors
///
/// Names the first missing or ill-typed field.
pub fn config_from_json(v: &Value) -> Result<MachineConfig, String> {
    let core = get(v, "core")?;
    let mem = get(v, "mem")?;
    let pl = get(v, "pinned_loads")?;
    let cst = get(pl, "cst")?;
    let trace = get(v, "trace")?;
    let verify = get(v, "verify")?;
    Ok(MachineConfig {
        num_cores: get_usize(v, "num_cores")?,
        core: pl_base::CoreConfig {
            issue_width: get_usize(core, "issue_width")?,
            fetch_width: get_usize(core, "fetch_width")?,
            commit_width: get_usize(core, "commit_width")?,
            rob_entries: get_usize(core, "rob_entries")?,
            lq_entries: get_usize(core, "lq_entries")?,
            sq_entries: get_usize(core, "sq_entries")?,
            write_buffer_entries: get_usize(core, "write_buffer_entries")?,
            btb_entries: get_usize(core, "btb_entries")?,
            ras_entries: get_usize(core, "ras_entries")?,
            mispredict_penalty: get_u64(core, "mispredict_penalty")?,
            alu_latency: get_u64(core, "alu_latency")?,
            mul_latency: get_u64(core, "mul_latency")?,
            conservative_tso: get_bool(core, "conservative_tso")?,
        },
        mem: pl_base::MemConfig {
            l1d: cache_from_json(get(mem, "l1d")?)?,
            llc_slice: cache_from_json(get(mem, "llc_slice")?)?,
            llc_slices: get_usize(mem, "llc_slices")?,
            hop_latency: get_u64(mem, "hop_latency")?,
            mesh_cols: get_usize(mem, "mesh_cols")?,
            mesh_rows: get_usize(mem, "mesh_rows")?,
            dram_latency: get_u64(mem, "dram_latency")?,
            prefetch_degree: get_usize(mem, "prefetch_degree")?,
        },
        defense: DefenseScheme::from_code(get_u8(v, "defense")?).ok_or("unknown defense code")?,
        threat_model: ThreatModel::from_code(get_u8(v, "threat_model")?)
            .ok_or("unknown threat_model code")?,
        pinned_loads: pl_base::PinnedLoadsConfig {
            mode: PinMode::from_code(get_u8(pl, "mode")?).ok_or("unknown pin mode code")?,
            cst: pl_base::CstConfig {
                l1_entries: get_usize(cst, "l1_entries")?,
                l1_records: get_usize(cst, "l1_records")?,
                dir_entries: get_usize(cst, "dir_entries")?,
                dir_records: get_usize(cst, "dir_records")?,
                wd: get_usize(cst, "wd")?,
            },
            cpt: pl_base::CptConfig {
                entries: get_usize(pl, "cpt_entries")?,
            },
            lq_id_tag_bits: get_u64(pl, "lq_id_tag_bits")? as u32,
            ideal_cst: get_bool(pl, "ideal_cst")?,
            ideal_cpt: get_bool(pl, "ideal_cpt")?,
        },
        trace: pl_base::TraceConfig {
            enabled: get_bool(trace, "enabled")?,
            buffer_capacity: get_usize(trace, "buffer_capacity")?,
        },
        fast_forward: get_bool(v, "fast_forward")?,
        spin_parking: get_bool(v, "spin_parking")?,
        seed: get_u64(v, "seed")?,
        verify: pl_base::VerifyConfig {
            enabled: get_bool(verify, "enabled")?,
            fault_delay: get_u64(verify, "fault_delay")?,
            fault_seed: get_u64(verify, "fault_seed")?,
            mutation: Mutation::from_code(get_u8(verify, "mutation")?)
                .ok_or("unknown mutation code")?,
            snapshot_period: get_u64(verify, "snapshot_period")?,
        },
    })
}

// ---------------------------------------------------------------------
// Workload and VP-mask wire formats.
// ---------------------------------------------------------------------

/// Serializes a workload: programs travel as assembly text (the
/// round-trip-tested [`disassemble`]/[`parse_asm`] pair), memory and
/// register images as `[address, value]` pairs.
pub fn workload_to_json(w: &Workload) -> String {
    let programs: Vec<String> = w
        .programs
        .iter()
        .map(|p| format!("\"{}\"", escape(&disassemble(p))))
        .collect();
    let mem: Vec<String> = w
        .init_mem
        .iter()
        .map(|&(a, v)| format!("[{},{}]", ju64(a.raw()), ju64(v)))
        .collect();
    let regs: Vec<String> = w
        .init_regs
        .iter()
        .map(|per_core| {
            let pairs: Vec<String> = per_core
                .iter()
                .map(|&(r, v)| format!("[{},{}]", r.index(), ju64(v)))
                .collect();
            format!("[{}]", pairs.join(","))
        })
        .collect();
    format!(
        "{{\"init_mem\":[{}],\"init_regs\":[{}],\"name\":\"{}\",\"programs\":[{}]}}",
        mem.join(","),
        regs.join(","),
        escape(&w.name),
        programs.join(","),
    )
}

/// Strict inverse of [`workload_to_json`].
///
/// # Errors
///
/// Reports the first malformed field, including assembly parse errors.
pub fn workload_from_json(v: &Value) -> Result<Workload, String> {
    let name = get_str(v, "name")?.to_string();
    let mut programs = Vec::new();
    for (i, p) in get(v, "programs")?
        .as_arr()
        .ok_or("`programs` is not an array")?
        .iter()
        .enumerate()
    {
        let src = p.as_str().ok_or("program is not a string")?;
        programs.push(parse_asm(src).map_err(|e| format!("program {i}: {e}"))?);
    }
    let mut init_mem = Vec::new();
    for pair in get(v, "init_mem")?
        .as_arr()
        .ok_or("`init_mem` is not an array")?
    {
        let pair = pair.as_arr().ok_or("init_mem entry is not a pair")?;
        if pair.len() != 2 {
            return Err("init_mem entry is not a pair".to_string());
        }
        init_mem.push((Addr::new(arr_u64(&pair[0])?), arr_u64(&pair[1])?));
    }
    let mut init_regs = Vec::new();
    for per_core in get(v, "init_regs")?
        .as_arr()
        .ok_or("`init_regs` is not an array")?
    {
        let mut regs = Vec::new();
        for pair in per_core.as_arr().ok_or("init_regs core is not an array")? {
            let pair = pair.as_arr().ok_or("init_regs entry is not a pair")?;
            if pair.len() != 2 {
                return Err("init_regs entry is not a pair".to_string());
            }
            let idx = arr_u64(&pair[0])?;
            let reg = Reg::new(u8::try_from(idx).map_err(|_| "register index too large")?)
                .map_err(|e| e.to_string())?;
            regs.push((reg, arr_u64(&pair[1])?));
        }
        init_regs.push(regs);
    }
    Ok(Workload {
        name,
        programs,
        init_mem,
        init_regs,
    })
}

fn mask_to_json(mask: &VpMask) -> String {
    format!(
        "{{\"alias\":{},\"ctrl\":{},\"exception\":{},\"mcv\":{}}}",
        mask.alias, mask.ctrl, mask.exception, mask.mcv
    )
}

fn mask_from_json(v: &Value) -> Result<VpMask, String> {
    Ok(VpMask {
        ctrl: get_bool(v, "ctrl")?,
        alias: get_bool(v, "alias")?,
        exception: get_bool(v, "exception")?,
        mcv: get_bool(v, "mcv")?,
    })
}

// ---------------------------------------------------------------------
// Job digest and result wire format.
// ---------------------------------------------------------------------

/// The content digest that keys the result cache: a stable FNV-1a hash
/// over the job schema version, the full configuration digest
/// ([`MachineConfig::digest`], which covers the seed), the VP-mask
/// override, and the complete workload content (programs as canonical
/// disassembly, memory and register images).
///
/// # Examples
///
/// ```
/// use pl_base::MachineConfig;
/// use pl_bench::serve::job_digest;
/// use pl_workloads::{spec_suite, Scale};
/// let cfg = MachineConfig::default_single_core();
/// let suite = spec_suite(Scale::Test);
/// let d0 = job_digest(&cfg, None, &suite[0]);
/// assert_eq!(d0, job_digest(&cfg, None, &suite[0]), "deterministic");
/// assert_ne!(d0, job_digest(&cfg, None, &suite[1]), "workload-sensitive");
/// let mut reseeded = cfg.clone();
/// reseeded.seed ^= 1;
/// assert_ne!(d0, job_digest(&reseeded, None, &suite[0]), "seed-sensitive");
/// ```
pub fn job_digest(cfg: &MachineConfig, mask: Option<VpMask>, workload: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(JOB_DIGEST_SCHEMA);
    h.write_u64(cfg.digest());
    match mask {
        None => h.write_u8(0),
        Some(m) => {
            h.write_u8(1);
            h.write_bool(m.ctrl);
            h.write_bool(m.alias);
            h.write_bool(m.exception);
            h.write_bool(m.mcv);
        }
    }
    h.write_str(&workload.name);
    h.write_usize(workload.programs.len());
    for p in &workload.programs {
        h.write_str(&disassemble(p));
    }
    h.write_usize(workload.init_mem.len());
    for &(a, v) in &workload.init_mem {
        h.write_u64(a.raw());
        h.write_u64(v);
    }
    h.write_usize(workload.init_regs.len());
    for per_core in &workload.init_regs {
        h.write_usize(per_core.len());
        for &(r, v) in per_core {
            h.write_usize(r.index());
            h.write_u64(v);
        }
    }
    h.finish()
}

/// Canonical result serialization: only `u64` fields (encoded as decimal
/// strings) in deterministic order, so identical runs serialize to
/// identical bytes — the property that lets cache hits splice the stored
/// file verbatim. Traces are deliberately omitted (see module docs).
pub fn result_to_json(res: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(4096);
    let _ = write!(s, "{{\"counters\":{{");
    for (i, (name, value)) in res.stats.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", escape(name), ju64(value));
    }
    let _ = write!(s, "}},\"cycles\":{},\"histograms\":{{", ju64(res.cycles));
    for (i, (name, h)) in res.stats.iter_histograms().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"count\":{},\"max\":{},\"min\":{},\"sum\":{}}}",
            escape(name),
            ju64(h.count()),
            ju64(h.max().unwrap_or(0)),
            ju64(h.min().unwrap_or(0)),
            ju64(h.sum()),
        );
    }
    let _ = write!(s, "}},\"retired_per_core\":[");
    for (i, r) in res.retired_per_core.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&ju64(*r));
    }
    s.push_str("]}");
    s
}

/// Rebuilds a [`RunResult`] from [`result_to_json`] output. The trace is
/// always `None`: traces never travel over the wire.
///
/// # Errors
///
/// Reports the first malformed field.
pub fn result_from_json(v: &Value) -> Result<RunResult, String> {
    let cycles = get_u64(v, "cycles")?;
    let mut retired_per_core = Vec::new();
    for r in get(v, "retired_per_core")?
        .as_arr()
        .ok_or("`retired_per_core` is not an array")?
    {
        retired_per_core.push(arr_u64(r)?);
    }
    let mut stats = Stats::new();
    let Value::Obj(counters) = get(v, "counters")? else {
        return Err("`counters` is not an object".to_string());
    };
    for (name, value) in counters {
        stats.add(name, arr_u64(value)?);
    }
    let Value::Obj(histograms) = get(v, "histograms")? else {
        return Err("`histograms` is not an object".to_string());
    };
    for (name, h) in histograms {
        let count = get_u64(h, "count")?;
        let hist = Histogram::from_parts(
            count,
            get_u64(h, "sum")?,
            (count > 0).then(|| get_u64(h, "min")).transpose()?,
            (count > 0).then(|| get_u64(h, "max")).transpose()?,
        );
        stats.set_histogram(name, hist);
    }
    Ok(RunResult {
        cycles,
        retired_per_core,
        stats,
        trace: None,
    })
}

// ---------------------------------------------------------------------
// On-disk result cache.
// ---------------------------------------------------------------------

/// A content-addressed result store: one `plcache-<digest>.json` file
/// per completed job, written atomically (temp file + rename) so a
/// killed worker never leaves a torn entry.
///
/// A long-lived server accumulates one file per distinct job forever, so
/// the cache can be bounded ([`ResultCache::with_limits`]): after every
/// store, least-recently-used entries are evicted until the cache fits.
/// Recency is the file mtime — a [`ResultCache::lookup`] hit re-stamps
/// it, so hot entries survive and cold ones age out. The entry just
/// stored is never evicted (a limit smaller than one entry must not turn
/// `store` into a no-op that breaks the store-then-lookup contract).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    tmp_counter: AtomicU64,
    max_entries: Option<usize>,
    max_bytes: Option<u64>,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) an unbounded cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: &Path) -> io::Result<ResultCache> {
        ResultCache::with_limits(dir, None, None)
    }

    /// Opens (creating if needed) a cache rooted at `dir` that holds at
    /// most `max_entries` files / `max_bytes` total payload bytes
    /// (`None` = unlimited).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_limits(
        dir: &Path,
        max_entries: Option<usize>,
        max_bytes: Option<u64>,
    ) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            tmp_counter: AtomicU64::new(0),
            max_entries,
            max_bytes,
            evictions: AtomicU64::new(0),
        })
    }

    /// The file an entry with this digest lives at.
    pub fn path_for(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("plcache-{digest:016x}.json"))
    }

    /// The stored result bytes for `digest`, if present. A hit re-stamps
    /// the entry's mtime so LRU eviction sees it as fresh.
    pub fn lookup(&self, digest: u64) -> Option<String> {
        let path = self.path_for(digest);
        let content = std::fs::read_to_string(&path).ok()?;
        if let Ok(f) = std::fs::File::options().write(true).open(&path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
        Some(content)
    }

    /// Atomically stores `json` under `digest`, then evicts
    /// least-recently-used entries (never this one) until the cache is
    /// back under its limits.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures on the store itself; eviction
    /// failures are ignored (a stale entry is harmless).
    pub fn store(&self, digest: u64, json: &str) -> io::Result<()> {
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "plcache-{digest:016x}.tmp{n}-{}",
            std::process::id()
        ));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, self.path_for(digest))?;
        if self.max_entries.is_some() || self.max_bytes.is_some() {
            self.enforce_limits(digest);
        }
        Ok(())
    }

    /// Total entries evicted over this cache handle's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn enforce_limits(&self, keep: u64) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let keep_name = format!("plcache-{keep:016x}.json");
        // (mtime, name, size) per entry; name tie-breaks equal mtimes so
        // eviction order is deterministic on coarse-granularity clocks.
        let mut entries: Vec<(std::time::SystemTime, String, u64)> = rd
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if !name.starts_with("plcache-") || !name.ends_with(".json") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, name, meta.len()))
            })
            .collect();
        entries.sort();
        let mut count = entries.len();
        let mut bytes: u64 = entries.iter().map(|e| e.2).sum();
        for (_, name, size) in entries {
            let over = self.max_entries.is_some_and(|m| count > m)
                || self.max_bytes.is_some_and(|m| bytes > m);
            if !over {
                break;
            }
            if name == keep_name {
                continue;
            }
            if std::fs::remove_file(self.dir.join(&name)).is_ok() {
                count -= 1;
                bytes = bytes.saturating_sub(size);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of completed entries currently stored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.starts_with("plcache-") && name.ends_with(".json")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7171` or `127.0.0.1:0` for an
    /// ephemeral port.
    pub addr: String,
    /// Worker threads executing cold-miss simulations.
    pub threads: usize,
    /// Result cache directory.
    pub cache_dir: PathBuf,
    /// Most cached results kept on disk (`None` = unlimited); the
    /// least-recently-used entries are evicted past the limit.
    pub cache_max_entries: Option<usize>,
    /// Most total cached result bytes kept on disk (`None` = unlimited).
    pub cache_max_bytes: Option<u64>,
    /// When set, the actual bound port is written here once listening —
    /// how scripts using port 0 discover the address.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            threads: crate::sweep::default_threads(),
            cache_dir: PathBuf::from("plcache"),
            cache_max_entries: None,
            cache_max_bytes: None,
            port_file: None,
        }
    }
}

struct Job {
    digest: u64,
    cfg: MachineConfig,
    mask: Option<VpMask>,
    workload: Workload,
    /// Receives the canonical result JSON, or the job-level error.
    reply: mpsc::Sender<Result<String, String>>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    hits: AtomicU64,
    misses: AtomicU64,
    local_addr: Mutex<Option<SocketAddr>>,
}

fn cacheable(cfg: &MachineConfig) -> bool {
    !cfg.trace.enabled
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("job queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("job queue wait");
            }
        };
        let _ = job.reply.send(run_job(shared, &job));
    }
}

/// Builds the job's machine, runs it to completion, and stores the
/// result in the cache when the job is cacheable.
fn run_job(shared: &Shared, job: &Job) -> Result<String, String> {
    if job.workload.cores() > job.cfg.num_cores {
        return Err(format!(
            "workload `{}` needs {} cores but the config has {}",
            job.workload.name,
            job.workload.cores(),
            job.cfg.num_cores
        ));
    }
    let mut machine = Machine::new(&job.cfg).map_err(|e| format!("invalid config: {e}"))?;
    job.workload.install(&mut machine);
    if let Some(mask) = job.mask {
        machine.set_vp_mask(mask);
    }
    let result = machine
        .run(crate::RUN_BUDGET)
        .map_err(|e| format!("workload `{}`: {e}", job.workload.name))?;
    let json = result_to_json(&result);
    if cacheable(&job.cfg) {
        shared
            .cache
            .store(job.digest, &json)
            .map_err(|e| format!("cache store failed: {e}"))?;
    }
    Ok(json)
}

fn respond(stream: &mut TcpStream, line: &str) {
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

fn error_response(msg: &str) -> String {
    format!("{{\"error\":\"{}\",\"ok\":false}}", escape(msg))
}

/// Handles one client connection: read one request line, write one
/// response line. Returns `true` if this request asked for shutdown.
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> bool {
    let mut line = String::new();
    {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return false,
        });
        if reader.read_line(&mut line).is_err() {
            return false;
        }
    }
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            respond(&mut stream, &error_response(&format!("bad request: {e}")));
            return false;
        }
    };
    match req.get("cmd").and_then(Value::as_str) {
        Some("ping") => {
            respond(&mut stream, "{\"ok\":true}");
            false
        }
        Some("stats") => {
            let hits = shared.hits.load(Ordering::Relaxed);
            let misses = shared.misses.load(Ordering::Relaxed);
            respond(
                &mut stream,
                &format!(
                    "{{\"cache_entries\":{},\"cache_evictions\":{},\"hits\":{},\
                     \"misses\":{},\"ok\":true}}",
                    shared.cache.len(),
                    ju64(shared.cache.evictions()),
                    ju64(hits),
                    ju64(misses),
                ),
            );
            false
        }
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            respond(&mut stream, "{\"ok\":true,\"stopping\":true}");
            true
        }
        Some("run") => {
            match handle_run(shared, &req) {
                Ok(resp) => respond(&mut stream, &resp),
                Err(e) => respond(&mut stream, &error_response(&e)),
            }
            false
        }
        _ => {
            respond(&mut stream, &error_response("unknown cmd"));
            false
        }
    }
}

fn handle_run(shared: &Shared, req: &Value) -> Result<String, String> {
    let job_v = get(req, "job")?;
    let cfg = config_from_json(get(job_v, "config")?)?;
    cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
    let workload = workload_from_json(get(job_v, "workload")?)?;
    let mask = match job_v.get("mask") {
        None | Some(Value::Null) => None,
        Some(m) => Some(mask_from_json(m)?),
    };
    let digest = job_digest(&cfg, mask, &workload);
    if cacheable(&cfg) {
        if let Some(raw) = shared.cache.lookup(digest) {
            shared.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(format!(
                "{{\"cached\":true,\"digest\":\"{digest:016x}\",\"ok\":true,\"result\":{raw}}}"
            ));
        }
    }
    shared.misses.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = shared.queue.lock().expect("job queue lock");
        queue.push_back(Job {
            digest,
            cfg,
            mask,
            workload,
            reply: tx,
        });
        shared.queue_cv.notify_one();
    }
    let result_json = rx
        .recv()
        .map_err(|_| "worker dropped the job (server shutting down?)".to_string())??;
    Ok(format!(
        "{{\"cached\":false,\"digest\":\"{digest:016x}\",\"ok\":true,\"result\":{result_json}}}"
    ))
}

/// Runs the job server until a `shutdown` request arrives. Blocks the
/// calling thread; spawns `opts.threads` simulation workers plus one
/// thread per connection.
///
/// # Errors
///
/// Propagates socket and port-file I/O errors.
pub fn serve(opts: &ServeOptions) -> io::Result<()> {
    let listener = TcpListener::bind(&opts.addr)?;
    let local = listener.local_addr()?;
    if let Some(pf) = &opts.port_file {
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{local}\n"))?;
        std::fs::rename(&tmp, pf)?;
    }
    let shared = Shared {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        cache: ResultCache::with_limits(
            &opts.cache_dir,
            opts.cache_max_entries,
            opts.cache_max_bytes,
        )?,
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        local_addr: Mutex::new(Some(local)),
    };
    let threads = opts.threads.max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker_loop(&shared));
        }
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared_ref = &shared;
            scope.spawn(move || {
                if handle_connection(shared_ref, stream) {
                    // Shutdown was requested on this connection; the
                    // accept loop is still blocked, so poke it awake
                    // with a throwaway connection to ourselves.
                    let addr = shared_ref
                        .local_addr
                        .lock()
                        .expect("local addr lock")
                        .take();
                    if let Some(addr) = addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
            });
        }
        // Wake any workers still parked on the queue condvar.
        shared.queue_cv.notify_all();
    });
    Ok(())
}

// ---------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------

/// Sends one request line to a server and returns its one response line.
///
/// # Errors
///
/// Propagates socket I/O errors.
pub fn request(addr: &str, line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    Ok(resp.trim_end().to_string())
}

/// Builds a `run` request line for a job.
pub fn run_request_json(cfg: &MachineConfig, mask: Option<VpMask>, workload: &Workload) -> String {
    let mask_json = match mask {
        None => "null".to_string(),
        Some(m) => mask_to_json(&m),
    };
    format!(
        "{{\"cmd\":\"run\",\"job\":{{\"config\":{},\"mask\":{},\"workload\":{}}}}}",
        config_to_json(cfg),
        mask_json,
        workload_to_json(workload),
    )
}

/// Extracts the raw `result` payload from a server response without
/// re-serializing it — the response format puts `"result":` last exactly
/// so this is a substring operation, preserving byte identity between a
/// cache hit and the run that populated the cache.
///
/// # Errors
///
/// Returns the server's error message for `ok:false` responses, or a
/// description of a malformed response.
pub fn extract_result(response: &str) -> Result<&str, String> {
    let v = parse(response).map_err(|e| format!("bad response: {e}"))?;
    if !v.get("ok").and_then(Value::as_bool).unwrap_or(false) {
        let msg = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown server error");
        return Err(format!("server error: {msg}"));
    }
    let marker = "\"result\":";
    let start = response
        .find(marker)
        .ok_or("response has no `result` field")?
        + marker.len();
    let end = response.rfind('}').ok_or("unterminated response")?;
    Ok(&response[start..end])
}

/// `true` if the server's response was answered from its result cache.
pub fn response_was_cached(response: &str) -> bool {
    parse(response)
        .ok()
        .and_then(|v| v.get("cached").and_then(Value::as_bool))
        .unwrap_or(false)
}

/// Runs a job on a remote server and rebuilds the [`RunResult`]. Used by
/// [`crate::run_masked`] when `PL_SWEEP_SERVER` is set; note the rebuilt
/// result never carries a trace.
///
/// # Errors
///
/// Reports connection failures, server-side errors, and malformed
/// responses.
pub fn remote_run(
    addr: &str,
    cfg: &MachineConfig,
    mask: Option<VpMask>,
    workload: &Workload,
) -> Result<RunResult, String> {
    let line = run_request_json(cfg, mask, workload);
    let resp = request(addr, &line).map_err(|e| format!("connect {addr}: {e}"))?;
    let raw = extract_result(&resp)?;
    let v = parse(raw).map_err(|e| format!("bad result payload: {e}"))?;
    result_from_json(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_workloads::{spec_suite, Scale};

    fn test_workload() -> Workload {
        spec_suite(Scale::Test).remove(4) // alu_dense: small and fast
    }

    #[test]
    fn config_json_round_trips() {
        let mut cfg = MachineConfig::default_multi_core(4);
        cfg.defense = DefenseScheme::Stt;
        cfg.pinned_loads = pl_base::PinnedLoadsConfig::with_mode(PinMode::Early);
        cfg.seed = u64::MAX - 7; // exercises the >2^53 string path
        cfg.core.conservative_tso = true;
        let v = parse(&config_to_json(&cfg)).unwrap();
        let back = config_from_json(&v).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(cfg.digest(), back.digest());
    }

    #[test]
    fn workload_json_round_trips() {
        let w = test_workload();
        let v = parse(&workload_to_json(&w)).unwrap();
        let back = workload_from_json(&v).unwrap();
        assert_eq!(w.name, back.name);
        assert_eq!(w.init_mem, back.init_mem);
        assert_eq!(w.init_regs, back.init_regs);
        assert_eq!(w.programs.len(), back.programs.len());
        for (a, b) in w.programs.iter().zip(&back.programs) {
            assert_eq!(disassemble(a), disassemble(b));
        }
        let cfg = MachineConfig::default_single_core();
        assert_eq!(
            job_digest(&cfg, None, &w),
            job_digest(&cfg, None, &back),
            "round-tripped workload must keep its cache key"
        );
    }

    #[test]
    fn result_json_round_trips_and_is_canonical() {
        let cfg = MachineConfig::default_single_core();
        let res = crate::run_workload(&cfg, &test_workload());
        let json = result_to_json(&res);
        let back = result_from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(res.cycles, back.cycles);
        assert_eq!(res.retired_per_core, back.retired_per_core);
        assert_eq!(res.stats.to_string(), back.stats.to_string());
        // Canonical: serializing the rebuilt result reproduces the bytes.
        assert_eq!(json, result_to_json(&back));
    }

    #[test]
    fn mask_round_trips_and_keys_digest() {
        let m = VpMask {
            ctrl: true,
            alias: false,
            exception: true,
            mcv: false,
        };
        let v = parse(&mask_to_json(&m)).unwrap();
        assert_eq!(m, mask_from_json(&v).unwrap());
        let cfg = MachineConfig::default_single_core();
        let w = test_workload();
        assert_ne!(job_digest(&cfg, None, &w), job_digest(&cfg, Some(m), &w));
    }

    #[test]
    fn cache_store_lookup_round_trip() {
        let dir = std::env::temp_dir().join(format!("plserve-test-{}", std::process::id()));
        let cache = ResultCache::new(&dir).unwrap();
        assert!(cache.lookup(42).is_none());
        cache.store(42, "{\"x\":1}").unwrap();
        assert_eq!(cache.lookup(42).unwrap(), "{\"x\":1}");
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_cache_evicts_lru_entries() {
        let dir = std::env::temp_dir().join(format!("plserve-lru-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_limits(&dir, Some(3), None).unwrap();
        // Stamp explicit mtimes so recency order is deterministic even on
        // coarse-granularity filesystem clocks.
        let stamp = |digest: u64, secs: u64| {
            let f = std::fs::File::options()
                .write(true)
                .open(cache.path_for(digest))
                .unwrap();
            f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs))
                .unwrap();
        };
        for d in 1..=3u64 {
            cache.store(d, "{}").unwrap();
            stamp(d, d);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 0);

        // A lookup hit refreshes entry 1's recency, so entry 2 is the LRU
        // victim when a fourth entry arrives.
        cache.lookup(1).unwrap();
        cache.store(4, "{}").unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(2).is_none(), "LRU entry survived eviction");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert!(cache.lookup(4).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_cache_enforces_byte_budget_but_keeps_newest() {
        let dir = std::env::temp_dir().join(format!("plserve-bytes-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::with_limits(&dir, None, Some(10)).unwrap();
        cache.store(1, "aaaaaa").unwrap(); // 6 bytes: fits
        cache.store(2, "bbbbbbbb").unwrap(); // 14 total: evicts 1
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.lookup(2).unwrap(), "bbbbbbbb");
        assert_eq!(cache.evictions(), 1);

        // An entry larger than the whole budget still lands — the entry
        // just stored is never its own eviction victim.
        let big = "c".repeat(32);
        cache.store(3, &big).unwrap();
        assert!(cache.lookup(2).is_none());
        assert_eq!(cache.lookup(3).unwrap(), big);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extract_result_splices_raw_bytes() {
        let resp = "{\"cached\":true,\"digest\":\"00ff\",\"ok\":true,\
                    \"result\":{\"cycles\":\"7\"}}";
        assert_eq!(extract_result(resp).unwrap(), "{\"cycles\":\"7\"}");
        assert!(response_was_cached(resp));
        let err = "{\"error\":\"boom\",\"ok\":false}";
        assert!(extract_result(err).unwrap_err().contains("boom"));
    }

    #[test]
    fn traced_configs_are_not_cacheable() {
        let mut cfg = MachineConfig::default_single_core();
        assert!(cacheable(&cfg));
        cfg.trace = pl_base::TraceConfig::enabled();
        assert!(!cacheable(&cfg));
    }
}
