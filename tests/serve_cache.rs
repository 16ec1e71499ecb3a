//! End-to-end tests of `plsim serve`'s job server: a served result must
//! be byte-identical to a direct in-process run, the content-addressed
//! result cache must serve repeats byte-identically, and trace-carrying
//! results must never be cached.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use pinned_loads::base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, TraceConfig};
use pinned_loads::bench::serve::{self, ServeOptions};
use pinned_loads::machine::Machine;
use pinned_loads::workloads::{spec_suite, Scale, Workload};

fn test_workload() -> Workload {
    spec_suite(Scale::Test)
        .into_iter()
        .find(|w| w.name == "stream")
        .expect("stream kernel exists")
}

fn test_config() -> MachineConfig {
    let mut cfg = MachineConfig::default_single_core();
    cfg.defense = DefenseScheme::Fence;
    cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
    cfg
}

/// A server running on an ephemeral port with its own scratch cache
/// directory; dropped state is cleaned up by the test that owns it.
struct TestServer {
    addr: String,
    cache_dir: PathBuf,
    scratch: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start_server(test_name: &str) -> TestServer {
    start_bounded_server(test_name, None)
}

fn start_bounded_server(test_name: &str, cache_max_entries: Option<usize>) -> TestServer {
    let scratch = std::env::temp_dir().join(format!(
        "plsim-serve-test-{}-{test_name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let cache_dir = scratch.join("cache");
    let port_file = scratch.join("port.txt");
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_dir: cache_dir.clone(),
        cache_max_entries,
        cache_max_bytes: None,
        port_file: Some(port_file.clone()),
    };
    let handle = std::thread::spawn(move || serve::serve(&opts));
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().to_string();
        }
        assert!(!handle.is_finished(), "server died before binding");
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    TestServer {
        addr,
        cache_dir,
        scratch,
        handle,
    }
}

impl TestServer {
    fn cache_files(&self) -> Vec<String> {
        let mut names: Vec<String> = match std::fs::read_dir(&self.cache_dir) {
            Ok(entries) => entries
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }

    fn shutdown(self) {
        let resp = serve::request(&self.addr, "{\"cmd\":\"shutdown\"}").unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        self.handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

fn assert_cache_file_count(dir: &Path, expected: usize) {
    let cache = serve::ResultCache::new(dir).unwrap();
    assert_eq!(cache.len(), expected);
}

#[test]
fn repeat_jobs_hit_the_cache_byte_identically() {
    let cfg = test_config();
    let w = test_workload();
    // Ground truth: the same job run directly, no server involved.
    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let direct = m.run(2_000_000_000).unwrap();

    let server = start_server("repeat");
    let line = serve::run_request_json(&cfg, None, &w);

    let first = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&first), "{first}");
    let second = serve::request(&server.addr, &line).unwrap();
    assert!(serve::response_was_cached(&second), "{second}");

    // Byte identity of the result payload, not merely semantic equality:
    // the cache hit splices the stored file's raw bytes back in.
    let r1 = serve::extract_result(&first).unwrap();
    let r2 = serve::extract_result(&second).unwrap();
    assert_eq!(r1, r2, "cache hit altered the result bytes");
    assert_eq!(
        r1,
        serve::result_to_json(&direct),
        "served result diverged from the direct run"
    );

    // Fields the server does not know are ignored: a request from a
    // client that sends extra job fields is the same job and hits the
    // same entry.
    let other_client = line.replacen("\"job\":{", "\"job\":{\"unknown_knob\":\"100\",", 1);
    assert_ne!(other_client, line);
    let third = serve::request(&server.addr, &other_client).unwrap();
    assert!(serve::response_was_cached(&third), "{third}");
    assert_eq!(serve::extract_result(&third).unwrap(), r1);

    // Exactly one content-addressed entry landed on disk.
    let files = server.cache_files();
    assert_eq!(files.len(), 1, "{files:?}");
    assert!(files[0].starts_with("plcache-"), "{files:?}");
    assert_cache_file_count(&server.cache_dir, 1);

    // The stats command agrees: one miss, two hits.
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"hits\":\"2\""), "{stats}");
    assert!(stats.contains("\"misses\":\"1\""), "{stats}");
    server.shutdown();
}

/// Satellite: a result that carries an event trace must NEVER be served
/// from or stored in the cache — the wire format drops the trace, so a
/// cached trace-job reply would silently lose data on the repeat.
#[test]
fn traced_jobs_are_never_cached() {
    let server = start_server("traced");
    let mut cfg = test_config();
    cfg.trace = TraceConfig::enabled();
    let line = serve::run_request_json(&cfg, None, &test_workload());

    for _ in 0..2 {
        let resp = serve::request(&server.addr, &line).unwrap();
        assert!(
            !serve::response_was_cached(&resp),
            "traced job served from cache: {resp}"
        );
        serve::extract_result(&resp).unwrap();
        assert_eq!(server.cache_files(), Vec::<String>::new());
    }
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_entries\":0"), "{stats}");
    server.shutdown();
}

/// Satellite: a server started with a cache bound evicts the
/// least-recently-used entry when a new result lands, reports the count
/// in `stats`, and serves an evicted job as a cold (but byte-identical)
/// re-run.
#[test]
fn bounded_server_cache_evicts_lru_and_reports_it() {
    let server = start_bounded_server("evict", Some(1));
    let w = test_workload();
    let cfg1 = test_config();
    let mut cfg2 = test_config();
    cfg2.seed ^= 0x5eed;
    let line1 = serve::run_request_json(&cfg1, None, &w);
    let line2 = serve::run_request_json(&cfg2, None, &w);

    let first = serve::request(&server.addr, &line1).unwrap();
    assert!(!serve::response_was_cached(&first), "{first}");
    // A second distinct job pushes the one-entry cache over its bound;
    // the first job's entry is the LRU victim.
    let second = serve::request(&server.addr, &line2).unwrap();
    assert!(!serve::response_was_cached(&second), "{second}");
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_entries\":1"), "{stats}");
    assert!(stats.contains("\"cache_evictions\":\"1\""), "{stats}");
    assert_eq!(server.cache_files().len(), 1);

    // The survivor still hits...
    let survivor = serve::request(&server.addr, &line2).unwrap();
    assert!(serve::response_was_cached(&survivor), "{survivor}");
    // ...while the evicted job re-runs cold, byte-identical to its first
    // run (determinism, not the cache, guarantees the bytes).
    let again = serve::request(&server.addr, &line1).unwrap();
    assert!(!serve::response_was_cached(&again), "{again}");
    assert_eq!(
        serve::extract_result(&first).unwrap(),
        serve::extract_result(&again).unwrap()
    );
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_evictions\":\"2\""), "{stats}");
    server.shutdown();
}

/// Satellite: `plsim submit` must exit nonzero and surface the server's
/// error message on a job-level error — not print the raw JSON error
/// blob on stdout with exit 0.
#[test]
fn submit_exits_nonzero_on_job_level_error() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"cmd\":\"run\""), "{line}");
        stream
            .write_all(b"{\"error\":\"workload `stream`: boom\",\"ok\":false}\n")
            .unwrap();
    });
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_plsim"))
        .args(["submit", "--server", &addr, "--workload", "stream"])
        .output()
        .unwrap();
    fake.join().unwrap();
    assert!(
        !out.status.success(),
        "submit exited 0 on a job-level error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("boom"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "error blob leaked to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
