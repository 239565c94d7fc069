//! Per-run fixtures, built during setup: the `mc-warm` disk cache log (in a child
//! process, so the parent's peak memory covers only the replay) and the `mc-farm`
//! fleet (in-process loopback workers, stood up once per run).

use crate::campaign::{self, CacheSource, Campaign, Expected, Outcome, Workload};
use crate::probe::Probe;
use slic_farm::wire::encode_message;
use slic_farm::{serve_listener, FarmBackend, FarmStats, Message, ServeOutcome, WorkerOptions};
use slic_obs::{MetricsRegistry, Observability};
use slic_spice::LocalBackend;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The argument that makes the benchmark binary build the `mc-warm` log and exit.
pub const BUILD_WARM_LOG: &str = "--build-warm-log";

/// A disk cache log written by one cold campaign.
#[derive(Debug, Clone)]
pub struct WarmLog {
    /// The log file.
    pub path: PathBuf,
    /// What a replay must reproduce: the cold campaign's output, at zero simulations.
    pub expected: Expected,
    /// Simulations the cold campaign paid.
    pub cold_sims: u64,
    /// Seconds the cold campaign spent in `DiskSimCache::store`.
    pub store_s: f64,
    /// Seconds `persist` took to append the log.
    pub persist_s: f64,
}

impl WarmLog {
    /// Size of the log in bytes.
    ///
    /// # Errors
    ///
    /// Returns the rendered I/O error.
    pub fn bytes(&self) -> Result<u64, String> {
        std::fs::metadata(&self.path)
            .map(|m| m.len())
            .map_err(|e| format!("cannot stat `{}`: {e}", self.path.display()))
    }
}

/// Builds the `mc-warm` log at `path` by running `program BUILD_WARM_LOG <path> <seed>`
/// and waiting for it.
///
/// # Errors
///
/// Returns a description when the child cannot start, fails, or prints no record.
pub fn build_warm_log(program: &Path, path: &Path, seed: u64) -> Result<WarmLog, String> {
    let output = Command::new(program)
        .arg(BUILD_WARM_LOG)
        .arg(path)
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run `{}`: {e}", program.display()))?;
    if !output.status.success() {
        return Err(format!("warm-log child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record: Vec<&str> = stdout
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let [digest, sims, coords, err_bits, store_s, persist_s] = record[..] else {
        return Err(format!("warm-log child printed `{}`", stdout.trim()));
    };
    let integer = |text: &str| {
        text.parse::<u64>()
            .map_err(|e| format!("warm-log record `{text}`: {e}"))
    };
    let seconds = |text: &str| {
        text.parse::<f64>()
            .map_err(|e| format!("warm-log record `{text}`: {e}"))
    };
    Ok(WarmLog {
        path: path.to_path_buf(),
        expected: Expected {
            digest: digest.to_string(),
            sims_paid: 0,
            coords: integer(coords)?,
            model_err_pct: f64::from_bits(integer(err_bits)?),
        },
        cold_sims: integer(sims)?,
        store_s: seconds(store_s)?,
        persist_s: seconds(persist_s)?,
    })
}

/// The child side of [`build_warm_log`]: one traced cold `mc-cold` campaign through a
/// fresh `DiskSimCache` at `path`, then one line describing it on stdout: digest,
/// simulations paid, coordinates, the bits of the model error, store and persist
/// seconds.
///
/// # Errors
///
/// Returns the campaign's error.
pub fn warm_log_child(path: &Path, seed: u64) -> Result<String, String> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot reset `{}`: {e}", path.display())),
    }
    let out_dir = path.parent().ok_or("log path has no directory")?;
    let probe = Probe::new(Instant::now(), 0);
    let outcome = campaign::run(
        &Campaign {
            config: Workload::McCold.config(seed),
            cache: CacheSource::Disk(path),
            backend: Arc::new(LocalBackend::new()),
            out_dir,
        },
        Some(&probe),
    )?;
    // Write the log back now: dirty pages flushed in the background would otherwise
    // compete with the parent's timed campaigns.
    std::fs::File::open(path)
        .and_then(|file| file.sync_all())
        .map_err(|e| format!("cannot sync `{}`: {e}", path.display()))?;
    Ok(format!(
        "{} {} {} {} {:?} {:?}",
        outcome.digest,
        outcome.sims_paid,
        outcome.coords(),
        outcome.model_err_pct.to_bits(),
        probe.cache.store_s(),
        probe.seconds("cache.persist"),
    ))
}

/// Workers in the `mc-farm` fleet: one per core of the reference 2-core box.
pub const FLEET_WORKERS: usize = 2;

/// A farm of loopback TCP workers serving from threads of this process, and the
/// broker connected to them.
pub struct Fleet {
    backend: Option<Arc<FarmBackend>>,
    registry: MetricsRegistry,
    workers: Vec<(SocketAddr, JoinHandle<std::io::Result<ServeOutcome>>)>,
}

/// Farm counters at one instant: the broker's stats plus wire bytes from the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmCounters {
    /// The broker's dispatch counters.
    pub stats: FarmStats,
    /// Wire bytes sent and received, over every worker.
    pub wire_bytes: u64,
}

impl Fleet {
    /// Starts `workers` loopback workers and connects a broker to them.
    ///
    /// # Errors
    ///
    /// Returns a description when binding or connecting fails.
    pub fn start(workers: usize) -> Result<Self, String> {
        let mut fleet = Fleet {
            backend: None,
            registry: MetricsRegistry::new(),
            workers: Vec::new(),
        };
        for index in 0..workers {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let address = listener.local_addr().map_err(|e| e.to_string())?;
            let options = WorkerOptions {
                name: format!("loopback-{index}"),
                ..WorkerOptions::default()
            };
            let handle = std::thread::spawn(move || serve_listener(&listener, &options));
            fleet.workers.push((address, handle));
        }
        let addresses: Vec<String> = fleet.workers.iter().map(|(a, _)| a.to_string()).collect();
        let backend = FarmBackend::connect(&addresses)
            .map_err(|e| format!("farm: {e}"))?
            .with_observability(Observability {
                metrics: fleet.registry.clone(),
                ..Observability::default()
            });
        fleet.backend = Some(Arc::new(backend));
        Ok(fleet)
    }

    /// The broker.
    pub fn backend(&self) -> Arc<FarmBackend> {
        self.backend
            .clone()
            .expect("the broker lives until shutdown")
    }

    /// The farm counters now; subtract two readings for one campaign's share.
    pub fn counters(&self) -> FarmCounters {
        let wire_bytes = self
            .registry
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("farm.worker.")
                    && (name.ends_with(".bytes_tx") || name.ends_with(".bytes_rx"))
            })
            .map(|(_, value)| value)
            .sum();
        FarmCounters {
            stats: self.backend().stats(),
            wire_bytes,
        }
    }
}

impl Drop for Fleet {
    /// Drops the broker, which asks every worker to shut down, and joins the workers.
    /// A worker whose connection was lost is still waiting for a broker; it is dialed
    /// and told to shut down directly.
    fn drop(&mut self) {
        drop(self.backend.take());
        for (address, handle) in self.workers.drain(..) {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !handle.is_finished() {
                if let Err(err) = send_shutdown(address) {
                    eprintln!("perfbench: cannot stop worker {address}: {err}");
                    continue;
                }
            }
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(err)) => eprintln!("perfbench: worker {address} failed: {err}"),
                Err(_) => eprintln!("perfbench: worker {address} panicked"),
            }
        }
    }
}

/// Dials a worker, reads its hello and sends the orderly shutdown message.
fn send_shutdown(address: SocketAddr) -> std::io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&address, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut hello = String::new();
    BufReader::new(stream.try_clone()?).read_line(&mut hello)?;
    writeln!(stream, "{}", encode_message(&Message::Shutdown))?;
    stream.flush()
}

/// One local cold campaign of `mc-cold`'s plan: the reference a farm campaign must
/// reproduce byte for byte.
///
/// # Errors
///
/// Returns the campaign's error.
pub fn local_reference(seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    campaign::run(
        &Campaign {
            config: Workload::McCold.config(seed),
            cache: CacheSource::Memory,
            backend: Arc::new(LocalBackend::new()),
            out_dir,
        },
        None,
    )
}
