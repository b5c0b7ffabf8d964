//! Shard fleet supervision: spawn, health-poll, restart, park.
//!
//! `oiso fleet --shards N` turns the PR 7 "run N daemons by hand"
//! deployment into a self-healing unit: the [`Supervisor`] spawns each
//! shard daemon as a child process, polls `GET /healthz` on a fixed
//! interval, and treats two signals as shard failure — an *exit* (the
//! child died or never spawned) and a *wedge*
//! ([`SupervisorConfig::wedged_after`] consecutive failed health polls,
//! after which the child is killed). A failed shard is respawned with
//! exponential backoff plus deterministic jitter, so a flapping shard
//! cannot hot-loop the fork path; and when
//! [`SupervisorConfig::park_threshold`] failures land inside
//! [`SupervisorConfig::park_window`], the shard is declared
//! crash-looping and **parked** — no further restarts, its keys fail
//! fast through the [`crate::fleet::FleetClient`]'s synthesized
//! `shard_unavailable` — rather than burning the machine on a shard
//! that will never come up (a bad port, a corrupt binary, a poisoned
//! store).
//!
//! Everything observable is exported on [`Supervisor::metrics_page`] in
//! the same deterministic exposition style as the daemons' own
//! `/metrics`: `oiso_shard_up{shard="k"}`, `oiso_shard_parked{...}`,
//! `oiso_restarts_total{...}` — the gauges the CI chaos job greps.
//!
//! The child command line is a caller-supplied launcher closure
//! `Fn(shard_index, port) -> Command`, which keeps the supervisor
//! testable (integration tests launch the real `oiso` binary via
//! `CARGO_BIN_EXE_oiso`; unit tests launch anything that exits).

use crate::fleet::{raw_request, Client};
use oiso_netlist::Fnv;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervision knobs (`oiso fleet` exposes the load-bearing ones).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Number of shard daemons (`--shard (k+1)/N` each).
    pub shards: usize,
    /// Fixed ports, one per shard; empty reserves ephemeral ports.
    pub ports: Vec<u16>,
    /// Health-poll cadence.
    pub poll_interval: Duration,
    /// Connect/read timeout of one health probe.
    pub health_timeout: Duration,
    /// Consecutive failed probes before a live child is declared wedged
    /// and killed.
    pub wedged_after: u32,
    /// First-restart backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Failures inside [`SupervisorConfig::park_window`] that park the
    /// shard as crash-looping.
    pub park_threshold: u32,
    /// The sliding window for [`SupervisorConfig::park_threshold`].
    pub park_window: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 2,
            ports: Vec::new(),
            poll_interval: Duration::from_millis(100),
            health_timeout: Duration::from_secs(1),
            wedged_after: 10,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            park_threshold: 5,
            park_window: Duration::from_secs(10),
        }
    }
}

/// One shard's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index (0-based; the daemon runs `--shard (index+1)/N`).
    pub shard: usize,
    /// The port the shard serves on.
    pub port: u16,
    /// Last health probe succeeded.
    pub up: bool,
    /// Parked as crash-looping; no further restarts.
    pub parked: bool,
    /// Times the shard was respawned after a failure (first spawn not
    /// counted).
    pub restarts: u64,
}

struct ShardState {
    port: u16,
    child: Option<Child>,
    up: bool,
    parked: bool,
    restarts: u64,
    /// Consecutive failed health probes against a live child.
    unhealthy: u32,
    /// Consecutive failures since the last healthy probe — the backoff
    /// exponent.
    failure_streak: u32,
    /// Earliest instant the next respawn attempt may run.
    next_attempt: Instant,
    /// Failure timestamps inside the park window.
    recent_failures: Vec<Instant>,
}

impl ShardState {
    fn status(&self, shard: usize) -> ShardStatus {
        ShardStatus {
            shard,
            port: self.port,
            up: self.up,
            parked: self.parked,
            restarts: self.restarts,
        }
    }
}

/// The monitor loop's shared view.
struct Inner {
    config: SupervisorConfig,
    shards: Mutex<Vec<ShardState>>,
    launcher: Box<dyn Fn(usize, u16) -> Command + Send + Sync>,
    stop: AtomicBool,
}

/// A running fleet supervisor; [`Supervisor::shutdown`] (or drop) stops
/// the monitor and kills and reaps every child.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("status", &self.status())
            .finish()
    }
}

impl Supervisor {
    /// Spawns the fleet: reserves ports (when none are pinned), launches
    /// every child, and starts the monitor thread.
    ///
    /// # Errors
    ///
    /// Port reservation failure, or a pinned-ports list whose length
    /// disagrees with `config.shards`. Child spawn failures are *not*
    /// errors here — they are shard failures, handled by backoff and
    /// parking like any other.
    pub fn spawn(
        config: SupervisorConfig,
        launcher: impl Fn(usize, u16) -> Command + Send + Sync + 'static,
    ) -> std::io::Result<Supervisor> {
        assert!(config.shards >= 1, "a fleet needs at least one shard");
        let ports = if config.ports.is_empty() {
            reserve_ports(config.shards)?
        } else {
            if config.ports.len() != config.shards {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "{} port(s) pinned for {} shard(s)",
                        config.ports.len(),
                        config.shards
                    ),
                ));
            }
            config.ports.clone()
        };
        let now = Instant::now();
        let shards = ports
            .iter()
            .map(|&port| ShardState {
                port,
                child: None,
                up: false,
                parked: false,
                restarts: 0,
                unhealthy: 0,
                failure_streak: 0,
                next_attempt: now,
                recent_failures: Vec::new(),
            })
            .collect();
        let inner = Arc::new(Inner {
            config,
            shards: Mutex::new(shards),
            launcher: Box::new(launcher),
            stop: AtomicBool::new(false),
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("oiso-fleet-monitor".to_string())
                .spawn(move || monitor_loop(&inner))?
        };
        Ok(Supervisor {
            inner,
            monitor: Some(monitor),
        })
    }

    /// The fleet's addresses in shard order — what a
    /// [`crate::fleet::FleetClient`] is built over.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.inner
            .shards
            .lock()
            .expect("supervisor lock")
            .iter()
            .map(|s| SocketAddr::from(([127, 0, 0, 1], s.port)))
            .collect()
    }

    /// Per-shard state snapshot.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.inner
            .shards
            .lock()
            .expect("supervisor lock")
            .iter()
            .enumerate()
            .map(|(k, s)| s.status(k))
            .collect()
    }

    /// Renders the supervision gauges as a deterministic metrics page.
    pub fn metrics_page(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for status in self.status() {
            let k = status.shard;
            let _ = writeln!(
                out,
                "oiso_shard_up{{shard=\"{k}\"}} {}",
                u8::from(status.up)
            );
            let _ = writeln!(
                out,
                "oiso_shard_parked{{shard=\"{k}\"}} {}",
                u8::from(status.parked)
            );
            let _ = writeln!(
                out,
                "oiso_restarts_total{{shard=\"{k}\"}} {}",
                status.restarts
            );
        }
        out
    }

    /// SIGKILLs shard `index`'s child (if any) — the crash-recovery
    /// tests' way of simulating a hard shard death. The monitor notices
    /// the exit and restarts it like any other failure.
    pub fn kill_shard(&self, index: usize) {
        let mut shards = self.inner.shards.lock().expect("supervisor lock");
        if let Some(child) = shards[index].child.as_mut() {
            let _ = child.kill();
        }
    }

    /// Blocks until every non-parked shard reports healthy (or the
    /// timeout passes). Returns whether the fleet converged.
    pub fn wait_until_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status();
            if status.iter().all(|s| s.up || s.parked)
                && status.iter().any(|s| s.up)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(self.inner.config.poll_interval);
        }
    }

    /// Stops the monitor, kills and reaps every child, and returns the
    /// final per-shard status.
    pub fn shutdown(mut self) -> Vec<ShardStatus> {
        self.stop_and_reap();
        self.status()
    }

    fn stop_and_reap(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        let mut shards = self.inner.shards.lock().expect("supervisor lock");
        for shard in shards.iter_mut() {
            if let Some(mut child) = shard.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            shard.up = false;
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_and_reap();
    }
}

/// Reserves `n` distinct ephemeral ports by binding and dropping
/// listeners. The tiny race (another process grabbing a port between
/// drop and child bind) resolves like any other shard failure: the
/// child exits, backoff retries, and a persistent squatter parks the
/// shard.
fn reserve_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<std::io::Result<_>>()?;
    listeners.iter().map(|l| Ok(l.local_addr()?.port())).collect()
}

fn monitor_loop(inner: &Inner) {
    let config = &inner.config;
    while !inner.stop.load(Ordering::SeqCst) {
        for index in 0..config.shards {
            tend_shard(inner, index);
        }
        std::thread::sleep(config.poll_interval);
    }
}

/// One monitoring pass over one shard: spawn if due, reap if exited,
/// probe if live. The lock is *not* held across the health probe.
fn tend_shard(inner: &Inner, index: usize) {
    let config = &inner.config;
    // Phase 1 (locked): process lifecycle.
    let probe_addr = {
        let mut shards = inner.shards.lock().expect("supervisor lock");
        let shard = &mut shards[index];
        if shard.parked {
            return;
        }
        if let Some(child) = shard.child.as_mut() {
            match child.try_wait() {
                Ok(Some(exit)) => {
                    shard.child = None;
                    record_failure(
                        shard,
                        index,
                        config,
                        &format!("child exited ({exit})"),
                    );
                    return;
                }
                Ok(None) => {}
                Err(_) => {}
            }
        }
        if shard.child.is_none() {
            if Instant::now() < shard.next_attempt {
                return;
            }
            let mut command = (inner.launcher)(index, shard.port);
            match command.spawn() {
                Ok(child) => {
                    if shard.recent_failures.is_empty() {
                        // First-ever spawn; not a restart.
                    } else {
                        shard.restarts += 1;
                    }
                    shard.child = Some(child);
                    shard.unhealthy = 0;
                }
                Err(err) => {
                    record_failure(shard, index, config, &format!("spawn failed: {err}"));
                    return;
                }
            }
        }
        SocketAddr::from(([127, 0, 0, 1], shard.port))
    };

    // Phase 2 (unlocked): one health probe.
    let healthy = probe_health(probe_addr, config.health_timeout);

    // Phase 3 (locked): apply the probe result.
    let mut shards = inner.shards.lock().expect("supervisor lock");
    let shard = &mut shards[index];
    if shard.parked || shard.child.is_none() {
        return;
    }
    if healthy {
        shard.up = true;
        shard.unhealthy = 0;
        shard.failure_streak = 0;
        // Healthy long enough: forget old failures so a one-off crash
        // next week doesn't inherit this week's park progress.
        shard
            .recent_failures
            .retain(|&at| at.elapsed() < config.park_window);
    } else {
        shard.up = false;
        shard.unhealthy = shard.unhealthy.saturating_add(1);
        if shard.unhealthy >= config.wedged_after {
            // Alive but unresponsive: kill and let the restart path
            // handle it.
            if let Some(mut child) = shard.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            record_failure(shard, index, config, "wedged (health polls exhausted)");
        }
    }
}

/// Records one shard failure: window bookkeeping, park decision, and
/// backoff scheduling.
fn record_failure(shard: &mut ShardState, index: usize, config: &SupervisorConfig, _why: &str) {
    shard.up = false;
    shard.unhealthy = 0;
    let now = Instant::now();
    shard.recent_failures.push(now);
    shard
        .recent_failures
        .retain(|&at| now.duration_since(at) < config.park_window);
    if shard.recent_failures.len() as u32 >= config.park_threshold {
        shard.parked = true;
        if let Some(mut child) = shard.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        return;
    }
    let exp = shard.failure_streak.min(16);
    shard.failure_streak = shard.failure_streak.saturating_add(1);
    let backoff = config
        .backoff_base
        .saturating_mul(1 << exp)
        .min(config.backoff_cap);
    shard.next_attempt = now + backoff + restart_jitter(index, shard.restarts);
}

/// Deterministic restart jitter (FNV of shard × restart count,
/// 0..=100 ms) so N shards felled by one cause do not respawn in
/// lockstep, while a given test run always waits the same amounts.
fn restart_jitter(shard: usize, restarts: u64) -> Duration {
    let mut h = Fnv::new();
    h.u64(shard as u64);
    h.u64(restarts);
    Duration::from_millis(h.finish() % 101)
}

/// One `GET /healthz` probe with tight timeouts.
fn probe_health(addr: SocketAddr, timeout: Duration) -> bool {
    Client::new(addr)
        .try_send_raw_with(&raw_request("GET", "/healthz", &[], b""), timeout, timeout)
        .map(|resp| resp.status == 200)
        .unwrap_or(false)
}

/// `oiso fleet` CLI options.
#[derive(Debug, Clone)]
pub struct FleetCliOptions {
    /// Number of shard daemons.
    pub shards: usize,
    /// Result-store directory shared by the shards (`--store DIR`).
    pub store: Option<PathBuf>,
    /// Worker threads per shard daemon.
    pub threads: usize,
    /// First port; shard `k` serves on `port_base + k`. `None` uses
    /// ephemeral ports.
    pub port_base: Option<u16>,
    /// Compact every store file before spawning the fleet.
    pub compact_on_start: bool,
    /// Suppress the shards' access logs and the status heartbeat.
    pub quiet: bool,
}

/// Runs a supervised fleet in the foreground until SIGTERM/ctrl-c:
/// spawns the shards (optionally compacting the store first), prints a
/// heartbeat, and on shutdown kills the children and prints the final
/// supervision gauges.
///
/// # Errors
///
/// Store compaction failures, port reservation failures, or not being
/// able to locate the current executable to relaunch as shard daemons.
pub fn run_fleet(opts: FleetCliOptions) -> Result<(), String> {
    if opts.compact_on_start {
        if let Some(dir) = &opts.store {
            for (path, stats) in crate::store::compact_dir(dir)
                .map_err(|e| format!("compacting {}: {e}", dir.display()))?
            {
                if stats.skipped_unknown_version {
                    eprintln!("fleet: left {} alone (unknown version)", path.display());
                } else {
                    eprintln!(
                        "fleet: compacted {}: kept {}, dropped {} corrupt + {} duplicate, {} -> {} bytes",
                        path.display(),
                        stats.kept,
                        stats.dropped_corrupt,
                        stats.dropped_duplicate,
                        stats.bytes_before,
                        stats.bytes_after
                    );
                }
            }
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the oiso binary: {e}"))?;
    let store = opts.store.clone();
    let threads = opts.threads;
    let shards = opts.shards;
    let quiet = opts.quiet;
    let launcher = move |index: usize, port: u16| {
        let mut command = Command::new(&exe);
        command
            .arg("serve")
            .arg("--port")
            .arg(port.to_string())
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--shard")
            .arg(format!("{}/{}", index + 1, shards));
        if let Some(dir) = &store {
            command.arg("--store").arg(dir);
        }
        if quiet {
            command.arg("--quiet");
            command.stdout(std::process::Stdio::null());
        }
        command
    };
    let config = SupervisorConfig {
        shards: opts.shards,
        ports: opts
            .port_base
            .map(|base| (0..opts.shards).map(|k| base + k as u16).collect())
            .unwrap_or_default(),
        ..SupervisorConfig::default()
    };
    let supervisor =
        Supervisor::spawn(config, launcher).map_err(|e| format!("spawning the fleet: {e}"))?;

    crate::signal::install();
    eprintln!(
        "fleet: supervising {} shard(s) on {:?}; ctrl-c to stop",
        opts.shards,
        supervisor
            .addrs()
            .iter()
            .map(|a| a.port())
            .collect::<Vec<_>>()
    );
    let mut last_beat = Instant::now();
    while !crate::signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
        if !opts.quiet && last_beat.elapsed() >= Duration::from_secs(5) {
            last_beat = Instant::now();
            let status = supervisor.status();
            let up = status.iter().filter(|s| s.up).count();
            let parked = status.iter().filter(|s| s.parked).count();
            let restarts: u64 = status.iter().map(|s| s.restarts).sum();
            eprintln!(
                "fleet: {up}/{} up, {parked} parked, {restarts} restart(s)",
                status.len()
            );
        }
    }
    eprintln!("fleet: shutting down");
    // Snapshot *before* the kill: the final gauges should describe the
    // fleet as it was running, not the trivially-all-down state after.
    let final_status = supervisor.status();
    supervisor.shutdown();
    let mut page = String::new();
    for s in &final_status {
        use std::fmt::Write as _;
        let _ = writeln!(
            page,
            "oiso_shard_up{{shard=\"{}\"}} {}\noiso_shard_parked{{shard=\"{}\"}} {}\noiso_restarts_total{{shard=\"{}\"}} {}",
            s.shard, u8::from(s.up), s.shard, u8::from(s.parked), s.shard, s.restarts
        );
    }
    eprint!("{page}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A launcher that cannot possibly serve: `false` exits immediately,
    /// so every spawn is a failure and the park path must engage.
    fn doomed_launcher(_shard: usize, _port: u16) -> Command {
        let mut c = Command::new("false");
        c.stdout(std::process::Stdio::null());
        c.stderr(std::process::Stdio::null());
        c
    }

    #[test]
    fn a_crash_looping_shard_is_parked_not_restarted_forever() {
        let config = SupervisorConfig {
            shards: 1,
            poll_interval: Duration::from_millis(10),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            park_threshold: 3,
            park_window: Duration::from_secs(30),
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::spawn(config, doomed_launcher).expect("spawn");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let status = supervisor.status();
            if status[0].parked {
                assert!(!status[0].up);
                // park_threshold failures = threshold - 1 restarts at
                // most (first spawn is not a restart).
                assert!(status[0].restarts <= 2, "{status:?}");
                break;
            }
            assert!(Instant::now() < deadline, "never parked: {status:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let page = supervisor.metrics_page();
        assert!(page.contains("oiso_shard_parked{shard=\"0\"} 1"), "{page}");
        assert!(page.contains("oiso_shard_up{shard=\"0\"} 0"), "{page}");
        supervisor.shutdown();
    }

    #[test]
    fn pinned_ports_must_match_the_shard_count() {
        let config = SupervisorConfig {
            shards: 2,
            ports: vec![40_001],
            ..SupervisorConfig::default()
        };
        assert!(Supervisor::spawn(config, doomed_launcher).is_err());
    }

    #[test]
    fn reserved_ports_are_distinct() {
        let ports = reserve_ports(8).expect("reserve");
        let mut unique = ports.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ports.len(), "{ports:?}");
    }

    #[test]
    fn restart_jitter_is_deterministic_and_bounded() {
        for shard in 0..3 {
            for restarts in 0..3 {
                let j = restart_jitter(shard, restarts);
                assert_eq!(j, restart_jitter(shard, restarts));
                assert!(j <= Duration::from_millis(100));
            }
        }
    }
}
