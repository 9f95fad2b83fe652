//! The real `tempo-serve` as a child process: spawn, locate, sample, kill.
//!
//! Every daemon is started the same way — one shard thread, What-if pool
//! width 1, simulated clock — because the box has two cores and the load
//! generator needs the other one. With the default two-wide pool the daemon
//! keeps 1.5 cores busy beside the client and the run measures the scheduler.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const SHARDS: usize = 1;
pub const POOL_WIDTH: usize = 1;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports.
const CLOCK_TICK_US: u64 = 10_000;

/// Where scratch files of one benchmark process live (inside the checkout):
/// port files, journal directories, the pid file `run.sh` cleans up by.
#[derive(Debug, Clone)]
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(path: &Path) -> io::Result<WorkDir> {
        std::fs::create_dir_all(path)?;
        Ok(WorkDir { path: path.to_path_buf() })
    }

    /// A fresh, empty journal directory.
    pub fn journal_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.path.join(format!("journal-{name}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// The kind of filesystem the work directory is on, from
    /// `/proc/self/mounts` (longest mount point that prefixes the path).
    pub fn filesystem(&self) -> String {
        let path = self.path.canonicalize().unwrap_or_else(|_| self.path.clone());
        let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
                path.starts_with(point).then(|| (point.len(), kind.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".into(), |(_, kind)| kind)
    }
}

/// Which CPU the daemon and which the load generator is pinned to.
///
/// The daemon has three busy threads (shard, connection reader, connection
/// writer) and the generator one or two; left to the kernel they are spread
/// over the two cores differently from run to run, and throughput moves by a
/// tenth with the placement. Pinned, the daemon has exactly one core and the
/// generator the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinning {
    pub daemon_cpu: usize,
    pub generator_cpu: usize,
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

impl Pinning {
    /// Pins this process's (main) thread — threads it starts later inherit —
    /// and says where daemons go. `None`, and nothing is pinned, when fewer
    /// than two CPUs are allowed or `taskset` cannot be run.
    pub fn establish() -> Option<Pinning> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let cpus = parse_cpu_list(list);
        let (daemon_cpu, generator_cpu) = (*cpus.first()?, *cpus.last()?);
        if daemon_cpu == generator_cpu {
            return None;
        }
        let pinned = Command::new("taskset")
            .args(["-cp", &generator_cpu.to_string(), &std::process::id().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        pinned.then_some(Pinning { daemon_cpu, generator_cpu })
    }
}

#[derive(Debug, Clone)]
pub struct DaemonConfig {
    pub serve_bin: PathBuf,
    pub work: WorkDir,
    /// Run the daemon under `taskset -c <cpu>`.
    pub pin_cpu: Option<usize>,
    pub journal_dir: Option<PathBuf>,
    pub checkpoint_every: Option<u64>,
    pub watermark_bytes: Option<u64>,
}

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub spawned_at: Instant,
    pid_file: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits for its port file. `spawned_at` is taken
    /// immediately before `spawn()`: set-up time starts there.
    pub fn spawn(config: &DaemonConfig) -> io::Result<Daemon> {
        let port_file = config.work.path.join("serve.port");
        let pid_file = config.work.path.join("daemon.pid");
        let _ = std::fs::remove_file(&port_file);
        let mut command = match config.pin_cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(&config.serve_bin);
                taskset
            }
            None => Command::new(&config.serve_bin),
        };
        command
            .env("TEMPO_THREADS", POOL_WIDTH.to_string())
            .args(["--shards", &SHARDS.to_string(), "--sim-clock", "--addr", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(match std::fs::File::create(config.work.path.join("daemon.log")) {
                Ok(log) => Stdio::from(log),
                Err(_) => Stdio::null(),
            });
        if let Some(dir) = &config.journal_dir {
            command.arg("--journal").arg(dir);
        }
        if let Some(every) = config.checkpoint_every {
            command.args(["--journal-checkpoint", &every.to_string()]);
        }
        if let Some(bytes) = config.watermark_bytes {
            command.args(["--resident-bytes", &bytes.to_string()]);
        }
        let spawned_at = Instant::now();
        let mut child = command.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("spawn {}: {e}", config.serve_bin.display()))
        })?;
        std::fs::write(&pid_file, format!("{}\n", child.id()))?;
        let deadline = spawned_at + Duration::from_secs(60);
        let port: u16 = loop {
            // The daemon writes the file in one call, but a reader can still
            // see it empty between create and write.
            if let Some(port) =
                std::fs::read_to_string(&port_file).ok().and_then(|text| text.trim().parse().ok())
            {
                break port;
            }
            let gone = child.try_wait()?.is_some();
            if gone || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&pid_file);
                let why = if gone { "exited before writing" } else { "never wrote" };
                return Err(io::Error::other(format!("tempo-serve {why} its port file")));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let _ = std::fs::remove_file(&port_file);
        Ok(Daemon { child, addr: SocketAddr::from(([127, 0, 0, 1], port)), spawned_at, pid_file })
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User plus system CPU time the daemon has used so far, in microseconds
    /// (`/proc/<pid>/stat`, 10 ms resolution).
    pub fn cpu_us(&self) -> io::Result<u64> {
        cpu_us_of(&self.proc_file("stat")?)
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// `kill -9`, then waits until the process has ended.
    pub fn kill(mut self) {
        self.kill_in_place();
    }

    fn kill_in_place(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_in_place();
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in microseconds. The process
/// name (field 2) may contain spaces, so fields are counted from the closing
/// parenthesis.
fn cpu_us_of(stat: &str) -> io::Result<u64> {
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or(stat);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) * CLOCK_TICK_US),
        _ => Err(io::Error::other("unparsable /proc/<pid>/stat")),
    }
}

/// CPU time this process has used so far, in microseconds.
pub fn own_cpu_us() -> io::Result<u64> {
    cpu_us_of(&std::fs::read_to_string("/proc/self/stat")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
    }

    #[test]
    fn stat_line_with_spaces_in_the_name_parses() {
        let line = "42 (tempo serve) S 1 42 42 0 -1 4194304 100 0 0 0 7 3 0 0 20 0 4 0 100 0 0";
        assert_eq!(cpu_us_of(line).unwrap(), 10 * CLOCK_TICK_US);
    }
}
