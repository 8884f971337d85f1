//! The fleet: real `bda-served` child processes on ephemeral ports, found
//! beside this executable, with every `BDA_*` variable removed and every
//! server flag left at its default. Children and work directories are
//! registered process-wide so that every exit path — normal return, error,
//! or panic on any thread — kills and removes them.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;

static CHILDREN: Mutex<Vec<Option<Child>>> = Mutex::new(Vec::new());
static WORK_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Kill every registered child and remove every registered directory.
/// Idempotent; called by the guards' `Drop` and by the panic hook.
pub fn cleanup_all() {
    if let Ok(mut children) = CHILDREN.lock() {
        for slot in children.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    if let Ok(mut dirs) = WORK_DIRS.lock() {
        for dir in dirs.drain(..) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Chain a panic hook that cleans up before the default report, so a
/// panic on a client thread cannot leave servers or WAL directories behind.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        cleanup_all();
        default(info);
    }));
}

/// A per-run scratch directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(out: &Path) -> Result<WorkDir, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        WORK_DIRS
            .lock()
            .expect("work dir registry")
            .push(dir.clone());
        Ok(WorkDir(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Ok(mut dirs) = WORK_DIRS.lock() {
            dirs.retain(|d| d != &self.0);
        }
    }
}

/// What to launch. Only `--engine/--name/--listen` are ever passed, plus
/// `--reactor --data-dir` for the durable ingest server.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub name: &'static str,
    pub engine: &'static str,
    pub durable_reactor: bool,
}

/// The `bda-served` binary beside this executable.
pub fn served_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let path = exe
        .parent()
        .map(|d| d.join("bda-served"))
        .ok_or("own executable has no parent directory")?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`bda-served` is not built beside the bench binary (looked for {}); build it into the \
             same target directory first: cargo build --release -p bda-reactor --bin bda-served",
            path.display()
        ))
    }
}

/// One running server process.
pub struct Server {
    slot: usize,
    pub pid: u32,
    pub addr: String,
    /// Kept open so the child never writes its stdout into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn and block until the listener banner names the bound address.
    pub fn spawn(spec: &ServerSpec, data_dir: Option<&Path>) -> Result<Server, String> {
        let bin = served_binary()?;
        let mut cmd = Command::new(&bin);
        cmd.args(["--engine", spec.engine, "--name", spec.name])
            .args(["--listen", "127.0.0.1:0"]);
        if spec.durable_reactor {
            let dir = data_dir.ok_or("durable server needs a data directory")?;
            cmd.arg("--reactor").arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let slot = {
            let mut children = CHILDREN.lock().expect("child registry");
            children.push(Some(child));
            children.len() - 1
        };
        let mut server = Server {
            slot,
            pid,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("read banner of `{}`: {e}", spec.name))?;
            if n == 0 {
                return Err(format!("`{}` exited before listening", spec.name));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .ok_or("banner names no address")?
                    .to_string();
                return Ok(server);
            }
        }
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let child = CHILDREN
            .lock()
            .ok()
            .and_then(|mut c| c.get_mut(self.slot).and_then(Option::take));
        if let Some(mut child) = child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("read /proc/{}/status: {e}", self.pid))?;
        parse_vm_hwm_kib(&status)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| format!("no VmHWM for pid {}", self.pid))
    }

    /// User + system CPU consumed so far, in ms (100 Hz clock ticks).
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("read /proc/{}/stat: {e}", self.pid))?;
        parse_cpu_ticks(&stat)
            .map(|ticks| ticks as f64 * 10.0)
            .ok_or_else(|| format!("unparseable /proc/{}/stat", self.pid))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// `utime + stime` from `/proc/<pid>/stat`. The command name (field 2)
/// may contain spaces, so fields are counted from the closing paren.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// The value of an unlabelled series in Prometheus text, e.g.
/// `bda_durability_wal_bytes_total 1234`. Zero when the series is absent
/// (counters appear on first increment).
pub fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, value) = l.split_once(' ')?;
            (name == series).then(|| value.trim().parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// Machine / run stamp printed with every result.
pub fn stamp(out_dir: &Path) -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("cpu", cpu),
        ("kernel", kernel),
        ("nproc", nproc.to_string()),
        ("commit", commit),
        ("data_dir_filesystem", filesystem_of(out_dir)),
    ]
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers_read_the_fields_they_claim() {
        let status = "Name:\tbda-served\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        // comm with a space and a paren; utime=7 stime=5 at fields 14/15.
        let stat = "42 (bda served) x) S 1 42 42 0 -1 4194304 100 0 0 0 7 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(12));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn metric_value_matches_whole_series_names_only() {
        let text = "# HELP x y\nbda_durability_wal_bytes_total 4096\n\
                    bda_durability_wal_bytes_total_extra 7\nbda_net_requests_total{kind=\"store\"} 3\n";
        assert_eq!(metric_value(text, "bda_durability_wal_bytes_total"), 4096.0);
        assert_eq!(
            metric_value(text, "bda_net_requests_total{kind=\"store\"}"),
            3.0
        );
        assert_eq!(metric_value(text, "absent"), 0.0);
    }

    #[test]
    fn missing_server_binary_is_a_clear_error() {
        // The test binary lives in `deps/`, where no `bda-served` is built.
        let err = served_binary().unwrap_err();
        assert!(err.contains("not built beside the bench binary"), "{err}");
    }
}
