//! Running `smpx` as a child: exec to exit, reaped with `wait4` so each
//! child's own user+sys time and peak resident set are known, and with no
//! `SMPX_*` variable in its environment.
//!
//! Linux starts a child's `ru_maxrss` at the resident set of the process
//! that spawned it, so a child of the harness, which holds the corpora,
//! would never report less than the harness's own peak. The timed children
//! are therefore spawned by a [`Spawner`]: a copy of this program started
//! before anything is allocated, which does nothing but spawn, reap and
//! report.
//!
//! The server can also hold a child to one CPU ([`Cpus::One`]). The
//! program's prefetching route is two threads that hand every block to each
//! other; on a 2-CPU guest the kernel runs the pair on one CPU at some times
//! and on two at others, for minutes on end and depending on what ran
//! before (two busy threads push it to two), and the run takes 35 ms one
//! way and 60 ms the other. Narrowed to one CPU it takes 37 ms every time.

use std::ffi::OsString;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one finished child cost and said.
#[derive(Debug)]
pub struct Exit {
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// The child's own user + system CPU seconds.
    pub cpu_s: f64,
    /// The child's peak resident set, KiB.
    pub max_rss_kib: u64,
    pub success: bool,
    pub stderr: String,
}

/// Names of the `SMPX_*` variables among `vars`. The harness refuses to
/// start when this is non-empty: a knob set in the operator's shell would
/// silently change every run.
pub fn smpx_vars<I: IntoIterator<Item = (OsString, OsString)>>(vars: I) -> Vec<String> {
    vars.into_iter()
        .filter_map(|(k, _)| k.to_str().filter(|k| k.starts_with("SMPX_")).map(str::to_string))
        .collect()
}

/// The environment a child gets: the harness's own minus every `SMPX_*`
/// variable.
pub fn child_env<I: IntoIterator<Item = (OsString, OsString)>>(
    vars: I,
) -> Vec<(OsString, OsString)> {
    vars.into_iter().filter(|(k, _)| !k.to_str().is_some_and(|k| k.starts_with("SMPX_"))).collect()
}

/// Run `program args…` in `dir` and wait for it. `stdin` bytes, when
/// given, are fed through a real pipe. Stdout is discarded (projections go
/// to `-o`), stderr is captured.
pub fn run(
    program: &Path,
    args: &[String],
    dir: &Path,
    stdin: Option<&[u8]>,
) -> std::io::Result<Exit> {
    let mut cmd = Command::new(program);
    cmd.args(args)
        .current_dir(dir)
        .env_clear()
        .envs(child_env(std::env::vars_os()))
        .stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() })
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    if let Some(bytes) = stdin {
        // A child that exits early closes the pipe; its exit status says so.
        let _ = child.stdin.take().expect("stdin was piped").write_all(bytes);
    }
    let mut stderr = String::new();
    // Stderr reaches end-of-file when the child exits; it is a few lines,
    // far below the pipe buffer, so the child never blocks on it.
    let _ = child.stderr.take().expect("stderr was piped").read_to_string(&mut stderr);
    let usage = sys::reap(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    // `child` is dropped unwaited on purpose: `wait4` above reaped it.
    Ok(Exit {
        wall_s,
        cpu_s: usage.cpu_s,
        max_rss_kib: usage.max_rss_kib,
        success: usage.exited_zero,
        stderr,
    })
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// The CPUs a child of the spawn server may run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cpus {
    /// Every CPU the harness itself may run on.
    All,
    /// The first of them only.
    One,
}

impl Cpus {
    pub fn as_str(self) -> &'static str {
        match self {
            Cpus::All => "all",
            Cpus::One => "one",
        }
    }
}

/// One request to the spawn server: directory, program, CPUs, argument
/// count, arguments, a line each.
fn write_request(
    to: &mut impl Write,
    program: &Path,
    args: &[String],
    dir: &Path,
    cpus: Cpus,
) -> std::io::Result<()> {
    let mut text =
        format!("{}\n{}\n{}\n{}\n", dir.display(), program.display(), cpus.as_str(), args.len());
    for a in args {
        text.push_str(a);
        text.push('\n');
    }
    if text.lines().count() != args.len() + 4 {
        return Err(invalid("a path or argument contains a line break"));
    }
    to.write_all(text.as_bytes())?;
    to.flush()
}

fn read_line(from: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if from.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    line.pop();
    Ok(Some(line))
}

/// The loop of the spawn server: requests on stdin, one reply each on
/// stdout (`wall cpu rss ok stderr-length`, then the stderr bytes), until
/// stdin closes.
pub fn serve(mut from: impl BufRead, mut to: impl Write) -> std::io::Result<()> {
    // Children inherit the server's own CPU set, so the server narrows and
    // widens itself.
    let all = sys::CpuSet::of_this_process()?;
    let mut now = Cpus::All;
    while let Some(dir) = read_line(&mut from)? {
        let mut next = || read_line(&mut from)?.ok_or_else(|| invalid("truncated request"));
        let program = next()?;
        let cpus = match next()?.as_str() {
            "all" => Cpus::All,
            "one" => Cpus::One,
            _ => return Err(invalid("cpus")),
        };
        let argc: usize = next()?.parse().map_err(|_| invalid("argument count"))?;
        let args = (0..argc).map(|_| next()).collect::<Result<Vec<_>, _>>()?;
        if cpus != now {
            match cpus {
                Cpus::All => all.apply()?,
                Cpus::One => all.first_only().apply()?,
            }
            now = cpus;
        }
        let exit = run(Path::new(&program), &args, Path::new(&dir), None)?;
        writeln!(
            to,
            "{} {} {} {} {}",
            exit.wall_s,
            exit.cpu_s,
            exit.max_rss_kib,
            u8::from(exit.success),
            exit.stderr.len()
        )?;
        to.write_all(exit.stderr.as_bytes())?;
        to.flush()?;
    }
    Ok(())
}

/// A running spawn server.
pub struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Start `exe spawn-server`. Call this before allocating anything
    /// large: the server's resident set is the floor of every `ru_maxrss`
    /// it reports.
    pub fn start(exe: &Path) -> std::io::Result<Spawner> {
        let mut child = Command::new(exe)
            .arg("spawn-server")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Spawner { child, to, from })
    }

    /// [`run`] through the server: the same spawn-to-reaped timing, taken
    /// inside the server.
    pub fn run(
        &mut self,
        program: &Path,
        args: &[String],
        dir: &Path,
        cpus: Cpus,
    ) -> std::io::Result<Exit> {
        write_request(self.to.as_mut().expect("open until drop"), program, args, dir, cpus)?;
        let reply = read_line(&mut self.from)?.ok_or_else(|| invalid("the spawn server died"))?;
        let fields: Vec<&str> = reply.split(' ').collect();
        let [wall, cpu, rss, ok, len] = fields[..] else { return Err(invalid("malformed reply")) };
        let number = |t: &str| t.parse::<f64>().map_err(|_| invalid("malformed reply"));
        let mut stderr = vec![0; len.parse().map_err(|_| invalid("malformed reply"))?];
        self.from.read_exact(&mut stderr)?;
        Ok(Exit {
            wall_s: number(wall)?,
            cpu_s: number(cpu)?,
            max_rss_kib: number(rss)? as u64,
            success: ok == "1",
            stderr: String::from_utf8_lossy(&stderr).into_owned(),
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the server's loop; wait so that no
        // process outlives the harness.
        self.to = None;
        let _ = self.child.wait();
    }
}

/// The hand-declared libc shims (`wait4`, and the two affinity calls), in
/// the style of core's `source/mmap.rs`: the only `unsafe` in this package.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_long};

    /// `cpu_set_t` of Linux: 1024 bits.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub(super) struct CpuSet([u64; 16]);

    impl CpuSet {
        pub(super) fn of_this_process() -> std::io::Result<CpuSet> {
            let mut set = CpuSet([0; 16]);
            // SAFETY: `set.0` is live, writable and exactly the
            // `size_of_val` bytes the call is told it may fill; pid 0 is
            // the calling thread.
            let r =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
            if r == 0 {
                Ok(set)
            } else {
                Err(std::io::Error::last_os_error())
            }
        }

        /// The lowest CPU of the set, alone.
        pub(super) fn first_only(&self) -> CpuSet {
            let mut one = [0; 16];
            if let Some(i) = self.0.iter().position(|&w| w != 0) {
                one[i] = 1 << self.0[i].trailing_zeros();
            }
            CpuSet(one)
        }

        /// Make this the CPU set of the calling thread and so of every
        /// process it spawns from here on.
        pub(super) fn apply(&self) -> std::io::Result<()> {
            // SAFETY: `self.0` is live and exactly the `size_of_val` bytes
            // the call is told to read; pid 0 is the calling thread.
            let r =
                unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
            if r == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        }

        #[cfg(test)]
        pub(super) fn count(&self) -> u32 {
            self.0.iter().map(|w| w.count_ones()).sum()
        }
    }

    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    /// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen longs,
    /// of which only `ru_maxrss` (KiB) is read.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    pub(super) struct Usage {
        pub cpu_s: f64,
        pub max_rss_kib: u64,
        pub exited_zero: bool,
    }

    pub(super) fn reap(pid: u32) -> std::io::Result<Usage> {
        let mut status: c_int = 0;
        let mut ru = Rusage::default();
        loop {
            // SAFETY: `status` and `ru` are live, writable and of the
            // layout the call fills (`int` and 64-bit Linux `struct
            // rusage`); `pid` names a child this process spawned and has
            // not yet waited for; options = 0 blocks until it exits.
            let r = unsafe { wait4(pid as c_int, &mut status, 0, &mut ru) };
            if r == pid as c_int {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Ok(Usage {
            cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
            max_rss_kib: ru.ru_maxrss.max(0) as u64,
            // WIFEXITED(status) && WEXITSTATUS(status) == 0.
            exited_zero: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(OsString, OsString)> {
        pairs.iter().map(|(k, v)| (OsString::from(k), OsString::from(v))).collect()
    }

    #[test]
    fn smpx_variables_are_found_and_stripped() {
        let env = vars(&[("PATH", "/bin"), ("SMPX_PREFETCH", "0"), ("HOME", "/r"), ("SMPX_X", "")]);
        assert_eq!(smpx_vars(env.clone()), ["SMPX_PREFETCH", "SMPX_X"]);
        assert_eq!(child_env(env), vars(&[("PATH", "/bin"), ("HOME", "/r")]));
    }

    #[test]
    fn wait4_reports_exit_status_cpu_and_rss() {
        let dir = std::env::temp_dir();
        let ok = run(Path::new("/bin/sh"), &["-c".into(), "echo hi >&2".into()], &dir, None)
            .expect("sh runs");
        assert!(ok.success);
        assert_eq!(ok.stderr, "hi\n");
        assert!(ok.max_rss_kib > 0 && ok.wall_s > 0.0 && ok.cpu_s >= 0.0);
        let bad = run(Path::new("/bin/sh"), &["-c".into(), "exit 3".into()], &dir, None)
            .expect("sh runs");
        assert!(!bad.success);
        let fed = run(Path::new("/bin/sh"), &["-c".into(), "cat >&2".into()], &dir, Some(b"piped"))
            .expect("sh runs");
        assert_eq!(fed.stderr, "piped");
    }

    #[test]
    fn the_spawn_server_answers_each_request_and_stops_at_end_of_input() {
        let dir = std::env::temp_dir();
        let mut requests = Vec::new();
        let sh = Path::new("/bin/sh");
        let all = Cpus::All;
        write_request(&mut requests, sh, &["-c".into(), "echo 'two words' >&2".into()], &dir, all)
            .expect("request");
        write_request(&mut requests, sh, &["-c".into(), "exit 1".into()], &dir, all)
            .expect("request");
        let mut replies = Vec::new();
        serve(&requests[..], &mut replies).expect("server loop");
        let text = String::from_utf8(replies).expect("text");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].ends_with(" 1 10"), "{text}");
        assert_eq!(lines[1], "two words");
        assert!(lines[2].ends_with(" 0 0"), "{text}");
        let broken = write_request(&mut Vec::new(), sh, &["a\nb".into()], &dir, all);
        assert!(broken.is_err());
    }

    /// How many CPUs a child spawned now may run on, as `nproc` counts them.
    fn nproc_line(cpus: Cpus) -> Vec<u8> {
        let mut request = Vec::new();
        write_request(
            &mut request,
            Path::new("/bin/sh"),
            &["-c".into(), "nproc >&2".into()],
            Path::new("/"),
            cpus,
        )
        .expect("request");
        request
    }

    #[test]
    fn the_spawn_server_holds_a_child_to_one_cpu_and_lets_the_next_go() {
        // The server narrows the thread it runs on, so it gets one of its own.
        let before = sys::CpuSet::of_this_process().expect("affinity");
        let replies = std::thread::spawn(|| {
            let requests =
                [nproc_line(Cpus::One), nproc_line(Cpus::All), nproc_line(Cpus::One)].concat();
            let mut replies = Vec::new();
            serve(&requests[..], &mut replies).expect("server loop");
            String::from_utf8(replies).expect("text")
        })
        .join()
        .expect("server thread");
        let counts: Vec<&str> = replies.lines().skip(1).step_by(2).collect();
        assert_eq!(counts, ["1", before.count().to_string().as_str(), "1"], "{replies}");
        assert_eq!(before.first_only().count(), 1);
        assert_eq!(sys::CpuSet::of_this_process().expect("affinity"), before);
    }
}
