//! The untraced client: spawn the real `gaps` binary and time what a user
//! sees — over one loopback connection for `gaps serve`, over stdin and
//! stdout for `gaps batch`.

use crate::procfs::{self, ExitUsage};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any single wait on the program may take before the run is
/// declared failed (a daemon that stops answering or fails to drain).
pub const STALL: Duration = Duration::from_secs(20);

/// A spawned program that is killed and reaped if the benchmark bails out
/// before it exited on its own.
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait up to `limit` for a clean exit.
    fn wait_for(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped = true;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => return Err(format!("still running after {limit:?}")),
                Err(e) => return Err(format!("cannot wait: {e}")),
            }
        }
    }

    /// Reap through `wait4` to learn the child's CPU time and peak RSS.
    fn wait_with_usage(&mut self) -> Result<ExitUsage, String> {
        let usage = procfs::wait_with_usage(self.pid())?;
        self.reaped = true;
        Ok(usage)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request's fate as the client saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reply {
    #[default]
    Missing,
    Res,
    Err,
    Busy,
}

/// One answered (or refused) request: reply kind, body hash, arrival.
#[derive(Clone, Copy, Debug, Default)]
pub struct Answer {
    pub reply: Reply,
    pub hash: u64,
    /// Arrival, in nanoseconds after the phase's origin.
    pub at_ns: u64,
}

/// FNV-1a over a reply body: answers are compared by hash so the client
/// keeps no per-request strings while it is being timed.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Split a daemon reply `RES|ERR|BUSY <id> [body]`.
pub fn parse_reply(line: &str) -> Option<(Reply, usize, &str)> {
    let line = line.trim_end_matches(['\n', '\r']);
    let (verb, rest) = line.split_once(' ')?;
    let (id, body) = rest.split_once(' ').unwrap_or((rest, ""));
    let reply = match verb {
        "RES" => Reply::Res,
        "ERR" => Reply::Err,
        "BUSY" => Reply::Busy,
        _ => return None,
    };
    Some((reply, id.parse().ok()?, body))
}

fn render(out: &mut Vec<u8>, id: usize, payload: &str) {
    // Writing into a Vec cannot fail.
    let _ = writeln!(out, "REQ {id} {payload}");
}

/// One client connection: a buffered read half and a write half.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(STALL)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("no reply within {STALL:?}: {e}")),
        }
    }

    /// One `STATS` row's value.
    pub fn stat(&mut self, key: &str) -> Result<String, String> {
        self.send(b"STATS\n")?;
        let mut line = String::new();
        let mut value = None;
        loop {
            self.line(&mut line)?;
            let row = line.trim_end();
            if row == "STATS end" {
                break;
            }
            if let Some((k, v)) = row.strip_prefix("stat ").and_then(|r| r.split_once(' ')) {
                if k == key {
                    value = Some(v.to_string());
                }
            }
        }
        value.ok_or_else(|| format!("STATS has no {key} row"))
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.send(b"PING\n")?;
        let mut line = String::new();
        self.line(&mut line)?;
        if line.trim_end() == "PONG" {
            Ok(())
        } else {
            Err(format!("PING answered {line:?}"))
        }
    }
}

/// A running `gaps serve`.
pub struct Daemon {
    proc: Proc,
    addr: SocketAddr,
    /// Spawn until the `listening on` line.
    pub bind: Duration,
    spawned: Instant,
    // Held open so the daemon's final report never hits a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    pub fn spawn(gaps: &Path, flags: &[String]) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut proc = Proc::spawn(
            Command::new(gaps)
                .arg("serve")
                .args(flags)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped()),
        )?;
        let mut stderr = BufReader::new(proc.child.stderr.take().ok_or("no stderr pipe")?);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".to_string()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
            }
        };
        Ok(Daemon {
            proc,
            addr,
            bind: spawned.elapsed(),
            spawned,
            _stderr: stderr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// Connect and wait for the first `PONG`; returns the connection and
    /// the time from connect to `PONG`.
    pub fn connect(&self) -> Result<(Conn, Duration), String> {
        let start = Instant::now();
        let mut conn = Conn::open(self.addr)?;
        conn.ping()?;
        Ok((conn, start.elapsed()))
    }

    /// Time since spawn.
    pub fn age(&self) -> Duration {
        self.spawned.elapsed()
    }

    /// Graceful drain: `DRAIN` on `conn`, then the process must exit
    /// cleanly within [`STALL`].
    pub fn drain(mut self, mut conn: Conn) -> Result<(), String> {
        conn.send(b"DRAIN\n")?;
        let mut line = String::new();
        loop {
            conn.line(&mut line)?;
            if line.trim_end() == "DRAINING" {
                break;
            }
        }
        drop(conn);
        self.proc
            .wait_for(STALL)
            .map_err(|e| format!("daemon failed to drain: {e}"))
    }
}

/// A phase's per-request replies, indexed by request id.
pub struct Replies {
    pub answers: Vec<Answer>,
    pub elapsed: Duration,
}

fn record(answers: &mut [Answer], line: &str, origin: Instant) -> Result<(), String> {
    let at_ns = origin.elapsed().as_nanos() as u64;
    let (reply, id, body) =
        parse_reply(line).ok_or_else(|| format!("unexpected reply {:?}", line.trim_end()))?;
    let slot = answers
        .get_mut(id)
        .filter(|a| a.reply == Reply::Missing)
        .ok_or_else(|| format!("reply for unknown or answered id {id}"))?;
    *slot = Answer {
        reply,
        hash: fnv(body.as_bytes()),
        at_ns,
    };
    Ok(())
}

/// Closed loop: keep `window` requests outstanding until all `n` are
/// answered. One thread: each read burst is followed by one write of as
/// many new requests as were answered.
pub fn closed_loop<'a>(
    conn: &mut Conn,
    n: usize,
    window: usize,
    payload: impl Fn(usize) -> &'a str,
) -> Result<Replies, String> {
    let origin = Instant::now();
    let mut answers = vec![Answer::default(); n];
    let mut out = Vec::with_capacity(1 << 16);
    let mut line = String::new();
    let (mut sent, mut done) = (0, 0);
    while done < n {
        out.clear();
        while sent < n && sent - done < window {
            render(&mut out, sent, payload(sent));
            sent += 1;
        }
        if !out.is_empty() {
            conn.send(&out)?;
        }
        loop {
            conn.line(&mut line)?;
            record(&mut answers, &line, origin)?;
            done += 1;
            if !conn.reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    Ok(Replies {
        answers,
        elapsed: origin.elapsed(),
    })
}

/// An open-loop phase: request `i` is due at `origin + i / rate`.
pub struct OpenLoop {
    pub replies: Replies,
    /// Send time minus due time, per request (ns).
    pub lag_ns: Vec<u64>,
    pub interval_ns: f64,
    /// Requests per window of the schedule.
    pub per_window: usize,
    /// The `sample` reading as each window's first request was sent, and
    /// once more after the last reply.
    pub marks: Vec<Duration>,
}

impl OpenLoop {
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }
}

/// Open loop at a fixed offered rate: one thread sends every request at
/// its due time whatever the replies do, a second reads the replies. The
/// schedule is cut into windows of `per_window` requests, and `sample`
/// (the daemon's CPU time) is read at each window's start.
pub fn open_loop<'a>(
    conn: &mut Conn,
    n: usize,
    rate: f64,
    per_window: usize,
    payload: impl Fn(usize) -> &'a str,
    mut sample: impl FnMut() -> Result<Duration, String>,
) -> Result<OpenLoop, String> {
    let interval_ns = 1e9 / rate;
    let per_window = per_window.max(1);
    let mut marks = Vec::with_capacity(n / per_window + 2);
    let origin = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| origin + Duration::from_nanos((i as f64 * interval_ns) as u64);
    let Conn { reader, writer } = conn;
    let (replies, lag_ns) = std::thread::scope(|s| {
        let listener = s.spawn(move || -> Result<Vec<Answer>, String> {
            let mut answers = vec![Answer::default(); n];
            let mut line = String::new();
            for _ in 0..n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => return Err("daemon closed the connection".to_string()),
                    Ok(_) => record(&mut answers, &line, origin)?,
                    Err(e) => return Err(format!("no reply within {STALL:?}: {e}")),
                }
            }
            Ok(answers)
        });
        let mut lag_ns = Vec::with_capacity(n);
        let mut out = Vec::with_capacity(1 << 16);
        let mut i = 0;
        let mut send_err = None;
        while i < n {
            let now = Instant::now();
            if now < due(i) {
                std::thread::sleep(due(i) - now);
            }
            if i % per_window == 0 {
                match sample() {
                    Ok(mark) => marks.push(mark),
                    Err(e) => {
                        send_err = Some(e);
                        break;
                    }
                }
            }
            let now = Instant::now();
            out.clear();
            while i < n && due(i) <= now {
                render(&mut out, i, payload(i));
                lag_ns.push((now - due(i)).as_nanos() as u64);
                i += 1;
                if i % per_window == 0 {
                    break; // the next window starts with a fresh sample
                }
            }
            if let Err(e) = writer.write_all(&out) {
                send_err = Some(format!("send: {e}"));
                break;
            }
        }
        let answers = listener
            .join()
            .map_err(|_| "reply reader panicked".to_string())?;
        match send_err {
            Some(e) => Err(e),
            None => answers.map(|a| (a, lag_ns)),
        }
    })?;
    marks.push(sample()?);
    Ok(OpenLoop {
        replies: Replies {
            answers: replies,
            elapsed: origin.elapsed(),
        },
        lag_ns,
        interval_ns,
        per_window,
        marks,
    })
}

/// Run `gaps batch` on an empty stdin; spawn-to-exit time.
pub fn empty_batch(gaps: &Path, flags: &[String]) -> Result<Duration, String> {
    let start = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(gaps)
            .args(["batch", "--input", "-"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    )?;
    proc.wait_for(STALL)
        .map_err(|e| format!("empty batch: {e}"))?;
    Ok(start.elapsed())
}

/// One `gaps batch` over a stdin stream.
pub struct BatchRun {
    pub stdout: String,
    /// First stdin byte to last stdout byte.
    pub stream: Duration,
    /// Spawn to last stdout byte.
    pub turnaround: Duration,
    pub usage: ExitUsage,
}

pub fn run_batch(gaps: &Path, flags: &[String], stdin_text: &str) -> Result<BatchRun, String> {
    let spawned = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(gaps)
            .args(["batch", "--input", "-"])
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    )?;
    let mut stdin = proc.child.stdin.take().ok_or("no stdin pipe")?;
    let mut stdout = proc.child.stdout.take().ok_or("no stdout pipe")?;
    // `gaps batch` reads all of stdin before it writes, so writing first
    // cannot deadlock.
    let first_byte = Instant::now();
    stdin
        .write_all(stdin_text.as_bytes())
        .map_err(|e| format!("batch stdin: {e}"))?;
    drop(stdin);
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut last = first_byte;
    loop {
        match stdout.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                last = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("batch stdout: {e}")),
        }
    }
    let usage = proc.wait_with_usage()?;
    if !usage.success {
        return Err("gaps batch failed".to_string());
    }
    Ok(BatchRun {
        stdout: String::from_utf8(buf).map_err(|_| "batch stdout is not UTF-8".to_string())?,
        stream: last - first_byte,
        turnaround: last - spawned,
        usage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse() {
        assert_eq!(
            parse_reply("RES 12 one n=3 gaps=1 solver=baptiste_dp\n"),
            Some((Reply::Res, 12, "one n=3 gaps=1 solver=baptiste_dp"))
        );
        assert_eq!(parse_reply("BUSY 7\n"), Some((Reply::Busy, 7, "")));
        assert_eq!(
            parse_reply("ERR 3 draining; not accepting work"),
            Some((Reply::Err, 3, "draining; not accepting work"))
        );
        assert_eq!(parse_reply("ERR - bad frame"), None);
        assert_eq!(parse_reply("PONG"), None);
        assert_ne!(fnv(b"gaps=1"), fnv(b"gaps=2"));
    }

    #[test]
    fn record_rejects_duplicates_and_strangers() {
        let origin = Instant::now();
        let mut answers = vec![Answer::default(); 2];
        record(&mut answers, "RES 1 x", origin).unwrap();
        assert_eq!(answers[1].reply, Reply::Res);
        assert!(record(&mut answers, "RES 1 x", origin).is_err());
        assert!(record(&mut answers, "RES 5 x", origin).is_err());
        assert!(record(&mut answers, "STATS v3", origin).is_err());
    }
}
