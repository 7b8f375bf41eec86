//! The served side: the `xpathsat serve` child process, client connections, and the
//! closed loop that drives them.

use crate::gen::{Request, Schema, Stream, Workload};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xpsat_service::Json;

/// How long a client waits for one response before giving up on the connection.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `xpathsat serve` child.  Dropping it kills the process and waits.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server on an ephemeral loopback port, with `--cache-dir` when
    /// `cache_dir` is given and every other flag at its default, and wait for its
    /// ready line.
    pub fn spawn(bin: &Path, cache_dir: Option<&Path>, log: &Path) -> io::Result<ServerProc> {
        let mut command = Command::new(bin);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = cache_dir {
            command.arg("--cache-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let addr = stdout
            .read_line(&mut ready)
            .ok()
            .and_then(|_| Json::parse(ready.trim()).ok())
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string))
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server gave no ready line (got {ready:?}); see {}",
                    log.display()
                )))
            }
        }
    }

    /// Resident set (`VmRSS`) in MiB.
    pub fn rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Has the process ended (waiting up to `within` for it to do so)?
    fn exited_within(&mut self, within: Duration) -> bool {
        let until = Instant::now() + within;
        loop {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply and when its bytes arrived.
#[derive(Debug)]
pub struct Reply {
    pub text: String,
    pub latency: Duration,
    /// First response byte to the newline.
    pub spread: Duration,
}

/// A client connection speaking the JSON-lines protocol.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Send one request line (in one write) and read its response line.
    pub fn call(&mut self, line: &str) -> io::Result<Reply> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let sent = Instant::now();
        self.stream.write_all(&self.out)?;
        let mut first_byte = None;
        let mut chunk = [0u8; 64 * 1024];
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let done = Instant::now();
                let end = scanned + pos;
                let text = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                let first_byte = first_byte.unwrap_or(done);
                return Ok(Reply {
                    text,
                    latency: done - sent,
                    spread: done - first_byte,
                });
            }
            scanned = self.buf.len();
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// [`Conn::call`], requiring an `"ok":true` answer.
    pub fn call_ok(&mut self, line: &str) -> io::Result<Json> {
        let reply = self.call(line)?;
        let json = Json::parse(&reply.text)
            .map_err(|e| io::Error::other(format!("unparsable reply: {e}")))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other(format!("request failed: {}", reply.text)));
        }
        Ok(json)
    }
}

/// Register every schema, in order, so each gets `dtd_id` = its index.
fn register(conn: &mut Conn, schemas: &[Schema]) -> io::Result<()> {
    for (i, schema) in schemas.iter().enumerate() {
        let line = Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(schema.text.clone())),
        ])
        .to_string();
        let reply = conn.call_ok(&line)?;
        if reply.get("dtd_id").and_then(Json::as_u64) != Some(i as u64) {
            return Err(io::Error::other(format!(
                "{} got an unexpected dtd_id",
                schema.name
            )));
        }
    }
    Ok(())
}

/// What it takes to (re)start the server.
#[derive(Debug)]
struct Launcher<'a> {
    bin: PathBuf,
    cache_dir: Option<PathBuf>,
    log_dir: PathBuf,
    schemas: &'a [Schema],
    warm: &'a [Request],
}

impl Launcher<'_> {
    /// Spawn, register every schema, send every warm-up request once.  A warm-up
    /// request that kills the server goes into `killers` and the bring-up starts
    /// over without it, so this ends after at most one death per warm-up request.
    /// Returns the server, the warm-up records and the number of deaths.
    fn bring_up(
        &self,
        generation: &mut u64,
        killers: &mut HashSet<String>,
    ) -> io::Result<(ServerProc, Vec<Record>, usize)> {
        let mut deaths = 0;
        'attempt: loop {
            let log = self.log_dir.join(format!("server-{generation}.log"));
            let proc = ServerProc::spawn(&self.bin, self.cache_dir.as_deref(), &log)?;
            let mut conn = Conn::connect(proc.addr)?;
            register(&mut conn, self.schemas)?;
            let mut records = Vec::with_capacity(self.warm.len());
            for request in self.warm {
                if killers.contains(&request.line) {
                    records.push(Record::new(request.clone(), None, false));
                    continue;
                }
                match conn.call(&request.line) {
                    Ok(reply) => records.push(Record::new(request.clone(), Some(reply), false)),
                    Err(_) => {
                        killers.insert(request.line.clone());
                        deaths += 1;
                        *generation += 1;
                        continue 'attempt;
                    }
                }
            }
            return Ok((proc, records, deaths));
        }
    }
}

#[derive(Debug)]
struct Current {
    proc: ServerProc,
    generation: u64,
    /// Warm-up requests that killed a server; later warm-ups skip them, while the
    /// measured streams still send them.
    killers: HashSet<String>,
}

/// The server a run talks to.  Whenever it dies it is restarted over the same
/// cache directory (if it has one), its schemas are registered again and its
/// warm-up is replayed, so the run continues against the state it had.
#[derive(Debug)]
pub struct Fleet<'a> {
    launcher: Launcher<'a>,
    current: Mutex<Current>,
    restarts: AtomicUsize,
    /// Wall time spent restarting after set-up, in microseconds.
    downtime_us: AtomicU64,
}

impl<'a> Fleet<'a> {
    /// Spawn a server, register the schemas and send every `warm` request once.
    /// Also returns the warm-up records, one per warm request, in order.
    pub fn start(
        bin: &Path,
        cache_dir: Option<&Path>,
        log_dir: &Path,
        schemas: &'a [Schema],
        warm: &'a [Request],
    ) -> io::Result<(Fleet<'a>, Vec<Record>)> {
        if let Some(dir) = cache_dir {
            std::fs::create_dir_all(dir)?;
        }
        let launcher = Launcher {
            bin: bin.to_path_buf(),
            cache_dir: cache_dir.map(Path::to_path_buf),
            log_dir: log_dir.to_path_buf(),
            schemas,
            warm,
        };
        let (mut generation, mut killers) = (0, HashSet::new());
        let (proc, records, deaths) = launcher.bring_up(&mut generation, &mut killers)?;
        let fleet = Fleet {
            launcher,
            current: Mutex::new(Current {
                proc,
                generation,
                killers,
            }),
            restarts: AtomicUsize::new(deaths),
            downtime_us: AtomicU64::new(0),
        };
        Ok((fleet, records))
    }

    pub fn schemas(&self) -> &'a [Schema] {
        self.launcher.schemas
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Current> {
        self.current.lock().expect("fleet lock holder panicked")
    }

    /// A connection to the current server, with its generation.
    pub fn connect(&self) -> io::Result<(Conn, u64)> {
        let current = self.lock();
        Ok((Conn::connect(current.proc.addr)?, current.generation))
    }

    /// After a connection to generation `seen` failed: restart the server (once,
    /// whichever connection notices first) and reconnect.
    pub fn recover(&self, seen: u64) -> io::Result<(Conn, u64)> {
        let mut guard = self.lock();
        let current = &mut *guard;
        if current.generation == seen {
            let started = Instant::now();
            // A dead server is restarted; a live one that dropped us is replaced
            // too, since the benchmark cannot tell what state it is in.
            current.proc.exited_within(Duration::from_secs(2));
            current.generation += 1;
            let (proc, _, deaths) = self
                .launcher
                .bring_up(&mut current.generation, &mut current.killers)?;
            current.proc = proc;
            self.restarts.fetch_add(1 + deaths, Ordering::Relaxed);
            self.downtime_us
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        Ok((Conn::connect(current.proc.addr)?, current.generation))
    }

    /// Server deaths recovered from, set-up included.
    pub fn restarts(&self) -> usize {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Seconds spent restarting after set-up.
    pub fn downtime_s(&self) -> f64 {
        self.downtime_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn rss_mb(&self) -> Option<f64> {
        self.lock().proc.rss_mb()
    }

    /// The server's `stats` answer.
    pub fn stats(&self) -> io::Result<Json> {
        let (mut conn, _) = self.connect()?;
        conn.call_ok(r#"{"op":"stats"}"#)
    }
}

/// One request of the measured phase and what came back.
#[derive(Debug)]
pub struct Record {
    pub request: Request,
    /// `None` when the connection failed (server died) before a reply.
    pub reply: Option<String>,
    pub latency_us: f64,
    pub spread_us: f64,
    pub in_prefix: bool,
    /// When the reply (or the failure) arrived, in seconds since the phase began.
    pub done_s: f64,
}

impl Record {
    pub fn new(request: Request, reply: Option<Reply>, in_prefix: bool) -> Record {
        let (latency_us, spread_us) = reply.as_ref().map_or((0.0, 0.0), |r| {
            (r.latency.as_secs_f64() * 1e6, r.spread.as_secs_f64() * 1e6)
        });
        Record {
            request,
            reply: reply.map(|r| r.text),
            latency_us,
            spread_us,
            in_prefix,
            done_s: 0.0,
        }
    }
}

/// What the closed loop measured.
#[derive(Debug)]
pub struct Phase {
    pub records: Vec<Record>,
    pub elapsed_s: f64,
    /// Server `VmRSS` when every connection had finished its prefix.
    pub prefix_rss_mb: Option<f64>,
}

/// Drive `fleet` closed-loop: each connection sends its stream's next request as
/// soon as the previous answer arrives, until both `seconds` have passed and its
/// prefix is complete.  `inputs` is what the streams draw from (see
/// [`Stream`]); a stream that runs out of queries fails the phase.
pub fn closed_loop(
    fleet: &Fleet<'_>,
    workload: Workload,
    seed: u64,
    inputs: &[(usize, String)],
    seconds: f64,
) -> io::Result<Phase> {
    let schemas = fleet.schemas();
    let conns = workload.connections();
    let prefix = workload.prefix();
    let prefix_done = AtomicUsize::new(0);
    let prefix_rss = Mutex::new(None);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<io::Result<(Vec<Record>, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (prefix_done, prefix_rss) = (&prefix_done, &prefix_rss);
                scope.spawn(move || -> io::Result<(Vec<Record>, Instant)> {
                    let mut stream = Stream::new(workload, seed, c, inputs);
                    let (mut conn, mut generation) = fleet.connect()?;
                    let mut records = Vec::new();
                    loop {
                        let i = records.len();
                        if i >= prefix && Instant::now() >= deadline {
                            break;
                        }
                        let request = stream.next(schemas).ok_or_else(|| {
                            io::Error::other(format!(
                                "connection {c} ran out of queries after {i} requests \
                                 (see FLOOD_QUERIES in gen.rs)"
                            ))
                        })?;
                        let reply = match conn.call(&request.line) {
                            Ok(reply) => Some(reply),
                            Err(_) => {
                                (conn, generation) = fleet.recover(generation)?;
                                None
                            }
                        };
                        let mut record = Record::new(request, reply, i < prefix);
                        record.done_s = start.elapsed().as_secs_f64();
                        records.push(record);
                        if i + 1 == prefix
                            && prefix_done.fetch_add(1, Ordering::SeqCst) + 1 == conns
                        {
                            *prefix_rss.lock().expect("rss lock") = fleet.rss_mb();
                        }
                    }
                    Ok((records, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut end = start;
    for result in results {
        let (mut recs, finished) = result?;
        records.append(&mut recs);
        end = end.max(finished);
    }
    Ok(Phase {
        records,
        elapsed_s: (end - start).as_secs_f64(),
        prefix_rss_mb: prefix_rss.into_inner().expect("rss lock"),
    })
}
