//! The shared JSON-lines journal conventions: one JSON document per line, a
//! record acknowledged only once `fsync` covers it, and a reader that skips
//! torn or corrupt lines instead of failing. The events journal and the
//! durable job store in `mathcloud-everest` both persist through the
//! [`Appender`] here, so every journal in the system tears, batches and
//! recovers the same way.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mathcloud_json::Value;
use mathcloud_telemetry::metrics::{self, Histogram};
use mathcloud_telemetry::sync::{Condvar, Mutex, MutexGuard};

/// Bucket bounds of `mc_journal_fsync_seconds`: a local disk syncs in about
/// 100 µs, well inside the first default latency bucket.
const FSYNC_BUCKETS: &[f64] = &[
    0.00005, 0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
];

/// Bucket bounds of `mc_journal_batch_records`.
const BATCH_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
];

fn describe_metrics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let reg = metrics::global();
        reg.describe(
            "mc_journal_fsync_seconds",
            "duration of each journal fsync (file or directory), by journal",
        );
        reg.describe(
            "mc_journal_batch_records",
            "records made durable by each group-commit fsync, by journal",
        );
    });
}

/// What an [`Appender`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records written: the position the latest [`Appender::write`] returned.
    pub records: u64,
    /// Every position up to this one is known to be on disk.
    pub durable: u64,
    /// `fsync` calls made, file and directory.
    pub syncs: u64,
}

struct Writer {
    /// Shared with the thread syncing it, which must not hold the lock.
    file: Arc<File>,
    records: u64,
}

struct SyncState {
    durable: u64,
    /// A thread is inside `sync_data` on behalf of everyone waiting.
    leader: bool,
}

/// An append-only JSON-lines file with *group commit*: writing a record and
/// making it durable are separate steps, and one `fsync` serves every record
/// written before it started.
///
/// [`Appender::write`] hands out a log position; [`Appender::sync_to`]
/// returns once that position is on disk. A caller that finds the position
/// already durable pays one atomic load; one that finds a sync in flight
/// waits for it; otherwise it becomes the leader, syncs once for everything
/// written so far and wakes whoever waited. There is no flusher thread, timer
/// or batch-size knob: a batch is whatever was written while the previous
/// sync ran, and a lone writer pays exactly one sync per record.
///
/// Callers that must keep on-disk order equal to some in-memory order call
/// `write` inside their own critical section and `sync_to` after leaving it.
pub struct Appender {
    path: PathBuf,
    writer: Mutex<Writer>,
    sync: Mutex<SyncState>,
    synced: Condvar,
    /// Mirror of [`SyncState::durable`] for the lock-free fast path; stored
    /// with `Release` after the sync it reports, loaded with `Acquire`.
    durable: AtomicU64,
    syncs: AtomicU64,
    fsync_seconds: Histogram,
    batch_records: Histogram,
}

impl Appender {
    /// Opens (or creates) the journal at `path` for appending, repairing a
    /// torn tail first. `journal` labels this journal's series in
    /// `mc_journal_fsync_seconds` and `mc_journal_batch_records`.
    ///
    /// A crash mid-append can leave the file ending in a partial line with
    /// no trailing `\n`. Appending straight onto that fragment would
    /// concatenate the next record into one unparseable line — silently
    /// losing an acknowledged record on the *next* recovery, and (when only
    /// the newline was lost) destroying a complete final record that
    /// [`read_values`] had already replayed. Terminating the tail with a
    /// single synced `\n` keeps a complete-but-unterminated record readable
    /// and turns a true fragment into a corrupt line that [`read_values`]
    /// skips.
    ///
    /// # Errors
    ///
    /// Propagates open, metadata, read, write and sync failures.
    pub fn open(path: &Path, journal: &str) -> io::Result<Appender> {
        describe_metrics();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                file.sync_data()?;
            }
        }
        let labels = [("journal", journal)];
        Ok(Appender {
            path: path.to_path_buf(),
            writer: Mutex::new(Writer {
                file: Arc::new(file),
                records: 0,
            }),
            sync: Mutex::new(SyncState {
                durable: 0,
                leader: false,
            }),
            synced: Condvar::new(),
            durable: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            fsync_seconds: metrics::global().histogram_with(
                "mc_journal_fsync_seconds",
                &labels,
                FSYNC_BUCKETS,
            ),
            batch_records: metrics::global().histogram_with(
                "mc_journal_batch_records",
                &labels,
                BATCH_BUCKETS,
            ),
        })
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `line` (one JSON document, no newline) and returns its log
    /// position, to be passed to [`Appender::sync_to`]. The record is in the
    /// file but **not yet durable**: a crash before the covering sync may
    /// lose it, leaving at most a torn tail that [`read_values`] skips.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the record then has no position.
    pub fn write(&self, mut line: String) -> io::Result<u64> {
        line.push('\n');
        let mut w = self.writer.lock();
        (&*w.file).write_all(line.as_bytes())?;
        w.records += 1;
        Ok(w.records)
    }

    /// Returns once every record up to `pos` is on disk, sharing one
    /// `sync_data` among all callers waiting at the same time.
    ///
    /// # Errors
    ///
    /// The leader reports its sync failure; followers of a failed sync
    /// retry as leaders and report their own.
    pub fn sync_to(&self, pos: u64) -> io::Result<()> {
        if self.durable.load(Ordering::Acquire) >= pos {
            return Ok(());
        }
        let mut st = self.sync.lock();
        loop {
            if st.durable >= pos {
                return Ok(());
            }
            if !st.leader {
                break;
            }
            self.synced.wait(&mut st);
        }
        st.leader = true;
        drop(st);
        // Everything written before this point rides on this sync.
        let (file, target) = {
            let w = self.writer.lock();
            (Arc::clone(&w.file), w.records)
        };
        let result = self.timed_sync(|| file.sync_data());
        let mut st = self.sync.lock();
        st.leader = false;
        if result.is_ok() {
            self.batch_records
                .observe(target.saturating_sub(st.durable) as f64);
        }
        // On failure the followers wake too: one of them leads the retry.
        self.advance(st, if result.is_ok() { target } else { 0 });
        result
    }

    /// Atomically replaces the journal with what `body` writes: the rewrite
    /// goes through a buffered writer to a sibling temp file, is synced
    /// once, renamed over the journal, and the parent directory is synced so
    /// the new name survives a crash — without that, the directory entry
    /// could still name the old inode after a restart and every later
    /// append, though acknowledged, would be lost. A crash at any point
    /// leaves either the old journal or the new one, never a mix.
    ///
    /// Later appends go to the new file. `body` must reproduce every record
    /// whose position was handed out: on success they all count as durable.
    /// Writes block while a rewrite runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. Up to and including the rename the journal
    /// is left untouched; a failed directory sync leaves the new journal in
    /// place and in use, with its records not yet counted as durable.
    pub fn rewrite(&self, body: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> io::Result<()> {
        let mut w = self.writer.lock();
        let tmp = self.path.with_extension("compact-tmp");
        let written = (|| -> io::Result<File> {
            // One may be left behind by a crash mid-rewrite. Append mode:
            // this handle becomes the journal's after the rename.
            let _ = std::fs::remove_file(&tmp);
            let file = OpenOptions::new()
                .append(true)
                .create_new(true)
                .open(&tmp)?;
            let mut out = BufWriter::new(file);
            body(&mut out)?;
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            self.timed_sync(|| file.sync_all())?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(file)
        })();
        match written {
            Ok(file) => w.file = Arc::new(file),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        self.timed_sync(|| File::open(dir)?.sync_all())?;
        let records = w.records;
        drop(w);
        self.advance(self.sync.lock(), records);
        Ok(())
    }

    /// Counters for tests and health reports.
    pub fn stats(&self) -> JournalStats {
        let records = self.writer.lock().records;
        JournalStats {
            records,
            durable: self.durable.load(Ordering::Acquire),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    /// Raises the durable position (never lowers it) and wakes everyone
    /// waiting in [`Appender::sync_to`] to look again.
    fn advance(&self, mut st: MutexGuard<'_, SyncState>, durable: u64) {
        st.durable = st.durable.max(durable);
        self.durable.store(st.durable, Ordering::Release);
        drop(st);
        self.synced.notify_all();
    }

    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let result = sync();
        self.fsync_seconds.observe_duration(started.elapsed());
        self.syncs.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// Hands every well-formed JSON line of `path` to `each`, oldest first, in
/// one streaming pass: one line is in memory at a time, and `each` owns it.
///
/// A missing file is an empty journal. Lines that are not valid UTF-8
/// or not valid JSON — a torn tail from a crash mid-append, or bytes
/// corrupted at rest — are skipped, never fatal: recovery always
/// replays the longest well-formed prefix (plus any well-formed lines
/// after a corrupt one).
///
/// # Errors
///
/// Propagates I/O errors opening or reading the file.
pub fn read_values(path: &Path, mut each: impl FnMut(Value)) -> io::Result<()> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut file = BufReader::with_capacity(1 << 16, file);
    let mut raw = Vec::new();
    while file.read_until(b'\n', &mut raw)? > 0 {
        // The newline, and an empty line's failure to parse, need no case.
        if let Some(v) = std::str::from_utf8(&raw)
            .ok()
            .and_then(|line| mathcloud_json::parse(line).ok())
        {
            each(v);
        }
        raw.clear();
    }
    Ok(())
}
