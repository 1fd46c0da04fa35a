//! Group-commit battery for [`jsonl::Appender`]: one `fsync` per batch of
//! waiters, never a lost or reordered record, and nothing weaker than
//! one-sync-per-record for a writer that is alone.
//!
//! Every appender here opens under a `journal` label of its own, so the
//! `mc_journal_*` histogram series it reports into are not shared with any
//! other test and their counts can be asserted exactly.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use mathcloud_events::jsonl::{self, Appender};
use mathcloud_json::{json, Value};
use mathcloud_telemetry::metrics::{self, Histogram};

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-group-commit-{tag}-{}-{}",
        std::process::id(),
        mathcloud_telemetry::next_request_id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.jsonl")
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

fn histograms(journal: &str) -> (Histogram, Histogram) {
    let labels = [("journal", journal)];
    (
        metrics::global().histogram("mc_journal_fsync_seconds", &labels),
        metrics::global().histogram("mc_journal_batch_records", &labels),
    )
}

fn record(thread: usize, i: usize) -> String {
    json!({"thread": (thread as i64), "i": (i as i64), "pad": ("x".repeat(40))}).to_string()
}

/// `(thread, i)` of every line of the journal, in file order; panics on a
/// line that does not parse.
fn read_back(path: &std::path::Path) -> Vec<(i64, i64)> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .map(|line| {
            let v = mathcloud_json::parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
            let field = |name: &str| v.get(name).and_then(Value::as_i64).unwrap();
            (field("thread"), field("i"))
        })
        .collect()
}

const THREADS: usize = 8;
const PER_THREAD: usize = 500;

#[test]
fn a_lone_writer_pays_exactly_one_sync_per_record() {
    let path = tmp_journal("lone");
    let journal = Appender::open(&path, "gc-lone").unwrap();
    let (fsyncs, batches) = histograms("gc-lone");
    for i in 0..200 {
        let pos = journal.write(record(0, i)).unwrap();
        assert_eq!(pos, i as u64 + 1, "positions count records");
        journal.sync_to(pos).unwrap();
        let stats = journal.stats();
        assert_eq!(
            (stats.records, stats.durable, stats.syncs),
            (pos, pos, pos),
            "durable on return, with one sync of its own"
        );
        // Asking again is free.
        journal.sync_to(pos).unwrap();
        assert_eq!(journal.stats().syncs, pos);
    }
    assert_eq!(fsyncs.count(), 200);
    assert_eq!(batches.count(), 200, "every sync was a batch of one");
    assert_eq!(batches.sum(), 200.0);
    assert_eq!(read_back(&path).len(), 200);
    cleanup(&path);
}

#[test]
fn concurrent_appends_lose_nothing_and_keep_each_threads_order() {
    let path = tmp_journal("storm");
    let journal = Arc::new(Appender::open(&path, "gc-storm").unwrap());
    let (fsyncs, batches) = histograms("gc-storm");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let journal = &journal;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let pos = journal.write(record(t, i)).unwrap();
                    journal.sync_to(pos).unwrap();
                    assert!(journal.stats().durable >= pos, "durable on return");
                }
            });
        }
    });
    let lines = read_back(&path);
    assert_eq!(lines.len(), THREADS * PER_THREAD, "every record is there");
    for t in 0..THREADS {
        let mine: Vec<i64> = lines
            .iter()
            .filter(|(thread, _)| *thread == t as i64)
            .map(|(_, i)| *i)
            .collect();
        let expected: Vec<i64> = (0..PER_THREAD as i64).collect();
        assert_eq!(mine, expected, "thread {t}: all records, in its own order");
    }
    let stats = journal.stats();
    assert_eq!(stats.records, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.durable, stats.records);
    assert!(stats.syncs <= stats.records, "never more than one each");
    // The histograms tell the same story: every record rode on some batch.
    assert_eq!(fsyncs.count(), stats.syncs);
    assert_eq!(batches.sum(), stats.records as f64);
    cleanup(&path);
}

/// The interleaving group commit exists for, forced with a barrier: all
/// eight records of a round are written before anyone asks for durability,
/// so the first to ask syncs for everybody.
#[test]
fn records_written_before_a_sync_starts_share_it() {
    let path = tmp_journal("rounds");
    let journal = Arc::new(Appender::open(&path, "gc-rounds").unwrap());
    let (fsyncs, batches) = histograms("gc-rounds");
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (journal, barrier) = (&journal, &barrier);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let pos = journal.write(record(t, i)).unwrap();
                    barrier.wait();
                    journal.sync_to(pos).unwrap();
                    // Nobody writes round i + 1 while round i still syncs.
                    barrier.wait();
                }
            });
        }
    });
    let stats = journal.stats();
    assert_eq!(stats.records, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.durable, stats.records);
    assert_eq!(
        stats.syncs, PER_THREAD as u64,
        "one sync per round of {THREADS} records, strictly below the record count"
    );
    assert_eq!(fsyncs.count(), PER_THREAD as u64);
    assert_eq!(batches.count(), PER_THREAD as u64);
    assert_eq!(batches.sum(), (THREADS * PER_THREAD) as f64);
    assert_eq!(read_back(&path).len(), THREADS * PER_THREAD);
    cleanup(&path);
}

#[test]
fn a_rewrite_of_any_size_costs_a_file_sync_and_a_directory_sync() {
    let path = tmp_journal("rewrite");
    let journal = Appender::open(&path, "gc-rewrite").unwrap();
    let (fsyncs, _) = histograms("gc-rewrite");
    // Written, never synced: the rewrite reproduces them, so its own syncs
    // make them durable.
    for i in 0..50 {
        journal.write(record(0, i)).unwrap();
    }
    assert_eq!(journal.stats().durable, 0);
    const SURVIVORS: usize = 5000;
    journal
        .rewrite(|out| {
            for i in 0..SURVIVORS {
                writeln!(out, "{}", record(1, i))?;
            }
            Ok(())
        })
        .unwrap();
    let stats = journal.stats();
    assert_eq!(stats.syncs, 2, "the file once, the directory once");
    assert!(fsyncs.count() <= 3, "however many records survive");
    assert_eq!(stats.durable, 50, "everything written so far is covered");
    assert!(
        !path.with_extension("compact-tmp").exists(),
        "the temp file was renamed away"
    );
    // Appends land in the new file, after the rewrite.
    let pos = journal.write(record(2, 0)).unwrap();
    journal.sync_to(pos).unwrap();
    assert_eq!(journal.stats().syncs, 3);
    let lines = read_back(&path);
    assert_eq!(lines.len(), SURVIVORS + 1);
    assert_eq!(lines[0], (1, 0));
    assert_eq!(lines[SURVIVORS], (2, 0));
    // A failed rewrite leaves the journal as it was.
    let failed = journal.rewrite(|_| Err(std::io::Error::other("disk full")));
    assert!(failed.is_err());
    assert_eq!(read_back(&path).len(), SURVIVORS + 1);
    assert!(!path.with_extension("compact-tmp").exists());
    let mut values = 0;
    jsonl::read_values(&path, |_| values += 1).unwrap();
    assert_eq!(values, SURVIVORS + 1);
    cleanup(&path);
}
