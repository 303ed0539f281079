//! Trace file reading and writing.
//!
//! Offline mode "needs access to a preexisting dot file and trace file"
//! (§4.1); online mode continuously appends the received stream to a trace
//! file (§4.2). One formatted record per line.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::TraceEvent;
use crate::filter::FilterOptions;
use crate::format::{format_event, parse_event, push_event};

/// A trace file on disk.
#[derive(Debug)]
pub struct TraceFile {
    path: PathBuf,
}

impl TraceFile {
    /// Refer to a trace file path (no I/O yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceFile { path: path.into() }
    }

    /// Path accessor.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write `events` to the file, replacing existing content.
    pub fn write(&self, events: &[TraceEvent]) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(&self.path)?);
        for e in events {
            writeln!(w, "{}", format_event(e))?;
        }
        w.flush()
    }

    /// Append one event (online mode's continuously-growing file).
    pub fn append(&self, event: &TraceEvent) -> io::Result<()> {
        let mut w = BufWriter::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?,
        );
        writeln!(w, "{}", format_event(event))?;
        w.flush()
    }

    /// Read all events "in a sequential manner" (§4); see [`read_events`].
    pub fn read(&self) -> io::Result<Vec<TraceEvent>> {
        self.read_filtered(&FilterOptions::all())
    }

    /// Read only events passing `filter` — "flexible options for filtering
    /// of execution traces" applied at load time.
    pub fn read_filtered(&self, filter: &FilterOptions) -> io::Result<Vec<TraceEvent>> {
        read_events(BufReader::new(File::open(&self.path)?), filter)
    }
}

/// Parse trace text line by line, keeping the events that pass `filter`.
/// Blank lines are skipped; an unparseable line is an
/// [`io::ErrorKind::InvalidData`] error naming its 1-based line number.
pub fn read_events(r: impl BufRead, filter: &FilterOptions) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let e = parse_event(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", i + 1))
        })?;
        if filter.accepts(&e) {
            events.push(e);
        }
    }
    Ok(events)
}

/// An incremental writer that keeps the file handle open; used by the
/// textual Stethoscope to redirect a received stream into a file (§4.2).
#[derive(Debug)]
pub struct TraceWriter {
    w: BufWriter<File>,
    written: usize,
    /// One line, kept to reuse its allocation.
    line: String,
}

impl TraceWriter {
    /// Create/truncate the file and return a streaming writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(TraceWriter {
            w: BufWriter::new(File::create(path)?),
            written: 0,
            line: String::new(),
        })
    }

    /// Append one event.
    pub fn write_event(&mut self, e: &TraceEvent) -> io::Result<()> {
        self.line.clear();
        push_event(&mut self.line, e);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn count(&self) -> usize {
        self.written
    }

    /// Flush buffered lines to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventStatus;

    fn events(n: usize) -> Vec<TraceEvent> {
        (0..n as u64)
            .map(|i| TraceEvent {
                event: i,
                status: if i % 2 == 0 {
                    EventStatus::Start
                } else {
                    EventStatus::Done
                },
                pc: (i / 2) as usize,
                thread: (i % 3) as usize,
                clk: i * 10,
                usec: if i % 2 == 1 { 10 } else { 0 },
                rss: 1024 + i,
                stmt: format!("X_{i} := algebra.select(X_0, {i}:int);"),
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("stetho_tracefile_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = tmp("rt.trace");
        let evs = events(20);
        let f = TraceFile::new(&path);
        f.write(&evs).unwrap();
        let back = f.read().unwrap();
        assert_eq!(back, evs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_grows_file() {
        let path = tmp("append.trace");
        std::fs::remove_file(&path).ok();
        let f = TraceFile::new(&path);
        let evs = events(4);
        f.write(&evs[..2]).unwrap();
        f.append(&evs[2]).unwrap();
        f.append(&evs[3]).unwrap();
        assert_eq!(f.read().unwrap(), evs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filtered_read() {
        let path = tmp("filtered.trace");
        let evs = events(20);
        let f = TraceFile::new(&path);
        f.write(&evs).unwrap();
        let filter = FilterOptions::all().with_status(EventStatus::Done);
        let got = f.read_filtered(&filter).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|e| e.status == EventStatus::Done));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_line_reports_line_number() {
        let path = tmp("corrupt.trace");
        std::fs::write(&path, "[ 0, \"start\", 0, 0, 0, 0, 0, \"s\" ]\ngarbage\n").unwrap();
        let err = TraceFile::new(&path).read().unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_counts() {
        let path = tmp("stream.trace");
        let evs = events(6);
        let mut w = TraceWriter::create(&path).unwrap();
        for e in &evs {
            w.write_event(e).unwrap();
        }
        assert_eq!(w.count(), 6);
        w.flush().unwrap();
        drop(w);
        assert_eq!(TraceFile::new(&path).read().unwrap(), evs);
        std::fs::remove_file(&path).ok();
    }
}
