//! Streaming JSONL trace sinks with size-based rotation.
//!
//! Campaign runs replace the engine's bounded in-memory
//! [`bc_des::TraceRing`] with an *unbounded* on-disk stream: every
//! engine event bridged through bc-obs is appended to a JSONL file, and
//! when the current file would exceed the size cap the sink rotates to
//! `<stem>.<k+1>.jsonl`. Nothing is dropped — post-hoc analysis sees
//! the full event history, file by file.
//!
//! Rotation happens at `write`-call boundaries. That is safe — and
//! line-atomic — because [`bc_obs::recorders::JsonlRecorder`] emits
//! exactly one complete newline-terminated JSON line per `write_all`
//! call, so every rotated file is independently valid JSONL
//! (`bc_obs::json::validate_jsonl` checks this in the tests).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A size-rotated JSONL file family: `<stem>.0.jsonl`, `<stem>.1.jsonl`, …
#[derive(Debug)]
pub struct RotatingJsonl {
    dir: PathBuf,
    stem: String,
    max_bytes: u64,
    current: BufWriter<File>,
    /// Bytes written to the current file.
    written: u64,
    /// Index of the *next* file to open.
    next_index: usize,
    paths: Vec<PathBuf>,
}

fn open_part(dir: &Path, stem: &str, index: usize) -> io::Result<(BufWriter<File>, PathBuf)> {
    let path = dir.join(format!("{stem}.{index}.jsonl"));
    let file = File::create(&path)?;
    Ok((BufWriter::new(file), path))
}

impl RotatingJsonl {
    /// Opens `<dir>/<stem>.0.jsonl` (creating `dir` if needed). Each
    /// file holds at most `max_bytes` of whole lines (min 1 — a single
    /// line larger than the cap still lands in one file, alone).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the directory or the first file.
    pub fn create(dir: &Path, stem: &str, max_bytes: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let (current, path) = open_part(dir, stem, 0)?;
        Ok(RotatingJsonl {
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
            max_bytes: max_bytes.max(1),
            current,
            written: 0,
            next_index: 1,
            paths: vec![path],
        })
    }

    /// Files written so far, oldest first (the last one is still open
    /// until [`RotatingJsonl::finish`]).
    #[must_use]
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Flushes the current file and returns every path written.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the final flush.
    pub fn finish(mut self) -> io::Result<Vec<PathBuf>> {
        self.current.flush()?;
        Ok(self.paths)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.current.flush()?;
        let (next, path) = open_part(&self.dir, &self.stem, self.next_index)?;
        self.current = next;
        self.written = 0;
        self.next_index += 1;
        self.paths.push(path);
        Ok(())
    }
}

impl Write for RotatingJsonl {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let len = buf.len() as u64; // cast-ok: byte count widens losslessly
                                    // The caller (JsonlRecorder) hands us one whole line per call,
                                    // so rotating *before* an overflowing write keeps every file a
                                    // valid JSONL document.
        if self.written > 0 && self.written + len > self.max_bytes {
            self.rotate()?;
        }
        self.current.write_all(buf)?;
        self.written += len;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.current.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bc-campaign-sinks-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rotates_on_size_and_keeps_lines_whole() {
        let dir = tmp_dir("rotate");
        let mut w = RotatingJsonl::create(&dir, "trace", 64).unwrap();
        // 10 lines of 32 bytes: two fit per 64-byte file -> 5 files.
        for i in 0..10 {
            let line = format!("{{\"n\":{i:02},\"pad\":\"{}\"}}\n", "x".repeat(14));
            assert_eq!(line.len(), 32, "test line must be 32 bytes");
            w.write_all(line.as_bytes()).unwrap();
        }
        let paths = w.finish().unwrap();
        assert_eq!(
            paths.len(),
            5,
            "64-byte cap on 32-byte lines -> 2 lines/file"
        );
        let mut total = 0;
        for p in &paths {
            let text = fs::read_to_string(p).unwrap();
            let lines = bc_obs::json::validate_jsonl(&text).unwrap();
            assert_eq!(lines, 2, "{p:?}");
            total += lines;
        }
        assert_eq!(total, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_line_lands_alone() {
        let dir = tmp_dir("oversize");
        let mut w = RotatingJsonl::create(&dir, "trace", 8).unwrap();
        w.write_all(b"{\"k\":\"a-line-much-longer-than-the-cap\"}\n")
            .unwrap();
        w.write_all(b"{\"k\":1}\n").unwrap();
        let paths = w.finish().unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            let text = fs::read_to_string(p).unwrap();
            assert_eq!(bc_obs::json::validate_jsonl(&text), Ok(1), "{p:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
