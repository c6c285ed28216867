//! Oracle tests for CLF ingestion.
//!
//! The library parses each line into fields borrowed from it, interns
//! paths in an open-addressing hash table and reuses the previous line's
//! parsed date. The reference here is the straightforward version of the
//! same rules: it allocates the method and path of every line, parses
//! every date from scratch and interns paths in a `BTreeMap`. Both must
//! give the same `LogEntry` for every line, the same `Trace` for every
//! log, and the same `ClfRecord`s (bit for bit) and `ClfStreamStats`
//! after every line of a log tailed one line at a time.

mod clf_lines;

use clf_lines::{Piece, CHOICES};
use l2s_trace::clf::{self, LogEntry};
use l2s_trace::{ClfRecord, ClfStream, ClfStreamStats, FileId, FileInterner, FileSet, Trace};
use l2s_util::{cast, DetRng};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read};
use std::rc::Rc;

/// Interns paths in an ordered map of owned keys.
#[derive(Default)]
struct RefInterner {
    ids: BTreeMap<String, FileId>,
}

impl RefInterner {
    fn intern(&mut self, path: &str) -> FileId {
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = FileId::from_raw(cast::index_u32(self.ids.len()));
        self.ids.insert(path.to_string(), id);
        id
    }

    fn get(&self, path: &str) -> Option<FileId> {
        self.ids.get(path).copied()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn into_paths(self) -> Vec<String> {
        let mut paths = vec![String::new(); self.ids.len()];
        for (path, id) in self.ids {
            paths[id.index()] = path;
        }
        paths
    }
}

fn ref_parse_line(line: &str) -> Option<LogEntry> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let (quote_start, quote_end) = ref_request_span(line)?;
    let request = &line[quote_start + 1..quote_end];
    let mut req_parts = request.split_whitespace();
    let method = req_parts.next()?.to_string();
    let path = req_parts.next()?.to_string();

    let tail = line[quote_end + 1..].trim();
    let mut tail_parts = tail.split_whitespace();
    let status: u16 = tail_parts.next()?.parse().ok()?;
    let bytes = match tail_parts.next() {
        Some("-") | None => None,
        Some(b) => b.parse::<u64>().ok(),
    };
    let timestamp_s = line[..quote_start].rfind('[').and_then(|i| {
        let rest = &line[i + 1..quote_start];
        let end = rest.find(']')?;
        ref_parse_clf_timestamp(&rest[..end])
    });
    Some(LogEntry {
        path,
        method,
        status,
        bytes,
        timestamp_s,
    })
}

fn ref_days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from(if month > 2 { month - 3 } else { month + 9 });
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn ref_parse_zone(zone: &str) -> Option<i64> {
    let (sign, digits) = match zone.as_bytes().first()? {
        b'+' => (1, &zone[1..]),
        b'-' => (-1, &zone[1..]),
        _ => return None,
    };
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let hh: i64 = digits[..2].parse().ok()?;
    let mm: i64 = digits[2..].parse().ok()?;
    if hh > 23 || mm > 59 {
        return None;
    }
    Some(sign * (hh * 3600 + mm * 60))
}

/// Years 0..=9999 and non-negative times of day only.
fn ref_parse_clf_timestamp(s: &str) -> Option<i64> {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    let (date_time, zone) = s.trim().split_once(' ')?;
    let mut dmy = date_time.splitn(3, '/');
    let day: u32 = dmy.next()?.parse().ok()?;
    let month_name = dmy.next()?;
    let month = cast::index_u32(MONTHS.iter().position(|&m| m == month_name)? + 1);
    let mut hms = dmy.next()?.split(':');
    let year: i64 = hms.next()?.parse().ok()?;
    let hh: i64 = hms.next()?.parse().ok()?;
    let mm: i64 = hms.next()?.parse().ok()?;
    let ss: i64 = hms.next()?.parse().ok()?;
    if hms.next().is_some()
        || !(1..=31).contains(&day)
        || !(0..=9999).contains(&year)
        || !(0..=23).contains(&hh)
        || !(0..=59).contains(&mm)
        || !(0..=60).contains(&ss)
    {
        return None;
    }
    let offset = ref_parse_zone(zone)?;
    Some(ref_days_from_civil(year, month, day) * 86_400 + hh * 3600 + mm * 60 + ss - offset)
}

fn ref_request_span(line: &str) -> Option<(usize, usize)> {
    const METHODS: [&str; 9] = [
        "GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE", "PATCH",
    ];
    let mut from = 0;
    let open = loop {
        let i = from + line[from..].find('"')?;
        let rest = &line[i + 1..];
        if METHODS
            .iter()
            .any(|m| rest.strip_prefix(m).is_some_and(|r| r.starts_with(' ')))
        {
            break i;
        }
        from = i + 1;
    };
    let mut from = open + 1;
    loop {
        let i = from + line[from..].find('"')?;
        let after = line[i + 1..].trim_start();
        if after.starts_with(|c: char| c.is_ascii_digit()) {
            break Some((open, i));
        }
        from = i + 1;
    }
}

/// Successful `GET`s with a size in 1..=2⁵³ bytes.
fn ref_kept_bytes(entry: &LogEntry) -> Option<u64> {
    if entry.method != "GET" || entry.status != 200 {
        return None;
    }
    match entry.bytes {
        Some(b) if b > 0 && b <= cast::MAX_EXACT_F64 => Some(b),
        _ => None,
    }
}

fn ref_parse_log(name: &str, text: &str) -> Trace {
    let mut interner = RefInterner::default();
    let mut sizes_kb: Vec<f64> = Vec::new();
    let mut requests: Vec<FileId> = Vec::new();
    for line in text.lines() {
        let Some(entry) = ref_parse_line(line) else {
            continue;
        };
        let Some(bytes) = ref_kept_bytes(&entry) else {
            continue;
        };
        let kb = cast::exact_f64(bytes) / 1024.0;
        let id = interner.intern(&entry.path);
        if id.index() == sizes_kb.len() {
            sizes_kb.push(kb);
        } else {
            sizes_kb[id.index()] = sizes_kb[id.index()].max(kb);
        }
        requests.push(id);
    }
    Trace::new(name, FileSet::new(sizes_kb), requests)
}

/// The reference stream: a fresh `String` per line (a line that is not
/// UTF-8 is dropped), every date parsed, the arrival offset taken as
/// the exact difference of the two timestamps.
struct RefStream<R> {
    reader: R,
    interner: RefInterner,
    sizes_kb: Vec<f64>,
    base_ts_s: Option<i64>,
    last_at_s: f64,
    stats: ClfStreamStats,
}

impl<R: BufRead> RefStream<R> {
    fn new(reader: R) -> Self {
        RefStream {
            reader,
            interner: RefInterner::default(),
            sizes_kb: Vec::new(),
            base_ts_s: None,
            last_at_s: 0.0,
            stats: ClfStreamStats::default(),
        }
    }

    fn next_record(&mut self) -> Option<ClfRecord> {
        loop {
            let mut buf = Vec::new();
            if self
                .reader
                .read_until(b'\n', &mut buf)
                .expect("in-memory read")
                == 0
            {
                return None;
            }
            if !buf.ends_with(b"\n") {
                self.stats.truncated_tail = true;
                return None;
            }
            self.stats.lines += 1;
            let entry = String::from_utf8(buf)
                .ok()
                .and_then(|line| ref_parse_line(&line));
            let Some((entry, bytes)) =
                entry.and_then(|e| ref_kept_bytes(&e).map(|bytes| (e, bytes)))
            else {
                self.stats.dropped += 1;
                continue;
            };
            match (entry.timestamp_s, self.base_ts_s) {
                (Some(ts), None) => {
                    self.base_ts_s = Some(ts);
                    self.last_at_s = 0.0;
                }
                (Some(ts), Some(base)) => {
                    let diff = ts - base;
                    let at_s = cast::exact_f64(diff.unsigned_abs()) * diff.signum() as f64;
                    if at_s < self.last_at_s {
                        self.stats.out_of_order += 1;
                    } else {
                        self.last_at_s = at_s;
                    }
                }
                (None, _) => self.stats.missing_timestamp += 1,
            }
            let kb = cast::exact_f64(bytes) / 1024.0;
            let id = self.interner.intern(&entry.path);
            if id.index() == self.sizes_kb.len() {
                self.sizes_kb.push(kb);
            } else {
                self.sizes_kb[id.index()] = self.sizes_kb[id.index()].max(kb);
            }
            self.stats.kept += 1;
            return Some(ClfRecord {
                file: id,
                size_kb: self.sizes_kb[id.index()],
                at_s: self.last_at_s,
            });
        }
    }
}

/// A log being written: reads return what has been appended so far and
/// then 0, like a file tailed at its end.
struct Tail {
    log: Rc<RefCell<Vec<u8>>>,
    pos: usize,
}

impl Read for Tail {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let log = self.log.borrow();
        let n = out.len().min(log.len() - self.pos);
        out[..n].copy_from_slice(&log[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn bits(r: &ClfRecord) -> (u32, u64, u64) {
    (r.file.raw(), r.size_kb.to_bits(), r.at_s.to_bits())
}

/// Tails `log` one line at a time through a `ClfStream` and the
/// reference, draining both after each line, and describes the first
/// disagreement. Small read buffers split lines across refills.
fn stream_mismatch(log: &[u8]) -> Option<String> {
    let written = Rc::new(RefCell::new(Vec::new()));
    let tail = |capacity| {
        let log = Tail {
            log: Rc::clone(&written),
            pos: 0,
        };
        BufReader::with_capacity(capacity, log)
    };
    let mut got = ClfStream::new(tail(7));
    let mut want = RefStream::new(tail(64));
    for (i, line) in log.split_inclusive(|&b| b == b'\n').enumerate() {
        written.borrow_mut().extend_from_slice(line);
        loop {
            let g = got.next_record().expect("in-memory read");
            let w = want.next_record();
            if g.as_ref().map(bits) != w.as_ref().map(bits) {
                return Some(format!(
                    "line {i} {:?}: record {g:?}, reference {w:?}",
                    String::from_utf8_lossy(line)
                ));
            }
            if g.is_none() {
                break;
            }
        }
        let sizes = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if got.stats() != want.stats || sizes(got.sizes_kb()) != sizes(&want.sizes_kb) {
            return Some(format!(
                "line {i} {:?}: stats {:?}, reference {:?}",
                String::from_utf8_lossy(line),
                got.stats(),
                want.stats
            ));
        }
    }
    None
}

/// `parse_log` against the reference on the log read as text, and
/// `parse_line` on each of its lines.
fn text_mismatch(log: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(log);
    for line in text.lines() {
        let (got, want) = (clf::parse_line(line), ref_parse_line(line));
        if got != want {
            return Some(format!("{line:?}: {got:?}, reference {want:?}"));
        }
    }
    let (got, want) = (clf::parse_log("t", &text), ref_parse_log("t", &text));
    let files = |t: &Trace| {
        t.files()
            .iter()
            .map(|(id, kb)| (id, kb.to_bits()))
            .collect::<Vec<_>>()
    };
    if got.requests() != want.requests() || files(&got) != files(&want) {
        return Some(format!(
            "parse_log: {} requests over {} files, reference {} over {}",
            got.len(),
            got.files().len(),
            want.len(),
            want.files().len()
        ));
    }
    None
}

/// A deterministic fuzzed log of `n` pieces.
fn seeded_log(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let pieces: Vec<Piece> = (0..n)
        .map(|_| {
            let kind = u8::try_from(rng.below(16)).expect("below 16");
            let choices = (0..CHOICES)
                .map(|_| u32::try_from(rng.below(1 << 16)).expect("below 2^16"))
                .collect();
            let mut raw = vec![0u8; rng.index(80)];
            rng.fill_bytes(&mut raw);
            (kind, choices, raw)
        })
        .collect();
    clf_lines::log(&pieces)
}

#[test]
fn stream_and_text_parsers_match_the_reference() {
    let handwritten = "\
h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 5\n\
h - - [01/Jan/2000:10:00:00 +0000] \"GET /b HTTP/1.0\" 200 7\n\
h - - [01/Jan/2000:10:00:02 +0000] \"GET /a HTTP/1.0\" 200 9\r\n\
h - - [01/Jan/2000:10:00:01 +0000] \"GET /c HTTP/1.0\" 200 1\n\
h - - [01/Jan/1900:00:00:00 +0000] \"GET /c HTTP/1.0\" 200 1\n\
h - - [01/Jan/99999999999999:00:00:00 +0000] \"GET /d HTTP/1.0\" 200 1\n\
h - - [d] \"GET /d HTTP/1.0\" 200 1\n\
h - - [01/Jan/2000:10:00:00 +0000] \"GET /d HTTP/1.0\" +200 -\n\
h - - [01/Jan/2000:10:00:00 +0000] \"POST /e HTTP/1.0\" 200 3\n\
h - - [01/Jan/2000:10:00:03 +0000] \"GET /f HTTP/1.0\" 200 4 \"ref\" \"agent\"\n\
h - - [01/Jan/2000:10:00:03] \"GET /f HTTP/1.0\" 200 4\n\
h - - [01/Jan/2000:10:00:03 +00000] \"GET /f HTTP/1.0\" 200 4\n\
h - - [01/Jan/2000:10:00:04 +0000] \"GET /\u{e9} HTTP/1.0\" 200 4\n\
h - - [01/Jan/2000:10:00:03 +0000] \"GET /g HTT";
    assert_eq!(stream_mismatch(handwritten.as_bytes()), None);
    assert_eq!(text_mismatch(handwritten.as_bytes()), None);
    for seed in 0..64 {
        let log = seeded_log(seed, 200);
        assert_eq!(stream_mismatch(&log), None, "seed {seed}");
        assert_eq!(text_mismatch(&log), None, "seed {seed}");
    }
}

#[test]
fn interner_matches_an_ordered_map_across_every_growth_step() {
    let mut rng = DetRng::new(14);
    let mut got = FileInterner::new();
    let mut want = RefInterner::default();
    let name = |i: u64| match i % 3 {
        0 => format!("/p/{i}"),
        1 => format!("/{i}/\u{e9}.html"),
        _ => "x".repeat(cast::index_usize(i % 40)) + &i.to_string(),
    };
    let mut fresh = 0u64;
    // 100k distinct paths take the slot table from 16 to 262144 slots.
    while want.len() < 100_000 {
        let i = if fresh > 0 && rng.chance(0.5) {
            rng.below(fresh)
        } else {
            fresh += 1;
            fresh - 1
        };
        let path = name(i);
        assert_eq!(got.intern(&path), want.intern(&path), "{path}");
        assert_eq!(got.len(), want.len());
    }
    assert_eq!(got.intern(""), want.intern(""));
    for i in (0..fresh + 100).step_by(101) {
        assert_eq!(got.get(&name(i)), want.get(&name(i)));
    }
    assert_eq!(got.get("/absent"), None);
    assert_eq!(got.into_paths(), want.into_paths());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fragment lines, arbitrary bytes and lines with one byte replaced:
    /// every stream record and counter, every `LogEntry` and the whole
    /// `Trace` match the reference.
    #[test]
    fn fuzzed_logs_match_the_reference(
        pieces in prop::collection::vec(
            (
                any::<u8>(),
                prop::collection::vec(any::<u32>(), CHOICES..CHOICES + 1),
                prop::collection::vec(any::<u8>(), 0..600),
            ),
            0..60,
        )
    ) {
        let log = clf_lines::log(&pieces);
        prop_assert_eq!(stream_mismatch(&log), None);
        prop_assert_eq!(text_mismatch(&log), None);
    }
}
