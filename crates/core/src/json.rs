//! Minimal deterministic JSON shared by the report writers, the journal
//! and the service wire: [`JsonWriter`] emits it and [`parse_json`]
//! reads it back.
//!
//! The harness deliberately avoids a serialization dependency: its
//! reports ([`crate::sweep::SweepResult::to_json`], the `nachos-lint`
//! CLI) promise byte-identical output for identical inputs, which is
//! easiest to audit when the writer is ~100 lines of code with a fixed
//! key order and deterministic number formatting.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

/// Pretty-printing JSON writer with a fixed key order (the caller emits
/// keys in schema order) and deterministic number formatting.
///
/// The writer is a push-down emitter: `open_obj`/`open_arr` nest,
/// `key` names the next value inside an object, and the `*_field`
/// helpers combine both. The caller is responsible for balanced
/// open/close calls; the writer asserts balance at `finish`.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    indent: usize,
    /// `true` when the next emission at this nesting level needs a comma.
    need_comma: Vec<bool>,
    /// `true` immediately after `key()` — the value belongs to that key.
    pending_value: bool,
    /// Single-line mode: no newlines or indentation (JSONL emission).
    compact: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// An empty writer at nesting depth zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            out: String::new(),
            indent: 0,
            need_comma: vec![false],
            pending_value: false,
            compact: false,
        }
    }

    /// An empty writer in single-line (compact) mode: no newlines or
    /// indentation, so the finished document fits one JSONL record. Key
    /// order and number formatting are identical to the pretty writer.
    #[must_use]
    pub fn compact() -> Self {
        Self {
            compact: true,
            ..Self::new()
        }
    }

    /// Terminates the document with a trailing newline and returns it.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// Starts a new value: handles comma, newline and indentation unless
    /// the value directly follows its key.
    fn begin_value(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        let top = self.need_comma.last_mut().expect("writer has a level");
        if *top {
            self.out.push(',');
            if self.compact {
                self.out.push(' ');
            }
        }
        *top = true;
        if self.indent > 0 && !self.compact {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
    }

    /// Emits an object key; the next value emitted belongs to it.
    pub fn key(&mut self, k: &str) {
        self.begin_value();
        let _ = write!(self.out, "\"{}\": ", escape(k));
        self.pending_value = true;
    }

    /// Opens a `{ ... }` object.
    pub fn open_obj(&mut self) {
        self.begin_value();
        self.out.push('{');
        self.indent += 1;
        self.need_comma.push(false);
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) {
        self.close_with('}');
    }

    /// Opens a `[ ... ]` array.
    pub fn open_arr(&mut self) {
        self.begin_value();
        self.out.push('[');
        self.indent += 1;
        self.need_comma.push(false);
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) {
        self.close_with(']');
    }

    fn close_with(&mut self, ch: char) {
        let had_items = self.need_comma.pop().expect("balanced writer");
        self.indent -= 1;
        if had_items && !self.compact {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push(ch);
    }

    /// Emits a string value (array element, or the value after `key`).
    pub fn str_item(&mut self, v: &str) {
        self.begin_value();
        let _ = write!(self.out, "\"{}\"", escape(v));
    }

    /// Emits `"k": "v"`.
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_item(v);
    }

    /// Emits an unsigned integer value.
    pub fn u64_item(&mut self, v: u64) {
        self.begin_value();
        let _ = write!(self.out, "{v}");
    }

    /// Emits `"k": v` for an unsigned integer.
    pub fn u64_field(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_item(v);
    }

    /// Emits `"k": v` for a boolean.
    pub fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        self.begin_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a finite float with Rust's shortest-roundtrip formatting
    /// (deterministic for identical bit patterns), forcing a decimal
    /// point so the value parses as a JSON number of float kind.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — JSON has no encoding for them.
    pub fn f64_field(&mut self, k: &str, v: f64) {
        assert!(v.is_finite(), "JSON numbers must be finite");
        self.key(k);
        self.begin_value();
        let s = format!("{v}");
        self.out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// `<path>.tmp` file first, are fsynced, and are renamed over `path` only
/// once durable. A crash at any point leaves either the old report or the
/// new one — never a truncated JSON that downstream tooling would parse
/// as a valid (but wrong) document. Every report-emitting binary routes
/// its `--out` through this.
///
/// # Errors
///
/// Propagates the underlying I/O error; the temporary file is removed on
/// a best-effort basis when any step fails.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let write = (|| {
        let mut f = File::create(tmp)?;
        f.write_all(contents.as_bytes())?;
        // Durability before visibility: the rename must never expose
        // bytes that are not on disk yet.
        f.sync_all()?;
        std::fs::rename(tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    write
}

// ---------------------------------------------------------------------
// Checksummed line framing (run and job journals, cache entries)
// ---------------------------------------------------------------------

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: small, dependency-free, deterministic
/// across platforms and processes (unlike `DefaultHasher`, which is
/// randomly seeded per process). Used both for content-addressing
/// (journal run keys, the result cache) and for per-record checksums.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a framed line failed verification; see [`checksum_unframe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The line does not carry the `<16-hex> <payload>` frame at all —
    /// a foreign or legacy line, not evidence of corruption.
    Unframed,
    /// The frame parses but the checksum does not match the payload:
    /// the record was corrupted (flipped bytes, partial overwrite,
    /// mid-file truncation) after it was written.
    Corrupt,
}

/// Frames one single-line record as `<16-hex FNV-1a> <payload>` so any
/// later corruption — anywhere in the line, not just a torn tail — is
/// detectable. The payload must not contain a newline.
#[must_use]
pub fn checksum_frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "framed payloads are one line");
    format!("{:016x} {payload}", fnv1a(payload.as_bytes()))
}

/// Verifies a framed line and returns the payload.
///
/// # Errors
///
/// [`FrameError::Unframed`] when the line lacks the frame shape (so
/// callers can treat foreign lines as merely skippable), and
/// [`FrameError::Corrupt`] when the frame is present but the checksum
/// disagrees with the payload bytes.
pub fn checksum_unframe(line: &str) -> Result<&str, FrameError> {
    let (sum, payload) = line.split_once(' ').ok_or(FrameError::Unframed)?;
    if sum.len() != 16 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(FrameError::Unframed);
    }
    let want = u64::from_str_radix(sum, 16).map_err(|_| FrameError::Unframed)?;
    if fnv1a(payload.as_bytes()) == want {
        Ok(payload)
    } else {
        Err(FrameError::Corrupt)
    }
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parsing: journal replay and the service wire
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so integer seeds
/// round-trip without an `f64` detour and floats re-parse to the exact
/// bit pattern the shortest-roundtrip writer emitted.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `{...}` — insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// `[...]`.
    Arr(Vec<Json>),
    /// A string literal, unescaped.
    Str(String),
    /// A number, as raw text.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as `u64` (exact; no float detour).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a finite `f64`. Text that overflows (`1e999`) is
    /// refused: [`JsonWriter`] cannot write it back.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts — far above the
/// few levels our own lines use. The bound keeps the recursive descent's
/// stack use small on any thread, so a hostile line of 60,000 `[` is a
/// parse failure instead of a stack overflow.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON document (with nothing but whitespace after it).
/// Returns `None` on any syntax error or on nesting deeper than
/// [`MAX_JSON_DEPTH`] — the journal treats unparsable lines as lost
/// work, not fatal corruption.
#[must_use]
pub fn parse_json(text: &str) -> Option<Json> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal(b"true", Json::Bool(true)),
            b'f' => self.literal(b"false", Json::Bool(false)),
            b'n' => self.literal(b"null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses one object or array one level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Json>) -> Option<Json> {
        if self.depth == MAX_JSON_DEPTH {
            return None;
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &[u8], v: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            let hex = std::str::from_utf8(hex).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            // Surrogate pairs never appear in our own
                            // output (the writer only \u-escapes control
                            // characters); reject them rather than
                            // misdecode.
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run of plain characters up to the next
                    // quote or backslash in one step. Both are ASCII, so
                    // the run ends on a char boundary of the &str input;
                    // an unterminated string fails at the next `peek`.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        // Validate now so `as_u64`/`as_f64` only see plausible numbers.
        raw.parse::<f64>().ok()?;
        Some(Json::Num(raw.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_and_detects_any_flipped_byte() {
        let payload = "{\"journal\": \"nachos-journal-v1\", \"seed\": 18446744073709551615}";
        let line = checksum_frame(payload);
        assert_eq!(checksum_unframe(&line), Ok(payload));
        // Flip every byte position in turn: the frame must never
        // verify, and never panic.
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert_ne!(
                    checksum_unframe(&flipped),
                    Ok(payload),
                    "flip at byte {i} went undetected"
                );
            }
        }
        // Truncations anywhere fail too.
        for i in 0..line.len() {
            assert_ne!(checksum_unframe(&line[..i]), Ok(payload));
        }
    }

    #[test]
    fn unframed_lines_are_distinguished_from_corrupt_ones() {
        assert_eq!(checksum_unframe("{\"bare\": 1}"), Err(FrameError::Unframed));
        assert_eq!(checksum_unframe(""), Err(FrameError::Unframed));
        assert_eq!(
            checksum_unframe("not-a-checksum {\"x\": 1}"),
            Err(FrameError::Unframed)
        );
        let mut line = checksum_frame("{\"x\": 1}");
        line.push('!');
        assert_eq!(checksum_unframe(&line), Err(FrameError::Corrupt));
    }

    #[test]
    fn nested_document_is_stable() {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.str_field("name", "x\"y");
        w.key("items");
        w.open_arr();
        w.u64_item(1);
        w.u64_item(2);
        w.close_arr();
        w.key("empty");
        w.open_arr();
        w.close_arr();
        w.bool_field("ok", true);
        w.f64_field("ratio", 2.0);
        w.close_obj();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"name\": \"x\\\"y\",\n  \"items\": [\n    1,\n    2\n  ],\n  \
             \"empty\": [],\n  \"ok\": true,\n  \"ratio\": 2.0\n}\n"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape("a\nb\u{1}"), "a\\nb\\u0001");
    }

    #[test]
    fn compact_mode_emits_one_line() {
        let mut w = JsonWriter::compact();
        w.open_obj();
        w.str_field("name", "x");
        w.key("items");
        w.open_arr();
        w.u64_item(1);
        w.u64_item(2);
        w.close_arr();
        w.bool_field("ok", true);
        w.close_obj();
        let json = w.finish();
        assert_eq!(json, "{\"name\": \"x\", \"items\": [1, 2], \"ok\": true}\n");
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("nachos-json-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "{\"a\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 1}\n");
        // Overwrite goes through the same tmp+rename dance.
        write_atomic(&path, "{\"a\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 2}\n");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !Path::new(&tmp).exists(),
            "temporary file is renamed away on success"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parser_handles_nesting_escapes_and_rejects_trailing_junk() {
        let v = parse_json("{\"a\": [1, {\"b\": \"x\\n\\u0041\"}], \"c\": -1.5e3}").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\nA")
        );
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-1500.0));
        assert!(parse_json("{} trailing").is_none());
        assert!(parse_json("{\"a\": }").is_none());
        assert!(parse_json("[1, 2").is_none());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        assert!(parse_json(&arrays(MAX_JSON_DEPTH)).is_some());
        assert!(parse_json(&objects(MAX_JSON_DEPTH)).is_some());
        assert!(parse_json(&arrays(MAX_JSON_DEPTH + 1)).is_none());
        assert!(parse_json(&objects(MAX_JSON_DEPTH + 1)).is_none());
        // The hostile line that used to overflow the stack: on a small
        // thread stack, so a regression fails here instead of passing on
        // a generous main stack.
        let hostile = "[".repeat(60_000);
        let parsed = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || parse_json(&hostile).is_none())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed, "60,000 `[` is rejected");
    }

    #[test]
    fn parser_decodes_long_multibyte_and_escaped_strings_in_linear_time() {
        // A million characters mixing ASCII, 2-, 3- and 4-byte scalars
        // and escapes.
        let unit = "ab\u{e9}\u{4e2d}\u{1f600}\"\\\n\u{1}";
        let text: String = unit.repeat((1 << 20) / unit.chars().count());
        let line = format!("{{\"s\": \"{}\"}}", escape(&text));
        let start = std::time::Instant::now();
        let v = parse_json(&line).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(text.as_str()));
        // A decoder that rescans the rest of the input per character
        // takes seconds here (54 ms at 60k characters, growing with the
        // square); a linear one takes milliseconds, even unoptimized.
        assert!(elapsed.as_secs() < 2, "1M-char string took {elapsed:?}");
        assert_eq!(
            parse_json("\"\\u00e9\\u4E2D/\\/\\b\\f\\t\\r\""),
            Some(Json::Str("\u{e9}\u{4e2d}//\u{8}\u{c}\t\r".into()))
        );
        for bad in [
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
        ] {
            assert_eq!(parse_json(bad), None, "{bad}");
        }
    }
}
