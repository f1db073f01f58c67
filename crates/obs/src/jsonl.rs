//! JSONL export/import: one event per line, hand-rolled (the workspace
//! deliberately has no serde), with a parser that round-trips exactly.
//!
//! Line schema (field order fixed, all fields required):
//!
//! ```json
//! {"seq":0,"t":100,"end":250,"kind":"span","thread":1,"entity":"peer:7000","name":"net.xmit","a":0,"b":65536}
//! ```
//!
//! `kind` is `"span"` or `"instant"`; `entity` is `"none"` or
//! `"<kind>:<id>"`. Names are escaped minimally (`\\`, `\"`, `\n`, `\t`,
//! `\r`) so arbitrary strings survive the round trip.

use crate::event::{Entity, EntityKind, Event, EventKind};
use std::borrow::Cow;
use std::fmt;

/// Render events as JSONL, one per line, trailing newline included when
/// non-empty.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        render_event(e, &mut out);
        out.push('\n');
    }
    out
}

fn render_event(e: &Event, out: &mut String) {
    use fmt::Write as _;
    let kind = match e.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    };
    let _ = write!(
        out,
        "{{\"seq\":{},\"t\":{},\"end\":{},\"kind\":\"{}\",\"thread\":{},\"entity\":\"{}\",\"name\":\"",
        e.seq, e.t, e.end, kind, e.thread, e.entity
    );
    escape_into(&e.name, out);
    let _ = write!(out, "\",\"a\":{},\"b\":{}}}", e.a, e.b);
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Why a JSONL document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSONL document produced by [`to_jsonl`]. Blank lines are
/// skipped; any other deviation from the schema is an error.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|msg| ParseError { line: idx + 1, msg })?);
    }
    Ok(events)
}

struct Scan<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn new(s: &'a str) -> Self {
        Scan {
            bytes: s.as_bytes(),
            i: 0,
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.i))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn u64(&mut self) -> Result<u64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected digits at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.i])
            .map_err(|_| "non-utf8 digits".to_string())?
            .parse()
            .map_err(|e| format!("bad integer: {e}"))
    }

    /// A quoted string with the minimal escapes [`escape_into`] emits.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "non-utf8 string".to_string());
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.i += 1;
                    out.push(match esc {
                        b'\\' => b'\\',
                        b'"' => b'"',
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    });
                }
                Some(b) => {
                    self.i += 1;
                    out.push(b);
                }
            }
        }
    }

    /// `"key":` with the given literal key.
    fn key(&mut self, name: &str) -> Result<(), String> {
        let got = self.string()?;
        if got != name {
            return Err(format!("expected key `{name}`, got `{got}`"));
        }
        self.expect(b':')
    }

    fn done(&self) -> bool {
        self.i == self.bytes.len()
    }
}

fn parse_line(line: &str) -> Result<Event, String> {
    let mut s = Scan::new(line.trim());
    s.expect(b'{')?;
    s.key("seq")?;
    let seq = s.u64()?;
    s.expect(b',')?;
    s.key("t")?;
    let t = s.u64()?;
    s.expect(b',')?;
    s.key("end")?;
    let end = s.u64()?;
    s.expect(b',')?;
    s.key("kind")?;
    let kind = match s.string()?.as_str() {
        "span" => EventKind::Span,
        "instant" => EventKind::Instant,
        other => return Err(format!("unknown kind `{other}`")),
    };
    s.expect(b',')?;
    s.key("thread")?;
    let thread = s.u64()?;
    s.expect(b',')?;
    s.key("entity")?;
    let entity = parse_entity(&s.string()?)?;
    s.expect(b',')?;
    s.key("name")?;
    let name = s.string()?;
    s.expect(b',')?;
    s.key("a")?;
    let a = s.u64()?;
    s.expect(b',')?;
    s.key("b")?;
    let b = s.u64()?;
    s.expect(b'}')?;
    if !s.done() {
        return Err("trailing bytes after object".to_string());
    }
    if end < t {
        return Err(format!("span ends before it starts ({end} < {t})"));
    }
    if kind == EventKind::Instant && end != t {
        return Err("instant with end != t".to_string());
    }
    Ok(Event {
        seq,
        t,
        end,
        kind,
        thread,
        entity,
        name: Cow::Owned(name),
        a,
        b,
    })
}

fn parse_entity(s: &str) -> Result<Entity, String> {
    if s == "none" {
        return Ok(Entity::NONE);
    }
    let (kind, id) = s
        .split_once(':')
        .ok_or_else(|| format!("bad entity `{s}`"))?;
    let kind = EntityKind::parse(kind).ok_or_else(|| format!("unknown entity kind `{kind}`"))?;
    if kind == EntityKind::None {
        return Err("`none` takes no id".to_string());
    }
    let id = id.parse().map_err(|e| format!("bad entity id: {e}"))?;
    Ok(Entity { kind, id })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t: u64, end: u64, kind: EventKind, name: &'static str) -> Event {
        Event {
            seq,
            t,
            end,
            kind,
            thread: 1,
            entity: Entity::peer(7000),
            name: Cow::Borrowed(name),
            a: 5,
            b: 6,
        }
    }

    #[test]
    fn round_trips_simple_events() {
        let events = vec![
            ev(0, 10, 20, EventKind::Span, "disk.read"),
            ev(1, 15, 15, EventKind::Instant, "cache.hit"),
        ];
        let text = to_jsonl(&events);
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn round_trips_escaped_names() {
        let mut e = ev(0, 1, 1, EventKind::Instant, "x");
        e.name = Cow::Owned("we\"ird\\na\nme\t!".to_string());
        let text = to_jsonl(std::slice::from_ref(&e));
        assert_eq!(parse_jsonl(&text).unwrap(), vec![e]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_jsonl("{\"seq\":0}").is_err());
        assert!(parse_jsonl("not json").is_err());
        // span that ends before it starts
        let bad = "{\"seq\":0,\"t\":9,\"end\":5,\"kind\":\"span\",\"thread\":0,\"entity\":\"none\",\"name\":\"x\",\"a\":0,\"b\":0}";
        assert!(parse_jsonl(bad).is_err());
    }

    #[test]
    fn skips_blank_lines_and_reports_line_numbers() {
        let text = "\n{\"seq\":0,\"t\":1,\"end\":1,\"kind\":\"instant\",\"thread\":0,\"entity\":\"none\",\"name\":\"x\",\"a\":0,\"b\":0}\n\nbroken\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(parse_jsonl(&text.replace("broken\n", "")).is_ok());
    }

    #[test]
    fn entity_forms() {
        assert_eq!(parse_entity("none").unwrap(), Entity::NONE);
        assert_eq!(parse_entity("mof:3").unwrap(), Entity::mof(3));
        assert!(parse_entity("none:1").is_err());
        assert!(parse_entity("peer").is_err());
        assert!(parse_entity("weird:1").is_err());
    }
}
