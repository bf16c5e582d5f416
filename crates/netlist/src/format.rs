//! A minimal structural text format for netlists.
//!
//! Soft/firm IPs ship as structural (often obfuscated) netlists; this module
//! provides the serialization boundary PDAT consumes and produces. The
//! format is line-oriented:
//!
//! ```text
//! design counter
//! input  rst
//! net    d0
//! gate   INV g0 (q0) -> d0
//! dff    DFF g1 init=0 (d0) -> q0
//! assign d0 = 1      # rewiring: constant
//! assign d0 = n:q0   # rewiring: alias
//! output q q0
//! ```
//!
//! Net references are by name; declaration order defines ids.

use crate::cell::CellKind;
use crate::netlist::{Driver, Netlist};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced by [`parse_netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// 1-based character column of the offending token (one past the end
    /// of the line when something is missing).
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, col {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseNetlistError {}

/// A byte-offset tokenizer over one comment-stripped line. Offsets always
/// land on character boundaries (the cursor only advances by whole
/// characters), so every error can report an exact 1-based column even on
/// non-ASCII input.
struct Cursor<'a> {
    text: &'a str,
    line: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(raw: &'a str, line: usize) -> Cursor<'a> {
        let text = raw.split('#').next().unwrap_or(raw);
        Cursor { text, line, pos: 0 }
    }

    fn error_at(&self, byte: usize, message: impl Into<String>) -> ParseNetlistError {
        ParseNetlistError {
            line: self.line,
            column: self.text[..byte].chars().count() + 1,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.text[self.pos..].chars().next() {
            if !c.is_whitespace() {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }

    /// Next token with its start byte: `(`, `)`, `,`, and `->` are
    /// single tokens; anything else is a word running up to whitespace or
    /// one of those delimiters.
    fn next_token(&mut self) -> Option<(usize, &'a str)> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.text[start..];
        let first = rest.chars().next()?;
        let tok_len = match first {
            '(' | ')' | ',' => first.len_utf8(),
            '-' if rest.starts_with("->") => 2,
            _ => {
                let mut len = 0;
                for c in rest.chars() {
                    if c.is_whitespace() || matches!(c, '(' | ')' | ',') {
                        break;
                    }
                    if c == '-' && rest[len..].starts_with("->") {
                        break;
                    }
                    len += c.len_utf8();
                }
                len
            }
        };
        self.pos = start + tok_len;
        Some((start, &rest[..tok_len]))
    }

    fn require(&mut self, what: &str) -> Result<(usize, &'a str), ParseNetlistError> {
        let end = self.text.len();
        self.next_token()
            .ok_or_else(|| self.error_at(end, format!("missing {what}")))
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseNetlistError> {
        let (at, tok) = self.require(&format!("`{p}`"))?;
        if tok == p {
            Ok(())
        } else {
            Err(self.error_at(at, format!("expected `{p}`, found `{tok}`")))
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseNetlistError> {
        if self.at_end() {
            return Ok(());
        }
        let at = self.pos;
        let tok = self.next_token().map(|(_, t)| t).unwrap_or("");
        Err(self.error_at(at, format!("unexpected trailing `{tok}`")))
    }
}

/// Serialize `nl` to the structural text format.
pub fn write_netlist(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("design {}\n", nl.name()));
    for &i in nl.inputs() {
        out.push_str(&format!("input {}\n", nl.net(i).name));
    }
    // Declare remaining nets so names survive a round trip.
    for (net, info) in nl.nets() {
        if !matches!(nl.driver(net), Driver::Input) {
            out.push_str(&format!("net {}\n", info.name));
        }
    }
    for (cid, c) in nl.cells() {
        let pins: Vec<&str> = c.inputs.iter().map(|&n| nl.net(n).name.as_str()).collect();
        if c.kind.is_sequential() {
            out.push_str(&format!(
                "dff {} {} init={} ({}) -> {}\n",
                c.kind.name(),
                cid,
                u8::from(c.init),
                pins.join(", "),
                nl.net(c.output).name
            ));
        } else {
            out.push_str(&format!(
                "gate {} {} ({}) -> {}\n",
                c.kind.name(),
                cid,
                pins.join(", "),
                nl.net(c.output).name
            ));
        }
    }
    for (net, info) in nl.nets() {
        match nl.driver(net) {
            Driver::Const(v) => out.push_str(&format!("assign {} = {}\n", info.name, u8::from(v))),
            Driver::Alias(src) => {
                out.push_str(&format!("assign {} = n:{}\n", info.name, nl.net(src).name))
            }
            _ => {}
        }
    }
    for (port, net) in nl.outputs() {
        out.push_str(&format!("output {} {}\n", port, nl.net(*net).name));
    }
    out
}

/// Parse the structural text format produced by [`write_netlist`].
///
/// Total over arbitrary input: any malformed text — truncated lines, bad
/// tokens, dangling references, doubly-driven nets, self-aliases — comes
/// back as a [`ParseNetlistError`] carrying the 1-based line and column of
/// the offending token. No input can make this function panic.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on any syntax problem or dangling
/// reference.
pub fn parse_netlist(text: &str) -> Result<Netlist, ParseNetlistError> {
    let mut nl = Netlist::new("unnamed");
    let mut by_name: HashMap<String, crate::netlist::NetId> = HashMap::new();

    // First pass: declarations, so forward references in gates work.
    for (i, raw) in text.lines().enumerate() {
        let mut cur = Cursor::new(raw, i + 1);
        if cur.at_end() {
            continue;
        }
        let Some((at, head)) = cur.next_token() else {
            continue;
        };
        match head {
            "design" => {
                let (_, name) = cur.require("design name")?;
                nl = Netlist::new(name);
                by_name.clear();
                cur.expect_end()?;
            }
            "input" => {
                let (_, name) = cur.require("input name")?;
                let id = nl.add_input(name);
                by_name.insert(name.to_string(), id);
                cur.expect_end()?;
            }
            "net" => {
                let (_, name) = cur.require("net name")?;
                let id = nl.add_net(name);
                by_name.insert(name.to_string(), id);
                cur.expect_end()?;
            }
            "gate" | "dff" | "assign" | "output" => {}
            other => return Err(cur.error_at(at, format!("unknown directive `{other}`"))),
        }
    }

    // Second pass: gates, assigns, outputs.
    for (i, raw) in text.lines().enumerate() {
        let mut cur = Cursor::new(raw, i + 1);
        if cur.at_end() {
            continue;
        }
        let Some((_, head)) = cur.next_token() else {
            continue;
        };
        match head {
            "gate" | "dff" => {
                let (kat, kind_s) = cur.require("cell kind")?;
                let kind = CellKind::from_name(kind_s)
                    .ok_or_else(|| cur.error_at(kat, format!("unknown cell kind `{kind_s}`")))?;
                let (_, _cell_name) = cur.require("cell name")?;
                // Optional `init=<0|1>` (emitted for DFFs).
                let mut init = false;
                let save = cur.pos;
                match cur.next_token() {
                    Some((iat, tok)) => {
                        if let Some(v) = tok.strip_prefix("init=") {
                            init = match v {
                                "0" => false,
                                "1" => true,
                                _ => return Err(cur.error_at(iat, format!("bad init value `{v}`"))),
                            };
                        } else {
                            cur.pos = save;
                        }
                    }
                    None => cur.pos = save,
                }
                cur.expect_punct("(")?;
                let mut ins = Vec::new();
                loop {
                    let (at, tok) = cur.require("pin or `)`")?;
                    match tok {
                        ")" => break,
                        "," => continue,
                        _ => {
                            let id = *by_name
                                .get(tok)
                                .ok_or_else(|| cur.error_at(at, format!("unknown net `{tok}`")))?;
                            ins.push(id);
                        }
                    }
                }
                cur.expect_punct("->")?;
                let (oat, out_name) = cur.require("output net")?;
                let out = *by_name
                    .get(out_name)
                    .ok_or_else(|| cur.error_at(oat, format!("unknown output net `{out_name}`")))?;
                cur.expect_end()?;
                nl.try_connect_cell(kind, &ins, out, init)
                    .map_err(|e| cur.error_at(oat, e.to_string()))?;
            }
            "assign" => {
                let (lat, lhs) = cur.require("lhs net")?;
                let (eat, eq) = cur.require("`=`")?;
                if eq != "=" {
                    return Err(cur.error_at(eat, format!("expected `=`, found `{eq}`")));
                }
                let (rat, rhs) = cur.require("rhs")?;
                cur.expect_end()?;
                let lhs_id = *by_name
                    .get(lhs)
                    .ok_or_else(|| cur.error_at(lat, format!("unknown net `{lhs}`")))?;
                if let Some(net) = rhs.strip_prefix("n:") {
                    let src = *by_name
                        .get(net)
                        .ok_or_else(|| cur.error_at(rat, format!("unknown net `{net}`")))?;
                    nl.try_assign_alias(lhs_id, src)
                        .map_err(|e| cur.error_at(rat, e.to_string()))?;
                } else {
                    match rhs {
                        "0" => nl.assign_const(lhs_id, false),
                        "1" => nl.assign_const(lhs_id, true),
                        _ => {
                            return Err(
                                cur.error_at(rat, "rhs must be 0, 1, or n:<net>".to_string())
                            )
                        }
                    }
                }
            }
            "output" => {
                let (_, port) = cur.require("port name")?;
                let (nat, net) = cur.require("net name")?;
                let id = *by_name
                    .get(net)
                    .ok_or_else(|| cur.error_at(nat, format!("unknown net `{net}`")))?;
                nl.add_output(port, id);
                cur.expect_end()?;
            }
            _ => {}
        }
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::sim::Simulator;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("sample");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_cell(CellKind::Nand2, &[a, b], "x");
        let q = nl.add_dff(x, true, "q");
        let y = nl.add_cell(CellKind::Xor2, &[q, a], "y");
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let nl = sample();
        let text = write_netlist(&nl);
        let back = parse_netlist(&text).expect("parses");
        assert_eq!(back.name(), "sample");
        back.validate().expect("valid");
        // Behavioural check on a few cycles.
        let a1 = nl.inputs()[0];
        let b1 = nl.inputs()[1];
        let a2 = back.inputs()[0];
        let b2 = back.inputs()[1];
        let y1 = nl.outputs()[0].1;
        let y2 = back.outputs()[0].1;
        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&back);
        let stimulus = [(false, false), (true, false), (true, true), (false, true)];
        for &(va, vb) in &stimulus {
            s1.set_inputs(&[(a1, va), (b1, vb)]);
            s2.set_inputs(&[(a2, va), (b2, vb)]);
            assert_eq!(s1.value(y1), s2.value(y2));
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn round_trip_preserves_rewiring() {
        let mut nl = sample();
        let x = nl.find_net("x").unwrap();
        nl.assign_const(x, false);
        let text = write_netlist(&nl);
        let back = parse_netlist(&text).expect("parses");
        let xb = back.find_net("x").unwrap();
        assert_eq!(back.driver(xb), Driver::Const(false));
    }

    #[test]
    fn parse_error_reports_line() {
        let bad = "design d\ninput a\ngate BOGUS g0 (a) -> y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("BOGUS"));
    }

    #[test]
    fn unknown_net_rejected() {
        let bad = "design d\ninput a\nnet y\ngate INV g0 (zzz) -> y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert!(e.message.contains("zzz"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "design d\n\n# comment\ninput a # trailing\noutput a a\n";
        let nl = parse_netlist(text).expect("parses");
        assert_eq!(nl.inputs().len(), 1);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    fn parse_error_reports_column() {
        let bad = "design d\ninput a\ngate BOGUS g0 (a) -> y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 3);
        // `BOGUS` starts at column 6 of `gate BOGUS g0 (a) -> y`.
        assert_eq!(e.column, 6);
        assert!(e.to_string().contains("col 6"));
    }

    #[test]
    fn truncated_line_reports_missing_token() {
        let bad = "design d\ninput a\nnet y\ngate INV g0 (a) ->";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("output net"), "got: {}", e.message);
    }

    #[test]
    fn doubly_driven_net_is_an_error_not_a_panic() {
        let bad = "design d\ninput a\nnet y\n\
                   gate INV g0 (a) -> y\ngate BUF g1 (a) -> y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("already driven"), "got: {}", e.message);
    }

    #[test]
    fn self_alias_is_an_error_not_a_panic() {
        let bad = "design d\nnet y\nassign y = n:y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("self-alias"), "got: {}", e.message);
    }

    #[test]
    fn bad_init_value_rejected() {
        let bad = "design d\ninput a\nnet q\ndff DFF g0 init=x (a) -> q\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("init"), "got: {}", e.message);
    }

    #[test]
    fn multibyte_comment_does_not_break_columns() {
        // A multibyte character ahead of the error token must not panic or
        // skew the (character-based) column.
        let bad = "design d\ninput aé\ngate BOGUS g0 (aé) -> y\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.column, 6);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let bad = "design d\ninput a\noutput a a extra\n";
        let e = parse_netlist(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("extra"), "got: {}", e.message);
    }
}
