//! A line-oriented N-Triples parser and serializer.
//!
//! Supports the subset of N-Triples needed for the datasets the paper works
//! with: IRI subjects/predicates, IRI or literal objects, typed literals
//! (`^^<iri>`), language tags (`@lang`), `#` comments, and the standard string
//! escapes (`\t \n \r \" \\ \uXXXX \UXXXXXXXX`). Blank nodes are intentionally
//! rejected: the paper's data model (Section 2.1) only considers URI subjects.
//!
//! An IRI, or a literal's lexical form, that contains no escape is taken as
//! a slice of the line and interned from there, so a term the graph has seen
//! before costs a dictionary lookup and no allocation. Only a term with an
//! escape is decoded into a fresh string.

use std::borrow::Cow;

use crate::error::ParseError;
use crate::graph::Graph;
use crate::term::{Literal, Object};

/// Parses an entire N-Triples document into a [`Graph`].
pub fn parse_ntriples(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    parse_ntriples_into(input, &mut graph)?;
    Ok(graph)
}

/// Parses an N-Triples document, adding its triples to an existing graph.
pub fn parse_ntriples_into(input: &str, graph: &mut Graph) -> Result<(), ParseError> {
    for (line_no, raw_line) in input.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parser = LineParser::new(line, line_no + 1);
        parser.parse_statement(graph)?;
    }
    Ok(())
}

/// Serializes a graph as N-Triples, one triple per line, in insertion order.
pub fn write_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for triple in graph.triples() {
        out.push('<');
        out.push_str(&escape_iri(graph.iri(triple.subject)));
        out.push_str("> <");
        out.push_str(&escape_iri(graph.iri(triple.predicate)));
        out.push_str("> ");
        match triple.object {
            Object::Iri(id) => {
                out.push('<');
                out.push_str(&escape_iri(graph.iri(id)));
                out.push('>');
            }
            Object::Literal(id) => {
                let literal = graph.dictionary().literal(id);
                out.push('"');
                out.push_str(&escape_string(&literal.lexical));
                out.push('"');
                if let Some(lang) = &literal.language {
                    out.push('@');
                    out.push_str(lang);
                } else if let Some(dt) = &literal.datatype {
                    out.push_str("^^<");
                    out.push_str(&escape_iri(dt));
                    out.push('>');
                }
            }
        }
        out.push_str(" .\n");
    }
    out
}

fn escape_iri(iri: &str) -> String {
    // IRIs in our datasets never contain '>' or control characters, but be
    // defensive so round-trips cannot silently corrupt data.
    iri.replace('\\', "\\\\").replace('>', "\\>")
}

fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

struct LineParser<'a> {
    text: &'a str,
    /// Byte offset of the next character; always on a character boundary.
    pos: usize,
    line: usize,
}

impl<'a> LineParser<'a> {
    fn new(line: &'a str, line_no: usize) -> Self {
        LineParser {
            text: line,
            pos: 0,
            line: line_no,
        }
    }

    /// The character at `pos`; the caller has seen a byte there.
    fn next_char(&self) -> char {
        self.text[self.pos..]
            .chars()
            .next()
            .expect("a byte at pos starts a character")
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.pos + 1, message)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| (b as char).is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {:?}",
                byte as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn parse_statement(&mut self, graph: &mut Graph) -> Result<(), ParseError> {
        self.skip_ws();
        let subject = self.parse_iri_ref()?;
        self.skip_ws();
        let predicate = self.parse_iri_ref()?;
        self.skip_ws();
        let object = self.parse_object()?;
        self.skip_ws();
        self.expect(b'.')?;
        self.skip_ws();
        if let Some(next) = self.peek() {
            if next != b'#' {
                return Err(self.error("unexpected content after '.'"));
            }
        }
        let s = graph.intern_iri(&subject);
        let p = graph.intern_iri(&predicate);
        let o = match object {
            ParsedObject::Iri(iri) => Object::Iri(graph.intern_iri(&iri)),
            ParsedObject::Literal(literal) => {
                Object::Literal(graph.dictionary_mut().intern_literal(literal))
            }
        };
        graph.insert(s, p, o);
        Ok(())
    }

    fn parse_iri_ref(&mut self) -> Result<Cow<'a, str>, ParseError> {
        match self.peek() {
            Some(b'<') => {}
            Some(b'_') => return Err(self.error(
                "blank nodes are not supported: the structuredness framework assumes URI subjects",
            )),
            _ => return Err(self.error("expected IRI starting with '<'")),
        }
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated IRI")),
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                // ASCII skips `skip_iri_char`'s UTF-8 decode: without this
                // arm the whole parse takes about a third longer.
                Some(byte) if byte.is_ascii() => {
                    if (byte as char).is_whitespace() {
                        return Err(self.error("whitespace inside IRI"));
                    }
                    self.pos += 1;
                }
                Some(_) => self.skip_iri_char()?,
            }
        }
        // An escape: decode the rest into an owned string.
        let mut iri = self.text[start..self.pos].to_owned();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated IRI")),
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(iri));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'>') => {
                            iri.push('>');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            iri.push('\\');
                            self.pos += 1;
                        }
                        Some(b'u') | Some(b'U') => {
                            let ch = self.parse_unicode_escape()?;
                            iri.push(ch);
                        }
                        _ => return Err(self.error("invalid escape in IRI")),
                    }
                }
                Some(_) => {
                    let from = self.pos;
                    self.skip_iri_char()?;
                    iri.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    /// Steps over one IRI character (a full UTF-8 character, not just a
    /// byte), refusing whitespace.
    fn skip_iri_char(&mut self) -> Result<(), ParseError> {
        let ch = self.next_char();
        if ch.is_whitespace() {
            return Err(self.error("whitespace inside IRI"));
        }
        self.pos += ch.len_utf8();
        Ok(())
    }

    fn parse_object(&mut self) -> Result<ParsedObject<'a>, ParseError> {
        match self.peek() {
            Some(b'<') => Ok(ParsedObject::Iri(self.parse_iri_ref()?)),
            Some(b'"') => self.parse_literal().map(ParsedObject::Literal),
            Some(b'_') => Err(self.error(
                "blank nodes are not supported: the structuredness framework assumes URI subjects",
            )),
            _ => Err(self.error("expected IRI or literal object")),
        }
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let text = self.text.as_bytes();
        while self.pos < text.len() && !matches!(text[self.pos], b'"' | b'\\') {
            self.pos += 1;
        }
        let lexical = match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Cow::Borrowed(&self.text[start..self.pos - 1])
            }
            _ => Cow::Owned(self.decode_lexical(start)?),
        };
        // Optional language tag or datatype.
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.error("empty language tag"));
                }
                let tag = self.text[start..self.pos].to_owned();
                Ok(Literal::lang(lexical, tag))
            }
            Some(b'^') => {
                self.pos += 1;
                self.expect(b'^')?;
                let datatype = self.parse_iri_ref()?;
                Ok(Literal::typed(lexical, datatype))
            }
            _ => Ok(Literal::simple(lexical)),
        }
    }

    /// Decodes a lexical form that has an escape, from its opening quote's
    /// next byte `start` up to the closing quote, which it consumes.
    fn decode_lexical(&mut self, start: usize) -> Result<String, ParseError> {
        let mut lexical = self.text[start..self.pos].to_owned();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(lexical);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            lexical.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            lexical.push('\\');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            lexical.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            lexical.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            lexical.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') | Some(b'U') => {
                            let ch = self.parse_unicode_escape()?;
                            lexical.push(ch);
                        }
                        _ => return Err(self.error("invalid escape in string literal")),
                    }
                }
                Some(_) => {
                    let ch = self.next_char();
                    lexical.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, ParseError> {
        let long = match self.peek() {
            Some(b'u') => false,
            Some(b'U') => true,
            _ => return Err(self.error("expected unicode escape")),
        };
        self.pos += 1;
        let len = if long { 8 } else { 4 };
        if self.pos + len > self.text.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = self
            .text
            .get(self.pos..self.pos + len)
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| self.error("invalid hex in unicode escape"))?;
        self.pos += len;
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }
}

enum ParsedObject<'a> {
    Iri(Cow<'a, str>),
    Literal(Literal),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = "\
# a comment line
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/alice> <http://ex/name> \"Alice\" .

<http://ex/alice> <http://ex/birthDate> \"1980-01-01\"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex/alice> <http://ex/description> \"sagt \\\"hallo\\\"\"@de . # trailing comment
";
        let graph = parse_ntriples(doc).expect("document parses");
        assert_eq!(graph.len(), 4);
        assert_eq!(graph.subject_count(), 1);
        assert_eq!(graph.subjects_of_sort_named("http://ex/Person").len(), 1);
    }

    #[test]
    fn round_trips_through_serializer() {
        let doc = "\
<http://ex/s> <http://ex/p> <http://ex/o> .
<http://ex/s> <http://ex/q> \"line\\nbreak\\t\\\"quoted\\\"\" .
<http://ex/s> <http://ex/r> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/s> <http://ex/l> \"bonjour\"@fr .
";
        let graph = parse_ntriples(doc).expect("parses");
        let serialized = write_ntriples(&graph);
        let reparsed = parse_ntriples(&serialized).expect("round trip parses");
        assert_eq!(reparsed.len(), graph.len());
        let original: std::collections::BTreeSet<String> = doc
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.trim().to_owned())
            .collect();
        let round: std::collections::BTreeSet<String> =
            serialized.lines().map(|l| l.trim().to_owned()).collect();
        assert_eq!(original, round);
    }

    #[test]
    fn unicode_escapes_are_decoded() {
        let doc = "<http://ex/s> <http://ex/p> \"caf\\u00E9\" .\n";
        let graph = parse_ntriples(doc).expect("parses");
        let triple = graph.triples().next().unwrap();
        let Object::Literal(id) = triple.object else {
            panic!("expected literal")
        };
        assert_eq!(graph.dictionary().literal(id).lexical, "café");
    }

    #[test]
    fn rejects_blank_nodes() {
        let err = parse_ntriples("_:b1 <http://ex/p> <http://ex/o> .\n").unwrap_err();
        assert!(err.message.contains("blank nodes"));
    }

    #[test]
    fn rejects_missing_dot() {
        let err = parse_ntriples("<http://ex/s> <http://ex/p> <http://ex/o>\n").unwrap_err();
        assert!(err.to_string().contains("expected '.'"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_garbage_after_dot() {
        let err =
            parse_ntriples("<http://ex/s> <http://ex/p> <http://ex/o> . garbage\n").unwrap_err();
        assert!(err.message.contains("unexpected content"));
    }

    #[test]
    fn rejects_unterminated_literal() {
        let err = parse_ntriples("<http://ex/s> <http://ex/p> \"open .\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn an_escaped_iri_interns_to_the_same_id_as_its_plain_form() {
        let doc = "<http://ex/a\\u0062> <http://ex/p> <http://ex/ab> .\n";
        let graph = parse_ntriples(doc).expect("parses");
        let triple = graph.triples().next().unwrap();
        assert_eq!(triple.object, Object::Iri(triple.subject));
        assert_eq!(graph.iri(triple.subject), "http://ex/ab");
    }

    #[test]
    fn unicode_whitespace_inside_an_iri_is_rejected_where_it_stands() {
        // U+00A0 and U+3000 are whitespace to `char::is_whitespace`; the
        // column is the byte offset in the trimmed line, plus one.
        for (line, column) in [
            ("<http://ex/a\u{a0}b> <http://ex/p> <http://ex/o> .", 13),
            ("<http://ex/s> <http://ex/p\u{3000}q> <http://ex/o> .", 27),
            (
                "<http://ex/s> <http://ex/p> <http://ex/\\u006F\u{3000}> .",
                46,
            ),
        ] {
            let doc = format!("<http://ex/s> <http://ex/p> <http://ex/o> .\n{line}\n");
            let err = parse_ntriples(&doc).unwrap_err();
            assert_eq!(err.message, "whitespace inside IRI", "{line}");
            assert_eq!((err.line, err.column), (2, column), "{line}");
        }
    }

    #[test]
    fn reports_line_numbers() {
        let doc = "<http://ex/s> <http://ex/p> <http://ex/o> .\nnot a triple\n";
        let err = parse_ntriples(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
