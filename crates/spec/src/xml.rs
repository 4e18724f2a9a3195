//! A minimal XML document model with writer and parser.
//!
//! Implemented from scratch because the allowed dependency set contains no
//! XML crate and the paper's declarative format is XML (§3.3.1). The
//! subset supported is exactly what the spec types need:
//!
//! * elements with attributes and child elements,
//! * text content (entity-escaped),
//! * self-closing tags, comments and an optional `<?xml ?>` declaration.
//!
//! Namespaces, CDATA, DTDs and processing instructions are out of scope.

use std::fmt;

/// Deepest element nesting [`XmlElement::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting from an untrusted file
/// would overflow the stack; every spec this workspace reads nests fewer
/// than ten levels deep.
const MAX_DEPTH: usize = 256;

/// An XML element: name, attributes, text, children.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Concatenated text content (children's text is not included).
    pub text: String,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
}

/// Error produced by [`XmlElement::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl XmlElement {
    /// Create an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder-style: add an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.attrs.push((key.into(), value.to_string()));
        self
    }

    /// Builder-style: add a child element.
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// Builder-style: set text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Look up an attribute value by key.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute parsed to a type, with a descriptive error.
    pub fn parse_attr<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError>
    where
        T::Err: fmt::Display,
    {
        let raw = self.get_attr(key).ok_or_else(|| ParseError {
            offset: 0,
            message: format!("element <{}> missing attribute '{key}'", self.name),
        })?;
        raw.parse().map_err(|e| ParseError {
            offset: 0,
            message: format!(
                "element <{}> attribute '{key}'='{raw}' invalid: {e}",
                self.name
            ),
        })
    }

    /// Iterate children with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// First child with the given tag name.
    pub fn first_child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Required first child with the given tag name.
    pub fn require_child(&self, name: &str) -> Result<&XmlElement, ParseError> {
        self.first_child(name).ok_or_else(|| ParseError {
            offset: 0,
            message: format!("element <{}> missing child <{name}>", self.name),
        })
    }

    /// Serialise to a pretty-printed XML string (two-space indentation),
    /// prefixed with an XML declaration.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            escape_into(&self.text, out);
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write_into(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }

    /// Parse a document; returns the root element.
    pub fn parse(input: &str) -> Result<XmlElement, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_prolog()?;
        let root = p.parse_element()?;
        p.skip_misc();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(root)
    }
}

fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity".to_string())?;
        let entity = &rest[..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                if let Some(hex) = other.strip_prefix("#x") {
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad hex entity &{other};"))?;
                    out.push(char::from_u32(code).ok_or("invalid codepoint")?);
                } else if let Some(dec) = other.strip_prefix('#') {
                    let code: u32 = dec.parse().map_err(|_| format!("bad entity &{other};"))?;
                    out.push(char::from_u32(code).ok_or("invalid codepoint")?);
                } else {
                    return Err(format!("unknown entity &{other};"));
                }
            }
        }
        // Advance the iterator past the entity.
        for _ in 0..=end {
            chars.next();
        }
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements open around the one being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_comment(&mut self) -> Result<bool, ParseError> {
        if !self.starts_with("<!--") {
            return Ok(false);
        }
        let rest = &self.bytes[self.pos + 4..];
        match rest.windows(3).position(|w| w == b"-->") {
            Some(i) => {
                self.pos += 4 + i + 3;
                Ok(true)
            }
            None => Err(self.err("unterminated comment")),
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match self.bytes[self.pos..].windows(2).position(|w| w == b"?>") {
                Some(i) => self.pos += i + 2,
                None => return Err(self.err("unterminated XML declaration")),
            }
        }
        self.skip_misc();
        Ok(())
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            match self.skip_comment() {
                Ok(true) => continue,
                _ => break,
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn parse_attrs(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => break,
                _ => {}
            }
            let key = self.parse_name()?;
            self.skip_ws();
            self.expect_byte(b'=')?;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err("expected quoted attribute value")),
            };
            self.pos += 1;
            let start = self.pos;
            while self.peek().is_some_and(|c| c != quote) {
                self.pos += 1;
            }
            if self.peek().is_none() {
                return Err(self.err("unterminated attribute value"));
            }
            let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            self.pos += 1;
            let value = unescape(&raw).map_err(|m| self.err(m))?;
            attrs.push((key, value));
        }
        Ok(attrs)
    }

    fn parse_element(&mut self) -> Result<XmlElement, ParseError> {
        self.expect_byte(b'<')?;
        let name = self.parse_name()?;
        let attrs = self.parse_attrs()?;
        let mut el = XmlElement {
            name,
            attrs,
            text: String::new(),
            children: Vec::new(),
        };
        self.skip_ws();
        if self.starts_with("/>") {
            self.pos += 2;
            return Ok(el);
        }
        self.expect_byte(b'>')?;
        loop {
            // Text run up to the next markup.
            let start = self.pos;
            while self.peek().is_some_and(|c| c != b'<') {
                self.pos += 1;
            }
            if self.pos > start {
                let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                let unescaped = unescape(&raw).map_err(|m| self.err(m))?;
                let trimmed = unescaped.trim();
                if !trimmed.is_empty() {
                    el.text.push_str(trimmed);
                }
            }
            if self.peek().is_none() {
                return Err(self.err(format!("unterminated element <{}>", el.name)));
            }
            if self.skip_comment()? {
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != el.name {
                    return Err(self.err(format!(
                        "mismatched closing tag </{close}> for <{}>",
                        el.name
                    )));
                }
                self.skip_ws();
                self.expect_byte(b'>')?;
                return Ok(el);
            }
            if self.depth == MAX_DEPTH {
                return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
            }
            self.depth += 1;
            el.children.push(self.parse_element()?);
            self.depth -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_tree() {
        let doc = XmlElement::new("Models")
            .attr("seed", 42)
            .child(
                XmlElement::new("Metric")
                    .attr("resource", "Disk")
                    .attr("persisted", true),
            )
            .child(XmlElement::new("Note").with_text("hello & <world>"));
        let s = doc.to_xml_string();
        let back = XmlElement::parse(&s).unwrap();
        assert_eq!(back.name, "Models");
        assert_eq!(back.get_attr("seed"), Some("42"));
        assert_eq!(back.children.len(), 2);
        assert_eq!(back.children[1].text, "hello & <world>");
        assert_eq!(
            back.first_child("Metric").unwrap().get_attr("persisted"),
            Some("true")
        );
    }

    #[test]
    fn self_closing_tags() {
        let el = XmlElement::parse("<a><b/><c x='1'/></a>").unwrap();
        assert_eq!(el.children.len(), 2);
        assert_eq!(el.children[1].get_attr("x"), Some("1"));
    }

    #[test]
    fn attribute_escaping_roundtrips() {
        let doc = XmlElement::new("t").attr("v", "a\"b'c<d>e&f");
        let s = doc.to_xml_string();
        let back = XmlElement::parse(&s).unwrap();
        assert_eq!(back.get_attr("v"), Some("a\"b'c<d>e&f"));
    }

    #[test]
    fn numeric_entities() {
        let el = XmlElement::parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(el.text, "AB");
    }

    #[test]
    fn comments_and_declaration_are_skipped() {
        let el = XmlElement::parse(
            "<?xml version=\"1.0\"?>\n<!-- top --><a><!-- in --><b/></a><!-- tail -->",
        )
        .unwrap();
        assert_eq!(el.name, "a");
        assert_eq!(el.children.len(), 1);
    }

    #[test]
    fn mismatched_tags_error() {
        let e = XmlElement::parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn unterminated_element_error() {
        assert!(XmlElement::parse("<a><b>").is_err());
        assert!(XmlElement::parse("<a attr=>").is_err());
        assert!(XmlElement::parse("<a x=\"1>").is_err());
    }

    #[test]
    fn trailing_content_error() {
        assert!(XmlElement::parse("<a/><b/>").is_err());
    }

    #[test]
    fn parse_attr_typed() {
        let el = XmlElement::parse("<a n=\"17\" f=\"2.5\" b=\"true\"/>").unwrap();
        assert_eq!(el.parse_attr::<u32>("n").unwrap(), 17);
        assert_eq!(el.parse_attr::<f64>("f").unwrap(), 2.5);
        assert!(el.parse_attr::<bool>("b").unwrap());
        let err = el.parse_attr::<u32>("missing").unwrap_err();
        assert!(err.message.contains("missing attribute"));
        let err = el.parse_attr::<u32>("f").unwrap_err();
        assert!(err.message.contains("invalid"));
    }

    #[test]
    fn require_child_errors_are_descriptive() {
        let el = XmlElement::parse("<a><b/></a>").unwrap();
        assert!(el.require_child("b").is_ok());
        let err = el.require_child("zz").unwrap_err();
        assert!(err.message.contains("missing child <zz>"));
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let el = XmlElement::parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(el.text, "");
    }

    #[test]
    fn deep_nesting_roundtrip() {
        let mut doc = XmlElement::new("leaf").attr("depth", 0);
        for d in 1..=40 {
            doc = XmlElement::new("level").attr("depth", d).child(doc);
        }
        let s = doc.to_xml_string();
        let mut cur = XmlElement::parse(&s).unwrap();
        let mut depth = 40;
        while cur.name == "level" {
            assert_eq!(cur.parse_attr::<i32>("depth").unwrap(), depth);
            depth -= 1;
            cur = cur.children.into_iter().next().unwrap();
        }
        assert_eq!(cur.name, "leaf");
    }

    #[test]
    fn nesting_past_the_depth_limit_is_a_typed_error() {
        let deep = "<a>".repeat(200_000);
        let err = XmlElement::parse(&deep).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        assert_eq!(err.offset, 3 * (MAX_DEPTH + 1));

        let at_limit = format!(
            "{}{}",
            "<a>".repeat(MAX_DEPTH + 1),
            "</a>".repeat(MAX_DEPTH + 1)
        );
        let mut el = XmlElement::parse(&at_limit).expect("the limit itself parses");
        let mut levels = 0;
        while let Some(child) = el.children.pop() {
            el = child;
            levels += 1;
        }
        assert_eq!(levels, MAX_DEPTH);
    }
}
