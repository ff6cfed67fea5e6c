//! Recursive-descent parser for DTD internal subsets.
//!
//! Accepts either a full `<!DOCTYPE name [ … ]>` wrapper or a bare sequence
//! of `<!ELEMENT>` / `<!ATTLIST>` declarations. Comments are skipped;
//! parameter entities are not supported (none of the paper's schemas use
//! them).
//!
//! The parser writes the id-based model directly: each name is interned
//! once (a name borrows the input unless it is not UTF-8), content models
//! go into one post-order node array, attribute strings into one buffer.

use crate::error::DtdError;
use crate::model::{Att, AttKind, Builder, Dtd, Kind, Node, RawDecl};
use smpx_xml::{is_name_byte, is_name_start_byte, is_xml_whitespace};
use std::borrow::Cow;

/// The longest DTD text accepted: the model holds offsets into its names
/// and attribute text (up to three times the input once invalid UTF-8 is
/// replaced) as `u32`.
const MAX_INPUT: usize = 1 << 30;

pub(crate) fn parse(input: &[u8]) -> Result<Dtd, DtdError> {
    if input.len() > MAX_INPUT {
        let msg = format!("DTD text longer than {MAX_INPUT} bytes");
        return Err(DtdError::Syntax { msg, pos: MAX_INPUT });
    }
    let text = std::str::from_utf8(input).ok();
    let mut p = Parser { input, text, pos: 0, b: sized_builder(input) };
    p.skip_ws_and_comments();

    let mut doctype_root: Option<u32> = None;
    if p.eat(b"<!DOCTYPE") {
        p.require_ws()?;
        doctype_root = Some(p.name_id()?);
        p.skip_ws_and_comments();
        if !p.eat(b"[") {
            return Err(p.err("expected '[' opening the internal subset"));
        }
    }

    loop {
        p.skip_ws_and_comments();
        if p.done() {
            break;
        }
        if doctype_root.is_some() && p.peek() == Some(b']') {
            p.pos += 1;
            p.skip_ws_and_comments();
            if !p.eat(b">") {
                return Err(p.err("expected '>' closing DOCTYPE"));
            }
            p.skip_ws_and_comments();
            break;
        }
        if p.eat(b"<!ELEMENT") {
            p.require_ws()?;
            let name = p.name_id()?;
            p.require_ws()?;
            let start = p.b.nodes.len() as u32;
            let kind = p.content_model()?;
            p.skip_ws_and_comments();
            if !p.eat(b">") {
                return Err(p.err("expected '>' closing ELEMENT declaration"));
            }
            p.b.decls.push(RawDecl { name, kind, model: (start, p.b.nodes.len() as u32) });
        } else if p.eat(b"<!ATTLIST") {
            p.require_ws()?;
            let elem = p.name_id()?;
            p.att_defs(elem)?;
        } else if p.eat(b"<!ENTITY") || p.eat(b"<!NOTATION") {
            // Tolerated and skipped: scan to the closing '>'.
            while let Some(c) = p.peek() {
                p.pos += 1;
                if c == b'>' {
                    break;
                }
            }
        } else {
            return Err(p.err("expected a markup declaration"));
        }
    }

    if p.b.decls.is_empty() {
        return Err(DtdError::Empty);
    }
    let root = doctype_root.unwrap_or(p.b.decls[0].name);
    p.b.finish(root)
}

/// A builder sized from counts of the bytes that open what it holds, so
/// that parsing grows none of its arrays: a model name follows a `(`, `|`
/// or `,`; a declaration starts at a `<`; an attribute default is a `#`
/// keyword or a quoted value.
fn sized_builder(input: &[u8]) -> Builder<'_> {
    let mut count = [0usize; 256];
    for &c in input {
        count[c as usize] += 1;
    }
    let opens = count[b'(' as usize];
    let model_names = opens + count[b'|' as usize] + count[b',' as usize];
    let modifiers = count[b'?' as usize] + count[b'*' as usize] + count[b'+' as usize];
    let decls = count[b'<' as usize];
    let atts = count[b'#' as usize] + (count[b'"' as usize] + count[b'\'' as usize]) / 2;
    Builder::new(model_names + 2 * decls + 1, opens + model_names + modifiers, atts, decls)
}

struct Parser<'a> {
    input: &'a [u8],
    /// The input as text, when it is UTF-8: what names and values borrow.
    text: Option<&'a str>,
    pos: usize,
    b: Builder<'a>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> DtdError {
        DtdError::Syntax { msg: msg.to_string(), pos: self.pos }
    }

    fn done(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        // Most tries fail on the first byte: settle those without
        // comparing the rest.
        if self.peek() != Some(lit[0]) {
            return false;
        }
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if is_xml_whitespace(c) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            self.skip_ws();
            if self.eat(b"<!--") {
                while self.pos < self.input.len() && !self.input[self.pos..].starts_with(b"-->") {
                    self.pos += 1;
                }
                self.pos = (self.pos + 3).min(self.input.len());
            } else {
                break;
            }
        }
    }

    fn require_ws(&mut self) -> Result<(), DtdError> {
        match self.peek() {
            Some(c) if is_xml_whitespace(c) => {
                self.skip_ws_and_comments();
                Ok(())
            }
            _ => Err(self.err("expected whitespace")),
        }
    }

    fn name(&mut self) -> Result<Cow<'a, str>, DtdError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start_byte(c) => self.pos += 1,
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek() {
            if is_name_byte(c) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(self.slice(start))
    }

    /// The input from `start` to the current position, as text (invalid
    /// UTF-8 replaced).
    fn slice(&self, start: usize) -> Cow<'a, str> {
        match self.text.and_then(|t| t.get(start..self.pos)) {
            Some(s) => Cow::Borrowed(s),
            None => String::from_utf8_lossy(&self.input[start..self.pos]),
        }
    }

    /// An element name, interned.
    fn name_id(&mut self) -> Result<u32, DtdError> {
        let name = self.name()?;
        Ok(self.b.intern(name))
    }

    /// An element name as a model node.
    fn name_node(&mut self) -> Result<(), DtdError> {
        let id = self.name_id()?;
        self.b.nodes.push(Node::Name(id));
        Ok(())
    }

    /// The content model; a mixed or element model's nodes are appended.
    fn content_model(&mut self) -> Result<Kind, DtdError> {
        if self.eat(b"EMPTY") {
            return Ok(Kind::Empty);
        }
        if self.eat(b"ANY") {
            return Ok(Kind::Any);
        }
        if self.peek() != Some(b'(') {
            // Non-standard shorthand some DTD excerpts use: `#PCDATA`
            // without parentheses (the paper's Fig. 1 uses this style).
            if self.eat(b"#PCDATA") {
                return Ok(Kind::Pcdata);
            }
            return Err(self.err("expected a content model"));
        }
        // Look ahead for mixed content.
        let save = self.pos;
        self.pos += 1; // consume '('
        self.skip_ws_and_comments();
        if self.eat(b"#PCDATA") {
            self.skip_ws_and_comments();
            let start = self.b.nodes.len();
            while self.eat(b"|") {
                self.skip_ws_and_comments();
                self.name_node()?;
                self.skip_ws_and_comments();
            }
            if !self.eat(b")") {
                return Err(self.err("expected ')' in mixed content"));
            }
            let starred = self.eat(b"*");
            let named = self.b.nodes.len() > start;
            if named && !starred {
                return Err(self.err("mixed content with names requires trailing '*'"));
            }
            return Ok(if named { Kind::Mixed } else { Kind::Pcdata });
        }
        // Element content: back up to the '(' and parse a regex.
        self.pos = save;
        self.regex_particle()?;
        Ok(Kind::Children)
    }

    /// cp ::= (name | choice | seq) ('?' | '*' | '+')?
    fn regex_particle(&mut self) -> Result<(), DtdError> {
        self.skip_ws_and_comments();
        if self.eat(b"(") {
            self.regex_group()?;
            if !self.eat(b")") {
                return Err(self.err("expected ')'"));
            }
        } else {
            self.name_node()?;
        }
        let modifier = match self.peek() {
            Some(b'?') => Node::Opt,
            Some(b'*') => Node::Star,
            Some(b'+') => Node::Plus,
            _ => return Ok(()),
        };
        self.pos += 1;
        self.b.nodes.push(modifier);
        Ok(())
    }

    /// group ::= cp ((',' cp)* | ('|' cp)*)
    fn regex_group(&mut self) -> Result<(), DtdError> {
        self.regex_particle()?;
        self.skip_ws_and_comments();
        let sep = match self.peek() {
            Some(c @ (b',' | b'|')) => c,
            _ => return Ok(()),
        };
        let mut parts = 1;
        while self.eat(&[sep]) {
            self.regex_particle()?;
            self.skip_ws_and_comments();
            parts += 1;
        }
        self.b.nodes.push(if sep == b',' { Node::Seq(parts) } else { Node::Choice(parts) });
        Ok(())
    }

    /// The attribute definitions of one `<!ATTLIST>` for element `elem`.
    fn att_defs(&mut self, elem: u32) -> Result<(), DtdError> {
        loop {
            self.skip_ws_and_comments();
            if self.eat(b">") {
                return Ok(());
            }
            let name = self.name()?;
            let name = self.b.text(&name);
            self.require_ws()?;
            let ty = self.att_type()?;
            self.require_ws()?;
            let (kind, value) = if self.eat(b"#REQUIRED") {
                (AttKind::Required, (0, 0))
            } else if self.eat(b"#IMPLIED") {
                (AttKind::Implied, (0, 0))
            } else if self.eat(b"#FIXED") {
                self.require_ws()?;
                (AttKind::Fixed, self.quoted()?)
            } else {
                (AttKind::Default, self.quoted()?)
            };
            self.b.atts.push((elem, Att { name, ty, kind, value }));
        }
    }

    /// The declared type, verbatim, as a range of the attribute text.
    fn att_type(&mut self) -> Result<(u32, u32), DtdError> {
        // Enumerated type?
        if self.peek() == Some(b'(') {
            let start = self.pos;
            while let Some(c) = self.peek() {
                self.pos += 1;
                if c == b')' {
                    return Ok(self.b.text(&self.slice(start)));
                }
            }
            return Err(self.err("unterminated enumerated attribute type"));
        }
        // NOTATION (…)?
        if self.eat(b"NOTATION") {
            self.require_ws()?;
            if self.peek() == Some(b'(') {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b')' {
                        let (from, _) = self.b.text("NOTATION ");
                        let (_, to) = self.b.text(&self.slice(start));
                        return Ok((from, to));
                    }
                }
            }
            return Err(self.err("malformed NOTATION type"));
        }
        let name = self.name()?;
        Ok(self.b.text(&name))
    }

    /// A quoted value, as a range of the attribute text.
    fn quoted(&mut self) -> Result<(u32, u32), DtdError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected a quoted value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let v = self.b.text(&self.slice(start));
                self.pos += 1;
                return Ok(v);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated quoted value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttDefault, ContentModel, Regex};

    const XMARK_EXCERPT: &[u8] = br#"<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category ID #REQUIRED>
]>"#;

    #[test]
    fn parses_the_papers_fig1_excerpt() {
        let dtd = Dtd::parse(XMARK_EXCERPT).unwrap();
        assert_eq!(dtd.root(), "site");
        assert_eq!(*dtd.content("incategory"), ContentModel::Empty);
        assert_eq!(dtd.required_attrs("incategory").collect::<Vec<_>>(), vec!["category"]);
        // Unlisted tags default to PCDATA.
        assert_eq!(*dtd.content("location"), ContentModel::Pcdata);
        match dtd.content("item") {
            ContentModel::Children(Regex::Seq(parts)) => assert_eq!(parts.len(), 6),
            other => panic!("unexpected content model {other:?}"),
        }
        assert!(!dtd.is_recursive());
    }

    #[test]
    fn parses_example2_dtd() {
        let dtd = Dtd::parse(
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        )
        .unwrap();
        assert_eq!(dtd.root(), "a");
        match dtd.content("a") {
            ContentModel::Children(Regex::Star(inner)) => match &**inner {
                Regex::Choice(cs) => assert_eq!(cs.len(), 2),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match dtd.content("c") {
            ContentModel::Children(Regex::Seq(parts)) => {
                assert_eq!(parts[0], Regex::Name("b".into()));
                assert_eq!(parts[1], Regex::Opt(Box::new(Regex::Name("b".into()))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_internal_subset_without_doctype() {
        let dtd = Dtd::parse(b"<!ELEMENT r (x?)> <!ELEMENT x EMPTY>").unwrap();
        assert_eq!(dtd.root(), "r");
    }

    #[test]
    fn mixed_content() {
        let dtd = Dtd::parse(b"<!ELEMENT p (#PCDATA | em | strong)*>").unwrap();
        assert_eq!(*dtd.content("p"), ContentModel::Mixed(vec!["em".into(), "strong".into()]));
        assert!(dtd.content("p").allows_text());
    }

    #[test]
    fn nested_groups_and_modifiers() {
        let dtd = Dtd::parse(b"<!ELEMENT r ((a | b)+, c?, (d, e)*)>").unwrap();
        match dtd.content("r") {
            ContentModel::Children(Regex::Seq(parts)) => {
                assert!(matches!(parts[0], Regex::Plus(_)));
                assert!(matches!(parts[1], Regex::Opt(_)));
                assert!(matches!(parts[2], Regex::Star(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attlist_kinds() {
        let dtd = Dtd::parse(
            br#"<!ELEMENT e EMPTY>
                <!ATTLIST e id ID #REQUIRED
                            opt CDATA #IMPLIED
                            fix CDATA #FIXED "v"
                            def (x|y) "x">"#,
        )
        .unwrap();
        let attrs = dtd.attrs("e");
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs[0].default, AttDefault::Required);
        assert_eq!(attrs[1].default, AttDefault::Implied);
        assert_eq!(attrs[2].default, AttDefault::Fixed("v".into()));
        assert_eq!(attrs[3].default, AttDefault::Default("x".into()));
        assert_eq!(attrs[3].ty, "(x|y)");
    }

    #[test]
    fn attlist_for_undeclared_element_is_kept() {
        let dtd = Dtd::parse(b"<!ELEMENT r (ghost)> <!ATTLIST ghost g CDATA #REQUIRED>").unwrap();
        assert_eq!(dtd.required_attrs("ghost").count(), 1);
    }

    #[test]
    fn comments_and_entities_skipped() {
        let dtd = Dtd::parse(
            b"<!-- header --> <!ELEMENT r EMPTY> <!ENTITY nbsp \"&#160;\"> <!-- tail -->",
        )
        .unwrap();
        assert_eq!(dtd.root(), "r");
    }

    #[test]
    fn pcdata_without_parens_tolerated() {
        // The paper's Example 2 writes `<!ELEMENT b #PCDATA>`.
        let dtd = Dtd::parse(b"<!ELEMENT b #PCDATA>").unwrap();
        assert_eq!(*dtd.content("b"), ContentModel::Pcdata);
    }

    #[test]
    fn syntax_errors() {
        assert!(Dtd::parse(b"<!ELEMENT >").is_err());
        assert!(Dtd::parse(b"<!ELEMENT a (b|>").is_err());
        assert!(Dtd::parse(b"<!DOCTYPE a <!ELEMENT a EMPTY>").is_err());
        assert!(Dtd::parse(b"nonsense").is_err());
        assert!(Dtd::parse(b"").is_err());
        assert!(Dtd::parse(b"<!ATTLIST e a CDATA >").is_err());
    }

    #[test]
    fn duplicate_element_rejected() {
        assert!(matches!(
            Dtd::parse(b"<!ELEMENT a EMPTY> <!ELEMENT a EMPTY>"),
            Err(DtdError::DuplicateElement(_))
        ));
    }
}
