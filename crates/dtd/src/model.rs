//! Schema model: element declarations, content models, attribute lists.
//!
//! A parsed [`Dtd`] is held over dense **element ids** — every name the
//! DTD mentions, in name order — and flat arrays: one post-order node array
//! for all content models, one attribute table, one containment list. The
//! string forms ([`ElementDecl`], [`ContentModel`], [`Regex`], [`AttDef`])
//! are built from those arrays on first request, for the callers that read
//! them; the static analysis never does.

use crate::analysis::DtdAnalysis;
use crate::error::DtdError;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// A regular expression over child element names (the body of an element
/// content model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// A child element.
    Name(String),
    /// Concatenation `(a, b, …)`.
    Seq(Vec<Regex>),
    /// Alternation `(a | b | …)`.
    Choice(Vec<Regex>),
    /// `r?`.
    Opt(Box<Regex>),
    /// `r*`.
    Star(Box<Regex>),
    /// `r+`.
    Plus(Box<Regex>),
}

impl Regex {
    /// Can this expression match the empty sequence?
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Name(_) => false,
            Regex::Seq(rs) => rs.iter().all(Regex::nullable),
            Regex::Choice(rs) => rs.iter().any(Regex::nullable),
            Regex::Opt(_) | Regex::Star(_) => true,
            Regex::Plus(r) => r.nullable(),
        }
    }

    /// All element names mentioned.
    pub fn names(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Regex::Name(n) => {
                out.insert(n);
            }
            Regex::Seq(rs) | Regex::Choice(rs) => rs.iter().for_each(|r| r.collect_names(out)),
            Regex::Opt(r) | Regex::Star(r) | Regex::Plus(r) => r.collect_names(out),
        }
    }
}

/// Content model of an element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY`.
    Empty,
    /// `ANY` — any sequence of declared elements and text.
    Any,
    /// `(#PCDATA)` — text only.
    Pcdata,
    /// `(#PCDATA | a | b)*` — mixed content.
    Mixed(Vec<String>),
    /// Element content: a regular expression over child names.
    Children(Regex),
}

impl ContentModel {
    /// Can an instance of this content be completely empty (no child
    /// elements and no mandatory text)?  Text is never mandatory in XML, so
    /// this is true for everything except a non-nullable children model.
    pub fn can_be_empty(&self) -> bool {
        match self {
            ContentModel::Empty | ContentModel::Any | ContentModel::Pcdata => true,
            ContentModel::Mixed(_) => true,
            ContentModel::Children(r) => r.nullable(),
        }
    }

    /// May character data appear directly inside this content?
    pub fn allows_text(&self) -> bool {
        matches!(self, ContentModel::Any | ContentModel::Pcdata | ContentModel::Mixed(_))
    }

    /// The set of element names that may appear as direct children.
    pub fn child_names(&self) -> BTreeSet<&str> {
        match self {
            ContentModel::Empty | ContentModel::Pcdata | ContentModel::Any => BTreeSet::new(),
            ContentModel::Mixed(ns) => ns.iter().map(String::as_str).collect(),
            ContentModel::Children(r) => r.names(),
        }
    }
}

/// How an attribute is defaulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttDefault {
    /// `#REQUIRED` — must be present in every instance.
    Required,
    /// `#IMPLIED` — optional.
    Implied,
    /// `#FIXED "v"` — optional in the instance, value fixed.
    Fixed(String),
    /// A literal default value — optional in the instance.
    Default(String),
}

/// One attribute definition from an `<!ATTLIST>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    /// Attribute name.
    pub name: String,
    /// Declared type, kept verbatim (`CDATA`, `ID`, `IDREF`, enumerations…).
    pub ty: String,
    /// Default declaration.
    pub default: AttDefault,
}

/// One `<!ELEMENT>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// Element name.
    pub name: String,
    /// Content model.
    pub content: ContentModel,
    /// Attributes from `<!ATTLIST>` declarations, in declaration order.
    pub attrs: Vec<AttDef>,
}

/// Every element name a DTD mentions, in name order, interned in one
/// buffer: name `i` is the element with id `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElemNames {
    text: String,
    /// `ends[i]`: one past the last byte of name `i` in `text`.
    ends: Vec<u32>,
}

impl ElemNames {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// No names?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name of element `id`.
    pub fn get(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] as usize };
        &self.text[start..self.ends[id] as usize]
    }

    /// The names in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The id of `name`, if it is one of the names.
    pub fn find(&self, name: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.get(mid).cmp(name) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// One node of a content model, in post-order: the operands of a node are
/// the subtrees right before it, so a model is one run of nodes and its
/// positions (the `Name` nodes) come in left-to-right order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// A child element (by element id).
    Name(u32),
    /// Concatenation of this many operands.
    Seq(u32),
    /// Alternation of this many operands.
    Choice(u32),
    /// `r?`.
    Opt,
    /// `r*`.
    Star,
    /// `r+`.
    Plus,
}

/// What an element's declaration says about its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Mentioned but not declared: `(#PCDATA)`, no declaration.
    Undeclared,
    /// `EMPTY`.
    Empty,
    /// `ANY`.
    Any,
    /// `(#PCDATA)` (also an element only an `ATTLIST` declares).
    Pcdata,
    /// `(#PCDATA | …)*`: the model is the `Name` nodes of the list.
    Mixed,
    /// Element content: the model is the post-order expression.
    Children,
}

/// How an attribute is defaulted, its value (if any) in [`Att::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttKind {
    Required,
    Implied,
    Fixed,
    Default,
}

/// One attribute definition: byte ranges into the DTD's attribute text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Att {
    pub(crate) name: (u32, u32),
    pub(crate) ty: (u32, u32),
    pub(crate) kind: AttKind,
    pub(crate) value: (u32, u32),
}

/// A parsed DTD.
///
/// Every element name the DTD mentions — declared, or only referenced by a
/// content model or as the root (such elements default to `(#PCDATA)`) —
/// has a dense **element id**: its position in name order. Content models,
/// attribute lists and the containment graph (with its cycles) are flat
/// arrays over those ids, worked out once, at construction. What the
/// static analysis derives from them — the DTD-automaton, the minimal
/// lengths and the tag universe — is built on first use and shared by
/// every compile made from this `Dtd` ([`analysis`](Self::analysis)).
#[derive(Debug, Clone)]
pub struct Dtd {
    root: u32,
    /// Every element name mentioned, in name order; shared with the tables
    /// computed from the schema.
    names: Arc<ElemNames>,
    /// Per element id, what its declaration says.
    kind: Vec<Kind>,
    /// Per element id, its model's run of `nodes` (empty unless `Mixed` or
    /// `Children`).
    model: Vec<(u32, u32)>,
    nodes: Vec<Node>,
    /// Per element id, its attribute definitions: `atts[att_at[e]..att_at[e + 1]]`.
    att_at: Vec<u32>,
    atts: Vec<Att>,
    att_text: String,
    /// Per element id, the ids of the elements that may appear as direct
    /// children (`ANY` resolved to all declared elements), ascending:
    /// `children[child_at[e]..child_at[e + 1]]`.
    child_at: Vec<u32>,
    children: Vec<u32>,
    /// Per element id: can the element (transitively) contain itself?
    recursive: Vec<bool>,
    /// The declarations as strings, built on first request.
    decls: OnceLock<Box<[ElementDecl]>>,
    /// The automaton, lengths and universe, built on first compile.
    analysis: OnceLock<Result<Arc<DtdAnalysis>, DtdError>>,
}

impl PartialEq for Dtd {
    fn eq(&self, other: &Dtd) -> bool {
        self.root() == other.root() && self.names == other.names && self.decls() == other.decls()
    }
}

impl Eq for Dtd {}

impl Dtd {
    /// Assemble a DTD from parts (used by tests and property generators).
    pub fn from_parts(root: String, decls: Vec<ElementDecl>) -> Result<Dtd, DtdError> {
        let mut b = Builder::new(decls.len() * 4, decls.len() * 8, 16, decls.len());
        for d in &decls {
            let elem = b.intern(Cow::Borrowed(&d.name));
            let start = b.nodes.len() as u32;
            let kind = match &d.content {
                ContentModel::Empty => Kind::Empty,
                ContentModel::Any => Kind::Any,
                ContentModel::Pcdata => Kind::Pcdata,
                ContentModel::Mixed(names) => {
                    for n in names {
                        let id = b.intern(Cow::Borrowed(n));
                        b.nodes.push(Node::Name(id));
                    }
                    Kind::Mixed
                }
                ContentModel::Children(re) => {
                    let mut nodes = std::mem::take(&mut b.nodes);
                    push_regex(re, &mut |n| b.intern(Cow::Borrowed(n)), &mut nodes);
                    b.nodes = nodes;
                    Kind::Children
                }
            };
            b.decls.push(RawDecl { name: elem, kind, model: (start, b.nodes.len() as u32) });
            for a in &d.attrs {
                let name = b.text(&a.name);
                let ty = b.text(&a.ty);
                let (kind, value) = match &a.default {
                    AttDefault::Required => (AttKind::Required, (0, 0)),
                    AttDefault::Implied => (AttKind::Implied, (0, 0)),
                    AttDefault::Fixed(v) => (AttKind::Fixed, b.text(v)),
                    AttDefault::Default(v) => (AttKind::Default, b.text(v)),
                };
                b.atts.push((elem, Att { name, ty, kind, value }));
            }
        }
        let root = b.intern(Cow::Owned(root));
        b.finish(root)
    }

    /// Parse DTD text: either a full `<!DOCTYPE name [ … ]>` or a bare
    /// internal subset (a sequence of `<!ELEMENT>`/`<!ATTLIST>`
    /// declarations; the root then defaults to the first declared element).
    pub fn parse(input: &[u8]) -> Result<Dtd, DtdError> {
        crate::parser::parse(input)
    }

    /// The document element name.
    pub fn root(&self) -> &str {
        self.names.get(self.root as usize)
    }

    /// All declared elements in name order.
    pub fn elements(&self) -> impl Iterator<Item = &ElementDecl> {
        self.decls().iter()
    }

    /// Look up a declaration.
    pub fn get(&self, name: &str) -> Option<&ElementDecl> {
        let decls = self.decls();
        decls.binary_search_by(|d| d.name.as_str().cmp(name)).ok().map(|i| &decls[i])
    }

    /// Content model of `name`. Elements that are referenced but not
    /// declared default to `(#PCDATA)` — the convention the paper uses for
    /// its Fig. 1 XMark excerpt ("assume that all unlisted tags have
    /// #PCDATA content").
    pub fn content(&self, name: &str) -> &ContentModel {
        static PCDATA: ContentModel = ContentModel::Pcdata;
        self.get(name).map(|e| &e.content).unwrap_or(&PCDATA)
    }

    /// Attribute definitions of `name` (empty for undeclared elements).
    pub fn attrs(&self, name: &str) -> &[AttDef] {
        self.get(name).map(|e| e.attrs.as_slice()).unwrap_or(&[])
    }

    /// Names of `#REQUIRED` attributes of `name`.
    pub fn required_attrs(&self, name: &str) -> impl Iterator<Item = &str> {
        self.attrs(name)
            .iter()
            .filter(|a| matches!(a.default, AttDefault::Required))
            .map(|a| a.name.as_str())
    }

    /// The element names that may appear as direct children of `name`,
    /// resolving `ANY` to all declared elements (which is what `ANY` means
    /// for containment and recursion purposes).
    pub fn effective_child_names(&self, name: &str) -> BTreeSet<&str> {
        match self.elem_id(name) {
            Some(e) => self.elem_children(e).iter().map(|&c| self.elem_name(c)).collect(),
            None => BTreeSet::new(),
        }
    }

    /// Every element name the DTD mentions, in name order (shared, not
    /// copied: the tables computed from the schema hold the same list).
    pub fn elem_names(&self) -> &Arc<ElemNames> {
        &self.names
    }

    /// The DTD-automaton (recursive elements opaque), the minimal lengths
    /// and the tag universe of this DTD: built by the first call, shared by
    /// every later one — every compile made from this `Dtd` (or a clone of
    /// it made afterwards) reads the same tables. Fails when the automaton
    /// exceeds its state budget.
    pub fn analysis(&self) -> Result<&Arc<DtdAnalysis>, DtdError> {
        self.analysis
            .get_or_init(|| DtdAnalysis::new(self).map(Arc::new))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Dense id of element `name`, if the DTD mentions it.
    pub(crate) fn elem_id(&self, name: &str) -> Option<u32> {
        self.names.find(name).map(|i| i as u32)
    }

    /// Name of element `id`.
    pub(crate) fn elem_name(&self, id: u32) -> &str {
        self.names.get(id as usize)
    }

    /// Number of element ids.
    pub(crate) fn elem_count(&self) -> usize {
        self.names.len()
    }

    /// The root's element id.
    pub(crate) fn root_id(&self) -> u32 {
        self.root
    }

    /// What the declaration of element `id` says about its content.
    pub(crate) fn elem_kind(&self, id: u32) -> Kind {
        self.kind[id as usize]
    }

    /// The model nodes of element `id` (see [`Kind`]).
    pub(crate) fn elem_model(&self, id: u32) -> &[Node] {
        let (a, b) = self.model[id as usize];
        &self.nodes[a as usize..b as usize]
    }

    /// Attribute definitions of element `id`, in declaration order.
    pub(crate) fn elem_atts(&self, id: u32) -> &[Att] {
        &self.atts[self.att_at[id as usize] as usize..self.att_at[id as usize + 1] as usize]
    }

    /// A range of the attribute text.
    pub(crate) fn att_str(&self, (a, b): (u32, u32)) -> &str {
        &self.att_text[a as usize..b as usize]
    }

    /// Ids of the elements that may appear as direct children of `id`.
    pub(crate) fn elem_children(&self, id: u32) -> &[u32] {
        &self.children[self.child_at[id as usize] as usize..self.child_at[id as usize + 1] as usize]
    }

    /// Can element `id` (transitively) contain itself?
    pub(crate) fn elem_is_recursive(&self, id: u32) -> bool {
        self.recursive[id as usize]
    }

    /// Is any element (transitively) able to contain itself?
    pub fn is_recursive(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// All elements that can (transitively) contain themselves — the
    /// elements the recursion extension treats as *opaque* (their subtrees
    /// are navigated by balanced tag counting instead of automaton states).
    pub fn recursive_elements(&self) -> BTreeSet<&str> {
        (0..self.elem_count() as u32)
            .filter(|&e| self.elem_is_recursive(e))
            .map(|e| self.elem_name(e))
            .collect()
    }

    /// Returns an element on a containment cycle, if one exists.
    pub fn find_cycle(&self) -> Option<&str> {
        self.recursive.iter().position(|&r| r).map(|e| self.elem_name(e as u32))
    }

    /// The declarations as strings, in name order.
    fn decls(&self) -> &[ElementDecl] {
        self.decls.get_or_init(|| {
            (0..self.elem_count() as u32)
                .filter(|&e| self.elem_kind(e) != Kind::Undeclared)
                .map(|e| ElementDecl {
                    name: self.elem_name(e).to_string(),
                    content: self.content_model(e),
                    attrs: self.elem_atts(e).iter().map(|a| self.att_def(a)).collect(),
                })
                .collect()
        })
    }

    fn content_model(&self, e: u32) -> ContentModel {
        let model = self.elem_model(e);
        match self.elem_kind(e) {
            Kind::Empty => ContentModel::Empty,
            Kind::Any => ContentModel::Any,
            Kind::Undeclared | Kind::Pcdata => ContentModel::Pcdata,
            Kind::Mixed => ContentModel::Mixed(
                model
                    .iter()
                    .map(|n| match n {
                        Node::Name(c) => self.elem_name(*c).to_string(),
                        _ => unreachable!("a mixed model lists names"),
                    })
                    .collect(),
            ),
            Kind::Children => {
                let mut stack: Vec<Regex> = Vec::new();
                for &n in model {
                    let r = match n {
                        Node::Name(c) => Regex::Name(self.elem_name(c).to_string()),
                        Node::Seq(k) => Regex::Seq(stack.split_off(stack.len() - k as usize)),
                        Node::Choice(k) => Regex::Choice(stack.split_off(stack.len() - k as usize)),
                        Node::Opt => Regex::Opt(Box::new(stack.pop().expect("an operand"))),
                        Node::Star => Regex::Star(Box::new(stack.pop().expect("an operand"))),
                        Node::Plus => Regex::Plus(Box::new(stack.pop().expect("an operand"))),
                    };
                    stack.push(r);
                }
                ContentModel::Children(stack.pop().expect("a model has a root"))
            }
        }
    }

    fn att_def(&self, a: &Att) -> AttDef {
        let value = || self.att_str(a.value).to_string();
        AttDef {
            name: self.att_str(a.name).to_string(),
            ty: self.att_str(a.ty).to_string(),
            default: match a.kind {
                AttKind::Required => AttDefault::Required,
                AttKind::Implied => AttDefault::Implied,
                AttKind::Fixed => AttDefault::Fixed(value()),
                AttKind::Default => AttDefault::Default(value()),
            },
        }
    }
}

/// Append the post-order nodes of `re`, naming elements through `id`.
pub(crate) fn push_regex<'r>(
    re: &'r Regex,
    id: &mut impl FnMut(&'r str) -> u32,
    out: &mut Vec<Node>,
) {
    let node = match re {
        Regex::Name(n) => Node::Name(id(n)),
        Regex::Seq(parts) | Regex::Choice(parts) => {
            parts.iter().for_each(|p| push_regex(p, id, out));
            let k = parts.len() as u32;
            if matches!(re, Regex::Seq(_)) {
                Node::Seq(k)
            } else {
                Node::Choice(k)
            }
        }
        Regex::Opt(r) | Regex::Star(r) | Regex::Plus(r) => {
            push_regex(r, id, out);
            match re {
                Regex::Opt(_) => Node::Opt,
                Regex::Star(_) => Node::Star,
                _ => Node::Plus,
            }
        }
    };
    out.push(node);
}

/// One `<!ELEMENT>` declaration under construction (provisional name id).
pub(crate) struct RawDecl {
    pub(crate) name: u32,
    pub(crate) kind: Kind,
    pub(crate) model: (u32, u32),
}

/// A DTD under construction: names interned to provisional ids in order of
/// first mention (an open-addressing table over one name list, so a name
/// is stored once however often it is mentioned); [`finish`](Self::finish)
/// sorts them into element ids.
pub(crate) struct Builder<'a> {
    names: Vec<Cow<'a, str>>,
    /// Provisional id + 1 per slot (0: empty); a power of two long.
    slots: Vec<u32>,
    pub(crate) decls: Vec<RawDecl>,
    /// Every model's nodes, `Name`s over provisional ids.
    pub(crate) nodes: Vec<Node>,
    /// Each attribute definition with its element's provisional id.
    pub(crate) atts: Vec<(u32, Att)>,
    att_text: String,
}

/// A name's hash, eight bytes at a time (names are short).
fn hash(name: &str) -> u32 {
    let h = name.as_bytes().chunks(8).fold(name.len() as u64, |h, chunk| {
        (h.rotate_left(5) ^ prefix_key(chunk)).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (h >> 32) as u32
}

/// The first eight bytes of `b`, zero-padded, as a big-endian number:
/// comparing two keys compares the bytes' prefixes in name order.
fn prefix_key(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = b.len().min(8);
    word[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(word)
}

impl<'a> Builder<'a> {
    /// A builder sized for about `names` name mentions, `nodes` model
    /// nodes, `atts` attributes (a few words of text each) and `decls`
    /// declarations.
    pub(crate) fn new(names: usize, nodes: usize, atts: usize, decls: usize) -> Builder<'a> {
        Builder {
            names: Vec::with_capacity(names),
            slots: vec![0; (2 * names).next_power_of_two().max(16)],
            decls: Vec::with_capacity(decls),
            nodes: Vec::with_capacity(nodes),
            atts: Vec::with_capacity(atts),
            att_text: String::with_capacity(16 * atts),
        }
    }

    /// The provisional id of `name`, interning it on its first mention.
    pub(crate) fn intern(&mut self, name: Cow<'a, str>) -> u32 {
        if 2 * (self.names.len() + 1) > self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()];
            for (i, n) in self.names.iter().enumerate() {
                let at = free_slot(&self.slots, hash(n));
                self.slots[at] = i as u32 + 1;
            }
        }
        let mask = self.slots.len() - 1;
        let mut at = hash(&name) as usize & mask;
        loop {
            match self.slots[at] {
                0 => {
                    self.names.push(name);
                    self.slots[at] = self.names.len() as u32;
                    return self.names.len() as u32 - 1;
                }
                id if self.names[id as usize - 1] == name => return id - 1,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Append `s` to the attribute text; its range.
    pub(crate) fn text(&mut self, s: &str) -> (u32, u32) {
        let start = self.att_text.len() as u32;
        self.att_text.push_str(s);
        (start, self.att_text.len() as u32)
    }

    /// Sort the names into element ids and lay the declarations, models,
    /// attributes and containment lists out over them. `root` is a
    /// provisional id.
    pub(crate) fn finish(mut self, root: u32) -> Result<Dtd, DtdError> {
        if self.decls.is_empty() {
            return Err(DtdError::Empty);
        }
        let n = self.names.len();
        // Name order, most pairs told apart by their first eight bytes.
        let mut order: Vec<(u64, u32)> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, s)| (prefix_key(s.as_bytes()), i as u32))
            .collect();
        order.sort_unstable_by(|&(ka, a), &(kb, b)| {
            ka.cmp(&kb).then_with(|| self.names[a as usize].cmp(&self.names[b as usize]))
        });
        let mut rank = vec![0u32; n];
        let mut names = ElemNames {
            text: String::with_capacity(self.names.iter().map(|s| s.len()).sum()),
            ends: Vec::with_capacity(n),
        };
        for (id, &(_, p)) in order.iter().enumerate() {
            rank[p as usize] = id as u32;
            names.text.push_str(&self.names[p as usize]);
            names.ends.push(names.text.len() as u32);
        }
        drop(order);

        // Each element's declaration; the first name declared twice (in
        // name order) is an error.
        let mut kind = vec![Kind::Undeclared; n];
        let mut model = vec![(0u32, 0u32); n];
        let mut twice: Option<u32> = None;
        for d in &self.decls {
            let e = rank[d.name as usize];
            if kind[e as usize] != Kind::Undeclared {
                twice = Some(twice.map_or(e, |t| t.min(e)));
            }
            kind[e as usize] = d.kind;
            model[e as usize] = d.model;
        }
        if let Some(e) = twice {
            return Err(DtdError::DuplicateElement(names.get(e as usize).to_string()));
        }
        for node in &mut self.nodes {
            if let Node::Name(p) = node {
                *p = rank[*p as usize];
            }
        }

        // Attributes grouped by element, in declaration order within one;
        // an element only an ATTLIST declares is `(#PCDATA)`, so its
        // required attributes still count toward minimal lengths.
        let mut att_at = vec![0u32; n + 1];
        for (p, _) in &self.atts {
            let e = rank[*p as usize] as usize;
            att_at[e + 1] += 1;
            if kind[e] == Kind::Undeclared {
                kind[e] = Kind::Pcdata;
            }
        }
        for e in 0..n {
            att_at[e + 1] += att_at[e];
        }
        let mut fill = att_at.clone();
        let blank = Att { name: (0, 0), ty: (0, 0), kind: AttKind::Implied, value: (0, 0) };
        let mut atts = vec![blank; self.atts.len()];
        for (p, a) in &self.atts {
            let e = rank[*p as usize] as usize;
            atts[fill[e] as usize] = *a;
            fill[e] += 1;
        }
        drop(fill);

        // Containment: `ANY` holds every declared element; a model the
        // elements it names, each once.
        let declared = kind.iter().filter(|&&k| k != Kind::Undeclared).count();
        let anys = kind.iter().filter(|&&k| k == Kind::Any).count();
        let mut child_at = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(self.nodes.len() + anys * declared);
        let mut named: Vec<u32> = Vec::with_capacity(self.nodes.len());
        for e in 0..n {
            child_at.push(children.len() as u32);
            match kind[e] {
                Kind::Any => {
                    children.extend((0..n as u32).filter(|&c| kind[c as usize] != Kind::Undeclared))
                }
                Kind::Mixed | Kind::Children => {
                    let (a, b) = model[e];
                    named.clear();
                    named.extend(self.nodes[a as usize..b as usize].iter().filter_map(|node| {
                        match node {
                            Node::Name(c) => Some(*c),
                            _ => None,
                        }
                    }));
                    named.sort_unstable();
                    named.dedup();
                    children.extend_from_slice(&named);
                }
                _ => {}
            }
        }
        child_at.push(children.len() as u32);
        let recursive = on_cycles(&child_at, &children);
        Ok(Dtd {
            root: rank[root as usize],
            names: Arc::new(names),
            kind,
            model,
            nodes: self.nodes,
            att_at,
            atts,
            att_text: self.att_text,
            child_at,
            children,
            recursive,
            decls: OnceLock::new(),
            analysis: OnceLock::new(),
        })
    }
}

/// The first empty slot on `h`'s probe sequence.
fn free_slot(slots: &[u32], h: u32) -> usize {
    let mask = slots.len() - 1;
    let mut at = h as usize & mask;
    while slots[at] != 0 {
        at = (at + 1) & mask;
    }
    at
}

/// Which nodes of a directed graph lie on a cycle (a self loop included):
/// one pass of Tarjan's strongly-connected-components algorithm, iterative,
/// over adjacency lists of dense node ids (`adj[at[v]..at[v + 1]]`).
fn on_cycles(at: &[u32], adj: &[u32]) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = at.len() - 1;
    let succ = |v: usize| &adj[at[v] as usize..at[v + 1] as usize];
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut cyclic = vec![false; n];
    let mut next = 0u32;
    // (node, position in its adjacency list, its position on `stack`)
    let mut work: Vec<(u32, usize, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNSEEN {
            continue;
        }
        work.push((start, 0, stack.len()));
        while let Some(&mut (v, ref mut pos, first)) = work.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                index[vi] = next;
                low[vi] = next;
                next += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = succ(vi).get(*pos) {
                *pos += 1;
                let wi = w as usize;
                if index[wi] == UNSEEN {
                    work.push((w, 0, stack.len()));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, ..)) = work.last() {
                low[parent as usize] = low[parent as usize].min(low[vi]);
            }
            if low[vi] == index[vi] {
                // `v` roots a component: itself and everything above it.
                let alone = stack.len() - first == 1;
                for w in stack.drain(first..) {
                    on_stack[w as usize] = false;
                    cyclic[w as usize] = !alone || succ(w as usize).contains(&w);
                }
            }
        }
    }
    cyclic
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, content: ContentModel) -> ElementDecl {
        ElementDecl { name: name.into(), content, attrs: Vec::new() }
    }

    #[test]
    fn nullable_regexes() {
        use Regex::*;
        assert!(!Name("a".into()).nullable());
        assert!(Opt(Box::new(Name("a".into()))).nullable());
        assert!(Star(Box::new(Name("a".into()))).nullable());
        assert!(!Plus(Box::new(Name("a".into()))).nullable());
        assert!(
            Seq(vec![Opt(Box::new(Name("a".into()))), Star(Box::new(Name("b".into())))]).nullable()
        );
        assert!(!Seq(vec![Opt(Box::new(Name("a".into()))), Name("b".into())]).nullable());
        assert!(Choice(vec![Name("a".into()), Star(Box::new(Name("b".into())))]).nullable());
    }

    #[test]
    fn undeclared_elements_default_to_pcdata() {
        let dtd = Dtd::from_parts(
            "a".into(),
            vec![decl("a", ContentModel::Children(Regex::Name("b".into())))],
        )
        .unwrap();
        assert_eq!(*dtd.content("b"), ContentModel::Pcdata);
        assert_eq!(*dtd.content("a"), ContentModel::Children(Regex::Name("b".into())));
    }

    #[test]
    fn recursion_detected() {
        let dtd = Dtd::from_parts(
            "a".into(),
            vec![
                decl("a", ContentModel::Children(Regex::Name("b".into()))),
                decl("b", ContentModel::Children(Regex::Opt(Box::new(Regex::Name("a".into()))))),
            ],
        )
        .unwrap();
        assert!(dtd.is_recursive());
    }

    #[test]
    fn self_recursion_detected() {
        let dtd =
            Dtd::from_parts("a".into(), vec![decl("a", ContentModel::Mixed(vec!["a".into()]))])
                .unwrap();
        assert!(dtd.is_recursive());
    }

    #[test]
    fn recursive_elements_are_those_that_reach_themselves() {
        // Every containment graph over five elements drawn from a fixed
        // stream: the one-pass cycle marks must agree with a reachability
        // search per element, element ids with name order, and an
        // undeclared child (`ghost`) must get an id and no children.
        let names = ["a", "b", "c", "d", "e"];
        let mut state = 0x2008_0407_u64;
        for _ in 0..400 {
            let decls: Vec<ElementDecl> = names
                .iter()
                .map(|n| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let mut kids: Vec<String> = names
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| state >> (20 + 2 * j) & 3 == 0)
                        .map(|(_, k)| k.to_string())
                        .collect();
                    if state >> 40 & 7 == 0 {
                        kids.push("ghost".into());
                    }
                    decl(n, ContentModel::Mixed(kids))
                })
                .collect();
            let dtd = Dtd::from_parts("a".into(), decls).unwrap();
            let reaches_itself = |e: &str| {
                let mut seen = BTreeSet::new();
                let mut stack: Vec<&str> = dtd.effective_child_names(e).into_iter().collect();
                while let Some(c) = stack.pop() {
                    if c == e {
                        return true;
                    }
                    if seen.insert(c) {
                        stack.extend(dtd.effective_child_names(c));
                    }
                }
                false
            };
            let want: BTreeSet<&str> =
                names.iter().copied().filter(|e| reaches_itself(e)).collect();
            assert_eq!(dtd.recursive_elements(), want);
            assert_eq!(dtd.is_recursive(), !want.is_empty());
            let in_order: Vec<&str> = dtd.elem_names().iter().collect();
            assert!(in_order.windows(2).all(|w| w[0] < w[1]));
            if let Some(g) = dtd.elem_id("ghost") {
                assert!(dtd.get("ghost").is_none() && dtd.elem_children(g).is_empty());
                assert_eq!(dtd.elem_kind(g), Kind::Undeclared);
            }
        }
    }

    #[test]
    fn non_recursive() {
        let dtd = Dtd::from_parts(
            "a".into(),
            vec![
                decl(
                    "a",
                    ContentModel::Children(Regex::Star(Box::new(Regex::Choice(vec![
                        Regex::Name("b".into()),
                        Regex::Name("c".into()),
                    ])))),
                ),
                decl("b", ContentModel::Pcdata),
                decl(
                    "c",
                    ContentModel::Children(Regex::Seq(vec![
                        Regex::Name("b".into()),
                        Regex::Opt(Box::new(Regex::Name("b".into()))),
                    ])),
                ),
            ],
        )
        .unwrap();
        assert!(!dtd.is_recursive());
    }

    #[test]
    fn can_be_empty() {
        assert!(ContentModel::Empty.can_be_empty());
        assert!(ContentModel::Pcdata.can_be_empty());
        assert!(ContentModel::Mixed(vec!["a".into()]).can_be_empty());
        assert!(!ContentModel::Children(Regex::Name("a".into())).can_be_empty());
        assert!(
            ContentModel::Children(Regex::Star(Box::new(Regex::Name("a".into())))).can_be_empty()
        );
    }

    #[test]
    fn required_attrs_filtered() {
        let mut e = decl("a", ContentModel::Empty);
        e.attrs = vec![
            AttDef { name: "id".into(), ty: "ID".into(), default: AttDefault::Required },
            AttDef { name: "x".into(), ty: "CDATA".into(), default: AttDefault::Implied },
            AttDef { name: "y".into(), ty: "CDATA".into(), default: AttDefault::Fixed("v".into()) },
        ];
        let dtd = Dtd::from_parts("a".into(), vec![e.clone()]).unwrap();
        let req: Vec<&str> = dtd.required_attrs("a").collect();
        assert_eq!(req, vec!["id"]);
        // The string model comes back as it went in.
        assert_eq!(dtd.elements().collect::<Vec<_>>(), vec![&e]);
    }

    #[test]
    fn from_parts_round_trips_the_string_model() {
        let re = Regex::Seq(vec![
            Regex::Plus(Box::new(Regex::Choice(vec![
                Regex::Name("b".into()),
                Regex::Seq(vec![]),
                Regex::Name("c".into()),
            ]))),
            Regex::Seq(vec![Regex::Opt(Box::new(Regex::Name("b".into())))]),
            Regex::Choice(vec![]),
            Regex::Star(Box::new(Regex::Name("ghost".into()))),
        ]);
        let decls = vec![
            decl("z", ContentModel::Children(re)),
            decl("b", ContentModel::Mixed(vec!["c".into(), "c".into()])),
            decl("c", ContentModel::Mixed(vec![])),
            decl("a", ContentModel::Any),
        ];
        let dtd = Dtd::from_parts("z".into(), decls.clone()).unwrap();
        let mut want = decls;
        want.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(dtd.elements().cloned().collect::<Vec<_>>(), want);
        assert_eq!(dtd.root(), "z");
        assert_eq!(dtd.elem_names().iter().collect::<Vec<_>>(), ["a", "b", "c", "ghost", "z"]);
        assert_eq!(dtd.elem_children(dtd.elem_id("a").unwrap()), [0, 1, 2, 4]);
        assert_eq!(dtd.elem_children(dtd.elem_id("z").unwrap()), [1, 2, 3]);
    }

    #[test]
    fn names_intern_once_in_name_order() {
        let mut b = Builder::new(1, 0, 0, 0);
        let words: Vec<String> = (0..300).map(|i| format!("n{}", (i * 7919) % 211)).collect();
        let ids: Vec<u32> = words.iter().map(|w| b.intern(Cow::Borrowed(w))).collect();
        for (w, &id) in words.iter().zip(&ids) {
            assert_eq!(b.names[id as usize], w.as_str());
        }
        assert_eq!(b.names.len(), 211);
        b.decls.push(RawDecl { name: ids[0], kind: Kind::Empty, model: (0, 0) });
        let dtd = b.finish(ids[0]).unwrap();
        let names: Vec<&str> = dtd.elem_names().iter().collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]) && names.len() == 211);
        assert!(names.iter().enumerate().all(|(i, n)| dtd.elem_names().find(n) == Some(i)));
        assert_eq!(dtd.elem_names().find("n"), None);
        assert_eq!(dtd.root(), words[0]);
    }

    #[test]
    fn empty_dtd_rejected() {
        assert_eq!(Dtd::from_parts("a".into(), vec![]), Err(DtdError::Empty));
    }
}
