//! Schema model: element declarations, content models, attribute lists.

use crate::error::DtdError;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

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
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out.into_iter().collect()
    }

    /// Every mention of an element name, in order of appearance.
    fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Regex::Name(n) => out.push(n),
            Regex::Seq(rs) | Regex::Choice(rs) => {
                for r in rs {
                    r.collect_names(out);
                }
            }
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
        let mut out = Vec::new();
        self.collect_child_names(&mut out);
        out.into_iter().collect()
    }

    /// Every mention of a child element name, in order of appearance.
    fn collect_child_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ContentModel::Empty | ContentModel::Pcdata | ContentModel::Any => {}
            ContentModel::Mixed(ns) => out.extend(ns.iter().map(String::as_str)),
            ContentModel::Children(r) => r.collect_names(out),
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

/// A parsed DTD.
///
/// Every element name the DTD mentions — declared, or only referenced by a
/// content model or as the root (such elements default to `(#PCDATA)`) —
/// has a dense
/// **element id**: its position in name order. The containment graph over
/// those ids and its cycles are worked out once, at construction, and
/// shared by everything built from the schema ([`DtdAutomaton`],
/// [`MinLen`]).
///
/// [`DtdAutomaton`]: crate::DtdAutomaton
/// [`MinLen`]: crate::MinLen
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    root: String,
    /// The declarations, in name order.
    elements: Vec<ElementDecl>,
    /// Every element name mentioned, in name order; shared with the tables
    /// computed from the schema.
    names: Arc<[String]>,
    /// Per element id, the index of its declaration in `elements`
    /// (`u32::MAX`: referenced but not declared).
    decl: Vec<u32>,
    /// Per element id, the ids of the elements that may appear as direct
    /// children (`ANY` resolved to all declared elements), ascending.
    children: Vec<Vec<u32>>,
    /// Per element id: can the element (transitively) contain itself?
    recursive: Vec<bool>,
}

impl Dtd {
    /// Assemble a DTD from parts (used by the parser and by tests/property
    /// generators).
    pub fn from_parts(root: String, mut decls: Vec<ElementDecl>) -> Result<Dtd, DtdError> {
        if decls.is_empty() {
            return Err(DtdError::Empty);
        }
        decls.sort_by(|a, b| a.name.cmp(&b.name));
        if let Some(w) = decls.windows(2).find(|w| w[0].name == w[1].name) {
            return Err(DtdError::DuplicateElement(w[0].name.clone()));
        }
        // Every child mention of every declaration in one list, and each
        // declaration's span of it.
        let mut kids: Vec<&str> = Vec::new();
        let mut spans = Vec::with_capacity(decls.len());
        for d in &decls {
            let start = kids.len();
            d.content.collect_child_names(&mut kids);
            spans.push(start..kids.len());
        }
        // The declared names are in order already; the few names only
        // mentioned join them, and a stable sort merges the two runs.
        let mut names: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
        let mut ids: HashMap<&str, u32> = names.iter().map(|&n| (n, 0)).collect();
        for n in std::iter::once(root.as_str()).chain(kids.iter().copied()) {
            if ids.insert(n, 0).is_none() {
                names.push(n);
            }
        }
        names.sort();
        for (i, n) in names.iter().enumerate() {
            ids.insert(n, i as u32);
        }
        let id = |n: &str| ids[n];
        let declared: Vec<u32> = decls.iter().map(|d| id(&d.name)).collect();
        let mut decl = vec![u32::MAX; names.len()];
        let mut children = vec![Vec::new(); names.len()];
        for (i, d) in decls.iter().enumerate() {
            let e = declared[i] as usize;
            decl[e] = i as u32;
            children[e] = match &d.content {
                ContentModel::Any => declared.clone(),
                _ => {
                    let mut of_d: Vec<u32> = kids[spans[i].clone()].iter().map(|n| id(n)).collect();
                    of_d.sort_unstable();
                    of_d.dedup();
                    of_d
                }
            };
        }
        let recursive = on_cycles(&children);
        let names = names.into_iter().map(str::to_string).collect();
        Ok(Dtd { root, elements: decls, names, decl, children, recursive })
    }

    /// Parse DTD text: either a full `<!DOCTYPE name [ … ]>` or a bare
    /// internal subset (a sequence of `<!ELEMENT>`/`<!ATTLIST>`
    /// declarations; the root then defaults to the first declared element).
    pub fn parse(input: &[u8]) -> Result<Dtd, DtdError> {
        crate::parser::parse(input)
    }

    /// The document element name.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// All declared elements in name order.
    pub fn elements(&self) -> impl Iterator<Item = &ElementDecl> {
        self.elements.iter()
    }

    /// Look up a declaration.
    pub fn get(&self, name: &str) -> Option<&ElementDecl> {
        self.elements
            .binary_search_by(|d| d.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.elements[i])
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
            Some(e) => self.children[e as usize].iter().map(|&c| self.elem_name(c)).collect(),
            None => BTreeSet::new(),
        }
    }

    /// Every element name the DTD mentions, in name order (shared, not
    /// copied: the tables computed from the schema hold the same list).
    pub fn elem_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Dense id of element `name`, if the DTD mentions it.
    pub(crate) fn elem_id(&self, name: &str) -> Option<u32> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok().map(|i| i as u32)
    }

    /// Name of element `id`.
    pub(crate) fn elem_name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Declaration of element `id` (`None`: referenced but not declared).
    pub(crate) fn elem_decl(&self, id: u32) -> Option<&ElementDecl> {
        self.elements.get(self.decl[id as usize] as usize)
    }

    /// Ids of the elements that may appear as direct children of `id`.
    pub(crate) fn elem_children(&self, id: u32) -> &[u32] {
        &self.children[id as usize]
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
        (0..self.names.len() as u32)
            .filter(|&e| self.elem_is_recursive(e))
            .map(|e| self.elem_name(e))
            .collect()
    }

    /// Returns an element on a containment cycle, if one exists.
    pub fn find_cycle(&self) -> Option<&str> {
        self.recursive.iter().position(|&r| r).map(|e| self.elem_name(e as u32))
    }
}

/// Which nodes of a directed graph lie on a cycle (a self loop included):
/// one pass of Tarjan's strongly-connected-components algorithm, iterative,
/// over adjacency lists of dense node ids.
fn on_cycles(adj: &[Vec<u32>]) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = adj.len();
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
        while let Some(&mut (v, ref mut at, first)) = work.last_mut() {
            let vi = v as usize;
            if *at == 0 {
                index[vi] = next;
                low[vi] = next;
                next += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = adj[vi].get(*at) {
                *at += 1;
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
                    cyclic[w as usize] = !alone || adj[w as usize].contains(&w);
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
            assert!(dtd.elem_names().windows(2).all(|w| w[0] < w[1]));
            if let Some(g) = dtd.elem_id("ghost") {
                assert!(dtd.elem_decl(g).is_none() && dtd.elem_children(g).is_empty());
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
        let dtd = Dtd::from_parts("a".into(), vec![e]).unwrap();
        let req: Vec<&str> = dtd.required_attrs("a").collect();
        assert_eq!(req, vec!["id"]);
    }

    #[test]
    fn empty_dtd_rejected() {
        assert_eq!(Dtd::from_parts("a".into(), vec![]), Err(DtdError::Empty));
    }
}
