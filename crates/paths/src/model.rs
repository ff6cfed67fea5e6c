//! Projection path model and text syntax.

use std::fmt;

/// Downward navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `/name` — direct child.
    Child,
    /// `//name` — descendant (any positive number of levels down).
    Descendant,
}

/// Name test of a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NameTest {
    /// A concrete element name.
    Name(String),
    /// `*` — any element.
    Wildcard,
}

impl NameTest {
    /// Does this test accept `label`?
    pub fn accepts(&self, label: &str) -> bool {
        match self {
            NameTest::Name(n) => n == label,
            NameTest::Wildcard => true,
        }
    }
}

/// One step of a projection path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Step {
    /// Navigation axis.
    pub axis: Axis,
    /// Name test.
    pub test: NameTest,
}

/// A projection path: `/step/step…` optionally flagged with `#`
/// ("descendants of the selected nodes are required", Sec. III).
///
/// The empty path (no steps) is written `/` and matches the virtual
/// document root, i.e. the empty branch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProjectionPath {
    /// Steps from the root.
    pub steps: Vec<Step>,
    /// The `#` flag.
    pub subtree: bool,
}

/// Error parsing projection path text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid projection path: {}", self.msg)
    }
}

impl std::error::Error for ParsePathError {}

impl ProjectionPath {
    /// Parse path text such as `/site/regions//item#`, `//b`, `/*`, `/`.
    pub fn parse(text: &str) -> Result<ProjectionPath, ParsePathError> {
        let text = text.trim();
        let (body, subtree) = match text.strip_suffix('#') {
            Some(b) => (b, true),
            None => (text, false),
        };
        if body == "/" || body.is_empty() {
            return Ok(ProjectionPath { steps: Vec::new(), subtree });
        }
        if !body.starts_with('/') {
            return Err(ParsePathError { msg: format!("path must start with '/': {text:?}") });
        }
        let mut steps = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            let axis = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                Axis::Descendant
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                Axis::Child
            } else {
                return Err(ParsePathError { msg: format!("expected '/' in {text:?}") });
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let name = &rest[..end];
            if name.is_empty() {
                return Err(ParsePathError { msg: format!("empty step in {text:?}") });
            }
            let test = if name == "*" {
                NameTest::Wildcard
            } else {
                if !name.chars().all(|c| c.is_alphanumeric() || "_-.:".contains(c)) {
                    return Err(ParsePathError { msg: format!("bad name {name:?} in {text:?}") });
                }
                NameTest::Name(name.to_string())
            };
            steps.push(Step { axis, test });
            rest = &rest[end..];
        }
        Ok(ProjectionPath { steps, subtree })
    }

    /// Does this path select the node whose document branch (chain of
    /// element names from the root, the node's own label last) is `branch`?
    ///
    /// The empty path selects only the empty branch (the virtual root).
    pub fn matches<S: AsRef<str>>(&self, branch: &[S]) -> bool {
        // NFA over step indices: state i = "steps[..i] already matched".
        let n = self.steps.len();
        let mut states = vec![false; n + 1];
        states[0] = true;
        for (li, label) in branch.iter().enumerate() {
            let label = label.as_ref();
            let mut next = vec![false; n + 1];
            for i in 0..=n {
                if !states[i] {
                    continue;
                }
                if i < n {
                    let step = &self.steps[i];
                    if step.test.accepts(label) {
                        next[i + 1] = true;
                    }
                    if step.axis == Axis::Descendant {
                        // The descendant axis may skip this label.
                        next[i] = true;
                    }
                }
            }
            states = next;
            // Nothing alive: fail early.
            if states.iter().all(|&s| !s) {
                return false;
            }
            let _ = li;
        }
        states[n]
    }

    /// The last step, or `None` for the empty path.
    pub fn last_step(&self) -> Option<&Step> {
        self.steps.last()
    }

    /// All proper prefixes of this path (including the empty path), without
    /// the `#` flag — the ingredients of the `P+` closure.
    pub fn prefixes(&self) -> impl Iterator<Item = ProjectionPath> + '_ {
        (0..self.steps.len())
            .map(move |i| ProjectionPath { steps: self.steps[..i].to_vec(), subtree: false })
    }
}

impl fmt::Display for ProjectionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            write!(f, "/")?;
        }
        for s in &self.steps {
            match s.axis {
                Axis::Child => write!(f, "/")?,
                Axis::Descendant => write!(f, "//")?,
            }
            match &s.test {
                NameTest::Name(n) => write!(f, "{n}")?,
                NameTest::Wildcard => write!(f, "*")?,
            }
        }
        if self.subtree {
            write!(f, "#")?;
        }
        Ok(())
    }
}

/// A set of projection paths `P`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSet {
    paths: Vec<ProjectionPath>,
}

impl PathSet {
    /// Build from parsed paths, deduplicating.
    pub fn new(paths: Vec<ProjectionPath>) -> PathSet {
        let mut ps = PathSet { paths: Vec::new() };
        for p in paths {
            ps.insert(p);
        }
        ps
    }

    /// Parse a set of path strings.
    pub fn parse<S: AsRef<str>>(texts: &[S]) -> Result<PathSet, ParsePathError> {
        let mut paths = Vec::with_capacity(texts.len());
        for t in texts {
            paths.push(ProjectionPath::parse(t.as_ref())?);
        }
        Ok(PathSet::new(paths))
    }

    /// Add one path if not already present.
    pub fn insert(&mut self, p: ProjectionPath) {
        if !self.paths.contains(&p) {
            self.paths.push(p);
        }
    }

    /// The paths in insertion order.
    pub fn paths(&self) -> &[ProjectionPath] {
        &self.paths
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Union with another path set — a single prefilter can then serve a
    /// *workload* of queries at once (the publish/subscribe scenario the
    /// paper's introduction motivates via XFilter/YFilter): projecting for
    /// `P ∪ Q` preserves everything either query needs.
    pub fn union(&self, other: &PathSet) -> PathSet {
        let mut out = self.clone();
        for p in other.paths() {
            out.insert(p.clone());
        }
        out
    }

    /// The union of any number of path sets in one pass, first occurrence
    /// first — what folding [`union`](Self::union) over them yields,
    /// without a copy of the growing set per operand.
    pub fn union_of<'a>(sets: impl IntoIterator<Item = &'a PathSet>) -> PathSet {
        PathSet::new(sets.into_iter().flat_map(|s| s.paths.iter().cloned()).collect())
    }

    /// The prefix closure `P+` of Def. 3: `P` itself plus every proper
    /// prefix of every path (unflagged), deduplicated.
    pub fn plus_closure(&self) -> Vec<ProjectionPath> {
        let mut out: Vec<ProjectionPath> = Vec::new();
        for p in &self.paths {
            for pre in p.prefixes() {
                if !out.contains(&pre) {
                    out.push(pre);
                }
            }
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
        out
    }
}

impl fmt::Display for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.paths {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(text: &str) -> ProjectionPath {
        ProjectionPath::parse(text).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for text in [
            "/",
            "/*",
            "/a",
            "//a",
            "/a/b",
            "/a//b",
            "//a//b#",
            "/site/regions/australia/item/name#",
            "/a/*/b",
        ] {
            assert_eq!(p(text).to_string(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn parse_hash_flag() {
        assert!(p("/a#").subtree);
        assert!(!p("/a").subtree);
        assert!(p("/#").subtree);
        assert!(p("/#").steps.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(ProjectionPath::parse("a/b").is_err());
        assert!(ProjectionPath::parse("/a/<x>").is_err());
    }

    #[test]
    fn empty_path_matches_only_empty_branch() {
        assert!(p("/").matches::<&str>(&[]));
        assert!(!p("/").matches(&["a"]));
    }

    #[test]
    fn child_steps() {
        assert!(p("/a/b").matches(&["a", "b"]));
        assert!(!p("/a/b").matches(&["a"]));
        assert!(!p("/a/b").matches(&["a", "c", "b"]));
        assert!(!p("/a/b").matches(&["b"]));
        assert!(!p("/a/b").matches(&["a", "b", "c"]));
    }

    #[test]
    fn descendant_steps() {
        assert!(p("//b").matches(&["b"]));
        assert!(p("//b").matches(&["a", "b"]));
        assert!(p("//b").matches(&["a", "c", "b"]));
        assert!(!p("//b").matches(&["a", "b", "c"]));
        assert!(p("/a//b").matches(&["a", "x", "y", "b"]));
        assert!(!p("/a//b").matches(&["x", "a", "b"]));
        assert!(p("//a//b").matches(&["x", "a", "y", "b"]));
    }

    #[test]
    fn wildcard_steps() {
        assert!(p("/*").matches(&["anything"]));
        assert!(!p("/*").matches(&["a", "b"]));
        assert!(p("/a/*/b").matches(&["a", "x", "b"]));
        assert!(!p("/a/*/b").matches(&["a", "b"]));
    }

    #[test]
    fn descendant_self_overlap() {
        // //b//b needs two distinct b's on the branch.
        assert!(!p("//b//b").matches(&["b"]));
        assert!(p("//b//b").matches(&["b", "b"]));
        assert!(p("//b//b").matches(&["b", "x", "b"]));
    }

    #[test]
    fn prefixes_of_example6() {
        // P = {/a/b}: prefixes are "/" and "/a".
        let pre: Vec<String> = p("/a/b#").prefixes().map(|q| q.to_string()).collect();
        assert_eq!(pre, vec!["/".to_string(), "/a".to_string()]);
    }

    #[test]
    fn plus_closure_matches_example6() {
        // P = {/*, /a/b#, //b#}  =>  P+ = {/, /*, /a, /a/b#, //b#}.
        let ps = PathSet::parse(&["/*", "/a/b#", "//b#"]).unwrap();
        let mut got: Vec<String> = ps.plus_closure().iter().map(|q| q.to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["/", "/*", "//b#", "/a", "/a/b#"]);
    }

    #[test]
    fn pathset_dedups() {
        let ps = PathSet::parse(&["/a", "/a", "/b"]).unwrap();
        assert_eq!(ps.paths().len(), 2);
    }

    #[test]
    fn union_of_equals_folded_union() {
        let sets: Vec<PathSet> = [&["/a", "/b#"][..], &["/b#", "/c"], &["/a", "//d"]]
            .iter()
            .map(|t| PathSet::parse(t).unwrap())
            .collect();
        let folded = sets.iter().fold(PathSet::new(vec![]), |u, q| u.union(q));
        assert_eq!(PathSet::union_of(&sets), folded);
        assert_eq!(folded.to_string(), "/a, /b#, /c, //d");
    }

    #[test]
    fn display_set() {
        let ps = PathSet::parse(&["/a", "/b#"]).unwrap();
        assert_eq!(ps.to_string(), "/a, /b#");
    }
}
