//! Glushkov position automata for content-model regular expressions.
//!
//! The Glushkov construction (Brüggemann-Klein & Wood \[24\] in the paper)
//! yields a *homogeneous* automaton: every transition entering a position
//! carries that position's label. The paper relies on homogeneity to hang
//! actions off states, so this is the construction used for the DTD
//! automaton's per-element skeletons.
//!
//! Positions are the occurrences of element names in the expression,
//! numbered left to right from 0 and labelled by element id. `first`,
//! `last` and each `follow` set are position bitsets of `u64` words — one
//! word up to 64 positions, a word run beyond — computed bottom-up over
//! the model's post-order nodes with a stack of (nullable, first, last)
//! frames in one reused buffer ([`Positions`]).

use crate::model::{push_regex, Node, Regex};

/// The ascending members of a bitset.
pub(crate) fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

fn union(into: &mut [u64], from: &[u64]) {
    into.iter_mut().zip(from).for_each(|(a, b)| *a |= b);
}

/// The position automaton of one content model, in buffers reused from
/// model to model: what [`Glushkov::build`] and the DTD-automaton build
/// both run.
#[derive(Debug, Default)]
pub(crate) struct Positions {
    /// Element id of each position.
    pub(crate) labels: Vec<u32>,
    /// Words per position set.
    words: usize,
    /// Does the model accept the empty word?
    pub(crate) nullable: bool,
    /// Frame stack: `sets[2fW..2fW + W]` is frame `f`'s first set, the next
    /// `W` words its last set; frame 0 is the model's once built.
    sets: Vec<u64>,
    nulls: Vec<bool>,
    /// `follow[xW..xW + W]`: the positions that may follow position `x`.
    follow: Vec<u64>,
}

impl Positions {
    /// Buffers that hold the automaton of any model of up to `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Positions {
        let w = nodes.div_ceil(64).max(1);
        Positions {
            labels: Vec::with_capacity(nodes),
            words: w,
            nullable: false,
            sets: Vec::with_capacity(2 * nodes * w),
            nulls: Vec::with_capacity(nodes),
            follow: Vec::with_capacity(nodes * w),
        }
    }

    /// Build the automaton of `model`, a post-order node run.
    pub(crate) fn build(&mut self, model: &[Node]) {
        let positions = model.iter().filter(|n| matches!(n, Node::Name(_))).count();
        let w = positions.div_ceil(64).max(1);
        self.words = w;
        self.labels.clear();
        self.nulls.clear();
        self.sets.clear();
        self.follow.clear();
        self.follow.resize(positions * w, 0);
        for &node in model {
            match node {
                Node::Name(e) => {
                    let p = self.labels.len();
                    self.labels.push(e);
                    self.push_frame(false);
                    let f = self.nulls.len() - 1;
                    self.sets[2 * f * w + p / 64] |= 1 << (p % 64);
                    self.sets[(2 * f + 1) * w + p / 64] |= 1 << (p % 64);
                }
                Node::Seq(0) => self.push_frame(true),
                Node::Choice(0) => self.push_frame(false),
                Node::Seq(k) => {
                    let base = self.nulls.len() - k as usize;
                    for f in base + 1..self.nulls.len() {
                        self.join_seq(base, f);
                    }
                    self.pop_to(base + 1);
                }
                Node::Choice(k) => {
                    let base = self.nulls.len() - k as usize;
                    for f in base + 1..self.nulls.len() {
                        let (acc, cur) = self.sets.split_at_mut(2 * f * w);
                        union(&mut acc[2 * base * w..(2 * base + 2) * w], &cur[..2 * w]);
                        self.nulls[base] |= self.nulls[f];
                    }
                    self.pop_to(base + 1);
                }
                Node::Opt => *self.nulls.last_mut().expect("an operand") = true,
                Node::Star | Node::Plus => {
                    let f = self.nulls.len() - 1;
                    let (first, last) = self.sets[2 * f * w..(2 * f + 2) * w].split_at(w);
                    for l in members(last) {
                        union(&mut self.follow[l * w..(l + 1) * w], first);
                    }
                    if node == Node::Star {
                        self.nulls[f] = true;
                    }
                }
            }
        }
        self.nullable = self.nulls[0];
    }

    fn push_frame(&mut self, nullable: bool) {
        self.nulls.push(nullable);
        self.sets.resize(self.sets.len() + 2 * self.words, 0);
    }

    fn pop_to(&mut self, frames: usize) {
        self.nulls.truncate(frames);
        self.sets.truncate(2 * frames * self.words);
    }

    /// Concatenate frame `f` onto frame `base`: the last positions of
    /// `base` are followed by the first of `f`.
    fn join_seq(&mut self, base: usize, f: usize) {
        let w = self.words;
        let (acc, cur) = self.sets.split_at_mut(2 * f * w);
        let (acc_first, acc_last) = acc[2 * base * w..(2 * base + 2) * w].split_at_mut(w);
        let (cur_first, cur_last) = cur[..2 * w].split_at(w);
        for l in members(acc_last) {
            union(&mut self.follow[l * w..(l + 1) * w], cur_first);
        }
        if self.nulls[base] {
            union(acc_first, cur_first);
        }
        if self.nulls[f] {
            union(acc_last, cur_last);
        } else {
            acc_last.copy_from_slice(cur_last);
        }
        self.nulls[base] &= self.nulls[f];
    }

    /// The positions that can start a word.
    pub(crate) fn first(&self) -> &[u64] {
        &self.sets[..self.words]
    }

    /// The positions that can end a word.
    pub(crate) fn last(&self) -> &[u64] {
        &self.sets[self.words..2 * self.words]
    }

    /// The positions that may directly follow position `x`.
    pub(crate) fn follow(&self, x: usize) -> &[u64] {
        &self.follow[x * self.words..(x + 1) * self.words]
    }
}

/// The Glushkov position automaton of one content-model expression.
///
/// Positions are the occurrences of element names in the expression,
/// numbered left to right from 0, each labelled by an element id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Glushkov {
    /// Label (element id) of each position.
    pub labels: Vec<u32>,
    /// Does the expression accept the empty word?
    pub nullable: bool,
    words: usize,
    first: Vec<u64>,
    last: Vec<u64>,
    follow: Vec<u64>,
}

impl Glushkov {
    /// Build the position automaton for `re`, labelling each position with
    /// the id `id` gives its element name.
    pub fn build(re: &Regex, mut id: impl FnMut(&str) -> u32) -> Glushkov {
        let mut nodes = Vec::new();
        push_regex(re, &mut id, &mut nodes);
        let mut p = Positions::default();
        p.build(&nodes);
        Glushkov {
            nullable: p.nullable,
            words: p.words,
            first: p.first().to_vec(),
            last: p.last().to_vec(),
            follow: p.follow,
            labels: p.labels,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the expression contains no positions.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Positions that can start a word, ascending.
    pub fn first(&self) -> impl Iterator<Item = usize> + '_ {
        members(&self.first)
    }

    /// Positions that can end a word, ascending.
    pub fn last(&self) -> impl Iterator<Item = usize> + '_ {
        members(&self.last)
    }

    /// Positions that may directly follow position `x`, ascending.
    pub fn follow(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        members(&self.follow[x * self.words..(x + 1) * self.words])
    }

    /// NFA simulation: does `word` (a sequence of element ids) match the
    /// expression?
    pub fn matches(&self, word: &[u32]) -> bool {
        let w = self.words;
        let mut current = vec![0u64; w];
        let mut next = vec![0u64; w];
        let Some((&a, rest)) = word.split_first() else {
            return self.nullable;
        };
        for p in self.first().filter(|&p| self.labels[p] == a) {
            current[p / 64] |= 1 << (p % 64);
        }
        for &s in rest {
            next.fill(0);
            for p in members(&current) {
                for q in self.follow(p).filter(|&q| self.labels[q] == s) {
                    next[q / 64] |= 1 << (q % 64);
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        current.iter().zip(&self.last).any(|(c, l)| c & l != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: &str) -> Regex {
        Regex::Name(n.into())
    }

    /// Labels by letter: `a` = 0, `b` = 1, ….
    fn build(re: &Regex) -> Glushkov {
        Glushkov::build(re, |n| n.bytes().next().map_or(0, |b| (b - b'a') as u32))
    }

    fn word(names: &[&str]) -> Vec<u32> {
        names.iter().map(|n| n.bytes().next().map_or(0, |b| (b - b'a') as u32)).collect()
    }

    fn set(it: impl Iterator<Item = usize>) -> Vec<usize> {
        it.collect()
    }

    #[test]
    fn single_name() {
        let g = build(&name("a"));
        assert_eq!(g.len(), 1);
        assert!(!g.nullable);
        assert_eq!(set(g.first()), vec![0]);
        assert_eq!(set(g.last()), vec![0]);
        assert!(g.matches(&word(&["a"])));
        assert!(!g.matches(&word(&["b"])));
        assert!(!g.matches(&[]));
        assert!(!g.matches(&word(&["a", "a"])));
    }

    #[test]
    fn sequence() {
        let g = build(&Regex::Seq(vec![name("a"), name("b"), name("c")]));
        assert!(g.matches(&word(&["a", "b", "c"])));
        assert!(!g.matches(&word(&["a", "b"])));
        assert!(!g.matches(&word(&["a", "c", "b"])));
        assert_eq!(set(g.follow(0)), vec![1]);
        assert_eq!(set(g.follow(1)), vec![2]);
        assert!(set(g.follow(2)).is_empty());
    }

    #[test]
    fn choice_star_from_example2() {
        // (b|c)* — the paper's element `a` content.
        let g = build(&Regex::Star(Box::new(Regex::Choice(vec![name("b"), name("c")]))));
        assert!(g.nullable);
        assert!(g.matches(&[]));
        assert!(g.matches(&word(&["b", "c", "c", "b"])));
        assert_eq!(set(g.first()), vec![0, 1]);
        assert_eq!(set(g.last()), vec![0, 1]);
        assert_eq!(set(g.follow(0)), vec![0, 1]);
        assert_eq!(set(g.follow(1)), vec![0, 1]);
    }

    #[test]
    fn seq_with_optional_from_example2() {
        // (b, b?) — the paper's element `c` content.
        let g = build(&Regex::Seq(vec![name("b"), Regex::Opt(Box::new(name("b")))]));
        assert!(!g.nullable);
        assert!(g.matches(&word(&["b"])));
        assert!(g.matches(&word(&["b", "b"])));
        assert!(!g.matches(&word(&["b", "b", "b"])));
        assert_eq!(set(g.first()), vec![0]);
        assert_eq!(set(g.last()), vec![0, 1]);
    }

    #[test]
    fn plus_repeats() {
        let g = build(&Regex::Plus(Box::new(name("x"))));
        assert!(!g.nullable);
        assert!(g.matches(&word(&["x"])));
        assert!(g.matches(&word(&["x", "x", "x"])));
        assert!(!g.matches(&[]));
    }

    #[test]
    fn nullable_prefix_extends_first() {
        // (a?, b): first = {a, b}.
        let g = build(&Regex::Seq(vec![Regex::Opt(Box::new(name("a"))), name("b")]));
        assert_eq!(set(g.first()), vec![0, 1]);
        assert!(g.matches(&word(&["b"])));
        assert!(g.matches(&word(&["a", "b"])));
        assert!(!g.matches(&word(&["a"])));
    }

    #[test]
    fn duplicate_labels_are_distinct_positions() {
        // (b, b?) has two b-positions; Glushkov keeps them apart.
        let g = build(&Regex::Seq(vec![name("b"), Regex::Opt(Box::new(name("b")))]));
        assert_eq!(g.labels, vec![1, 1]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn xmark_item_sequence() {
        // (location,name,payment,description,shipping,incategory+), its
        // elements numbered in order.
        let parts = ["location", "name", "payment", "description", "shipping"];
        let mut seq: Vec<Regex> = parts.iter().map(|n| name(n)).collect();
        seq.push(Regex::Plus(Box::new(name("incategory"))));
        let order = ["location", "name", "payment", "description", "shipping", "incategory"];
        let id = |n: &str| order.iter().position(|&o| o == n).unwrap() as u32;
        let g = Glushkov::build(&Regex::Seq(seq), id);
        assert!(g.matches(&[0, 1, 2, 3, 4, 5, 5]));
        assert!(!g.matches(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn wide_models_span_several_words() {
        // (x0, x1?, …, x149?)+ over 150 positions: three words per set.
        let mut parts = vec![name("x")];
        parts.extend((1..150).map(|_| Regex::Opt(Box::new(name("x")))));
        let g = Glushkov::build(&Regex::Plus(Box::new(Regex::Seq(parts))), |_| 7);
        assert_eq!(g.len(), 150);
        assert_eq!(set(g.first()), vec![0]);
        assert_eq!(set(g.last()), (0..150).collect::<Vec<_>>());
        // Position 70 is followed by every later one and, through the
        // repetition, by the first.
        let mut want = vec![0];
        want.extend(71..150);
        assert_eq!(set(g.follow(70)), want);
        assert!(g.matches(&[7; 151]));
        assert!(!g.matches(&[7, 8]));
    }
}
