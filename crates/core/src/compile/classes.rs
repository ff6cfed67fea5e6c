//! Relevance of every DTD-automaton state, in one walk.
//!
//! The pipeline asks three things of a state's document branch: is its tag
//! relevant (selection step a), does its instance lie inside a `#`-selected
//! one (step b), and which action does entering it perform (`T`). All
//! three follow from the instance's relevance configuration
//! ([`smpx_paths::RelConfig`]), and a child's configuration is one
//! [`push`](smpx_paths::ConfigStack::push) from its parent's. Instances
//! follow each other in pre-order in state order
//! ([`DtdAutomaton::subtree_end`]), so a single pass over the instances
//! evaluates each once — its open and close state share the result — and
//! the rest of the compile reads a table.
//!
//! The pass costs what the workload selects, not what the DTD holds: below
//! an instance whose configuration is [dead](smpx_paths::RelConfig::is_dead)
//! nothing is relevant, `#`-selected or live, which is what the tables hold
//! by default, so the walk jumps past its subtree: XMark's XM5 visits 16
//! of the DTD's 208 instances.

use super::tables::Action;
use smpx_dtd::{DtdAutomaton, StateId};
use smpx_paths::{ConfigStack, RelNfa};

/// Per-state answers for the relevance walked last, indexed by `StateId`;
/// `q0` holds the neutral entry. One table and its scratch serve every walk
/// of a compile.
pub(crate) struct StateClasses {
    relevant: Vec<bool>,
    inside_copy_on: Vec<bool>,
    action: Vec<Action>,
    /// The open states of the instances the last walk visited, ascending;
    /// every other state holds the defaults.
    visited: Vec<StateId>,
    /// Per element id, the row of the walk's [`RelNfa`] its label advances
    /// through.
    rows: Vec<u32>,
    /// The configurations of the instances enclosing the one at hand.
    stack: ConfigStack,
    /// Their open states, and whether their children lie inside a
    /// `#`-selected instance.
    path: Vec<(StateId, bool)>,
    /// `push` calls over every walk: one per instance visited.
    pub(crate) steps: usize,
}

impl StateClasses {
    pub(crate) fn new(auto: &DtdAutomaton) -> StateClasses {
        let n = auto.state_count();
        StateClasses {
            relevant: vec![false; n],
            inside_copy_on: vec![false; n],
            action: vec![Action::Nop; n],
            visited: Vec::new(),
            rows: Vec::new(),
            stack: ConfigStack::default(),
            path: Vec::new(),
            steps: 0,
        }
    }

    /// [`new`](Self::new) and one [`walk`](Self::walk).
    #[cfg(test)]
    pub(crate) fn build(auto: &DtdAutomaton, nfa: &RelNfa<'_>) -> StateClasses {
        let mut classes = StateClasses::new(auto);
        classes.walk(auto, nfa);
        classes
    }

    /// Classify every state under `nfa`, replacing the previous walk's
    /// answers.
    pub(crate) fn walk(&mut self, auto: &DtdAutomaton, nfa: &RelNfa<'_>) {
        for &open in &self.visited {
            for q in [open, auto.dual(open)] {
                let i = q.0 as usize;
                (self.relevant[i], self.inside_copy_on[i], self.action[i]) =
                    (false, false, Action::Nop);
            }
        }
        self.visited.clear();
        self.rows.clear();
        self.rows.resize(auto.elem_count(), 0);
        for (name, row) in nfa.named_rows() {
            if let Some(e) = auto.elem_by_name(name) {
                self.rows[e] = row;
            }
        }
        self.stack.start(nfa);
        self.path.clear();
        // State 1 opens the root instance; an instance's first child opens
        // two states after it.
        let mut open = StateId(1);
        while (open.0 as usize) < auto.state_count() {
            let up = auto.parent(open);
            while self.path.last().is_some_and(|&(p, _)| Some(p) != up) {
                self.path.pop();
                self.stack.pop();
            }
            let inside = self.path.last().is_some_and(|&(_, inside)| inside);
            self.stack.push(nfa, self.rows[auto.elem_id(open)]);
            self.steps += 1;
            let depth = self.stack.depth();
            let (parent, cfg) = (self.stack.at(nfa, depth - 1), self.stack.at(nfa, depth));
            let relevant = cfg.relevant_tag(&parent);
            let copy_on = cfg.c2_leaf();
            // The prefilter cannot navigate inside an opaque (recursive)
            // subtree: if a path could select below it, keep it whole.
            let whole = copy_on || (auto.is_opaque(open) && cfg.may_match_below());
            let actions = if whole {
                (Action::CopyOn, Action::CopyOff)
            } else if relevant {
                (
                    Action::CopyTag { with_atts: cfg.c1_exact() },
                    Action::CopyTag { with_atts: false },
                )
            } else {
                (Action::Nop, Action::Nop)
            };
            let dead = cfg.is_dead();
            for (q, action) in [(open, actions.0), (auto.dual(open), actions.1)] {
                let i = q.0 as usize;
                (self.relevant[i], self.inside_copy_on[i], self.action[i]) =
                    (relevant, inside, action);
            }
            self.visited.push(open);
            open = if dead {
                self.stack.pop();
                auto.subtree_end(open)
            } else {
                self.path.push((open, copy_on || inside));
                StateId(open.0 + 2)
            };
        }
    }

    /// The open states of the instances the last walk visited, ascending:
    /// every state [`relevant`](Self::relevant) or
    /// [`inside_copy_on`](Self::inside_copy_on) is one of them or its dual.
    pub(crate) fn visited(&self) -> &[StateId] {
        &self.visited
    }

    /// Def. 5 via Def. 3: is `q`'s tag relevant (selection step a)?
    pub(crate) fn relevant(&self, q: StateId) -> bool {
        self.relevant[q.0 as usize]
    }

    /// Does `q`'s instance lie strictly inside a `#`-selected instance
    /// (selection step b prunes exactly these)?
    pub(crate) fn inside_copy_on(&self, q: StateId) -> bool {
        self.inside_copy_on[q.0 as usize]
    }

    /// The member-state action `T` from relevance (paper Sec. IV,
    /// "Remaining lookup tables").
    pub(crate) fn action(&self, q: StateId) -> Action {
        self.action[q.0 as usize]
    }
}
