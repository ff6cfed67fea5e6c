//! Relevance of every DTD-automaton state, in one walk.
//!
//! The pipeline asks three things of a state's document branch: is its tag
//! relevant (selection step a), does its instance lie inside a `#`-selected
//! one (step b), and which action does entering it perform (`T`). All
//! three follow from the instance's relevance configuration
//! ([`smpx_paths::RelConfig`]), and a child's configuration is one
//! [`descend`](smpx_paths::RelConfig::descend) from its parent's. Parents
//! precede children in state order ([`DtdAutomaton::parent`]), so a single
//! pass over the states evaluates every instance once — its open and close
//! state share the result — and the rest of the compile reads a table.

use super::tables::Action;
use smpx_dtd::{DtdAutomaton, StateId};
use smpx_paths::{RelConfig, Relevance};

/// Per-state answers for one (automaton, relevance) pair, indexed by
/// `StateId`; `q0` holds the neutral entry.
pub(crate) struct StateClasses {
    relevant: Vec<bool>,
    inside_copy_on: Vec<bool>,
    action: Vec<Action>,
    /// `descend` calls made: one per element instance.
    pub(crate) steps: usize,
}

impl StateClasses {
    pub(crate) fn build(auto: &DtdAutomaton, rel: &Relevance) -> StateClasses {
        let n = auto.state_count();
        let mut classes = StateClasses {
            relevant: vec![false; n],
            inside_copy_on: vec![false; n],
            action: vec![Action::Nop; n],
            steps: 0,
        };
        let root = rel.root();
        // Configuration and `#`-selection of each instance, at its open state.
        let mut instances: Vec<Option<(RelConfig<'_>, bool)>> = vec![None; n];
        for open in auto.states().skip(1).filter(|&q| !auto.is_close(q)) {
            let (parent, inside) = match auto.parent(open) {
                None => (&root, false),
                Some(p) => {
                    let (cfg, copy_on) = instances[p.0 as usize].as_ref().expect("parent first");
                    (cfg, *copy_on || classes.inside_copy_on[p.0 as usize])
                }
            };
            let cfg = parent.descend(auto.elem_name(open));
            classes.steps += 1;
            let relevant = cfg.relevant_tag(parent);
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
            for (q, action) in [(open, actions.0), (auto.dual(open), actions.1)] {
                let i = q.0 as usize;
                classes.relevant[i] = relevant;
                classes.inside_copy_on[i] = inside;
                classes.action[i] = action;
            }
            instances[open.0 as usize] = Some((cfg, copy_on));
        }
        classes
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
