//! The evaluation workloads.
//!
//! * XMark queries XM1–XM14, XM17–XM20: projection path sets extracted in
//!   the style of Marian & Siméon \[5\] from the published XMark queries (the
//!   paper's Table I workload; the full XQuery texts are not expressible in
//!   our XPath subset, so the path sets are curated — see DESIGN.md §5 —
//!   and every set includes the well-formedness default `/*`).
//! * MEDLINE queries M1–M5: the Table II XPath expressions verbatim; their
//!   path sets come from the `smpx_paths::extract` implementation of the
//!   same extraction algorithm.

use smpx_dtd::Dtd;
use smpx_paths::extract::extract_from_text;
use smpx_paths::PathSet;

/// One XMark workload entry: query id and its projection paths.
#[derive(Debug, Clone, Copy)]
pub struct XmarkQuery {
    /// Query id, e.g. "XM1".
    pub id: &'static str,
    /// Projection paths (including `/*`).
    pub paths: &'static [&'static str],
}

/// The Table I workload: XM1–XM14 and XM17–XM20 (XM15/XM16 touch the
/// recursive description lists the paper excludes).
pub const XMARK_QUERIES: &[XmarkQuery] = &[
    XmarkQuery { id: "XM1", paths: &["/*", "/site/people/person", "/site/people/person/name#"] },
    XmarkQuery { id: "XM2", paths: &["/*", "/site/open_auctions/open_auction/bidder/increase#"] },
    XmarkQuery { id: "XM3", paths: &["/*", "/site/open_auctions/open_auction/bidder/increase#"] },
    XmarkQuery {
        id: "XM4",
        paths: &[
            "/*",
            "/site/open_auctions/open_auction/bidder/personref",
            "/site/open_auctions/open_auction/initial#",
        ],
    },
    XmarkQuery { id: "XM5", paths: &["/*", "/site/closed_auctions/closed_auction/price#"] },
    XmarkQuery { id: "XM6", paths: &["/*", "/site/regions//item"] },
    XmarkQuery { id: "XM7", paths: &["/*", "//description", "//annotation", "//emailaddress"] },
    XmarkQuery {
        id: "XM8",
        paths: &[
            "/*",
            "/site/people/person",
            "/site/people/person/name#",
            "/site/closed_auctions/closed_auction/buyer",
        ],
    },
    XmarkQuery {
        id: "XM9",
        paths: &[
            "/*",
            "/site/people/person",
            "/site/people/person/name#",
            "/site/closed_auctions/closed_auction/buyer",
            "/site/closed_auctions/closed_auction/itemref",
            "/site/regions/europe/item",
            "/site/regions/europe/item/name#",
        ],
    },
    XmarkQuery {
        id: "XM10",
        paths: &[
            "/*",
            "/site/people/person/profile/interest",
            "/site/people/person/profile",
            "/site/people/person/name#",
            "/site/people/person/emailaddress#",
            "/site/people/person/homepage#",
            "/site/people/person/creditcard#",
            "/site/people/person/profile/gender#",
            "/site/people/person/profile/age#",
            "/site/people/person/profile/education#",
            "/site/people/person/profile/business#",
            "/site/people/person/address#",
        ],
    },
    XmarkQuery {
        id: "XM11",
        paths: &[
            "/*",
            "/site/people/person/name#",
            "/site/people/person/profile",
            "/site/open_auctions/open_auction/initial#",
        ],
    },
    XmarkQuery {
        id: "XM12",
        paths: &[
            "/*",
            "/site/people/person/name#",
            "/site/people/person/profile",
            "/site/open_auctions/open_auction/initial#",
        ],
    },
    XmarkQuery {
        id: "XM13",
        paths: &[
            "/*",
            "/site/regions/australia/item/name#",
            "/site/regions/australia/item/description#",
        ],
    },
    XmarkQuery { id: "XM14", paths: &["/*", "/site//item/name#", "/site//item/description#"] },
    XmarkQuery {
        id: "XM17",
        paths: &["/*", "/site/people/person/name#", "/site/people/person/homepage#"],
    },
    XmarkQuery { id: "XM18", paths: &["/*", "/site/open_auctions/open_auction/reserve#"] },
    XmarkQuery {
        id: "XM19",
        paths: &["/*", "/site/regions//item/name#", "/site/regions//item/location#"],
    },
    XmarkQuery { id: "XM20", paths: &["/*", "/site/people/person/profile", "/site/people/person"] },
];

/// The Table III subset (queries benchmarked by both SMP and TBP).
pub const TABLE3_QUERIES: &[&str] = &["XM3", "XM6", "XM7", "XM19"];

/// One MEDLINE workload entry.
#[derive(Debug, Clone, Copy)]
pub struct MedlineQuery {
    /// Query id, e.g. "M1".
    pub id: &'static str,
    /// The XPath text (paper Table II, verbatim).
    pub xpath: &'static str,
}

/// The Table II workload.
pub const MEDLINE_QUERIES: &[MedlineQuery] = &[
    MedlineQuery { id: "M1", xpath: "/MedlineCitationSet//CollectionTitle" },
    MedlineQuery {
        id: "M2",
        xpath: r#"/MedlineCitationSet//DataBank[DataBankName/text()="PDB"]/AccessionNumberList"#,
    },
    MedlineQuery {
        id: "M3",
        xpath: r#"/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject[LastName/text()="Hippocrates" or DatesAssociatedWithName="Oct2006"]/TitleAssociatedWithName"#,
    },
    MedlineQuery {
        id: "M4",
        xpath: r#"/MedlineCitationSet//CopyrightInformation[contains(text(),"NASA")]"#,
    },
    MedlineQuery {
        id: "M5",
        xpath: r#"/MedlineCitationSet/MedlineCitation[contains(MedlineJournalInfo//text(),"Sterilization")]/DateCompleted"#,
    },
];

/// The protein-sequence workload (the paper's technical report \[27\]
/// reports these; `table_protein` regenerates them in Table I format):
/// `(id, paths)`.
pub const PROTEIN_QUERIES: &[(&str, &[&str])] = &[
    ("P1", &["/*", "/ProteinDatabase/ProteinEntry/protein/name#"]),
    ("P2", &["/*", "//refinfo/authors#"]),
    ("P3", &["/*", "/ProteinDatabase/ProteinEntry/sequence#"]),
    ("P4", &["/*", "//keyword"]),
    (
        "P5",
        &[
            "/*",
            "/ProteinDatabase/ProteinEntry/header/accession#",
            "/ProteinDatabase/ProteinEntry/summary#",
        ],
    ),
];

/// Path set of an XMark query.
pub fn xmark_paths(q: &XmarkQuery) -> PathSet {
    PathSet::parse(q.paths).expect("curated paths parse")
}

/// Path set of a MEDLINE query (via the extraction algorithm).
pub fn medline_paths(q: &MedlineQuery) -> PathSet {
    extract_from_text(q.xpath).expect("Table II queries parse")
}

/// `n` distinct standing queries for a registry: root-to-element XPaths of
/// `dtd` (a recursive DTD's walk stops at the first repeated element), the
/// root's own excluded, in a fixed SplitMix64 draw whose first `k` are the
/// same for every `n >= k`. The draw is the one `benchmark/`'s
/// `xmark-multiquery` workload makes, so a compile row or a pinned table
/// digest over these queries speaks about the same automaton.
pub fn standing_queries(dtd: &Dtd, n: usize) -> Vec<String> {
    fn walk(dtd: &Dtd, path: &mut Vec<String>, out: &mut Vec<String>) {
        out.push(format!("/{}", path.join("/")));
        let here = path.last().expect("path starts at the root").clone();
        for child in dtd.effective_child_names(&here) {
            if !path.iter().any(|p| p == child) {
                path.push(child.to_string());
                walk(dtd, path, out);
                path.pop();
            }
        }
    }
    let mut all = Vec::new();
    walk(dtd, &mut vec![dtd.root().to_string()], &mut all);
    all.remove(0);
    let mut state: u64 = 0x006d_756c_7469_7172;
    for i in 0..n.min(all.len()) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = i + (z % (all.len() - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// Path sets of [`standing_queries`] (via the extraction algorithm).
pub fn standing_path_sets(dtd: &Dtd, n: usize) -> Vec<PathSet> {
    standing_queries(dtd, n)
        .iter()
        .map(|q| extract_from_text(q).expect("root-to-element paths parse"))
        .collect()
}

/// Paper reference values for Table I (5 GB XMark): (id, ∅ shift size,
/// initial-jump %, char-comparison %). Used to print side-by-side
/// comparisons; absolute times are machine-bound and not compared.
pub const PAPER_TABLE1: &[(&str, f64, f64, f64)] = &[
    ("XM1", 5.72, 0.32, 18.86),
    ("XM2", 7.62, 1.42, 15.8),
    ("XM3", 7.62, 1.42, 15.8),
    ("XM4", 7.65, 1.37, 16.37),
    ("XM5", 10.83, 0.43, 9.87),
    ("XM6", 5.17, 1.98, 19.91),
    ("XM7", 6.55, 2.61, 18.40),
    ("XM8", 7.42, 0.75, 15.10),
    ("XM9", 7.50, 1.18, 15.29),
    ("XM10", 5.68, 0.16, 22.38),
    ("XM11", 6.58, 1.85, 17.15),
    ("XM12", 6.60, 2.00, 16.81),
    ("XM13", 6.06, 0.13, 17.17),
    ("XM14", 5.16, 1.35, 21.24),
    ("XM17", 5.72, 0.32, 18.99),
    ("XM18", 8.29, 0.80, 12.95),
    ("XM19", 5.17, 1.64, 20.57),
    ("XM20", 5.75, 0.59, 18.67),
];

/// Paper reference values for Table II (656 MB MEDLINE): (id, ∅ shift,
/// initial-jump %, char-comparison %).
pub const PAPER_TABLE2: &[(&str, f64, f64, f64)] = &[
    ("M1", 12.24, 0.00, 8.37),
    ("M2", 6.86, 0.00, 14.63),
    ("M3", 12.49, 0.00, 8.4),
    ("M4", 12.69, 0.01, 8.52),
    ("M5", 13.43, 7.61, 9.81),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_xmark_path_sets_parse() {
        for q in XMARK_QUERIES {
            let ps = xmark_paths(q);
            assert!(!ps.is_empty(), "{}", q.id);
            assert!(q.paths.contains(&"/*"), "{} must keep the root", q.id);
        }
    }

    #[test]
    fn xm2_and_xm3_identical_as_in_the_paper() {
        let a = xmark_paths(&XMARK_QUERIES[1]);
        let b = xmark_paths(&XMARK_QUERIES[2]);
        assert_eq!(a, b);
    }

    /// The draw is `benchmark/`'s `standing_queries(Dataset::Xmark, _)`:
    /// same first entries, distinct, nested in `n`.
    #[test]
    fn standing_queries_are_the_benchmarks_draw() {
        let dtd = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).unwrap();
        let all = standing_queries(&dtd, 100);
        assert_eq!(
            all[..3],
            [
                "/site/closed_auctions/closed_auction/annotation/description/text",
                "/site/regions/africa/item/mailbox/mail/text/bold",
                "/site/categories",
            ]
        );
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
        assert_eq!(standing_queries(&dtd, 10), all[..10]);
        assert_eq!(standing_path_sets(&dtd, 100).len(), 100);
    }

    #[test]
    fn all_medline_queries_parse_and_extract() {
        for q in MEDLINE_QUERIES {
            let ps = medline_paths(q);
            assert!(ps.paths().len() >= 2, "{} needs /* plus a query path", q.id);
        }
    }

    #[test]
    fn paper_reference_tables_cover_all_queries() {
        for q in XMARK_QUERIES {
            assert!(PAPER_TABLE1.iter().any(|(id, ..)| *id == q.id), "{}", q.id);
        }
        for q in MEDLINE_QUERIES {
            assert!(PAPER_TABLE2.iter().any(|(id, ..)| *id == q.id), "{}", q.id);
        }
    }

    #[test]
    fn table3_queries_exist() {
        for id in TABLE3_QUERIES {
            assert!(XMARK_QUERIES.iter().any(|q| q.id == *id));
        }
    }
}
