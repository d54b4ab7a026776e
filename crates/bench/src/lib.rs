#![warn(missing_docs)]
//! # sit-bench — shared harness for the benchmarks and report tables
//!
//! The paper's evaluation is qualitative (an interactive tool demonstrated
//! on worked examples). The benchmark suite therefore has two halves:
//!
//! * the `figures` binary regenerates every *artifact* — Figures 2a–2e and
//!   5, Screens 7–12 — from the actual engine;
//! * the harness-driven benches and the `report` binary *measure* the paper's
//!   qualitative claims on synthetic workloads (see EXPERIMENTS.md:
//!   B1–B7): DDA question counts under different strategies, ranking
//!   quality, closure/integration/OCS cost, fold-order effects, and
//!   translation throughput.
//!
//! This library holds the pieces both halves share: the oracle-driven
//! session driver ([`drive_session`]), the ranking-quality metrics, and
//! the in-tree micro-bench [`harness`] the bench targets and the `report`
//! binary record their timings with.

pub mod harness;

use sit_core::catalog::GObj;
use sit_core::error::CoreError;
use sit_core::resemblance::CandidatePair;
use sit_core::session::Session;
use sit_datagen::oracle::DdaOracle;
use sit_datagen::{GeneratedPair, GroundTruth};
use sit_ecr::SchemaId;
use sit_matcher::suggest::suggest_equivalences;
use sit_matcher::WeightedResemblance;

/// How phase 3 walks the object pairs — the strategies the
/// question-count experiment (B1) compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase3Strategy {
    /// Review every cross-schema object pair (integration without the
    /// tool's ranking: "very difficult, tedious and error prone").
    AllPairs,
    /// Review only the OCS-ranked candidate list (the tool's heuristic).
    Ranked,
    /// Ranked, additionally skipping pairs whose relation the closure
    /// engine has already derived (the tool's "the rest may be derived").
    RankedWithClosure,
}

/// How phase 2 finds attribute pairs to ask about.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Phase2Strategy {
    /// Ask about every domain-compatible cross-schema attribute pair.
    Exhaustive,
    /// Ask only about matcher suggestions above the threshold (the
    /// future-work syntactic enhancement).
    MatcherSuggested {
        /// Minimum weighted-resemblance score to surface a pair.
        threshold: f64,
    },
}

/// Effort and outcome counters of one driven session.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// Attribute-equivalence questions asked (phase 2).
    pub attr_questions: usize,
    /// Object-pair questions asked (phase 3).
    pub object_questions: usize,
    /// Assertions recorded from answers.
    pub asserted: usize,
    /// Additional assertions the closure engine derived.
    pub derived: usize,
    /// Assertions the engine rejected as conflicting (noisy oracles).
    pub conflicts: usize,
}

/// The outcome of [`drive_session`].
pub struct Driven {
    /// The populated session (ready for `integrate`).
    pub session: Session,
    /// The two schema ids.
    pub ids: (SchemaId, SchemaId),
    /// Effort counters.
    pub stats: DriveStats,
}

/// Run phases 1–3 for a generated pair with the given strategies, asking
/// `oracle` every question a DDA would be asked.
pub fn drive_session(
    pair: &GeneratedPair,
    oracle: &mut dyn DdaOracle,
    phase2: Phase2Strategy,
    phase3: Phase3Strategy,
) -> Driven {
    let mut session = Session::new();
    let sa = session.add_schema(pair.a.clone()).expect("fresh session");
    let sb = session.add_schema(pair.b.clone()).expect("fresh session");
    let mut stats = DriveStats::default();

    // ---- Phase 2: attribute equivalences ----
    let candidates: Vec<(sit_core::catalog::GAttr, sit_core::catalog::GAttr)> = match phase2 {
        Phase2Strategy::Exhaustive => {
            let catalog = session.catalog();
            let attrs_a = catalog.attrs_of(sa);
            let attrs_b = catalog.attrs_of(sb);
            let mut out = Vec::new();
            for &ga in &attrs_a {
                let Ok(da) = catalog.attr(ga) else { continue };
                for &gb in &attrs_b {
                    let Ok(db) = catalog.attr(gb) else { continue };
                    if da.domain.compatible(&db.domain) {
                        out.push((ga, gb));
                    }
                }
            }
            out
        }
        Phase2Strategy::MatcherSuggested { threshold } => {
            let w = WeightedResemblance::default();
            suggest_equivalences(session.catalog(), &w, sa, sb, threshold)
                .into_iter()
                .map(|s| (s.a, s.b))
                .collect()
        }
    };
    for (ga, gb) in candidates {
        let (oa, aa) = owner_attr(&session, ga);
        let (ob, ab) = owner_attr(&session, gb);
        stats.attr_questions += 1;
        if oracle.attrs_equivalent(&oa, &aa, &ob, &ab) && session.declare_equivalent(ga, gb).is_ok()
        {
            // recorded
        }
    }

    // ---- Phase 3: assertions ----
    let pairs: Vec<(GObj, GObj)> = match phase3 {
        Phase3Strategy::AllPairs => {
            let catalog = session.catalog();
            catalog
                .objects_of(sa)
                .flat_map(|a| catalog.objects_of(sb).map(move |b| (a, b)))
                .collect()
        }
        Phase3Strategy::Ranked | Phase3Strategy::RankedWithClosure => session
            .candidates::<GObj>(sa, sb)
            .into_iter()
            .map(|p: CandidatePair<GObj>| (p.left, p.right))
            .collect(),
    };
    for (a, b) in pairs {
        if phase3 == Phase3Strategy::RankedWithClosure
            && session.object_engine().known(a, b).is_some()
        {
            continue; // already pinned by derivation: no question needed
        }
        let name_a = session
            .catalog()
            .schema(a.schema)
            .object(a.object)
            .name
            .clone();
        let name_b = session
            .catalog()
            .schema(b.schema)
            .object(b.object)
            .name
            .clone();
        stats.object_questions += 1;
        if let Some(assertion) = oracle.object_assertion(&name_a, &name_b) {
            match session.assert_objects(a, b, assertion) {
                Ok(derived) => {
                    stats.asserted += 1;
                    stats.derived += derived.len();
                }
                Err(CoreError::Conflict(_)) => stats.conflicts += 1,
                Err(_) => {}
            }
        }
    }

    Driven {
        session,
        ids: (sa, sb),
        stats,
    }
}

fn owner_attr(session: &Session, g: sit_core::catalog::GAttr) -> (String, String) {
    let catalog = session.catalog();
    let schema = catalog.schema(g.schema);
    let owner = schema.owner_name(g.owner).unwrap_or("?").to_owned();
    let attr = schema
        .attr_of(g.owner, g.attr)
        .map(|a| a.name.clone())
        .unwrap_or_default();
    (owner, attr)
}

/// Ranking-quality metrics of a candidate list against ground truth.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankingQuality {
    /// Fraction of the top-`k` pairs that truly correspond (`k` = number
    /// of true pairs).
    pub precision_at_k: f64,
    /// Fraction of true pairs appearing anywhere in the list.
    pub recall: f64,
    /// Mean reciprocal rank of the true pairs.
    pub mrr: f64,
}

/// Score an ordered candidate list (by object display names) against the
/// truth.
pub fn ranking_quality(
    session: &Session,
    ranked: &[CandidatePair<GObj>],
    truth: &GroundTruth,
) -> RankingQuality {
    let catalog = session.catalog();
    let total_true = truth.pair_count();
    if total_true == 0 {
        return RankingQuality::default();
    }
    let is_true = |p: &CandidatePair<GObj>| {
        let a = &catalog.schema(p.left.schema).object(p.left.object).name;
        let b = &catalog.schema(p.right.schema).object(p.right.object).name;
        truth.assertion_for(a, b).is_some()
    };
    let k = total_true.min(ranked.len());
    let hits_at_k = ranked[..k].iter().filter(|p| is_true(p)).count();
    let hits_total = ranked.iter().filter(|p| is_true(p)).count();
    let mut mrr = 0.0;
    let mut seen = 0usize;
    for (i, p) in ranked.iter().enumerate() {
        if is_true(p) {
            mrr += 1.0 / (i + 1) as f64;
            seen += 1;
        }
    }
    RankingQuality {
        precision_at_k: if k == 0 {
            0.0
        } else {
            hits_at_k as f64 / k as f64
        },
        recall: hits_total as f64 / total_true as f64,
        mrr: if seen == 0 { 0.0 } else { mrr / seen as f64 },
    }
}

/// A random-order baseline for the ranking comparison: the same candidate
/// universe (all cross pairs), shuffled deterministically.
pub fn random_pairs(
    session: &Session,
    sa: SchemaId,
    sb: SchemaId,
    seed: u64,
) -> Vec<CandidatePair<GObj>> {
    let catalog = session.catalog();
    let mut out: Vec<CandidatePair<GObj>> = catalog
        .objects_of(sa)
        .flat_map(|a| {
            catalog.objects_of(sb).map(move |b| CandidatePair {
                left: a,
                right: b,
                equivalent: 0,
                ratio: 0.0,
            })
        })
        .collect();
    let mut rng = sit_prng::Xoshiro256pp::seed_from_u64(seed);
    rng.shuffle(&mut out);
    out
}

/// Render a plain-text table (the report binary's output format).
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_datagen::oracle::GroundTruthOracle;
    use sit_datagen::GeneratorConfig;

    fn small_pair() -> GeneratedPair {
        GeneratorConfig {
            objects_per_schema: 6,
            overlap: 0.5,
            ..Default::default()
        }
        .generate_pair()
    }

    #[test]
    fn ranked_strategy_asks_fewer_questions_than_all_pairs() {
        let pair = small_pair();
        let mut o1 = GroundTruthOracle::new(&pair.truth);
        let all = drive_session(
            &pair,
            &mut o1,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::AllPairs,
        );
        let mut o2 = GroundTruthOracle::new(&pair.truth);
        let ranked = drive_session(
            &pair,
            &mut o2,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        assert!(
            ranked.stats.object_questions <= all.stats.object_questions,
            "{} <= {}",
            ranked.stats.object_questions,
            all.stats.object_questions
        );
        // Both find the true assertions.
        assert_eq!(all.stats.asserted, pair.truth.pair_count());
        assert!(ranked.stats.asserted >= 1);
    }

    #[test]
    fn matcher_suggestions_cut_attribute_questions() {
        let pair = small_pair();
        let mut o1 = GroundTruthOracle::new(&pair.truth);
        let exhaustive = drive_session(
            &pair,
            &mut o1,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let mut o2 = GroundTruthOracle::new(&pair.truth);
        let suggested = drive_session(
            &pair,
            &mut o2,
            Phase2Strategy::MatcherSuggested { threshold: 0.55 },
            Phase3Strategy::Ranked,
        );
        assert!(
            suggested.stats.attr_questions < exhaustive.stats.attr_questions,
            "{} < {}",
            suggested.stats.attr_questions,
            exhaustive.stats.attr_questions
        );
    }

    #[test]
    fn ranking_beats_random_on_quality() {
        let pair = small_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let (sa, sb) = driven.ids;
        // Fresh session replays just phase 2, so the ranking reflects the
        // equivalences without assertions.
        let ranked = driven.session.candidates::<GObj>(sa, sb);
        let q_ranked = ranking_quality(&driven.session, &ranked, &pair.truth);
        let random = random_pairs(&driven.session, sa, sb, 99);
        let q_random = ranking_quality(&driven.session, &random, &pair.truth);
        assert!(q_ranked.precision_at_k >= q_random.precision_at_k);
        assert!(q_ranked.mrr >= q_random.mrr);
        assert!(q_ranked.recall > 0.9, "{q_ranked:?}");
    }

    #[test]
    fn closure_skips_derivable_questions() {
        // With in-place categories, (A.X, B.Senior_X) is derivable from
        // A.X ≡ B.X plus B's own category edge — ranked+closure must ask
        // strictly fewer questions than plain ranked.
        let pair = GeneratorConfig {
            objects_per_schema: 10,
            overlap: 0.8,
            contained_frac: 0.0,
            mayby_frac: 0.0,
            category_frac: 1.0,
            ..Default::default()
        }
        .generate_pair();
        let mut o1 = GroundTruthOracle::new(&pair.truth);
        let ranked = drive_session(
            &pair,
            &mut o1,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let mut o2 = GroundTruthOracle::new(&pair.truth);
        let closure = drive_session(
            &pair,
            &mut o2,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::RankedWithClosure,
        );
        assert!(
            closure.stats.object_questions < ranked.stats.object_questions,
            "{} < {}",
            closure.stats.object_questions,
            ranked.stats.object_questions
        );
        // Both end with the same pinned knowledge for the true pairs.
        assert!(closure.stats.asserted + closure.stats.derived >= closure.stats.asserted);
    }

    #[test]
    fn driven_session_integrates_cleanly() {
        let pair = small_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::RankedWithClosure,
        );
        let (sa, sb) = driven.ids;
        let result = driven.session.integrate(sa, sb, &Default::default());
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["strategy", "questions"],
            &[
                vec!["all-pairs".into(), "100".into()],
                vec!["ranked".into(), "12".into()],
            ],
        );
        assert!(t.contains("strategy"));
        assert!(t.lines().count() == 4);
    }
}
