//! Measured tables B1–B7 (see EXPERIMENTS.md): the quantitative side of
//! the reproduction, substantiating the paper's qualitative claims on
//! synthetic workloads with known ground truth.
//!
//! ```text
//! report            # all tables
//! report B1         # one table
//! ```
//!
//! Besides the plain-text tables, every measured section is collected
//! into `BENCH_report.json` (sections sorted by code, fixed key order),
//! so successive PRs produce a diffable perf/quality trajectory.

use std::time::Instant;

use sit_bench::harness::json_string;
use sit_bench::{
    drive_session, random_pairs, ranking_quality, table, Phase2Strategy, Phase3Strategy,
};
use sit_core::assertion::Assertion;
use sit_core::catalog::GObj;
use sit_core::session::Session;
use sit_datagen::oracle::{GroundTruthOracle, NoisyOracle};
use sit_datagen::GeneratorConfig;
use sit_ecr::AttrOwner;
use sit_matcher::{best_integration_order, WeightedResemblance};
use sit_translate::{HierSchema, RecordType, RelSchema, Table};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| which.is_empty() || which.iter().any(|w| w == name);
    let mut report = Report::default();
    if want("B1") {
        b1_question_count(&mut report);
    }
    if want("B2") {
        b2_heuristic_quality(&mut report);
    }
    if want("B3") {
        b3_closure_cost(&mut report);
    }
    if want("B4") {
        b4_integration_cost(&mut report);
    }
    if want("B5") {
        b5_ocs_cost(&mut report);
    }
    if want("B6") {
        b6_nary_order(&mut report);
    }
    if want("B7") {
        b7_translation(&mut report);
    }
    report
        .write_json(std::path::Path::new("BENCH_report.json"))
        .expect("write BENCH_report.json");
}

/// One measured table: printed as before, and one entry of
/// `BENCH_report.json`.
struct Section {
    code: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    note: Option<String>,
}

/// Collects every section the selected tables produced.
#[derive(Default)]
struct Report {
    sections: Vec<Section>,
}

impl Report {
    /// Print a table the way the report always has, and record it.
    fn section(
        &mut self,
        code: &str,
        title: &str,
        headers: &[&str],
        rows: Vec<Vec<String>>,
        note: Option<&str>,
    ) {
        println!("\n### {code} — {title}\n");
        println!("{}", table(headers, &rows));
        if let Some(note) = note {
            println!("{note}");
        }
        self.sections.push(Section {
            code: code.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows,
            note: note.map(str::to_owned),
        });
    }

    /// The JSON trajectory record: one object per section, keyed and
    /// sorted by section code, with fixed key order inside each section.
    fn write_json(mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.sections.sort_by(|a, b| a.code.cmp(&b.code));
        let mut out = String::from("{\n");
        for (i, s) in self.sections.iter().enumerate() {
            let strings = |xs: &[String]| {
                xs.iter()
                    .map(|x| json_string(x))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "  {}: {{\n    \"title\": {},\n    \"headers\": [{}],\n    \"rows\": [\n",
                json_string(&s.code),
                json_string(&s.title),
                strings(&s.headers)
            ));
            for (j, row) in s.rows.iter().enumerate() {
                out.push_str(&format!(
                    "      [{}]{}\n",
                    strings(row),
                    if j + 1 < s.rows.len() { "," } else { "" }
                ));
            }
            out.push_str("    ]");
            if let Some(note) = &s.note {
                out.push_str(&format!(",\n    \"note\": {}", json_string(note)));
            }
            out.push_str(&format!(
                "\n  }}{}\n",
                if i + 1 < self.sections.len() { "," } else { "" }
            ));
        }
        out.push_str("}\n");
        std::fs::write(path, out)?;
        println!("\nwrote {}", path.display());
        Ok(())
    }
}

/// B1: DDA question count — naive all-pairs vs OCS-ranked vs ranked plus
/// transitive derivation, over schema size.
fn b1_question_count(report: &mut Report) {
    let mut rows = Vec::new();
    for objects in [6, 12, 24, 48] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            overlap: 0.5,
            contained_frac: 0.2,
            category_frac: 0.6,
            seed: 7 + objects as u64,
            ..Default::default()
        }
        .generate_pair();
        let mut row = vec![objects.to_string(), pair.truth.pair_count().to_string()];
        for strategy in [
            Phase3Strategy::AllPairs,
            Phase3Strategy::Ranked,
            Phase3Strategy::RankedWithClosure,
        ] {
            let mut oracle = GroundTruthOracle::new(&pair.truth);
            let driven = drive_session(&pair, &mut oracle, Phase2Strategy::Exhaustive, strategy);
            row.push(driven.stats.object_questions.to_string());
        }
        rows.push(row);
    }
    report.section(
        "B1",
        "DDA question count by strategy (phase 3 object questions)",
        &[
            "objects/schema",
            "true pairs",
            "all-pairs",
            "ranked",
            "ranked+closure",
        ],
        rows,
        Some("shape check: all-pairs >> ranked >= ranked+closure"),
    );
}

/// B2: ranking quality — random order vs attribute-ratio vs weighted
/// matcher-based suggestion pipeline.
fn b2_heuristic_quality(report: &mut Report) {
    let mut rows = Vec::new();
    for (label, rename_prob) in [("clean names", 0.0), ("noisy names", 0.6)] {
        let pair = GeneratorConfig {
            objects_per_schema: 16,
            overlap: 0.5,
            seed: 42,
            perturber: sit_datagen::Perturber {
                rename_prob,
                ..Default::default()
            },
            ..Default::default()
        }
        .generate_pair();
        // Attribute-ratio ranking needs phase 2 done; use the perfect
        // oracle for it.
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let (sa, sb) = driven.ids;
        let ranked = driven.session.candidates::<GObj>(sa, sb);
        let q_ratio = ranking_quality(&driven.session, &ranked, &pair.truth);
        let rand = random_pairs(&driven.session, sa, sb, 1);
        let q_rand = ranking_quality(&driven.session, &rand, &pair.truth);
        // Matcher-suggested phase 2 (no oracle answers needed for the
        // ranking itself: equivalences come from suggestions alone).
        let mut oracle2 = GroundTruthOracle::new(&pair.truth);
        let driven2 = drive_session(
            &pair,
            &mut oracle2,
            Phase2Strategy::MatcherSuggested { threshold: 0.55 },
            Phase3Strategy::Ranked,
        );
        let ranked2 = driven2
            .session
            .candidates::<GObj>(driven2.ids.0, driven2.ids.1);
        let q_matcher = ranking_quality(&driven2.session, &ranked2, &pair.truth);
        for (strategy, q) in [
            ("random order", q_rand),
            ("attribute ratio", q_ratio),
            ("matcher-suggested", q_matcher),
        ] {
            rows.push(vec![
                label.to_owned(),
                strategy.to_owned(),
                format!("{:.2}", q.precision_at_k),
                format!("{:.2}", q.recall),
                format!("{:.2}", q.mrr),
            ]);
        }
    }
    report.section(
        "B2",
        "candidate-ranking quality (precision@k / recall / MRR)",
        &["workload", "ranking", "prec@k", "recall", "MRR"],
        rows,
        Some("shape check: attribute ratio >> random; matcher holds up under noisy names"),
    );
}

/// B3: closure cost — assertion propagation and conflict detection time.
fn b3_closure_cost(report: &mut Report) {
    let mut rows = Vec::new();
    for n in [25usize, 50, 100, 200] {
        let mut engine = sit_core::closure::AssertionEngine::<u32>::new();
        let start = Instant::now();
        for i in 0..n as u32 {
            engine
                .assert(i, i + 1, Assertion::ContainedIn, |x| format!("n{x}"))
                .unwrap();
        }
        let assert_time = start.elapsed();
        let pinned = engine.pinned().len();
        // Conflict detection at the far ends of the chain.
        let start = Instant::now();
        let err = engine.assert(n as u32, 0, Assertion::ContainedIn, |x| format!("n{x}"));
        let conflict_time = start.elapsed();
        assert!(err.is_err());
        rows.push(vec![
            n.to_string(),
            format!("{:.2?}", assert_time),
            pinned.to_string(),
            format!("{:.2?}", conflict_time),
        ]);
    }
    report.section(
        "B3",
        "transitive derivation cost (chain of contained-in assertions)",
        &[
            "chain length",
            "assert+derive time",
            "pinned pairs",
            "conflict check",
        ],
        rows,
        None,
    );
}

/// B4: full four-phase pipeline cost over schema size and overlap.
fn b4_integration_cost(report: &mut Report) {
    let mut rows = Vec::new();
    for (objects, overlap) in [(8, 0.5), (16, 0.5), (32, 0.5), (16, 0.25), (16, 0.75)] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            overlap,
            seed: 11,
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let start = Instant::now();
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::RankedWithClosure,
        );
        let phase23 = start.elapsed();
        let start = Instant::now();
        let result = driven
            .session
            .integrate(driven.ids.0, driven.ids.1, &Default::default())
            .expect("integrates");
        let phase4 = start.elapsed();
        rows.push(vec![
            objects.to_string(),
            format!("{overlap:.2}"),
            format!("{:.2?}", phase23),
            format!("{:.2?}", phase4),
            result.schema.object_count().to_string(),
        ]);
    }
    report.section(
        "B4",
        "integration pipeline cost (drive phases 2-3, then integrate)",
        &[
            "objects/schema",
            "overlap",
            "phases 2-3",
            "phase 4",
            "integrated objects",
        ],
        rows,
        None,
    );
}

/// B5: ACS→OCS derivation cost.
fn b5_ocs_cost(report: &mut Report) {
    let mut rows = Vec::new();
    for objects in [8usize, 16, 32, 64] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            overlap: 0.5,
            seed: 3,
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let (sa, sb) = driven.ids;
        let start = Instant::now();
        let m = sit_core::resemblance::ocs_matrix(
            driven.session.catalog(),
            driven.session.equivalences(),
            sa,
            sb,
        );
        let elapsed = start.elapsed();
        let nonzero: usize = m.iter().flatten().filter(|&&v| v > 0).count();
        rows.push(vec![
            objects.to_string(),
            format!("{}x{}", m.len(), m.first().map(Vec::len).unwrap_or(0)),
            nonzero.to_string(),
            format!("{:.2?}", elapsed),
        ]);
    }
    report.section(
        "B5",
        "OCS matrix derivation cost",
        &["objects/schema", "matrix", "nonzero entries", "derive time"],
        rows,
        None,
    );
}

/// B6: n-ary fold order — resemblance-guided vs adversarial ordering.
///
/// The fold is driven manually (not through `fold_integrate`) so the
/// report can track, via integration provenance, which original concepts
/// each accumulated object class carries — the DDA-question model charges
/// one question per (accumulated object × next-schema object) pair.
fn b6_nary_order(report: &mut Report) {
    let config = GeneratorConfig {
        objects_per_schema: 8,
        overlap: 0.75,
        seed: 23,
        perturber: sit_datagen::Perturber {
            rename_prob: 0.0,
            drop_attr_prob: 0.0,
            extra_attr_prob: 0.0,
        },
        ..Default::default()
    };
    let family = config.generate_family_with(6, true);
    let w = WeightedResemblance::default();
    let refs: Vec<&sit_ecr::Schema> = family.schemas.iter().collect();
    let guided = best_integration_order(&w, &refs);
    let mut reverse = guided.clone();
    reverse.reverse();
    let mut rows = Vec::new();
    for (label, order) in [("resemblance-guided", guided), ("reverse", reverse)] {
        let start = Instant::now();
        let outcome = run_fold(&family, &order);
        let elapsed = start.elapsed();
        rows.push(vec![
            label.to_owned(),
            outcome.questions.to_string(),
            outcome.final_objects.to_string(),
            format!("{:.2?}", elapsed),
        ]);
    }
    report.section(
        "B6",
        "n-ary fold order: resemblance-guided vs reverse order",
        &["fold order", "questions", "final objects", "time"],
        rows,
        Some("shape check: guided order merges similar schemas early and asks fewer questions"),
    );

    // Noise sensitivity: the same drive under a forgetful DDA.
    let pair = GeneratorConfig {
        objects_per_schema: 24,
        overlap: 0.8,
        seed: 77,
        ..Default::default()
    }
    .generate_pair();
    let mut rows = Vec::new();
    for rate in [0.0, 0.1, 0.3] {
        let mut oracle = NoisyOracle::new(&pair.truth, rate, 5);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::RankedWithClosure,
        );
        rows.push(vec![
            format!("{rate:.1}"),
            driven.stats.asserted.to_string(),
            driven.stats.conflicts.to_string(),
            pair.truth.pair_count().to_string(),
        ]);
    }
    report.section(
        "B6b",
        "question count under a noisy DDA (error rate sweep)",
        &["error rate", "asserted", "conflicts", "true pairs"],
        rows,
        None,
    );
}

/// Fold metrics for one order.
struct FoldOutcome {
    questions: usize,
    final_objects: usize,
}

/// Manually fold the family in `order`, answering assertions from the
/// pairwise truths through a provenance-tracked name map.
fn run_fold(family: &sit_datagen::SchemaFamily, order: &[usize]) -> FoldOutcome {
    use std::collections::HashMap;
    let mut session = Session::new();
    let ids: Vec<sit_ecr::SchemaId> = family
        .schemas
        .iter()
        .map(|s| session.add_schema(s.clone()).unwrap())
        .collect();
    // Integrated object name -> the original concept-level names behind it.
    let mut orig: HashMap<String, Vec<String>> = HashMap::new();
    for s in &family.schemas {
        for (_, o) in s.objects() {
            orig.entry(o.name.clone()).or_default().push(o.name.clone());
        }
    }
    let truth_for = |a: &str, b: &str| -> Option<Assertion> {
        family
            .truths
            .iter()
            .flatten()
            .find_map(|gt| gt.assertion_for(a, b))
    };
    let mut questions = 0usize;
    let mut acc = ids[order[0]];
    let mut step = 0usize;
    let mut final_objects = family.schemas[order[0]].object_count();
    for &next_idx in &order[1..] {
        let next = ids[next_idx];
        // Phase 2/3 for (acc, next): ask about every object pair.
        let acc_objs: Vec<(sit_core::catalog::GObj, String)> = session
            .catalog()
            .objects_of(acc)
            .map(|g| {
                (
                    g,
                    session.catalog().schema(acc).object(g.object).name.clone(),
                )
            })
            .collect();
        let next_objs: Vec<(sit_core::catalog::GObj, String)> = session
            .catalog()
            .objects_of(next)
            .map(|g| {
                (
                    g,
                    session.catalog().schema(next).object(g.object).name.clone(),
                )
            })
            .collect();
        for (ga, na) in &acc_objs {
            for (gb, nb) in &next_objs {
                questions += 1;
                // Resolve through provenance: any original concept name
                // behind the accumulated object.
                let origins = orig.get(na).cloned().unwrap_or_else(|| vec![na.clone()]);
                let hit = origins.iter().find_map(|oa| truth_for(oa, nb));
                if let Some(assertion) = hit {
                    let same_key = {
                        // Declare the key attributes equivalent so the
                        // merge collapses them (phase 2 stand-in).
                        let sa_obj = session.catalog().schema(acc).object(ga.object);
                        let sb_obj = session.catalog().schema(next).object(gb.object);
                        let ka = sa_obj.key_attrs().next().map(|(id, _)| id);
                        let kb = sb_obj.key_attrs().next().map(|(id, _)| id);
                        ka.zip(kb)
                    };
                    if let Some((ka, kb)) = same_key {
                        let _ = session.declare_equivalent(
                            sit_core::catalog::GAttr::new(acc, AttrOwner::Object(ga.object), ka),
                            sit_core::catalog::GAttr::new(next, AttrOwner::Object(gb.object), kb),
                        );
                    }
                    let _ = session.assert_objects(*ga, *gb, assertion);
                }
            }
        }
        step += 1;
        let options = sit_core::integrate::IntegrationOptions {
            schema_name: Some(format!("acc_{step}")),
            ..Default::default()
        };
        let integrated = session
            .integrate(acc, next, &options)
            .expect("fold integrates");
        final_objects = integrated.schema.object_count();
        // Update provenance map for the new schema's objects.
        let catalog_names: Vec<(String, Vec<String>)> = integrated
            .schema
            .objects()
            .map(|(oid, o)| {
                let members = integrated.object_origin[oid.index()].members();
                let mut names = Vec::new();
                for m in members {
                    let mname = session
                        .catalog()
                        .schema(m.schema)
                        .object(m.object)
                        .name
                        .clone();
                    match orig.get(&mname) {
                        Some(os) => names.extend(os.clone()),
                        None => names.push(mname),
                    }
                }
                if names.is_empty() {
                    names.push(o.name.clone());
                }
                (o.name.clone(), names)
            })
            .collect();
        for (name, names) in catalog_names {
            orig.insert(name, names);
        }
        acc = session.add_schema(integrated.schema).expect("unique name");
    }
    FoldOutcome {
        questions,
        final_objects,
    }
}

/// B7: translation throughput (relational and hierarchical → ECR).
fn b7_translation(report: &mut Report) {
    let mut rows = Vec::new();
    for tables in [10usize, 50, 200] {
        let rel = make_relational(tables);
        let start = Instant::now();
        let ecr = rel.to_ecr().expect("valid");
        let elapsed = start.elapsed();
        rows.push(vec![
            format!("relational/{tables} tables"),
            ecr.object_count().to_string(),
            ecr.relationship_count().to_string(),
            format!("{:.2?}", elapsed),
        ]);
    }
    for records in [10usize, 50, 200] {
        let hier = make_hierarchy(records);
        let start = Instant::now();
        let ecr = hier.to_ecr().expect("valid");
        let elapsed = start.elapsed();
        rows.push(vec![
            format!("hierarchical/{records} records"),
            ecr.object_count().to_string(),
            ecr.relationship_count().to_string(),
            format!("{:.2?}", elapsed),
        ]);
    }
    report.section(
        "B7",
        "schema translation throughput",
        &["source", "entity sets", "relationships", "translate time"],
        rows,
        None,
    );
}

fn make_relational(tables: usize) -> RelSchema {
    let mut r = RelSchema::new("synth");
    for i in 0..tables {
        let mut t = Table::new(format!("t{i}"))
            .col_pk(format!("t{i}_id"), "int")
            .col(format!("t{i}_data"), "char");
        if i > 0 {
            t = t.col_fk(
                format!("t{}_ref", i - 1),
                "int",
                format!("t{}", i - 1),
                format!("t{}_id", i - 1),
            );
        }
        r.table(t);
    }
    r
}

fn make_hierarchy(records: usize) -> HierSchema {
    let mut h = HierSchema::new("synth");
    h.record(RecordType::root("r0").seq_field("r0_id", "int"));
    for i in 1..records {
        let parent = format!("r{}", (i - 1) / 2);
        h.record(
            RecordType::child(format!("r{i}"), parent)
                .seq_field(format!("r{i}_id"), "int")
                .field(format!("r{i}_data"), "char"),
        );
    }
    h
}
