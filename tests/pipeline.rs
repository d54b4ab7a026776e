//! Cross-crate integration tests: the full pipeline the paper's
//! future-work section sketches (translation → integration → mappings),
//! consistency between the interactive tool and the programmatic API,
//! and n-ary integration driven by the matcher's fold ordering.

use sit::core::assertion::Assertion;
use sit::core::catalog::GRel;
use sit::core::mapping::{Mappings, Query};
use sit::core::nary::fold_integrate;
use sit::core::session::Session;
use sit::datagen::{DdaOracle, GeneratorConfig, GroundTruthOracle};
use sit::ecr::fixtures;
use sit::matcher::{best_integration_order, WeightedResemblance};
use sit::translate::{RelSchema, Table};
use sit::tui::app::App;
use sit::tui::event::{keys, Event};

#[test]
fn translate_integrate_map_pipeline() {
    // Two relational databases → ECR → integrated global schema → routed
    // request: the full federation pipeline.
    let mut db1 = RelSchema::new("db1");
    db1.table(
        Table::new("customer")
            .col_pk("cust_no", "int")
            .col("name", "char")
            .col("city", "char"),
    );
    let mut db2 = RelSchema::new("db2");
    db2.table(
        Table::new("client")
            .col_pk("client_id", "int")
            .col("name", "char")
            .col("phone", "char"),
    );
    let mut session = Session::new();
    let a = session.add_schema(db1.to_ecr().unwrap()).unwrap();
    let b = session.add_schema(db2.to_ecr().unwrap()).unwrap();
    session
        .declare_equivalent_named("db1", "customer", "cust_no", "db2", "client", "client_id")
        .unwrap();
    session
        .declare_equivalent_named("db1", "customer", "name", "db2", "client", "name")
        .unwrap();
    let customer = session.object_named("db1", "customer").unwrap();
    let client = session.object_named("db2", "client").unwrap();
    // The two databases hold overlapping customer populations.
    session
        .assert_objects(customer, client, Assertion::MayBe)
        .unwrap();
    let result = session.integrate(a, b, &Default::default()).unwrap();
    let mappings = Mappings::new(session.catalog(), &result);
    let derived = result
        .schema
        .object_by_name("D_cust_clie")
        .expect("derived superclass");
    assert_eq!(result.schema.children_of(derived).count(), 2);

    // Query the derived class: union of both databases.
    let plan = mappings
        .to_components(&Query::select("D_cust_clie", &["name"]))
        .unwrap();
    assert_eq!(plan.branches.len(), 2);
    assert!(!plan.equivalent, "a union, not duplicates");
    let schemas: Vec<&str> = plan.branches.iter().map(|b| b.schema.as_str()).collect();
    assert!(schemas.contains(&"db1") && schemas.contains(&"db2"));
}

#[test]
fn mapping_dictionary_lists_all_correspondences() {
    let mut session = Session::new();
    let a = session.add_schema(fixtures::sc1()).unwrap();
    let b = session.add_schema(fixtures::sc2()).unwrap();
    session
        .declare_equivalent_named("sc1", "Department", "Dname", "sc2", "Department", "Dname")
        .unwrap();
    let d1 = session.object_named("sc1", "Department").unwrap();
    let d2 = session.object_named("sc2", "Department").unwrap();
    session.assert_objects(d1, d2, Assertion::Equal).unwrap();
    let integrated = session.integrate(a, b, &Default::default()).unwrap();
    let dict = Mappings::new(session.catalog(), &integrated).describe();
    assert!(
        dict.contains("object sc1.Department -> E_Department"),
        "{dict}"
    );
    assert!(
        dict.contains("object sc2.Department -> E_Department"),
        "{dict}"
    );
    assert!(
        dict.contains("attr   sc1.Department.Dname -> E_Department.D_Dname"),
        "{dict}"
    );
    // Untouched classes map to themselves.
    assert!(dict.contains("object sc1.Student -> Student"), "{dict}");
}

#[test]
fn tui_and_api_produce_the_same_integration() {
    // Drive the paper example through the screens...
    let mut session = Session::new();
    session.add_schema(fixtures::sc1()).unwrap();
    session.add_schema(fixtures::sc2()).unwrap();
    let mut app = App::with_session(session);
    let feed = |app: &mut App, evs: Vec<Event>| {
        for e in evs {
            app.handle(e);
        }
    };
    feed(&mut app, keys("2"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Student Grad_student")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("2 2")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Student Faculty")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("e"));
    feed(&mut app, vec![Event::text("Department Department")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("4"));
    feed(&mut app, vec![Event::text("sc1 sc2")]);
    feed(&mut app, vec![Event::text("Majors Majors")]);
    feed(&mut app, keys("a"));
    feed(&mut app, vec![Event::text("1 1")]);
    feed(&mut app, keys("ee"));
    feed(&mut app, keys("3"));
    feed(&mut app, keys("134e"));
    feed(&mut app, keys("5"));
    feed(&mut app, keys("1e"));
    feed(&mut app, keys("6"));
    let tui_schema = app.integrated().expect("viewer integrated").schema.clone();

    // ...and through the programmatic API.
    let mut session = Session::new();
    let sc1 = session.add_schema(fixtures::sc1()).unwrap();
    let sc2 = session.add_schema(fixtures::sc2()).unwrap();
    for (o1, a1, o2, a2) in [
        ("Student", "Name", "Grad_student", "Name"),
        ("Student", "GPA", "Grad_student", "GPA"),
        ("Student", "Name", "Faculty", "Name"),
        ("Department", "Dname", "Department", "Dname"),
        ("Majors", "Since", "Majors", "Since"),
    ] {
        session
            .declare_equivalent_named("sc1", o1, a1, "sc2", o2, a2)
            .unwrap();
    }
    let obj = |s: &Session, n: &str, o: &str| s.object_named(n, o).unwrap();
    let d1 = obj(&session, "sc1", "Department");
    let d2 = obj(&session, "sc2", "Department");
    let st = obj(&session, "sc1", "Student");
    let gr = obj(&session, "sc2", "Grad_student");
    let fa = obj(&session, "sc2", "Faculty");
    session.assert_objects(d1, d2, Assertion::Equal).unwrap();
    session.assert_objects(st, gr, Assertion::Contains).unwrap();
    session
        .assert_objects(st, fa, Assertion::DisjointIntegrable)
        .unwrap();
    let m1 = session.named::<GRel>("sc1", "Majors").unwrap();
    let m2 = session.named::<GRel>("sc2", "Majors").unwrap();
    session.assert(m1, m2, Assertion::Equal).unwrap();
    let api_schema = session
        .integrate(sc1, sc2, &Default::default())
        .unwrap()
        .schema;

    assert_eq!(tui_schema, api_schema, "two routes, one integrated schema");
}

#[test]
fn nary_fold_with_matcher_ordering() {
    // A four-schema family, fold order picked by schema resemblance,
    // equivalences and assertions answered from ground truth.
    let config = GeneratorConfig {
        objects_per_schema: 5,
        overlap: 0.6,
        seed: 99,
        perturber: sit::datagen::Perturber {
            rename_prob: 0.0,
            drop_attr_prob: 0.0,
            extra_attr_prob: 0.0,
        },
        ..Default::default()
    };
    let family = config.generate_family(4);
    let w = WeightedResemblance::default();
    let refs: Vec<&sit::ecr::Schema> = family.schemas.iter().collect();
    let order = best_integration_order(&w, &refs);
    assert_eq!(order.len(), 4);

    let mut session = Session::new();
    let ids: Vec<sit::ecr::SchemaId> = family
        .schemas
        .iter()
        .map(|s| session.add_schema(s.clone()).unwrap())
        .collect();
    let ordered: Vec<sit::ecr::SchemaId> = order.iter().map(|&i| ids[i]).collect();

    let truths = family.truths.clone();
    let mut setup = move |sess: &mut Session,
                          x: sit::ecr::SchemaId,
                          y: sit::ecr::SchemaId|
          -> sit::core::error::Result<()> {
        // Equivalences and assertions by name against the pairwise truth
        // (names are stable because perturbation is off; merged classes
        // keep `E_<name>` which we strip).
        let strip = |n: &str| n.strip_prefix("E_").unwrap_or(n).to_owned();
        let sx = sess.catalog().schema(x).name().to_owned();
        let sy = sess.catalog().schema(y).name().to_owned();
        let xs: Vec<String> = sess
            .catalog()
            .schema(x)
            .objects()
            .map(|(_, o)| o.name.clone())
            .collect();
        let ys: Vec<String> = sess
            .catalog()
            .schema(y)
            .objects()
            .map(|(_, o)| o.name.clone())
            .collect();
        for ox in &xs {
            for oy in &ys {
                let hit = truths
                    .iter()
                    .flatten()
                    .find_map(|gt| gt.assertion_for(&strip(ox), oy));
                let Some(assertion) = hit else { continue };
                // Key equivalence so the merge collapses keys.
                let kx = sess
                    .catalog()
                    .schema(x)
                    .object(sess.catalog().schema(x).object_by_name(ox).unwrap())
                    .key_attrs()
                    .next()
                    .map(|(_, a)| a.name.clone());
                let ky = sess
                    .catalog()
                    .schema(y)
                    .object(sess.catalog().schema(y).object_by_name(oy).unwrap())
                    .key_attrs()
                    .next()
                    .map(|(_, a)| a.name.clone());
                if let (Some(kx), Some(ky)) = (kx, ky) {
                    let _ = sess.declare_equivalent_named(&sx, ox, &kx, &sy, oy, &ky);
                }
                let a = sess.object_named(&sx, ox)?;
                let b = sess.object_named(&sy, oy)?;
                let _ = sess.assert_objects(a, b, assertion);
            }
        }
        Ok(())
    };
    let steps = fold_integrate(&mut session, &ordered, &Default::default(), &mut setup).unwrap();
    assert_eq!(steps.len(), 3);
    let final_schema = &steps.last().unwrap().integrated.schema;
    // 3 shared concepts merge across all four schemas; 2 unique per
    // schema: 3 + 4*2 = 11 final object classes.
    assert_eq!(final_schema.object_count(), 11, "{final_schema:?}");
    assert!(sit::ecr::validate(final_schema).is_empty());
}

#[test]
fn oracle_driven_workload_reproduces_ground_truth_assertions() {
    let pair = GeneratorConfig {
        objects_per_schema: 10,
        overlap: 0.7,
        contained_frac: 0.3,
        mayby_frac: 0.2,
        seed: 1234,
        ..Default::default()
    }
    .generate_pair();
    let mut session = Session::new();
    let sa = session.add_schema(pair.a.clone()).unwrap();
    let sb = session.add_schema(pair.b.clone()).unwrap();
    let mut oracle = GroundTruthOracle::new(&pair.truth);

    // Phase 2 from truth.
    let attrs_a = session.catalog().attrs_of(sa);
    let attrs_b = session.catalog().attrs_of(sb);
    for &ga in &attrs_a {
        for &gb in &attrs_b {
            let (Ok(da), Ok(db)) = (session.catalog().attr(ga), session.catalog().attr(gb)) else {
                continue;
            };
            if !da.domain.compatible(&db.domain) {
                continue;
            }
            let oa = session
                .catalog()
                .schema(sa)
                .owner_name(ga.owner)
                .unwrap()
                .to_owned();
            let ob = session
                .catalog()
                .schema(sb)
                .owner_name(gb.owner)
                .unwrap()
                .to_owned();
            let (na, nb) = (da.name.clone(), db.name.clone());
            if oracle.attrs_equivalent(&oa, &na, &ob, &nb) {
                session.declare_equivalent(ga, gb).unwrap();
            }
        }
    }

    // Phase 3: every truly corresponding pair gets its true assertion.
    let mut applied = 0;
    for t in &pair.truth.assertions {
        let a = session.object_named("gen_a", &t.a).unwrap();
        let b = session.object_named("gen_b", &t.b).unwrap();
        session.assert_objects(a, b, t.assertion).unwrap();
        applied += 1;
    }
    assert_eq!(applied, pair.truth.pair_count());

    // Phase 4: contains-related pairs show up as categories, may-be pairs
    // as derived superclasses.
    let result = session.integrate(sa, sb, &Default::default()).unwrap();
    let contains = pair
        .truth
        .assertions
        .iter()
        .filter(|t| t.assertion == Assertion::Contains)
        .count();
    let maybes = pair
        .truth
        .assertions
        .iter()
        .filter(|t| t.assertion == Assertion::MayBe)
        .count();
    assert_eq!(result.derived_objects().count(), maybes);
    for t in &pair.truth.assertions {
        if t.assertion != Assertion::Contains {
            continue;
        }
        let child = result
            .node_of(session.object_named("gen_b", &t.b).unwrap())
            .unwrap();
        let parent = result
            .node_of(session.object_named("gen_a", &t.a).unwrap())
            .unwrap();
        assert!(
            result.schema.object(child).parents().contains(&parent),
            "contains pair became a category edge"
        );
    }
    let _ = contains;
}
