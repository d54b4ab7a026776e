//! N-ary integration by folding binary integrations.
//!
//! The paper: "A user can define any number of schemas, but only two
//! schemas can be integrated at a time. A result of integration of two
//! schemas can be integrated with another schema; thus multiple schemas can
//! be integrated." This module automates the fold: integrate the first two
//! schemas, register the result as a new component schema, and keep
//! folding the remaining schemas in.
//!
//! The fold order matters for the quality of the result (how many derived
//! classes appear, how many questions the DDA is asked); the paper's
//! future-work section suggests a schema-level resemblance function "which
//! could be particularly useful in picking similar schemas for integration
//! in a binary approach" — implemented in `sit-matcher`
//! (`best_integration_order`). The `sit-bench` `report` binary's B6 table
//! counts the questions a guided and a reversed order cost, in a fold of
//! its own that tracks provenance; the `nary_order` bench times the order
//! selection.

use sit_ecr::SchemaId;

use crate::assertion::Assertion;
use crate::catalog::GObj;
use crate::error::Result;
use crate::integrate::{IntegratedSchema, IntegrationOptions};
use crate::session::Session;

/// A callback that supplies phase 2/3 answers whenever the fold is about
/// to integrate a new pair of schemas: given the session and the two
/// schema ids, declare the equivalences and assertions for the pair.
/// (The callback abstracts the DDA; `sit-datagen` provides oracles.)
pub type PairSetup<'a> = dyn FnMut(&mut Session, SchemaId, SchemaId) -> Result<()> + 'a;

/// Outcome of one fold step.
#[derive(Debug)]
pub struct FoldStep {
    /// The schema ids that were integrated.
    pub inputs: (SchemaId, SchemaId),
    /// Id the result was registered under.
    pub result: SchemaId,
    /// The integration result.
    pub integrated: IntegratedSchema,
}

/// Fold the given schemas left-to-right: `((s1 ⋈ s2) ⋈ s3) ⋈ ...`.
///
/// Before each binary step, `setup` is invoked so the caller can declare
/// equivalences and assertions between the accumulated schema and the next
/// component. Returns all intermediate steps; the last step holds the final
/// integrated schema.
pub fn fold_integrate(
    session: &mut Session,
    order: &[SchemaId],
    options: &IntegrationOptions,
    setup: &mut PairSetup<'_>,
) -> Result<Vec<FoldStep>> {
    assert!(
        order.len() >= 2,
        "n-ary integration needs at least two schemas"
    );
    let mut steps = Vec::new();
    let mut acc = order[0];
    for &next in &order[1..] {
        setup(session, acc, next)?;
        let mut step_options = options.clone();
        if step_options.schema_name.is_none() && order.len() > 2 {
            // Keep intermediate names unique and readable.
            step_options.schema_name = Some(format!(
                "{}+{}",
                session.catalog().schema(acc).name(),
                session.catalog().schema(next).name()
            ));
        }
        let integrated = session.integrate(acc, next, &step_options)?;
        let result = session.add_schema(integrated.schema.clone())?;
        steps.push(FoldStep {
            inputs: (acc, next),
            result,
            integrated,
        });
        acc = result;
    }
    Ok(steps)
}

/// Helper mirroring the common test need: assert `a θ b` by names.
pub fn assert_named(
    session: &mut Session,
    sa: &str,
    oa: &str,
    sb: &str,
    ob: &str,
    assertion: Assertion,
) -> Result<()> {
    let a: GObj = session.object_named(sa, oa)?;
    let b: GObj = session.object_named(sb, ob)?;
    session.assert_objects(a, b, assertion)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::ddl;

    fn schema(src: &str) -> sit_ecr::Schema {
        ddl::parse(src).unwrap()
    }

    #[test]
    fn three_way_fold() {
        let mut s = Session::new();
        let a = s
            .add_schema(schema("schema a { entity Person { SSN: int key; } }"))
            .unwrap();
        let b = s
            .add_schema(schema("schema b { entity Employee { SSN: int key; } }"))
            .unwrap();
        let c = s
            .add_schema(schema("schema c { entity Manager { SSN: int key; } }"))
            .unwrap();
        let mut setup = |sess: &mut Session, x: SchemaId, y: SchemaId| -> Result<()> {
            // Equate the SSN attributes, then contain: later schema is a
            // subset of the accumulated one.
            let cx = sess.catalog().schema(x).name().to_owned();
            let cy = sess.catalog().schema(y).name().to_owned();
            let (ox, _) = sess.catalog().schema(x).objects().next().unwrap();
            let (oy, _) = sess.catalog().schema(y).objects().next().unwrap();
            let ox_name = sess.catalog().schema(x).object(ox).name.clone();
            let oy_name = sess.catalog().schema(y).object(oy).name.clone();
            // The accumulated schema's key may have been renamed to D_SSN
            // by a previous merge; resolve the actual attribute name.
            let ax_name = sess.catalog().schema(x).object(ox).attributes[0]
                .name
                .clone();
            let ay_name = sess.catalog().schema(y).object(oy).attributes[0]
                .name
                .clone();
            sess.declare_equivalent_named(&cx, &ox_name, &ax_name, &cy, &oy_name, &ay_name)?;
            assert_named(sess, &cx, &ox_name, &cy, &oy_name, Assertion::Contains)
        };
        let steps = fold_integrate(&mut s, &[a, b, c], &Default::default(), &mut setup).unwrap();
        assert_eq!(steps.len(), 2);
        let final_schema = &steps.last().unwrap().integrated.schema;
        // Person ⊇ Employee ⊇ Manager: three classes, two category edges.
        assert_eq!(final_schema.object_count(), 3);
        assert_eq!(final_schema.categories().count(), 2);
    }
}
