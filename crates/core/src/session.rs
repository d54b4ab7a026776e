//! The integration session — one façade over the four phases.
//!
//! A [`Session`] corresponds to one run of the paper's tool: schemas are
//! collected (phase 1), attribute equivalences declared (phase 2),
//! assertions specified with automatic derivation and conflict checks
//! (phase 3), and pairs of schemas integrated (phase 4). `sit-tui`'s
//! screens drive exactly this API; tests and examples use it directly.
//!
//! On registration each schema seeds the object assertion engine with its
//! structural facts: every category is a proper part of each single
//! parent, and distinct *root* entity sets are pairwise disjoint (the ECR
//! rule "a given entity can be a member of only one entity set"). Those
//! seeds are what let Screen 9's conflict derivation cite
//! `sc4.Grad_student ⊆ sc4.Student` without the DDA ever typing it. Each
//! kind's seeds enter its engine in one pass
//! ([`AssertionEngine::seed_structure`]).

use std::sync::Arc;

use sit_ecr::{Schema, SchemaId};

use crate::assertion::Assertion;
use crate::catalog::{Catalog, GAttr, GObj, GRel};
use crate::closure::{AssertionEngine, DerivedFact};
use crate::element::{Element, Engines};
use crate::equivalence::EquivalenceRegistry;
use crate::error::{CoreError, Result};
use crate::integrate::{integrate, IntegratedSchema, IntegrationOptions};
use crate::resemblance::{ranked_pairs, CandidatePair};

/// One interactive integration session.
#[derive(Clone, Debug, Default)]
pub struct Session {
    catalog: Catalog,
    equiv: EquivalenceRegistry,
    engines: Engines,
}

impl Session {
    /// Most object classes one session may hold. Each assertion engine
    /// keeps a dense matrix of n² one-byte cells over its nodes, a 4-byte
    /// provenance head per pair (n(n-1)/2 of them, about 8 MiB at this
    /// limit), and a support log of at most five 12-byte entries per pair
    /// (one per seeded pair). The structural seeds of one schema — a
    /// disjointness fact per pair of its root entity sets, a pinned pair
    /// per category and ancestor — grow with the square of its object
    /// classes (seeded in time linear in their number), so registration
    /// is where a session's size is bounded.
    pub const MAX_OBJECTS: usize = 2048;

    /// Most relationship sets one session may hold (the relationship
    /// engine's matrix, like the object engine's, is n² bytes).
    pub const MAX_RELATIONSHIPS: usize = 2048;

    /// Fresh, empty session.
    pub fn new() -> Session {
        Session::default()
    }

    // ------------------------------------------------------------------
    // Phase 1: schema collection
    // ------------------------------------------------------------------

    /// Register a component schema; seeds structural facts and registers
    /// every attribute in its own equivalence class. A schema that would
    /// push the session past [`Session::MAX_OBJECTS`] or
    /// [`Session::MAX_RELATIONSHIPS`] is rejected before anything changes.
    /// An `Arc<Schema>` is registered as is, shared with its other
    /// holders; a `Schema` is moved into a fresh one.
    pub fn add_schema(&mut self, schema: impl Into<Arc<Schema>>) -> Result<SchemaId> {
        Ok(self.add_schemas([schema])?[0])
    }

    /// [`Session::add_schema`] for several schemas, all or none: the
    /// whole batch is checked first — each name new to the catalog and to
    /// the batch, the session limits on the running counts — and only
    /// then registered. The error is the one registering them one by one
    /// would have met first, with nothing registered.
    pub fn add_schemas<S: Into<Arc<Schema>>>(
        &mut self,
        schemas: impl IntoIterator<Item = S>,
    ) -> Result<Vec<SchemaId>> {
        let schemas: Vec<Arc<Schema>> = schemas.into_iter().map(Into::into).collect();
        let mut counts = self.catalog.schemas().fold((0, 0), |(o, r), (_, s)| {
            (o + s.object_count(), r + s.relationship_count())
        });
        for (k, schema) in schemas.iter().enumerate() {
            counts = Self::check_capacity(counts, schema)?;
            let name = schema.name();
            if self.catalog.by_name(name).is_some() || schemas[..k].iter().any(|s| s.name() == name)
            {
                return Err(CoreError::DuplicateSchema(name.to_owned()));
            }
        }
        schemas
            .into_iter()
            .map(|schema| {
                let _span = sit_obs::trace::span("session.add_schema");
                let sid = self.catalog.add(schema)?;
                self.equiv.register_schema(&self.catalog, sid);
                self.seed_structure(sid)?;
                Ok(sid)
            })
            .collect()
    }

    /// `counts` (object classes, relationship sets) plus `schema`'s, or
    /// the limit that adding it would break.
    fn check_capacity(counts: (usize, usize), schema: &Schema) -> Result<(usize, usize)> {
        let objects = counts.0 + schema.object_count();
        let rels = counts.1 + schema.relationship_count();
        let limits = [
            ("object classes", objects, Self::MAX_OBJECTS),
            ("relationship sets", rels, Self::MAX_RELATIONSHIPS),
        ];
        match limits.into_iter().find(|&(_, count, limit)| count > limit) {
            Some((what, count, limit)) => Err(CoreError::SessionFull {
                schema: schema.name().to_owned(),
                what,
                count,
                limit,
            }),
            None => Ok((objects, rels)),
        }
    }

    fn seed_structure(&mut self, sid: SchemaId) -> Result<()> {
        let schema = self.catalog.schema(sid);
        // A category is a proper part of its parent when it has just one
        // (over a union of parents it is contained only in the union),
        // and root entity sets are pairwise disjoint.
        let (mut edges, mut roots) = (Vec::new(), Vec::new());
        for (oid, obj) in schema.objects() {
            match *obj.parents() {
                [] => roots.push(GObj::new(sid, oid)),
                [parent] => edges.push((GObj::new(sid, oid), GObj::new(sid, parent))),
                _ => {}
            }
        }
        // Distinct relationship sets of one schema are distinct tuple
        // sets.
        let rels: Vec<GRel> = self.catalog.rels_of(sid).collect();
        self.seed(&edges, &roots)?;
        self.seed(&[], &rels)
    }

    fn seed<E: Element>(&mut self, edges: &[(E, E)], disjoint: &[E]) -> Result<()> {
        let (catalog, engine) = (&self.catalog, E::engine_mut(&mut self.engines));
        engine
            .seed_structure(edges, disjoint, |e| catalog.display(e))
            .map_err(|r| CoreError::Conflict(Box::new(r)))
    }

    /// The catalog of registered schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Resolve `schema.name` to an object class or relationship set.
    pub fn named<E: Element>(&self, schema: &str, name: &str) -> Result<E> {
        self.catalog.named(schema, name)
    }

    /// Resolve `schema.object`.
    pub fn object_named(&self, schema: &str, object: &str) -> Result<GObj> {
        self.named(schema, object)
    }

    // ------------------------------------------------------------------
    // Phase 2: equivalence classes
    // ------------------------------------------------------------------

    /// Declare two attributes equivalent (merging their classes).
    pub fn declare_equivalent(&mut self, a: GAttr, b: GAttr) -> Result<()> {
        self.equiv.declare_equivalent(&self.catalog, a, b)
    }

    /// Name-based convenience for [`Session::declare_equivalent`].
    #[allow(clippy::too_many_arguments)]
    pub fn declare_equivalent_named(
        &mut self,
        schema_a: &str,
        owner_a: &str,
        attr_a: &str,
        schema_b: &str,
        owner_b: &str,
        attr_b: &str,
    ) -> Result<()> {
        let a = self.catalog.attr_named(schema_a, owner_a, attr_a)?;
        let b = self.catalog.attr_named(schema_b, owner_b, attr_b)?;
        self.declare_equivalent(a, b)
    }

    /// Remove an attribute from its equivalence class (Screen 7 delete).
    pub fn remove_from_class(&mut self, a: GAttr) -> bool {
        self.equiv.remove_from_class(a)
    }

    /// The equivalence registry (ACS state).
    pub fn equivalences(&self) -> &EquivalenceRegistry {
        &self.equiv
    }

    /// The ranked candidate pairs of one kind between two schemas
    /// (Screen 8's row order for object classes). A schema has no
    /// candidates against itself: assertions relate different schemas.
    pub fn candidates<E: Element>(&self, sa: SchemaId, sb: SchemaId) -> Vec<CandidatePair<E>> {
        ranked_pairs(&self.catalog, &self.equiv, sa, sb)
    }

    // ------------------------------------------------------------------
    // Phase 3: assertions
    // ------------------------------------------------------------------

    /// Assert a relationship between two object classes, or two
    /// relationship sets, of *different* schemas. Returns the newly
    /// derived assertions; a contradiction leaves the session unchanged
    /// and returns [`CoreError::Conflict`].
    pub fn assert<E: Element>(
        &mut self,
        a: E,
        b: E,
        assertion: Assertion,
    ) -> Result<Vec<DerivedFact<E>>> {
        if a == b {
            return Err(CoreError::SelfAssertion(a.to_string()));
        }
        let catalog = &self.catalog;
        if a.schema() == b.schema() {
            return Err(CoreError::SameSchemaAssertion(format!(
                "{} vs {}",
                catalog.display(a),
                catalog.display(b)
            )));
        }
        E::engine_mut(&mut self.engines)
            .assert(a, b, assertion, |e| catalog.display(e))
            .map_err(|r| CoreError::Conflict(Box::new(r)))
    }

    /// [`Session::assert`] for a pair of object classes.
    pub fn assert_objects(
        &mut self,
        a: GObj,
        b: GObj,
        assertion: Assertion,
    ) -> Result<Vec<DerivedFact<GObj>>> {
        self.assert(a, b, assertion)
    }

    /// Retract the latest user assertion between two elements of one kind
    /// (conflict repair).
    pub fn retract<E: Element>(&mut self, a: E, b: E) -> bool {
        E::engine_mut(&mut self.engines).retract(a, b)
    }

    /// [`Session::retract`] for a pair of object classes.
    pub fn retract_objects(&mut self, a: GObj, b: GObj) -> bool {
        self.retract(a, b)
    }

    /// The effective assertion currently pinned for an object pair.
    pub fn effective_assertion(&self, a: GObj, b: GObj) -> Option<Assertion> {
        self.object_engine().effective(a, b)
    }

    /// The Entity Assertion matrix of paper §3.4: "assertions between
    /// every pair of object classes are stored in an Entity Assertion
    /// matrix, where element (i,j) ... represents the assertion between
    /// object classes i and j". Rows index `sa`'s objects, columns `sb`'s;
    /// `None` where no relation is pinned (neither asserted nor
    /// derivable). Read through one constraint view of both schemas'
    /// objects, so each row and column is looked up once.
    pub fn assertion_matrix(&self, sa: SchemaId, sb: SchemaId) -> Vec<Vec<Option<Assertion>>> {
        let rows: Vec<GObj> = self.catalog.objects_of(sa).collect();
        let cols: Vec<GObj> = self.catalog.objects_of(sb).collect();
        let mut universe = [&rows[..], &cols[..]].concat();
        universe.sort_unstable();
        universe.dedup();
        let view = self.object_engine().view(&universe);
        let at = |o: &GObj| universe.binary_search(o).expect("in the universe");
        let cols: Vec<usize> = cols.iter().map(at).collect();
        rows.iter()
            .map(|a| {
                let i = at(a);
                cols.iter().map(|&j| view.effective(i, j)).collect()
            })
            .collect()
    }

    /// One kind's assertion engine (for inspection / screens).
    pub fn engine<E: Element>(&self) -> &AssertionEngine<E> {
        E::engine(&self.engines)
    }

    /// The object assertion engine.
    pub fn object_engine(&self) -> &AssertionEngine<GObj> {
        self.engine()
    }

    /// The relationship assertion engine.
    pub fn rel_engine(&self) -> &AssertionEngine<GRel> {
        self.engine()
    }

    // ------------------------------------------------------------------
    // Phase 4: integration
    // ------------------------------------------------------------------

    /// Integrate two registered schemas into a new
    /// [`IntegratedSchema`].
    pub fn integrate(
        &self,
        sa: SchemaId,
        sb: SchemaId,
        options: &IntegrationOptions,
    ) -> Result<IntegratedSchema> {
        // Guard hand-built or stale ids before they index the catalog —
        // a malformed request must come back as an error, not a panic.
        for sid in [sa, sb] {
            if self.catalog.try_schema(sid).is_none() {
                return Err(CoreError::UnknownElement(format!("schema id {sid:?}")));
            }
        }
        integrate(
            &self.catalog,
            &self.equiv,
            self.object_engine(),
            self.rel_engine(),
            sa,
            sb,
            options,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Rel5;
    use sit_ecr::fixtures;

    #[test]
    fn structural_seeds_power_screen9_derivation() {
        let mut s = Session::new();
        s.add_schema(fixtures::sc3()).unwrap();
        s.add_schema(fixtures::sc4()).unwrap();
        let instructor = s.object_named("sc3", "Instructor").unwrap();
        let grad = s.object_named("sc4", "Grad_student").unwrap();
        let student = s.object_named("sc4", "Student").unwrap();
        // Intra-schema fact seeded automatically.
        assert_eq!(s.object_engine().known(grad, student), Some(Rel5::Pp));
        // User asserts Instructor ⊆ Grad_student; Instructor ⊆ Student
        // must be derived.
        let derived = s
            .assert_objects(instructor, grad, Assertion::ContainedIn)
            .unwrap();
        assert!(
            derived.iter().any(|d| d.rel == Rel5::Pp
                && ((d.a, d.b) == (instructor, student) || (d.a, d.b) == (student, instructor))),
            "derived {derived:?}"
        );
        // The conflicting Screen 9 assertion is rejected with provenance.
        let err = s
            .assert_objects(instructor, student, Assertion::DisjointNonIntegrable)
            .unwrap_err();
        match err {
            CoreError::Conflict(report) => {
                assert_eq!(report.rejected, Assertion::DisjointNonIntegrable);
                assert_eq!(report.supports.len(), 2);
            }
            other => panic!("expected conflict, got {other}"),
        }
        // Repair as the paper suggests: change line 3 to "5" (may be).
        assert!(s.retract_objects(instructor, grad));
        s.assert_objects(instructor, grad, Assertion::MayBe)
            .unwrap();
        assert_eq!(s.object_engine().known(instructor, student), None);
    }

    #[test]
    fn oversized_schemas_are_rejected_before_registration() {
        let ddl = |name: &str, categories: usize| {
            let mut ddl = format!("schema {name} {{ entity R {{ k: int key; }}\n");
            for i in 0..categories {
                ddl.push_str(&format!("category C{i} of R {{}}\n"));
            }
            ddl.push('}');
            sit_ecr::ddl::parse(&ddl).unwrap()
        };
        let mut s = Session::new();
        // Exactly at the limit is accepted...
        s.add_schema(ddl("big", Session::MAX_OBJECTS - 1)).unwrap();
        // ...one more object class anywhere in the session is not, and
        // the rejected schema leaves no trace.
        let err = s.add_schema(ddl("more", 0)).unwrap_err();
        assert!(
            matches!(err, CoreError::SessionFull { count, limit, .. }
                if count == Session::MAX_OBJECTS + 1 && limit == Session::MAX_OBJECTS),
            "{err}"
        );
        assert_eq!(s.catalog().len(), 1);
        assert!(s.catalog().by_name("more").is_none());
    }

    #[test]
    fn entity_set_disjointness_seeded() {
        let mut s = Session::new();
        s.add_schema(fixtures::sc1()).unwrap();
        s.add_schema(fixtures::sc2()).unwrap();
        let student = s.object_named("sc1", "Student").unwrap();
        let dept = s.object_named("sc1", "Department").unwrap();
        assert_eq!(s.object_engine().known(student, dept), Some(Rel5::Dr));
        // Cross-schema pairs start unconstrained.
        let grad = s.object_named("sc2", "Grad_student").unwrap();
        assert_eq!(s.object_engine().known(student, grad), None);
    }

    #[test]
    fn same_schema_and_self_assertions_rejected() {
        let mut s = Session::new();
        s.add_schema(fixtures::sc2()).unwrap();
        let grad = s.object_named("sc2", "Grad_student").unwrap();
        let faculty = s.object_named("sc2", "Faculty").unwrap();
        assert!(matches!(
            s.assert_objects(grad, faculty, Assertion::Equal),
            Err(CoreError::SameSchemaAssertion(_))
        ));
        assert!(matches!(
            s.assert_objects(grad, grad, Assertion::Equal),
            Err(CoreError::SelfAssertion(_))
        ));
        // Relationship sets take the same path (they used to report a
        // self-assertion as a same-schema one).
        let majors: GRel = s.named("sc2", "Majors").unwrap();
        let works: GRel = s.named("sc2", "Works").unwrap();
        assert!(matches!(
            s.assert(majors, works, Assertion::Equal),
            Err(CoreError::SameSchemaAssertion(_))
        ));
        let err = s.assert(majors, majors, Assertion::Equal).unwrap_err();
        assert_eq!(err, CoreError::SelfAssertion(majors.to_string()));
        assert_eq!(
            err.to_string(),
            format!("cannot assert {majors} against itself")
        );
    }

    #[test]
    fn integrate_rejects_stale_schema_ids() {
        let mut s = Session::new();
        s.add_schema(fixtures::sc1()).unwrap();
        let live = s.catalog().by_name("sc1").unwrap();
        let stale = sit_ecr::SchemaId::new(99);
        let err = s.integrate(live, stale, &Default::default()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownElement(_)), "{err}");
        let err = s.integrate(stale, live, &Default::default()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownElement(_)), "{err}");
    }

    #[test]
    fn rel_disjointness_seeded_within_schema() {
        let mut s = Session::new();
        s.add_schema(fixtures::sc2()).unwrap();
        let majors: GRel = s.named("sc2", "Majors").unwrap();
        let works: GRel = s.named("sc2", "Works").unwrap();
        assert_eq!(s.rel_engine().known(majors, works), Some(Rel5::Dr));
    }
}
