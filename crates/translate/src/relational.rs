//! Relational schemas and their abstraction into ECR.
//!
//! The Navathe–Awong procedure interrogates the DDA about a relational
//! schema and classifies each relation before mapping it:
//!
//! * a relation whose key is its own (no foreign-key components) is a
//!   **base entity relation** → entity set;
//! * a relation whose entire primary key is a foreign key to a single
//!   other relation is a **subset relation** → category of that relation's
//!   entity set;
//! * a relation whose primary key is composed of two or more foreign keys
//!   is a **relationship relation** → relationship set over the referenced
//!   entity sets (its non-key columns become relationship attributes);
//! * a non-key foreign-key column in an entity relation expresses a
//!   many-to-one **implicit relationship** → a `(0,1)/(0,n)` relationship
//!   set named `<table>_<referenced table>`.
//!
//! The classification here is automatic (the "interrogation" answers are
//! taken from the declared keys); a DDA can override a table's
//! [`TableKind`] before translation when the key structure is misleading.

use std::collections::HashMap;

use sit_ecr::{Cardinality, Domain, EcrError, Schema, SchemaBuilder};

/// A column of a relational table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Domain, in ECR DDL notation (`char`, `int`, ...).
    pub domain: String,
    /// Member of the primary key?
    pub pk: bool,
    /// Foreign-key target `(table, column)` if any.
    pub fk: Option<(String, String)>,
}

/// How a relation maps into ECR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableKind {
    /// Independent entity relation → entity set.
    Entity,
    /// Primary key is one foreign key → category of the referenced entity.
    Subset,
    /// Primary key is ≥ 2 foreign keys → relationship set.
    Relationship,
}

/// A relational table definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Optional classification override (otherwise inferred from keys).
    pub kind_override: Option<TableKind>,
}

impl Table {
    /// New table with no columns.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
            kind_override: None,
        }
    }

    /// Add a plain column.
    pub fn col(mut self, name: impl Into<String>, domain: impl Into<String>) -> Self {
        self.columns.push(Column {
            name: name.into(),
            domain: domain.into(),
            pk: false,
            fk: None,
        });
        self
    }

    /// Add a primary-key column.
    pub fn col_pk(mut self, name: impl Into<String>, domain: impl Into<String>) -> Self {
        self.columns.push(Column {
            name: name.into(),
            domain: domain.into(),
            pk: true,
            fk: None,
        });
        self
    }

    /// Add a foreign-key column.
    pub fn col_fk(
        mut self,
        name: impl Into<String>,
        domain: impl Into<String>,
        ref_table: impl Into<String>,
        ref_col: impl Into<String>,
    ) -> Self {
        self.columns.push(Column {
            name: name.into(),
            domain: domain.into(),
            pk: false,
            fk: Some((ref_table.into(), ref_col.into())),
        });
        self
    }

    /// Add a column that is both primary key and foreign key.
    pub fn col_pk_fk(
        mut self,
        name: impl Into<String>,
        domain: impl Into<String>,
        ref_table: impl Into<String>,
        ref_col: impl Into<String>,
    ) -> Self {
        self.columns.push(Column {
            name: name.into(),
            domain: domain.into(),
            pk: true,
            fk: Some((ref_table.into(), ref_col.into())),
        });
        self
    }

    /// Force the classification instead of inferring it.
    pub fn kind(mut self, kind: TableKind) -> Self {
        self.kind_override = Some(kind);
        self
    }

    /// Infer the ECR classification from the key structure.
    pub fn classify(&self) -> TableKind {
        if let Some(k) = self.kind_override {
            return k;
        }
        let pk_fk_targets: Vec<&str> = self
            .columns
            .iter()
            .filter(|c| c.pk)
            .filter_map(|c| c.fk.as_ref().map(|(t, _)| t.as_str()))
            .collect();
        let pk_count = self.columns.iter().filter(|c| c.pk).count();
        let mut distinct = pk_fk_targets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if pk_count > 0 && pk_fk_targets.len() == pk_count && distinct.len() >= 2 {
            TableKind::Relationship
        } else if pk_count > 0 && pk_fk_targets.len() == pk_count && distinct.len() == 1 {
            TableKind::Subset
        } else {
            TableKind::Entity
        }
    }
}

/// A relational schema: a named set of tables.
#[derive(Clone, Debug, Default)]
pub struct RelSchema {
    name: String,
    tables: Vec<Table>,
}

impl RelSchema {
    /// Empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a table.
    pub fn table(&mut self, t: Table) -> &mut Self {
        self.tables.push(t);
        self
    }

    /// The tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Translate into an ECR schema.
    ///
    /// Entity tables first (entity sets), then subset tables (categories),
    /// then relationship tables and implicit many-to-one relationships.
    pub fn to_ecr(&self) -> Result<Schema, EcrError> {
        let kinds: HashMap<&str, TableKind> = self
            .tables
            .iter()
            .map(|t| (t.name.as_str(), t.classify()))
            .collect();
        let mut b = SchemaBuilder::new(self.name.clone());

        // 1. Entity relations → entity sets (all columns become
        //    attributes; FK columns used for implicit relationships are
        //    excluded from attributes).
        for t in &self.tables {
            if kinds[t.name.as_str()] != TableKind::Entity {
                continue;
            }
            let mut ob = b.entity_set(t.name.clone());
            for c in &t.columns {
                if c.fk.is_some() && !c.pk {
                    continue; // becomes an implicit relationship
                }
                let domain: Domain = c.domain.parse()?;
                ob = if c.pk {
                    ob.attr_key(c.name.clone(), domain)
                } else {
                    ob.attr(c.name.clone(), domain)
                };
            }
            ob.finish();
        }

        // 2. Subset relations → categories of the referenced object.
        //    Subsets may chain, so iterate until a fixpoint.
        let mut pending: Vec<&Table> = self
            .tables
            .iter()
            .filter(|t| kinds[t.name.as_str()] == TableKind::Subset)
            .collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|t| {
                let target = t
                    .columns
                    .iter()
                    .find_map(|c| c.fk.as_ref().map(|(tb, _)| tb.clone()))
                    .expect("subset tables have a foreign key");
                if b.object_by_name(&target).is_none() {
                    return true; // parent not yet emitted
                }
                let mut ob = b
                    .category_of(t.name.clone(), &[target.as_str()])
                    .expect("target checked above");
                for c in &t.columns {
                    if c.fk.is_some() {
                        continue; // the key link is the category edge
                    }
                    let domain: Domain = match c.domain.parse() {
                        Ok(d) => d,
                        Err(_) => Domain::Char,
                    };
                    ob = if c.pk {
                        ob.attr_key(c.name.clone(), domain)
                    } else {
                        ob.attr(c.name.clone(), domain)
                    };
                }
                ob.finish();
                false
            });
            if pending.len() == before {
                let name = pending[0].name.clone();
                return Err(EcrError::UnknownName(format!(
                    "subset relation `{name}` references a missing or cyclic parent"
                )));
            }
        }

        // 3. Relationship relations → relationship sets.
        for t in &self.tables {
            if kinds[t.name.as_str()] != TableKind::Relationship {
                continue;
            }
            let mut legs = Vec::new();
            for c in t.columns.iter().filter(|c| c.pk) {
                let (target, _) = c.fk.as_ref().expect("classified as relationship");
                let oid = b
                    .object_by_name(target)
                    .ok_or_else(|| EcrError::UnknownName(target.clone()))?;
                legs.push(oid);
            }
            let mut rb = b.relationship(t.name.clone());
            for leg in legs {
                rb = rb.participant(leg, Cardinality::MANY);
            }
            for c in t.columns.iter().filter(|c| !c.pk) {
                let domain: Domain = c.domain.parse()?;
                rb = rb.attr(c.name.clone(), domain);
            }
            rb.finish();
        }

        // 4. Implicit many-to-one relationships from non-key FK columns of
        //    entity relations.
        for t in &self.tables {
            if kinds[t.name.as_str()] != TableKind::Entity {
                continue;
            }
            for c in t.columns.iter().filter(|c| c.fk.is_some() && !c.pk) {
                let (target, _) = c.fk.as_ref().expect("filtered");
                let src = b
                    .object_by_name(&t.name)
                    .ok_or_else(|| EcrError::UnknownName(t.name.clone()))?;
                let dst = b
                    .object_by_name(target)
                    .ok_or_else(|| EcrError::UnknownName(target.clone()))?;
                b.relationship(format!("{}_{}", t.name, target))
                    .participant(src, Cardinality::AT_MOST_ONE)
                    .participant(dst, Cardinality::MANY)
                    .finish();
            }
        }

        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::ObjectKind;

    fn company() -> RelSchema {
        let mut r = RelSchema::new("company");
        r.table(
            Table::new("employee")
                .col_pk("ssn", "int")
                .col("name", "char")
                .col_fk("dept_no", "int", "department", "dept_no"),
        );
        r.table(
            Table::new("department")
                .col_pk("dept_no", "int")
                .col("dname", "char"),
        );
        r.table(
            Table::new("manager")
                .col_pk_fk("ssn", "int", "employee", "ssn")
                .col("bonus", "real"),
        );
        r.table(
            Table::new("works_on")
                .col_pk_fk("ssn", "int", "employee", "ssn")
                .col_pk_fk("proj_no", "int", "project", "proj_no")
                .col("hours", "real"),
        );
        r.table(
            Table::new("project")
                .col_pk("proj_no", "int")
                .col("pname", "char"),
        );
        r
    }

    #[test]
    fn classification_follows_key_structure() {
        let r = company();
        let kind = |n: &str| r.tables().iter().find(|t| t.name == n).unwrap().classify();
        assert_eq!(kind("employee"), TableKind::Entity);
        assert_eq!(kind("department"), TableKind::Entity);
        assert_eq!(kind("manager"), TableKind::Subset);
        assert_eq!(kind("works_on"), TableKind::Relationship);
    }

    #[test]
    fn translation_produces_expected_ecr_shapes() {
        let ecr = company().to_ecr().unwrap();
        // Entities.
        for e in ["employee", "department", "project"] {
            let oid = ecr.object_by_name(e).unwrap();
            assert!(matches!(ecr.object(oid).kind, ObjectKind::EntitySet));
        }
        // Subset → category of employee.
        let mgr = ecr.object_by_name("manager").unwrap();
        assert!(ecr.object(mgr).kind.is_category());
        let emp = ecr.object_by_name("employee").unwrap();
        assert_eq!(ecr.object(mgr).parents(), &[emp]);
        // manager keeps its non-FK attribute.
        assert!(ecr.object(mgr).attr_by_name("bonus").is_some());
        // Relationship relation.
        let works = ecr.relationship(ecr.rel_by_name("works_on").unwrap());
        assert_eq!(works.degree(), 2);
        assert_eq!(works.attributes[0].name, "hours");
        // Implicit many-to-one from the dept_no FK.
        let implicit = ecr.relationship(ecr.rel_by_name("employee_department").unwrap());
        assert_eq!(
            implicit.participants[0].cardinality,
            Cardinality::AT_MOST_ONE
        );
        assert_eq!(implicit.participants[1].cardinality, Cardinality::MANY);
        // The FK column itself is not an employee attribute.
        assert!(ecr.object(emp).attr_by_name("dept_no").is_none());
    }

    #[test]
    fn kind_override_wins() {
        let t = Table::new("weird")
            .col_pk("id", "int")
            .kind(TableKind::Subset);
        assert_eq!(t.classify(), TableKind::Subset);
    }

    #[test]
    fn chained_subsets_resolve_via_fixpoint() {
        let mut r = RelSchema::new("chain");
        r.table(Table::new("c").col_pk_fk("id", "int", "b", "id"));
        r.table(Table::new("b").col_pk_fk("id", "int", "a", "id"));
        r.table(Table::new("a").col_pk("id", "int"));
        let ecr = r.to_ecr().unwrap();
        let c = ecr.object_by_name("c").unwrap();
        let b = ecr.object_by_name("b").unwrap();
        assert_eq!(ecr.object(c).parents(), &[b]);
    }

    #[test]
    fn dangling_subset_reference_is_an_error() {
        let mut r = RelSchema::new("bad");
        r.table(Table::new("orphan").col_pk_fk("id", "int", "ghost", "id"));
        let err = r.to_ecr().unwrap_err().to_string();
        assert!(err.contains("orphan"), "{err}");
    }

    #[test]
    fn relationship_referencing_missing_table_is_an_error() {
        let mut r = RelSchema::new("bad");
        r.table(Table::new("a").col_pk("id", "int"));
        r.table(
            Table::new("link")
                .col_pk_fk("a_id", "int", "a", "id")
                .col_pk_fk("g_id", "int", "ghost", "id"),
        );
        assert!(r.to_ecr().is_err());
    }

    #[test]
    fn translated_schema_feeds_integration() {
        // The pipeline the paper proposes: translate, then integrate.
        let ecr = company().to_ecr().unwrap();
        let mut session = sit_core::session::Session::new();
        session.add_schema(ecr).unwrap();
        assert_eq!(session.catalog().len(), 1);
    }
}
