//! Render functions for the thirteen screens, laid out as in the paper.
//!
//! Each function is pure: screen data in, [`Frame`] out. The [`crate::app`]
//! state machine owns the data and the transitions; keeping rendering
//! separate makes every screen golden-testable on its own.

use crate::screen::{Frame, ListWindow};

/// Standard chrome: border, centered title block, and a rule under it.
fn chrome(title: &str, subtitle: &str) -> Frame {
    let mut f = Frame::new();
    f.border();
    f.put_centered(1, title);
    if !subtitle.is_empty() {
        f.put_centered(2, &format!("< {subtitle} >"));
    }
    f.hline(3);
    f
}

fn prompt(f: &mut Frame, text: &str) {
    let row = f.height() - 2;
    f.hline(row - 1);
    f.put(row, 2, text);
}

/// Screen 1 — the main menu. "The six tasks in the main menu closely
/// follow the four phases of schema integration methodology."
pub fn main_menu() -> Frame {
    let mut f = chrome("SCHEMA INTEGRATION TOOL", "Main Menu");
    let tasks = [
        "1.  Collect schema definitions",
        "2.  Specify equivalence among attributes of object classes",
        "3.  Specify assertions between object classes",
        "4.  Specify equivalence among attributes of relationship sets",
        "5.  Specify assertions between relationship sets",
        "6.  View the results of integration",
    ];
    for (i, t) in tasks.iter().enumerate() {
        f.put(5 + 2 * i, 8, t);
    }
    prompt(&mut f, "Choose a task (1-6), or (E)xit =>");
    f
}

/// Screen 2 — Schema Name Collection.
pub fn schema_name(names: &[String], pending: Option<&str>) -> Frame {
    let mut f = chrome("SCHEMA COLLECTION", "Schema Name Collection Screen");
    f.put(5, 4, "Schema Names");
    f.hline(6);
    for (i, n) in names.iter().enumerate().take(12) {
        f.put(7 + i, 4, &format!("{}> {n}", i + 1));
    }
    match pending {
        Some(question) => prompt(&mut f, question),
        None => prompt(&mut f, "Choose: (A)dd (D)elete (U)pdate (E)xit =>"),
    }
    f
}

/// One row of Screen 3.
#[derive(Clone, Debug)]
pub struct StructureRow {
    /// Structure name.
    pub name: String,
    /// `e`, `c`, or `r`.
    pub kind: char,
    /// Number of attributes.
    pub attrs: usize,
}

/// Screen 3 — Structure Information Collection.
pub fn structure_info(
    schema: &str,
    rows: &[StructureRow],
    win: &ListWindow,
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "SCHEMA COLLECTION",
        "Structure Information Collection Screen",
    );
    f.put(4, 4, &format!("SCHEMA NAME: {schema}"));
    f.columns(
        6,
        &[4, 30, 48],
        &["Object Name", "Type (E/C/R)", "# of attributes"],
    );
    f.hline(7);
    for (line, i) in win.visible(rows.len()).enumerate() {
        let r = &rows[i];
        f.columns(
            8 + line,
            &[4, 30, 48],
            &[
                &format!("{}> {}", i + 1, r.name),
                &r.kind.to_string(),
                &r.attrs.to_string(),
            ],
        );
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(&mut f, "Choose: (S)croll (A)dd (D)elete (U)pdate (E)xit =>"),
    }
    f
}

/// Screen 4 — Relationship Information Collection.
pub fn relationship_info(
    schema: &str,
    rel: &str,
    legs: &[(String, String)],
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "SCHEMA COLLECTION",
        "Relationship Information Collection Screen",
    );
    f.put(
        4,
        4,
        &format!("SCHEMA NAME: {schema}   RELATIONSHIP NAME: {rel}"),
    );
    f.columns(
        6,
        &[4, 40],
        &["Participating Object", "Cardinality (min,max)"],
    );
    f.hline(7);
    for (i, (obj, card)) in legs.iter().enumerate().take(10) {
        f.columns(8 + i, &[4, 40], &[&format!("{}> {obj}", i + 1), card]);
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(&mut f, "Choose: (A)dd (E)xit =>"),
    }
    f
}

/// Screen 5 — Attribute Information Collection.
pub fn attribute_info(
    schema: &str,
    owner: &str,
    kind: char,
    rows: &[(String, String, char)],
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "SCHEMA COLLECTION",
        "Attribute Information Collection Screen",
    );
    f.put(
        4,
        4,
        &format!("SCHEMA NAME: {schema}   OBJECT NAME: {owner}   TYPE: {kind}"),
    );
    f.columns(6, &[4, 34, 58], &["Attribute Name", "Domain", "Key (y/n)"]);
    f.hline(7);
    for (i, (name, domain, key)) in rows.iter().enumerate().take(10) {
        f.columns(
            8 + i,
            &[4, 34, 58],
            &[&format!("{}> {name}", i + 1), domain, &key.to_string()],
        );
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(&mut f, "Choose: (S)croll (A)dd (D)elete (E)xit =>"),
    }
    f
}

/// Category Information Collection (for structures of type `c`).
pub fn category_info(
    schema: &str,
    category: &str,
    parents: &[String],
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "SCHEMA COLLECTION",
        "Category Information Collection Screen",
    );
    f.put(
        4,
        4,
        &format!("SCHEMA NAME: {schema}   CATEGORY NAME: {category}"),
    );
    f.put(6, 4, "Connected entities and categories:");
    f.hline(7);
    for (i, p) in parents.iter().enumerate().take(10) {
        f.put(8 + i, 4, &format!("{}> {p}", i + 1));
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(&mut f, "Choose: (A)dd (E)xit =>"),
    }
    f
}

/// Schema Name Selection (phase 2 entry).
pub fn schema_select(names: &[String], pending: Option<&str>) -> Frame {
    let mut f = chrome("EQUIVALENCE SPECIFICATION", "Schema Name Selection Screen");
    f.put(5, 4, "Defined schemas:");
    for (i, n) in names.iter().enumerate().take(12) {
        f.put(7 + i, 6, &format!("{}> {n}", i + 1));
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(&mut f, "Enter the two schema names to integrate =>"),
    }
    f
}

/// Screen 6 — Entity/Category Name Selection.
pub fn object_select(
    s1: &str,
    objs1: &[(String, char)],
    s2: &str,
    objs2: &[(String, char)],
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "EQUIVALENCE SPECIFICATION",
        "Entity/Category Name Selection Screen",
    );
    f.columns(
        5,
        &[6, 42],
        &[&format!("schema: {s1}"), &format!("schema: {s2}")],
    );
    f.hline(6);
    let rows = objs1.len().max(objs2.len()).min(12);
    for i in 0..rows {
        if let Some((n, k)) = objs1.get(i) {
            f.put(7 + i, 6, &format!("{}> {n} ({k})", i + 1));
        }
        if let Some((n, k)) = objs2.get(i) {
            f.put(7 + i, 42, &format!("{}> {n} ({k})", i + 1));
        }
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(
            &mut f,
            "Pick one object from each schema (name name), or (E)xit =>",
        ),
    }
    f
}

/// Screen 7 — Equivalence Class Creation and Deletion.
#[allow(clippy::too_many_arguments)]
pub fn equivalence(
    o1: &str,
    rows1: &[(String, u32)],
    o2: &str,
    rows2: &[(String, u32)],
    pending: Option<&str>,
) -> Frame {
    let mut f = chrome(
        "EQUIVALENCE SPECIFICATION",
        "Equivalence Class Creation and Deletion Screen",
    );
    f.columns(
        4,
        &[4, 42],
        &[
            &format!("(schema.object1) {o1}"),
            &format!("(schema.object2) {o2}"),
        ],
    );
    f.columns(
        6,
        &[4, 24, 42, 62],
        &[
            "Attribute Name",
            "Eq_class #",
            "Attribute Name",
            "Eq_class #",
        ],
    );
    f.hline(7);
    let rows = rows1.len().max(rows2.len()).min(10);
    for i in 0..rows {
        if let Some((name, class)) = rows1.get(i) {
            f.columns(
                8 + i,
                &[4, 24],
                &[&format!("{}> {name}", i + 1), &class.to_string()],
            );
        }
        if let Some((name, class)) = rows2.get(i) {
            f.columns(
                8 + i,
                &[42, 62],
                &[&format!("{}> {name}", i + 1), &class.to_string()],
            );
        }
    }
    match pending {
        Some(q) => prompt(&mut f, q),
        None => prompt(
            &mut f,
            "(S)croll (A)dd or (D)elete from equiv. class (E)xit =>",
        ),
    }
    f
}

/// One row of Screen 8.
#[derive(Clone, Debug)]
pub struct AssertionRow {
    /// `Schema_Name1.Obj_Class1`.
    pub left: String,
    /// `Schema_Name2.Obj_Class2`.
    pub right: String,
    /// The attribute ratio.
    pub ratio: f64,
    /// The code entered so far, if any.
    pub entered: Option<u8>,
}

/// The assertion-code legend shared by Screens 8 and 9.
fn assertion_legend(f: &mut Frame, start_row: usize) {
    let lines = [
        "1 - OB_CL_name_1 'equals' OB_CL_name_2",
        "2 - OB_CL_name_1 'contained in' OB_CL_name_2",
        "3 - OB_CL_name_1 'contains' OB_CL_name_2",
        "4 - OB_CL_name_1 and OB_CL_name_2 are disjoint but integratable",
        "5 - OB_CL_name_1 and OB_CL_name_2 may be integratable",
        "0 - OB_CL_name_1 and OB_CL_name_2 are disjoint & non-integratable",
    ];
    for (i, l) in lines.iter().enumerate() {
        f.put(start_row + i, 4, l);
    }
}

/// Screen 8 — Assertion Collection For Object Pairs.
pub fn assertion_collection(rows: &[AssertionRow], current: usize, rels: bool) -> Frame {
    let what = if rels {
        "Relationship Pairs"
    } else {
        "Object Pairs"
    };
    let mut f = chrome(
        "ASSERTION SPECIFICATION",
        &format!("Assertion Collection For {what} Screen"),
    );
    f.columns(
        5,
        &[2, 26, 50, 62],
        &[
            "Schema_Name1.Obj_Class1",
            "Schema_Name2.Obj_Class2",
            "ATTRIBUTE",
            "ENTER",
        ],
    );
    f.columns(6, &[50, 62], &["RATIO", "ASSERTION"]);
    f.hline(7);
    for (i, r) in rows.iter().enumerate().take(6) {
        // The paper prints `=>` before every entered code; the current
        // row shows a bare `=>` awaiting input.
        let entered = match (r.entered, i == current) {
            (Some(c), _) => format!("=>{c}"),
            (None, true) => "=>".to_owned(),
            (None, false) => String::new(),
        };
        f.columns(
            8 + i,
            &[2, 26, 50, 62],
            &[&r.left, &r.right, &format!("{:.4}", r.ratio), &entered],
        );
    }
    assertion_legend(&mut f, 15);
    prompt(
        &mut f,
        "Enter an assertion code (1,2,3,4,5,0), (S)kip or (E)xit =>",
    );
    f
}

/// One row of Screen 9.
#[derive(Clone, Debug)]
pub struct ConflictRow {
    /// `SCHEMA_NAME1.OBJ_CLASS1`.
    pub left: String,
    /// `SCHEMA_NAME2.OBJ_CLASS2`.
    pub right: String,
    /// Assertion code or tag.
    pub current: String,
    /// Annotation: `<derived>(CONFLICT)`, `<new>(CONFLICT)`, or empty.
    pub note: String,
}

/// Screen 9 — Assertion Conflict Resolution.
pub fn conflict_resolution(rows: &[ConflictRow]) -> Frame {
    let mut f = chrome(
        "ASSERTION SPECIFICATION",
        "Assertion Conflict Resolution Screen",
    );
    f.columns(
        5,
        &[2, 26, 48, 56],
        &[
            "SCHEMA_NAME1.OBJ_CLASS1",
            "SCHEMA_NAME2.OBJ_CLASS2",
            "CURRENT",
            "NEW",
        ],
    );
    f.columns(6, &[48, 56], &["ASSERTION", "ASSERTION"]);
    f.hline(7);
    for (i, r) in rows.iter().enumerate().take(6) {
        f.columns(
            8 + i,
            &[2, 26, 48, 56],
            &[&r.left, &r.right, &r.current, &r.note],
        );
    }
    assertion_legend(&mut f, 15);
    prompt(
        &mut f,
        "(C)hange an earlier assertion, or any key to revise the new one =>",
    );
    f
}

/// Screen 10 — Object Class Screen.
pub fn object_class(entities: &[String], categories: &[String], relationships: &[String]) -> Frame {
    let mut f = chrome("INTEGRATED SCHEMA", "Object Class Screen");
    f.columns(
        5,
        &[4, 30, 54],
        &[
            &format!("Entities({})", entities.len()),
            &format!("Categories({})", categories.len()),
            &format!("Relationships({})", relationships.len()),
        ],
    );
    f.hline(6);
    let rows = entities
        .len()
        .max(categories.len())
        .max(relationships.len())
        .min(9);
    for i in 0..rows {
        if let Some(n) = entities.get(i) {
            f.put(7 + i, 4, n);
        }
        if let Some(n) = categories.get(i) {
            f.put(7 + i, 30, n);
        }
        if let Some(n) = relationships.get(i) {
            f.put(7 + i, 54, n);
        }
    }
    f.put(
        18,
        4,
        "To view details, choose an object class name followed by",
    );
    f.put(
        19,
        4,
        "<A>ttributes, <C>ategories, <E>ntities, <R>elationships,",
    );
    prompt(&mut f, "or e<x>it =>");
    f
}

/// Entity Screen / Screen 11 (Category Screen) / Relationship Screen —
/// all show parents and children of one element.
pub fn element_view(
    kind_label: &str,
    name: &str,
    parents: &[(String, char)],
    children: &[(String, char)],
) -> Frame {
    let mut f = chrome("INTEGRATED SCHEMA", &format!("{kind_label} Screen"));
    f.put_centered(4, &format!("< {name} >"));
    f.columns(
        6,
        &[4, 42],
        &[
            &format!("Parent Object({}) (type)", parents.len()),
            &format!("Child Object({}) (type)", children.len()),
        ],
    );
    f.hline(7);
    let rows = parents.len().max(children.len()).min(9);
    for i in 0..rows {
        if let Some((n, k)) = parents.get(i) {
            f.put(8 + i, 4, &format!("{n} ({k})"));
        }
        if let Some((n, k)) = children.get(i) {
            f.put(8 + i, 42, &format!("{n} ({k})"));
        }
    }
    prompt(
        &mut f,
        "Choose: <A>ttributes e<Q>uivalents <P>articipants, or e<x>it =>",
    );
    f
}

/// How many attribute rows the Attribute Screen shows.
pub const ATTRIBUTE_ROWS: usize = 10;

/// Attribute Screen — all attributes of one object class or relationship
/// set (the first [`ATTRIBUTE_ROWS`]); derived attributes are marked.
pub fn attribute_view(
    owner: &str,
    owner_kind: &str,
    rows: &[(String, String, char, bool)],
) -> Frame {
    let mut f = chrome("INTEGRATED SCHEMA", "Attribute Screen");
    f.put_centered(4, &format!("< {owner} : {owner_kind} >"));
    f.columns(
        6,
        &[4, 34, 52, 62],
        &["Attribute Name", "Domain", "Key", "Derived?"],
    );
    f.hline(7);
    for (i, (name, domain, key, derived)) in rows.iter().enumerate().take(ATTRIBUTE_ROWS) {
        f.columns(
            8 + i,
            &[4, 34, 52, 62],
            &[
                &format!("{}> {name}", i + 1),
                domain,
                &key.to_string(),
                if *derived { "yes" } else { "no" },
            ],
        );
    }
    prompt(
        &mut f,
        "Choose an attribute number for its c<O>mponents, or e<x>it =>",
    );
    f
}

/// Data of Screens 12a/12b — one component of a derived attribute.
pub struct ComponentView {
    /// Owning object/relationship name in the integrated schema.
    pub owner: String,
    /// `entity` / `category` / `relationship`.
    pub owner_kind: String,
    /// The derived attribute's name.
    pub attr: String,
    /// Component attribute name.
    pub comp_name: String,
    /// Component domain tag.
    pub domain: String,
    /// Component key flag.
    pub key: bool,
    /// `original Object Name`.
    pub original_object: String,
    /// `original type` (E/C/R).
    pub original_type: char,
    /// `original Schema Name`.
    pub original_schema: String,
    /// Which component this is (1-based) out of how many.
    pub index: usize,
    /// Total component count.
    pub total: usize,
}

/// Screens 12a/12b — Component Attribute Screen.
pub fn component_attribute(v: &ComponentView) -> Frame {
    let mut f = chrome("COMPONENT ATTRIBUTE SCREEN", "");
    f.put_centered(2, &format!("< {} : {} >", v.owner, v.owner_kind));
    f.put_centered(3, &format!("< {} ({} of {}) >", v.attr, v.index, v.total));
    let fields = [
        ("Attribute Name", v.comp_name.clone()),
        ("Domain", v.domain.clone()),
        ("Key", if v.key { "YES".into() } else { "NO".into() }),
        ("original Object Name", v.original_object.clone()),
        ("original type", v.original_type.to_string()),
        ("original Schema Name", v.original_schema.clone()),
    ];
    for (i, (label, value)) in fields.iter().enumerate() {
        f.put(6 + 2 * i, 8, &format!("{label:<22}: {value}"));
    }
    prompt(&mut f, "Press any key to continue, or <Q>uit =>");
    f
}

/// Equivalent Screen — the components of an `E_` merge.
pub fn equivalent_view(name: &str, members: &[String]) -> Frame {
    let mut f = chrome("INTEGRATED SCHEMA", "Equivalent Screen");
    f.put_centered(4, &format!("< {name} >"));
    f.put(6, 4, "Obtained by integrating:");
    f.hline(7);
    for (i, m) in members.iter().enumerate().take(10) {
        f.put(8 + i, 6, &format!("{}> {m}", i + 1));
    }
    prompt(&mut f, "Press any key to continue =>");
    f
}

/// Participating Objects In Relationship Screen.
pub fn participating_view(rel: &str, rows: &[(String, char, String)]) -> Frame {
    let mut f = chrome(
        "INTEGRATED SCHEMA",
        "Participating Objects In Relationship Screen",
    );
    f.put_centered(4, &format!("< {rel} >"));
    f.columns(6, &[4, 40, 56], &["Object", "Type", "Cardinality"]);
    f.hline(7);
    for (i, (name, kind, card)) in rows.iter().enumerate().take(10) {
        f.columns(
            8 + i,
            &[4, 40, 56],
            &[&format!("{}> {name}", i + 1), &kind.to_string(), card],
        );
    }
    prompt(&mut f, "Press any key to continue =>");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_menu_lists_six_tasks() {
        let f = main_menu();
        assert!(f.contains("SCHEMA INTEGRATION TOOL"));
        for i in 1..=6 {
            assert!(f.contains(&format!("{i}. ")), "task {i} listed");
        }
        assert!(f.contains("(E)xit"));
    }

    #[test]
    fn screen3_layout_matches_paper_example() {
        let rows = vec![
            StructureRow {
                name: "Student".into(),
                kind: 'e',
                attrs: 2,
            },
            StructureRow {
                name: "Department".into(),
                kind: 'e',
                attrs: 1,
            },
            StructureRow {
                name: "Majors".into(),
                kind: 'r',
                attrs: 1,
            },
        ];
        let f = structure_info("sc1", &rows, &ListWindow::new(10), None);
        assert!(f.contains("SCHEMA NAME: sc1"));
        assert!(f.contains("1> Student"));
        assert!(f.contains("3> Majors"));
        assert!(f.contains("(S)croll (A)dd (D)elete (U)pdate (E)xit"));
    }

    #[test]
    fn screen7_shows_class_numbers() {
        let f = equivalence(
            "sc1.Student",
            &[("Name".into(), 1), ("GPA".into(), 2)],
            "sc2.Grad_student",
            &[
                ("Name".into(), 1),
                ("GPA".into(), 6),
                ("Support_type".into(), 7),
            ],
            None,
        );
        assert!(f.contains("sc1.Student"));
        assert!(f.contains("sc2.Grad_student"));
        assert!(f.contains("Support_type"));
        assert!(f.contains("Eq_class #"));
        // GPA rows carry different class numbers.
        let row = f.find("2> GPA").unwrap();
        let text = f.row_text(row);
        assert!(text.contains('2') && text.contains('6'), "{text}");
    }

    #[test]
    fn screen8_shows_ratio_and_legend() {
        let rows = vec![
            AssertionRow {
                left: "sc1.Department".into(),
                right: "sc2.Department".into(),
                ratio: 0.5,
                entered: Some(1),
            },
            AssertionRow {
                left: "sc1.Student".into(),
                right: "sc2.Faculty".into(),
                ratio: 1.0 / 3.0,
                entered: None,
            },
        ];
        let f = assertion_collection(&rows, 1, false);
        assert!(f.contains("0.5000"));
        assert!(f.contains("0.3333"));
        assert!(f.contains("'equals'"));
        assert!(f.contains("disjoint & non-integratable"));
        assert!(f.contains("=>1"), "entered code shown");
    }

    #[test]
    fn screen9_marks_conflicts() {
        let rows = vec![
            ConflictRow {
                left: "sc3.Instructor".into(),
                right: "sc4.Student".into(),
                current: "2".into(),
                note: "<derived>(CONFLICT)".into(),
            },
            ConflictRow {
                left: "sc3.Instructor".into(),
                right: "sc4.Student".into(),
                current: "0".into(),
                note: "<new>(CONFLICT)".into(),
            },
        ];
        let f = conflict_resolution(&rows);
        assert!(f.contains("<derived>(CONFLICT)"));
        assert!(f.contains("<new>(CONFLICT)"));
        assert!(f.contains("Assertion Conflict Resolution"));
    }

    #[test]
    fn screen10_counts_lists() {
        let f = object_class(
            &["E_Department".into(), "D_Stud_Facu".into()],
            &["Student".into(), "Grad_student".into(), "Faculty".into()],
            &["E_Stud_Majo".into(), "Works".into()],
        );
        assert!(f.contains("Entities(2)"));
        assert!(f.contains("Categories(3)"));
        assert!(f.contains("Relationships(2)"));
        assert!(f.contains("D_Stud_Facu"));
    }

    #[test]
    fn screen11_shows_parents_and_children() {
        let f = element_view(
            "Category",
            "Student",
            &[("D_Stud_Facu".into(), 'E')],
            &[("sc2.Grad_stud".into(), 'C')],
        );
        assert!(f.contains("< Student >"));
        assert!(f.contains("Parent Object(1)"));
        assert!(f.contains("D_Stud_Facu (E)"));
        assert!(f.contains("sc2.Grad_stud (C)"));
    }

    #[test]
    fn screen12_component_fields() {
        let v = ComponentView {
            owner: "Student".into(),
            owner_kind: "category".into(),
            attr: "D_Name".into(),
            comp_name: "Name".into(),
            domain: "char".into(),
            key: true,
            original_object: "Student".into(),
            original_type: 'E',
            original_schema: "sc1".into(),
            index: 1,
            total: 2,
        };
        let f = component_attribute(&v);
        assert!(f.contains("< Student : category >"));
        assert!(f.contains("< D_Name (1 of 2) >"));
        assert!(f.contains("original Schema Name"));
        assert!(f.contains(": sc1"));
        assert!(f.contains(": YES"));
    }
}
