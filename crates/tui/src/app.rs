//! The tool's state machine: thirteen screens over one integration
//! session.
//!
//! "When the tool is invoked, the user is presented with the main menu,
//! which describes the tasks required for integration. ... The DDA
//! generally performs the tasks in the serial order." (§3.1–§3.2)
//!
//! The [`App`] owns a [`sit_core::session::Session`] and a `State`; every
//! [`Event`] may change both, and [`App::render`] draws the current screen.
//! All interaction is deterministic, so full sessions can be scripted and
//! their frames golden-tested (see [`crate::session`]).

use sit_core::assertion::Assertion;
use sit_core::catalog::{Catalog, GAttr, GObj, GRel};
use sit_core::error::CoreError;
use sit_core::integrate::{IntegratedSchema, IntegrationOptions, Origin};
use sit_core::session::Session;
use sit_core::Element;
use sit_ecr::{AttrId, Cardinality, Domain, ObjectKind, SchemaBuilder, SchemaId};
use sit_ecr::{AttrOwner, ObjectId, RelId, Schema};

use crate::event::Event;
use crate::screen::{Frame, ListWindow};
use crate::screens::{self, AssertionRow, ConflictRow, StructureRow};

/// A structure being collected on Screens 3–5.
#[derive(Clone, Debug, Default)]
struct PendingStructure {
    name: String,
    kind: char, // 'e' | 'c' | 'r'
    parents: Vec<String>,
    legs: Vec<(String, Cardinality)>,
    attrs: Vec<(String, Domain, bool)>,
}

/// A schema being collected in task 1.
#[derive(Clone, Debug, Default)]
struct PendingSchema {
    name: String,
    structures: Vec<PendingStructure>,
    win: ListWindow,
}

impl PendingSchema {
    fn build(&self) -> Result<sit_ecr::Schema, String> {
        let mut b = SchemaBuilder::new(self.name.clone());
        // Objects first (in collection order so categories can reference
        // earlier structures), then relationships.
        for s in &self.structures {
            match s.kind {
                'e' => {
                    let mut ob = b.entity_set(s.name.clone());
                    for (n, d, k) in &s.attrs {
                        ob = if *k {
                            ob.attr_key(n.clone(), d.clone())
                        } else {
                            ob.attr(n.clone(), d.clone())
                        };
                    }
                    ob.finish();
                }
                'c' => {
                    let parents: Vec<&str> = s.parents.iter().map(String::as_str).collect();
                    let mut ob = b
                        .category_of(s.name.clone(), &parents)
                        .map_err(|e| e.to_string())?;
                    for (n, d, k) in &s.attrs {
                        ob = if *k {
                            ob.attr_key(n.clone(), d.clone())
                        } else {
                            ob.attr(n.clone(), d.clone())
                        };
                    }
                    ob.finish();
                }
                _ => {}
            }
        }
        for s in &self.structures {
            if s.kind != 'r' {
                continue;
            }
            let mut legs = Vec::new();
            for (obj, card) in &s.legs {
                let oid = b
                    .object_by_name(obj)
                    .ok_or_else(|| format!("unknown participant `{obj}`"))?;
                legs.push((oid, *card));
            }
            let mut rb = b.relationship(s.name.clone());
            for (oid, card) in legs {
                rb = rb.participant(oid, card);
            }
            for (n, d, k) in &s.attrs {
                rb = if *k {
                    rb.attr_key(n.clone(), d.clone())
                } else {
                    rb.attr(n.clone(), d.clone())
                };
            }
            rb.finish();
        }
        b.build().map_err(|e| e.to_string())
    }
}

/// An attribute owner selected on Screen 6 (an object class for task 2,
/// a relationship set for task 4).
type EqTarget = (SchemaId, AttrOwner);

/// Where the tool currently is.
#[derive(Clone, Debug)]
enum State {
    MainMenu,
    // ---- Task 1: schema collection ----
    SchemaNames,
    AskSchemaName,
    Structures,
    AskStructName,
    AskStructType,
    AskCategoryParents,
    AskRelLeg,
    AskAttr,
    // ---- Tasks 2 / 4: equivalence ----
    EqSchemaSelect {
        rels: bool,
    },
    EqObjectSelect {
        rels: bool,
    },
    EqClasses {
        rels: bool,
    },
    AskEqAdd {
        rels: bool,
    },
    AskEqDel {
        rels: bool,
    },
    // ---- Tasks 3 / 5: assertions ----
    Assertions {
        rels: bool,
        idx: usize,
    },
    Conflict {
        rels: bool,
        idx: usize,
        rows: Vec<ConflictRow>,
    },
    AskConflictChange {
        rels: bool,
        idx: usize,
    },
    // ---- Task 6: viewer ----
    ViewObjects {
        selected: Option<String>,
    },
    ViewElement {
        name: String,
        is_rel: bool,
    },
    ViewAttrs {
        name: String,
        is_rel: bool,
    },
    ViewComponent {
        name: String,
        is_rel: bool,
        attr: usize,
        comp: usize,
    },
    ViewEquivalent {
        name: String,
        is_rel: bool,
    },
    ViewParticipating {
        name: String,
    },
}

/// The interactive tool.
pub struct App {
    session: Session,
    state: State,
    pending: Option<PendingSchema>,
    /// The two schemas being integrated (chosen in task 2, reused by
    /// tasks 3–6).
    pair: Option<(SchemaId, SchemaId)>,
    eq_targets: Option<(EqTarget, EqTarget)>,
    /// Cached candidate rows for the assertion screen.
    rows: Vec<AssertionRow>,
    integrated: Option<IntegratedSchema>,
    status: Option<String>,
}

impl Default for App {
    fn default() -> Self {
        Self::new()
    }
}

impl App {
    /// A fresh tool at the main menu.
    pub fn new() -> App {
        App {
            session: Session::new(),
            state: State::MainMenu,
            pending: None,
            pair: None,
            eq_targets: None,
            rows: Vec::new(),
            integrated: None,
            status: None,
        }
    }

    /// A tool over an existing session (schemas pre-registered), as tests
    /// and examples usually want.
    pub fn with_session(session: Session) -> App {
        App {
            session,
            ..App::new()
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The last integration result computed by task 6.
    pub fn integrated(&self) -> Option<&IntegratedSchema> {
        self.integrated.as_ref()
    }

    /// Handle one input event.
    pub fn handle(&mut self, event: Event) {
        self.status = None;
        let state = self.state.clone();
        match state {
            State::MainMenu => self.main_menu(event),
            State::SchemaNames => self.schema_names(event),
            State::AskSchemaName => self.ask_schema_name(event),
            State::Structures => self.structures(event),
            State::AskStructName => self.ask_struct_name(event),
            State::AskStructType => self.ask_struct_type(event),
            State::AskCategoryParents => self.ask_category_parents(event),
            State::AskRelLeg => self.ask_rel_leg(event),
            State::AskAttr => self.ask_attr(event),
            State::EqSchemaSelect { rels } => self.eq_schema_select(event, rels),
            State::EqObjectSelect { rels } => self.eq_object_select(event, rels),
            State::EqClasses { rels } => self.eq_classes(event, rels),
            State::AskEqAdd { rels } => self.ask_eq_edit(event, rels, true),
            State::AskEqDel { rels } => self.ask_eq_edit(event, rels, false),
            State::Assertions { rels, idx } => self.assertions(event, rels, idx),
            State::Conflict { rels, idx, .. } => self.conflict(event, rels, idx),
            State::AskConflictChange { rels, idx } => self.ask_conflict_change(event, rels, idx),
            State::ViewObjects { selected } => self.view_objects(event, selected),
            State::ViewElement { name, is_rel } => self.view_element(event, name, is_rel),
            State::ViewAttrs { name, is_rel } => self.view_attrs(event, name, is_rel),
            State::ViewComponent {
                name,
                is_rel,
                attr,
                comp,
            } => self.view_component(event, name, is_rel, attr, comp),
            State::ViewEquivalent { name, is_rel } => {
                let _ = (name, is_rel, event);
                self.state = State::ViewObjects { selected: None };
            }
            State::ViewParticipating { name } => {
                let _ = (name, event);
                self.state = State::ViewObjects { selected: None };
            }
        }
    }

    // ------------------------------------------------------------------
    // Main menu
    // ------------------------------------------------------------------

    fn main_menu(&mut self, event: Event) {
        match event.key() {
            Some('1') => self.state = State::SchemaNames,
            Some('2') => self.state = State::EqSchemaSelect { rels: false },
            Some('3') => self.enter_assertions(false),
            Some('4') => self.state = State::EqSchemaSelect { rels: true },
            Some('5') => self.enter_assertions(true),
            Some('6') => self.enter_viewer(),
            Some('e') => {} // exiting the tool keeps the final screen
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Task 1: schema collection
    // ------------------------------------------------------------------

    fn schema_names(&mut self, event: Event) {
        match event.key() {
            Some('a') => self.state = State::AskSchemaName,
            Some('u') | Some('d') => {
                // Committed schemas anchor equivalences and assertions;
                // in-place edits would silently invalidate them. The
                // supported path is the session script (paper §4's data
                // dictionary): save, edit, reload.
                self.status = Some(
                    "edit committed schemas via a saved session script (--save / --load)".into(),
                );
            }
            Some('e') => self.state = State::MainMenu,
            _ => {}
        }
    }

    fn ask_schema_name(&mut self, event: Event) {
        if let Some(name) = event.as_text() {
            let name = name.trim();
            if name.is_empty() {
                self.state = State::SchemaNames;
                return;
            }
            self.pending = Some(PendingSchema {
                name: name.to_owned(),
                structures: Vec::new(),
                win: ListWindow::new(10),
            });
            self.state = State::Structures;
        }
    }

    fn structures(&mut self, event: Event) {
        match event.key() {
            Some('a') => self.state = State::AskStructName,
            Some('s') => {
                if let Some(p) = &mut self.pending {
                    let total = p.structures.len();
                    p.win.scroll(total);
                }
            }
            Some('e') => {
                // Commit the pending schema to the session.
                if let Some(p) = self.pending.take() {
                    match p
                        .build()
                        .and_then(|s| self.session.add_schema(s).map_err(|e| e.to_string()))
                    {
                        Ok(_) => self.status = Some(format!("schema `{}` defined", p.name)),
                        Err(e) => {
                            self.status = Some(format!("error: {e}"));
                            self.pending = Some(p);
                            return;
                        }
                    }
                }
                self.state = State::SchemaNames;
            }
            _ => {}
        }
    }

    fn ask_struct_name(&mut self, event: Event) {
        if let Some(name) = event.as_text() {
            let name = name.trim().to_owned();
            if name.is_empty() {
                self.state = State::Structures;
                return;
            }
            if let Some(p) = &mut self.pending {
                p.structures.push(PendingStructure {
                    name,
                    ..Default::default()
                });
            }
            self.state = State::AskStructType;
        }
    }

    fn ask_struct_type(&mut self, event: Event) {
        let Some(kind) = event.key() else { return };
        if !"ecr".contains(kind) {
            self.status = Some("type must be e, c or r".into());
            return;
        }
        if let Some(s) = self.pending.as_mut().and_then(|p| p.structures.last_mut()) {
            s.kind = kind;
        }
        self.state = match kind {
            'c' => State::AskCategoryParents,
            'r' => State::AskRelLeg,
            _ => State::AskAttr,
        };
    }

    fn ask_category_parents(&mut self, event: Event) {
        if let Some(text) = event.as_text() {
            let text = text.trim();
            if text.is_empty() {
                self.state = State::AskAttr;
                return;
            }
            if let Some(s) = self.pending.as_mut().and_then(|p| p.structures.last_mut()) {
                s.parents.push(text.to_owned());
            }
        }
    }

    /// Relationship legs are typed as `Object (min,max)`, `max` possibly
    /// `n`.
    fn ask_rel_leg(&mut self, event: Event) {
        if let Some(text) = event.as_text() {
            let text = text.trim();
            if text.is_empty() {
                self.state = State::AskAttr;
                return;
            }
            match parse_leg(text) {
                Some((obj, card)) => {
                    if let Some(s) = self.pending.as_mut().and_then(|p| p.structures.last_mut()) {
                        s.legs.push((obj, card));
                    }
                }
                None => self.status = Some(format!("cannot parse leg `{text}`")),
            }
        }
    }

    /// Attributes are typed as `name domain [key]`.
    fn ask_attr(&mut self, event: Event) {
        if let Some(text) = event.as_text() {
            let text = text.trim();
            if text.is_empty() {
                self.state = State::Structures;
                return;
            }
            match parse_attr(text) {
                Some(attr) => {
                    if let Some(s) = self.pending.as_mut().and_then(|p| p.structures.last_mut()) {
                        s.attrs.push(attr);
                    }
                }
                None => self.status = Some(format!("cannot parse attribute `{text}`")),
            }
        }
    }

    // ------------------------------------------------------------------
    // Tasks 2 / 4: equivalence specification
    // ------------------------------------------------------------------

    fn eq_schema_select(&mut self, event: Event, rels: bool) {
        match &event {
            Event::Key(k) if k.eq_ignore_ascii_case(&'e') => self.state = State::MainMenu,
            Event::Text(text) => {
                let names: Vec<&str> = text.split_whitespace().collect();
                if names.len() != 2 {
                    self.status = Some("enter exactly two schema names".into());
                    return;
                }
                match (
                    self.session.catalog().by_name(names[0]),
                    self.session.catalog().by_name(names[1]),
                ) {
                    (Some(a), Some(b)) if a != b => {
                        self.pair = Some((a, b));
                        self.state = State::EqObjectSelect { rels };
                    }
                    _ => self.status = Some("unknown or identical schema names".into()),
                }
            }
            _ => {}
        }
    }

    fn eq_object_select(&mut self, event: Event, rels: bool) {
        match &event {
            Event::Key(k) if k.eq_ignore_ascii_case(&'e') => self.state = State::MainMenu,
            Event::Text(text) => {
                let Some((sa, sb)) = self.pair else {
                    self.status = Some("select schemas first".into());
                    return;
                };
                let names: Vec<&str> = text.split_whitespace().collect();
                if names.len() != 2 {
                    self.status = Some("enter one name from each schema".into());
                    return;
                }
                let catalog = self.session.catalog();
                let target = |sid: SchemaId, name: &str| -> Option<EqTarget> {
                    let schema = catalog.schema(sid);
                    let owner = if rels {
                        schema.rel_by_name(name).map(AttrOwner::Rel)
                    } else {
                        schema.object_by_name(name).map(AttrOwner::Object)
                    };
                    Some((sid, owner?))
                };
                match (target(sa, names[0]), target(sb, names[1])) {
                    (Some(a), Some(b)) => {
                        self.eq_targets = Some((a, b));
                        self.state = State::EqClasses { rels };
                    }
                    _ => self.status = Some("unknown object/relationship name".into()),
                }
            }
            _ => {}
        }
    }

    fn eq_classes(&mut self, event: Event, rels: bool) {
        match event.key() {
            Some('a') => self.state = State::AskEqAdd { rels },
            Some('d') => self.state = State::AskEqDel { rels },
            Some('e') => self.state = State::EqObjectSelect { rels },
            _ => {}
        }
    }

    /// Equivalence edits are typed as two 1-based attribute numbers
    /// (`add`: left and right; `delete`: side `1`/`2` and number).
    fn ask_eq_edit(&mut self, event: Event, rels: bool, add: bool) {
        let Some(text) = event.as_text() else { return };
        let nums: Vec<usize> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        self.state = State::EqClasses { rels };
        let Some((ta, tb)) = self.eq_targets else {
            self.status = Some("select objects first".into());
            return;
        };
        if nums.len() != 2 || nums[0] == 0 || nums[1] == 0 {
            self.status = Some("enter two numbers".into());
            return;
        }
        if add {
            let (Some(a), Some(b)) = (
                self.attr_ref(ta, nums[0] - 1),
                self.attr_ref(tb, nums[1] - 1),
            ) else {
                self.status = Some("attribute number out of range".into());
                return;
            };
            match self.session.declare_equivalent(a, b) {
                Ok(()) => self.status = Some("equivalence recorded".into()),
                Err(e) => self.status = Some(format!("error: {e}")),
            }
        } else {
            let side = if nums[0] == 1 { ta } else { tb };
            let Some(a) = self.attr_ref(side, nums[1] - 1) else {
                self.status = Some("attribute number out of range".into());
                return;
            };
            if self.session.remove_from_class(a) {
                self.status = Some("attribute removed from its class".into());
            } else {
                self.status = Some("attribute was not in a class".into());
            }
        }
    }

    fn attr_ref(&self, (sid, owner): EqTarget, idx: usize) -> Option<GAttr> {
        let count = self.session.catalog().schema(sid).owner_attrs(owner).len();
        (idx < count).then(|| GAttr::new(sid, owner, AttrId::new(idx as u32)))
    }

    // ------------------------------------------------------------------
    // Tasks 3 / 5: assertion specification
    // ------------------------------------------------------------------

    fn enter_assertions(&mut self, rels: bool) {
        let Some((sa, sb)) = self.pair else {
            self.status = Some("run task 2 first to pick the schemas".into());
            return;
        };
        self.rows = if rels {
            self.candidate_rows::<GRel>(sa, sb)
        } else {
            self.candidate_rows::<GObj>(sa, sb)
        };
        self.state = State::Assertions { rels, idx: 0 };
    }

    /// Screen 8's rows for one kind of element.
    fn candidate_rows<E: Element>(&self, sa: SchemaId, sb: SchemaId) -> Vec<AssertionRow> {
        let catalog = self.session.catalog();
        self.session
            .candidates::<E>(sa, sb)
            .into_iter()
            .map(|p| AssertionRow {
                left: catalog.display(p.left),
                right: catalog.display(p.right),
                ratio: p.ratio,
                entered: None,
            })
            .collect()
    }

    /// Resolve a `schema.Name` as the screens show it; schema and element
    /// names may themselves contain dots.
    fn resolve<E: Element>(&self, dotted: &str) -> Option<E> {
        self.session.catalog().schemas().find_map(|(sid, schema)| {
            let name = dotted.strip_prefix(schema.name())?.strip_prefix('.')?;
            E::find(sid, schema, name)
        })
    }

    /// Assert between two elements named as on the screens; returns how
    /// many assertions were derived.
    fn assert_named<E: Element>(
        &mut self,
        a: &str,
        b: &str,
        assertion: Assertion,
    ) -> Result<usize, CoreError> {
        let (Some(a), Some(b)) = (self.resolve::<E>(a), self.resolve::<E>(b)) else {
            return Err(CoreError::UnknownName(format!("{a} / {b}")));
        };
        self.session.assert(a, b, assertion).map(|d| d.len())
    }

    fn assertions(&mut self, event: Event, rels: bool, idx: usize) {
        let row_count = self.rows.len();
        match event.key() {
            Some('e') => self.state = State::MainMenu,
            Some('s') if row_count > 0 => {
                self.state = State::Assertions {
                    rels,
                    idx: (idx + 1) % row_count,
                };
            }
            Some(c) if c.is_ascii_digit() => {
                let Some(assertion) = Assertion::from_code(c as u8 - b'0') else {
                    self.status = Some("codes are 0-5".into());
                    return;
                };
                if idx >= row_count {
                    return;
                }
                let (a, b) = (self.rows[idx].left.clone(), self.rows[idx].right.clone());
                let outcome = if rels {
                    self.assert_named::<GRel>(&a, &b, assertion)
                } else {
                    self.assert_named::<GObj>(&a, &b, assertion)
                };
                match outcome {
                    Ok(derived) => {
                        self.rows[idx].entered = Some(assertion.code());
                        if derived > 0 {
                            self.status =
                                Some(format!("{derived} assertion(s) derived automatically"));
                        }
                        let next = (idx + 1).min(row_count.saturating_sub(1));
                        self.state = State::Assertions { rels, idx: next };
                    }
                    Err(CoreError::Conflict(report)) => {
                        let mut rows = vec![ConflictRow {
                            left: report.pair.0.clone(),
                            right: report.pair.1.clone(),
                            current: report
                                .existing
                                .singleton()
                                .map(rel_code)
                                .unwrap_or_else(|| report.existing.to_string()),
                            note: "<derived>(CONFLICT)".into(),
                        }];
                        rows.push(ConflictRow {
                            left: report.pair.0.clone(),
                            right: report.pair.1.clone(),
                            current: report.rejected.code().to_string(),
                            note: "<new>(CONFLICT)".into(),
                        });
                        for s in &report.supports {
                            rows.push(ConflictRow {
                                left: s.a.clone(),
                                right: s.b.clone(),
                                current: s.label.clone(),
                                note: String::new(),
                            });
                        }
                        self.state = State::Conflict { rels, idx, rows };
                    }
                    Err(e) => self.status = Some(format!("error: {e}")),
                }
            }
            _ => {}
        }
    }

    fn conflict(&mut self, event: Event, rels: bool, idx: usize) {
        match event.key() {
            Some('c') => self.state = State::AskConflictChange { rels, idx },
            _ => self.state = State::Assertions { rels, idx },
        }
    }

    /// Conflict repair: `<left> <right> <code>` retracts the user
    /// assertion between the named pair and records the new code
    /// (dotted `schema.Object` names as displayed on the screen).
    fn ask_conflict_change(&mut self, event: Event, rels: bool, idx: usize) {
        let Some(text) = event.as_text() else { return };
        self.state = State::Assertions { rels, idx };
        let parts: Vec<&str> = text.split_whitespace().collect();
        if parts.len() != 3 {
            self.status = Some("enter: <schema.Object> <schema.Object> <code>".into());
            return;
        }
        let Some(assertion) = parts[2].parse::<u8>().ok().and_then(Assertion::from_code) else {
            self.status = Some("bad assertion code".into());
            return;
        };
        let status = if rels {
            self.change_assertion::<GRel>(parts[0], parts[1], assertion)
        } else {
            self.change_assertion::<GObj>(parts[0], parts[1], assertion)
        };
        self.status = Some(status);
    }

    /// Retract the user assertion between a named pair and assert
    /// `assertion` in its place; returns the status line.
    fn change_assertion<E: Element>(&mut self, a: &str, b: &str, assertion: Assertion) -> String {
        let (Some(a), Some(b)) = (self.resolve::<E>(a), self.resolve::<E>(b)) else {
            return "cannot resolve the pair".into();
        };
        if !self.session.retract(a, b) {
            return "no user assertion between that pair".into();
        }
        match self.session.assert(a, b, assertion) {
            Ok(_) => "assertion changed".into(),
            Err(e) => format!("error: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Task 6: viewer
    // ------------------------------------------------------------------

    fn enter_viewer(&mut self) {
        let Some((sa, sb)) = self.pair else {
            self.status = Some("run tasks 2-5 first".into());
            return;
        };
        match self
            .session
            .integrate(sa, sb, &IntegrationOptions::default())
        {
            Ok(integrated) => {
                self.integrated = Some(integrated);
                self.state = State::ViewObjects { selected: None };
            }
            Err(e) => self.status = Some(format!("integration failed: {e}")),
        }
    }

    fn view_objects(&mut self, event: Event, selected: Option<String>) {
        match &event {
            Event::Text(name) => {
                self.state = State::ViewObjects {
                    selected: Some(name.trim().to_owned()),
                };
            }
            Event::Key(k) => {
                let k = k.to_ascii_lowercase();
                if k == 'x' {
                    self.state = State::MainMenu;
                    return;
                }
                let Some(name) = selected else {
                    self.status = Some("type an object class name first".into());
                    return;
                };
                let Some(integrated) = &self.integrated else {
                    return;
                };
                let is_rel = integrated.schema.rel_by_name(&name).is_some();
                let is_obj = integrated.schema.object_by_name(&name).is_some();
                match k {
                    'a' if is_obj || is_rel => {
                        self.state = State::ViewAttrs { name, is_rel };
                    }
                    'e' | 'c' if is_obj => {
                        self.state = State::ViewElement {
                            name,
                            is_rel: false,
                        };
                    }
                    'r' if is_rel => {
                        self.state = State::ViewElement { name, is_rel: true };
                    }
                    _ => {
                        self.status = Some(format!("`{name}` does not support that view"));
                        self.state = State::ViewObjects {
                            selected: Some(name),
                        };
                    }
                }
            }
        }
    }

    fn view_element(&mut self, event: Event, name: String, is_rel: bool) {
        match event.key() {
            Some('a') => self.state = State::ViewAttrs { name, is_rel },
            Some('q') => self.state = State::ViewEquivalent { name, is_rel },
            Some('p') if is_rel => self.state = State::ViewParticipating { name },
            Some('x') => self.state = State::ViewObjects { selected: None },
            _ => self.state = State::ViewElement { name, is_rel },
        }
    }

    /// The Attribute Screen: an attribute number, or `o` for the first
    /// row, opens that row's components.
    fn view_attrs(&mut self, event: Event, name: String, is_rel: bool) {
        let number = match event.key() {
            Some('x') => {
                self.state = State::ViewObjects { selected: None };
                return;
            }
            Some('o') => 1,
            Some(k) if k.is_ascii_digit() => (k as u8 - b'0') as usize,
            _ => return,
        };
        let rows = self.attr_rows(&name, is_rel);
        if (1..=rows).contains(&number) {
            self.state = State::ViewComponent {
                name,
                is_rel,
                attr: number - 1,
                comp: 0,
            };
        } else if rows == 0 {
            self.status = Some(format!("`{name}` has no attributes"));
        } else {
            self.status = Some(format!("attribute number must be 1 to {rows}"));
        }
    }

    /// How many attribute rows the Attribute Screen of `name` shows.
    fn attr_rows(&self, name: &str, is_rel: bool) -> usize {
        self.viewed(name, is_rel).map_or(0, |(integrated, owner)| {
            integrated
                .schema
                .owner_attrs(owner)
                .len()
                .min(screens::ATTRIBUTE_ROWS)
        })
    }

    fn view_component(
        &mut self,
        event: Event,
        name: String,
        is_rel: bool,
        attr: usize,
        comp: usize,
    ) {
        if event.key() == Some('q') {
            self.state = State::ViewAttrs { name, is_rel };
            return;
        }
        // Any key: advance to the next component, cycling back to the
        // attribute screen after the last (Screens 12a → 12b → back).
        let total = self.component_count(&name, is_rel, attr).unwrap_or(0);
        if comp + 1 < total {
            self.state = State::ViewComponent {
                name,
                is_rel,
                attr,
                comp: comp + 1,
            };
        } else {
            self.state = State::ViewAttrs { name, is_rel };
        }
    }

    fn component_count(&self, name: &str, is_rel: bool, attr: usize) -> Option<usize> {
        let (integrated, owner) = self.viewed(name, is_rel)?;
        integrated
            .attr_prov(owner)?
            .get(attr)
            .map(|p| p.components.len())
    }

    /// The integrated object class (or, with `is_rel`, relationship set)
    /// the viewer shows under `name`.
    fn viewed(&self, name: &str, is_rel: bool) -> Option<(&IntegratedSchema, AttrOwner)> {
        let integrated = self.integrated.as_ref()?;
        let schema = &integrated.schema;
        let owner = if is_rel {
            schema.rel_by_name(name).map(AttrOwner::Rel)
        } else {
            schema.object_by_name(name).map(AttrOwner::Object)
        };
        Some((integrated, owner?))
    }

    // ------------------------------------------------------------------
    // Rendering
    // ------------------------------------------------------------------

    /// Render the current screen.
    pub fn render(&self) -> Frame {
        let mut frame = self.render_inner();
        if let Some(status) = &self.status {
            let row = frame.height() - 4;
            frame.put(row, 2, &format!("* {status}"));
        }
        frame
    }

    fn render_inner(&self) -> Frame {
        match &self.state {
            State::MainMenu => screens::main_menu(),
            State::SchemaNames => screens::schema_name(&self.schema_names_list(), None),
            State::AskSchemaName => {
                screens::schema_name(&self.schema_names_list(), Some("Schema name =>"))
            }
            State::Structures => self.render_structures(None),
            State::AskStructName => self.render_structures(Some("Object name =>")),
            State::AskStructType => self.render_structures(Some("Type (E/C/R) =>")),
            State::AskCategoryParents => {
                let p = self.pending.as_ref().and_then(|p| p.structures.last());
                screens::category_info(
                    self.pending_name(),
                    p.map(|s| s.name.as_str()).unwrap_or(""),
                    &p.map(|s| s.parents.clone()).unwrap_or_default(),
                    Some("Connected entity/category (empty line ends) =>"),
                )
            }
            State::AskRelLeg => {
                let p = self.pending.as_ref().and_then(|p| p.structures.last());
                let legs: Vec<(String, String)> = p
                    .map(|s| {
                        s.legs
                            .iter()
                            .map(|(o, c)| (o.clone(), c.to_string()))
                            .collect()
                    })
                    .unwrap_or_default();
                screens::relationship_info(
                    self.pending_name(),
                    p.map(|s| s.name.as_str()).unwrap_or(""),
                    &legs,
                    Some("Participant `Object (min,max)` (empty line ends) =>"),
                )
            }
            State::AskAttr => {
                let p = self.pending.as_ref().and_then(|p| p.structures.last());
                let rows: Vec<(String, String, char)> = p
                    .map(|s| {
                        s.attrs
                            .iter()
                            .map(|(n, d, k)| (n.clone(), d.tag(), if *k { 'y' } else { 'n' }))
                            .collect()
                    })
                    .unwrap_or_default();
                screens::attribute_info(
                    self.pending_name(),
                    p.map(|s| s.name.as_str()).unwrap_or(""),
                    p.map(|s| s.kind).unwrap_or('e'),
                    &rows,
                    Some("Attribute `name domain [key]` (empty line ends) =>"),
                )
            }
            State::EqSchemaSelect { .. } => screens::schema_select(&self.schema_names_list(), None),
            State::EqObjectSelect { rels } => self.render_object_select(*rels),
            State::EqClasses { .. } => self.render_eq_classes(None),
            State::AskEqAdd { .. } => self.render_eq_classes(Some("Add: left# right# =>")),
            State::AskEqDel { .. } => self.render_eq_classes(Some("Delete: side(1/2) attr# =>")),
            State::Assertions { rels, idx } => {
                screens::assertion_collection(&self.rows, *idx, *rels)
            }
            State::Conflict { rows, .. } => screens::conflict_resolution(rows),
            State::AskConflictChange { .. } => {
                let mut f = screens::conflict_resolution(&[]);
                f.put(10, 4, "Change: <schema.Object> <schema.Object> <code>");
                f
            }
            State::ViewObjects { .. } => self.render_object_class(),
            State::ViewElement { name, is_rel } => self.render_element(name, *is_rel),
            State::ViewAttrs { name, is_rel } => self.render_attr_view(name, *is_rel),
            State::ViewComponent {
                name,
                is_rel,
                attr,
                comp,
            } => self.render_component(name, *is_rel, *attr, *comp),
            State::ViewEquivalent { name, is_rel } => self.render_equivalent(name, *is_rel),
            State::ViewParticipating { name } => self.render_participating(name),
        }
    }

    fn schema_names_list(&self) -> Vec<String> {
        self.session
            .catalog()
            .schemas()
            .map(|(_, s)| s.name().to_owned())
            .collect()
    }

    fn pending_name(&self) -> &str {
        self.pending.as_ref().map(|p| p.name.as_str()).unwrap_or("")
    }

    fn render_structures(&self, pending: Option<&str>) -> Frame {
        let empty = ListWindow::new(10);
        let (name, rows, win) = match &self.pending {
            Some(p) => (
                p.name.as_str(),
                p.structures
                    .iter()
                    .map(|s| StructureRow {
                        name: s.name.clone(),
                        kind: s.kind,
                        attrs: s.attrs.len(),
                    })
                    .collect(),
                &p.win,
            ),
            None => ("", Vec::new(), &empty),
        };
        screens::structure_info(name, &rows, win, pending)
    }

    fn render_object_select(&self, rels: bool) -> Frame {
        let Some((sa, sb)) = self.pair else {
            return screens::object_select("?", &[], "?", &[], None);
        };
        let catalog = self.session.catalog();
        let list = |sid: SchemaId| -> Vec<(String, char)> {
            let schema = catalog.schema(sid);
            if rels {
                schema
                    .relationships()
                    .map(|(_, r)| (r.name.clone(), 'r'))
                    .collect()
            } else {
                schema
                    .objects()
                    .map(|(_, o)| (o.name.clone(), o.kind.tag()))
                    .collect()
            }
        };
        screens::object_select(
            catalog.schema(sa).name(),
            &list(sa),
            catalog.schema(sb).name(),
            &list(sb),
            None,
        )
    }

    fn render_eq_classes(&self, pending: Option<&str>) -> Frame {
        let Some((ta, tb)) = self.eq_targets else {
            return screens::equivalence("?", &[], "?", &[], pending);
        };
        let catalog = self.session.catalog();
        let equiv = self.session.equivalences();
        let rows = |(sid, owner): EqTarget| -> (String, Vec<(String, u32)>) {
            let schema = catalog.schema(sid);
            let rows = schema
                .owner_attrs(owner)
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let ga = GAttr::new(sid, owner, AttrId::new(i as u32));
                    (a.name.clone(), equiv.class_no(ga).unwrap_or(0))
                })
                .collect();
            let name = schema.owner_name(owner).unwrap_or_default();
            (format!("{}.{name}", schema.name()), rows)
        };
        let (n1, r1) = rows(ta);
        let (n2, r2) = rows(tb);
        screens::equivalence(&n1, &r1, &n2, &r2, pending)
    }

    fn render_object_class(&self) -> Frame {
        let Some(integrated) = &self.integrated else {
            return screens::object_class(&[], &[], &[]);
        };
        let schema = &integrated.schema;
        let entities: Vec<String> = schema.entity_sets().map(|(_, o)| o.name.clone()).collect();
        let categories: Vec<String> = schema.categories().map(|(_, o)| o.name.clone()).collect();
        let relationships: Vec<String> = schema
            .relationships()
            .map(|(_, r)| r.name.clone())
            .collect();
        screens::object_class(&entities, &categories, &relationships)
    }

    fn render_element(&self, name: &str, is_rel: bool) -> Frame {
        let Some(integrated) = &self.integrated else {
            return screens::element_view("Object", name, &[], &[]);
        };
        let schema = &integrated.schema;
        if is_rel {
            // Parents/children through the relationship lattice.
            let Some(rid) = schema.rel_by_name(name) else {
                return screens::element_view("Relationship", name, &[], &[]);
            };
            let parents: Vec<(String, char)> = integrated
                .rel_lattice
                .iter()
                .filter(|(c, _)| *c == rid)
                .map(|(_, p)| (schema.relationship(*p).name.clone(), 'R'))
                .collect();
            let children: Vec<(String, char)> = integrated
                .rel_lattice
                .iter()
                .filter(|(_, p)| *p == rid)
                .map(|(c, _)| (schema.relationship(*c).name.clone(), 'R'))
                .collect();
            screens::element_view("Relationship", name, &parents, &children)
        } else {
            let Some(oid) = schema.object_by_name(name) else {
                return screens::element_view("Category", name, &[], &[]);
            };
            let obj = schema.object(oid);
            let kind_label = if obj.kind.is_category() {
                "Category"
            } else {
                "Entity"
            };
            let tag = |k: &ObjectKind| if k.is_category() { 'C' } else { 'E' };
            let parents: Vec<(String, char)> = obj
                .parents()
                .iter()
                .map(|&p| (schema.object(p).name.clone(), tag(&schema.object(p).kind)))
                .collect();
            let children: Vec<(String, char)> = schema
                .children_of(oid)
                .map(|c| (schema.object(c).name.clone(), tag(&schema.object(c).kind)))
                .collect();
            screens::element_view(kind_label, name, &parents, &children)
        }
    }

    fn render_attr_view(&self, name: &str, is_rel: bool) -> Frame {
        if self.integrated.is_none() {
            return screens::attribute_view(name, "?", &[]);
        }
        let Some((integrated, owner)) = self.viewed(name, is_rel) else {
            let kind = if is_rel { "relationship" } else { "entity" };
            return screens::attribute_view(name, kind, &[]);
        };
        let schema = &integrated.schema;
        let prov = integrated.attr_prov(owner).unwrap_or_default();
        let rows: Vec<(String, String, char, bool)> = schema
            .owner_attrs(owner)
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let derived = prov.get(i).is_some_and(|p| p.is_derived());
                (a.name.clone(), a.domain.tag(), a.key.flag(), derived)
            })
            .collect();
        screens::attribute_view(name, kind_label(schema, owner), &rows)
    }

    fn render_component(&self, name: &str, is_rel: bool, attr: usize, comp: usize) -> Frame {
        if self.integrated.is_none() {
            return screens::object_class(&[], &[], &[]);
        }
        let view = (|| {
            let (integrated, owner) = self.viewed(name, is_rel)?;
            let schema = &integrated.schema;
            let attr_name = schema.owner_attrs(owner).get(attr)?.name.clone();
            let prov = integrated.attr_prov(owner)?.get(attr)?;
            let c = prov.components.get(comp)?;
            let (original_schema, original_object, component) = c.resolve(self.session.catalog());
            Some(screens::ComponentView {
                owner: name.to_owned(),
                owner_kind: kind_label(schema, owner).to_owned(),
                attr: attr_name,
                comp_name: component.name.clone(),
                domain: component.domain.tag(),
                key: component.is_key(),
                original_object: original_object.to_owned(),
                original_type: c.owner_kind,
                original_schema: original_schema.to_owned(),
                index: comp + 1,
                total: prov.components.len(),
            })
        })();
        match view {
            Some(v) => screens::component_attribute(&v),
            None => screens::attribute_view(name, "?", &[]),
        }
    }

    fn render_equivalent(&self, name: &str, is_rel: bool) -> Frame {
        let catalog = self.session.catalog();
        let members = match self.viewed(name, is_rel) {
            Some((integrated, AttrOwner::Object(o))) => {
                let child = |c: ObjectId| integrated.schema.object(c).name.clone();
                origin_names(catalog, &integrated.object_origin[o.index()], child)
            }
            Some((integrated, AttrOwner::Rel(r))) => {
                let child = |c: RelId| integrated.schema.relationship(c).name.clone();
                origin_names(catalog, &integrated.rel_origin[r.index()], child)
            }
            None => Vec::new(),
        };
        screens::equivalent_view(name, &members)
    }

    fn render_participating(&self, name: &str) -> Frame {
        let Some(integrated) = &self.integrated else {
            return screens::participating_view(name, &[]);
        };
        let schema = &integrated.schema;
        let rows: Vec<(String, char, String)> = schema
            .rel_by_name(name)
            .map(|rid| {
                schema
                    .relationship(rid)
                    .participants
                    .iter()
                    .map(|p| {
                        let obj = schema.object(p.object);
                        (
                            obj.name.clone(),
                            if obj.kind.is_category() { 'C' } else { 'E' },
                            p.cardinality.to_string(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        screens::participating_view(name, &rows)
    }
}

/// The viewer's lower-case kind of an integrated element.
fn kind_label(schema: &Schema, owner: AttrOwner) -> &'static str {
    match owner {
        AttrOwner::Rel(_) => "relationship",
        AttrOwner::Object(o) if schema.object(o).kind.is_category() => "category",
        AttrOwner::Object(_) => "entity",
    }
}

/// Screen 11's members of an integrated element: its component elements,
/// or the integrated children of a derived one.
fn origin_names<E: Element, Id: Copy>(
    catalog: &Catalog,
    origin: &Origin<E, Id>,
    child: impl Fn(Id) -> String,
) -> Vec<String> {
    match origin {
        Origin::DerivedSuper { children } => children.iter().map(|&c| child(c)).collect(),
        _ => origin
            .members()
            .iter()
            .map(|&g| catalog.display(g))
            .collect(),
    }
}

fn rel_code(r: sit_core::assertion::Rel5) -> String {
    use sit_core::assertion::Rel5;
    match r {
        Rel5::Eq => "1",
        Rel5::Pp => "2",
        Rel5::Ppi => "3",
        Rel5::Po => "5",
        Rel5::Dr => "0",
    }
    .to_owned()
}

/// Parse `Object (min,max)` with `max` possibly `n`.
fn parse_leg(text: &str) -> Option<(String, Cardinality)> {
    let (obj, card) = text.split_once('(')?;
    let card = card.trim().strip_suffix(')')?;
    let (min, max) = card.split_once(',')?;
    let min: u32 = min.trim().parse().ok()?;
    let max = match max.trim() {
        "n" | "N" => None,
        v => Some(v.parse().ok()?),
    };
    let c = Cardinality::new(min, max);
    c.is_valid().then(|| (obj.trim().to_owned(), c))
}

/// Parse `name domain [key]`.
fn parse_attr(text: &str) -> Option<(String, Domain, bool)> {
    let mut parts = text.split_whitespace();
    let name = parts.next()?.to_owned();
    let domain: Domain = parts.next()?.parse().ok()?;
    let key = match parts.next() {
        None => false,
        Some("key") | Some("y") => true,
        Some(_) => return None,
    };
    Some((name, domain, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::keys;

    fn feed(app: &mut App, events: Vec<Event>) {
        for e in events {
            app.handle(e);
        }
    }

    /// Collect the paper's sc1 interactively through Screens 2–5.
    fn collect_sc1(app: &mut App) {
        feed(app, keys("1a")); // main menu → task 1 → add
        feed(app, vec![Event::text("sc1")]);
        // Student (e) with Name key, GPA.
        feed(app, keys("a"));
        feed(app, vec![Event::text("Student")]);
        feed(app, keys("e"));
        feed(
            app,
            vec![
                Event::text("Name char key"),
                Event::text("GPA real"),
                Event::text(""),
            ],
        );
        // Department (e).
        feed(app, keys("a"));
        feed(app, vec![Event::text("Department")]);
        feed(app, keys("e"));
        feed(app, vec![Event::text("Dname char key"), Event::text("")]);
        // Majors (r): Student (0,1), Department (0,n); Since: date.
        feed(app, keys("a"));
        feed(app, vec![Event::text("Majors")]);
        feed(app, keys("r"));
        feed(
            app,
            vec![
                Event::text("Student (0,1)"),
                Event::text("Department (0,n)"),
                Event::text(""),
                Event::text("Since date"),
                Event::text(""),
            ],
        );
        // Exit structures (commit), exit names.
        feed(app, keys("ee"));
    }

    #[test]
    fn interactive_collection_builds_the_paper_schema() {
        let mut app = App::new();
        collect_sc1(&mut app);
        let catalog = app.session().catalog();
        let sc1 = catalog.by_name("sc1").expect("schema committed");
        let schema = catalog.schema(sc1);
        assert_eq!(schema.object_count(), 2);
        assert_eq!(schema.relationship_count(), 1);
        assert_eq!(schema, &sit_ecr::fixtures::sc1(), "matches the fixture");
        // We are back at the main menu.
        assert!(app.render().contains("Main Menu"));
    }

    #[test]
    fn structure_screen_shows_collected_rows() {
        let mut app = App::new();
        feed(&mut app, keys("1a"));
        feed(&mut app, vec![Event::text("sc1")]);
        feed(&mut app, keys("a"));
        feed(&mut app, vec![Event::text("Student")]);
        feed(&mut app, keys("e"));
        feed(
            &mut app,
            vec![
                Event::text("Name char key"),
                Event::text("GPA real"),
                Event::text(""),
            ],
        );
        let f = app.render();
        assert!(f.contains("SCHEMA NAME: sc1"), "{f}");
        assert!(f.contains("1> Student"), "{f}");
    }

    #[test]
    fn category_collection_routes_through_parent_screen() {
        let mut app = App::new();
        feed(&mut app, keys("1a"));
        feed(&mut app, vec![Event::text("s")]);
        feed(&mut app, keys("a"));
        feed(&mut app, vec![Event::text("Person")]);
        feed(&mut app, keys("e"));
        feed(&mut app, vec![Event::text("ssn int key"), Event::text("")]);
        feed(&mut app, keys("a"));
        feed(&mut app, vec![Event::text("Adult")]);
        feed(&mut app, keys("c"));
        assert!(app.render().contains("Category Information"));
        feed(&mut app, vec![Event::text("Person"), Event::text("")]);
        feed(&mut app, vec![Event::text("")]); // no extra attrs
        feed(&mut app, keys("ee"));
        let catalog = app.session().catalog();
        let sid = catalog.by_name("s").unwrap();
        let schema = catalog.schema(sid);
        let adult = schema.object(schema.object_by_name("Adult").unwrap());
        assert!(adult.kind.is_category());
    }

    #[test]
    fn invalid_input_reports_status_and_stays() {
        let mut app = App::new();
        feed(&mut app, keys("1a"));
        feed(&mut app, vec![Event::text("s")]);
        feed(&mut app, keys("a"));
        feed(&mut app, vec![Event::text("X")]);
        feed(&mut app, keys("z")); // bad type
        assert!(app.render().contains("type must be e, c or r"));
        feed(&mut app, keys("e")); // now valid
        feed(&mut app, vec![Event::text("bad attr line !!")]);
        assert!(app.render().contains("cannot parse attribute"));
    }

    #[test]
    fn main_menu_guards_order() {
        let mut app = App::new();
        // Task 3 before task 2: refused with guidance.
        app.handle(Event::Key('3'));
        assert!(app.render().contains("run task 2 first"));
        // Task 6 without schemas: refused.
        app.handle(Event::Key('6'));
        assert!(app.render().contains("run tasks 2-5 first"));
    }
}
