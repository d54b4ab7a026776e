//! Screen identities and the control-flow graph of the paper's Figure 6.
//!
//! Figure 6 shows the hierarchy of the eight *viewer* screens of phase 4,
//! "where the annotation on an arc between two screens shows the menu
//! choice made in the screen at the tail of the arc to invoke the screen
//! at the head". [`viewer_flow`] reproduces those arcs; the full
//! [`ScreenId`] enumeration also covers the collection/specification
//! screens (Screens 1–9).

/// Every screen of the tool, numbered as in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScreenId {
    /// Screen 1 — main menu.
    MainMenu,
    /// Screen 2 — Schema Name Collection.
    SchemaName,
    /// Screen 3 — Structure Information Collection.
    StructureInfo,
    /// Screen 4 — Relationship Information Collection.
    RelationshipInfo,
    /// Screen 5 — Attribute Information Collection.
    AttributeInfo,
    /// Category Information Collection (named in §3.2, not numbered).
    CategoryInfo,
    /// Schema Name Selection (phase 2 entry, §3.3).
    SchemaSelect,
    /// Screen 6 — Entity/Category Name Selection.
    ObjectSelect,
    /// Screen 7 — Equivalence Class Creation and Deletion.
    Equivalence,
    /// Screen 8 — Assertion Collection For Object Pairs.
    AssertionCollection,
    /// Screen 9 — Assertion Conflict Resolution.
    ConflictResolution,
    /// Screen 10 — Object Class Screen (viewer root).
    ObjectClass,
    /// Entity Screen.
    EntityView,
    /// Screen 11 — Category Screen.
    CategoryView,
    /// Relationship Screen.
    RelationshipView,
    /// Attribute Screen.
    AttributeView,
    /// Screens 12a/b — Component Attribute Screen.
    ComponentAttribute,
    /// Equivalent Screen.
    EquivalentView,
    /// Participating Objects In Relationship Screen.
    ParticipatingView,
}

/// One arc of the Figure 6 viewer flow: `(from, menu choice, to)`.
pub type FlowArc = (ScreenId, char, ScreenId);

/// The arcs of Figure 6: which menu choice on which screen invokes which
/// viewer screen.
pub fn viewer_flow() -> Vec<FlowArc> {
    use ScreenId::*;
    vec![
        // From the Object Class Screen: <A>ttributes, <C>ategories,
        // <E>ntities, <R>elationships.
        (ObjectClass, 'e', EntityView),
        (ObjectClass, 'c', CategoryView),
        (ObjectClass, 'r', RelationshipView),
        (ObjectClass, 'a', AttributeView),
        // Attribute Screen → Component Attribute Screen for derived
        // attributes.
        (AttributeView, 'o', ComponentAttribute),
        // Entity/Category/Relationship screens → Equivalent Screen.
        (EntityView, 'q', EquivalentView),
        (CategoryView, 'q', EquivalentView),
        (RelationshipView, 'q', EquivalentView),
        // Relationship Screen → Participating Objects.
        (RelationshipView, 'p', ParticipatingView),
        // Entity/Category screens can open the Attribute Screen for the
        // viewed object.
        (EntityView, 'a', AttributeView),
        (CategoryView, 'a', AttributeView),
    ]
}

/// Screens reachable from `from` in the viewer flow.
pub fn reachable_from(from: ScreenId) -> Vec<ScreenId> {
    viewer_flow()
        .into_iter()
        .filter(|(f, _, _)| *f == from)
        .map(|(_, _, t)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn figure6_has_eight_viewer_screens() {
        let mut screens: HashSet<ScreenId> = HashSet::new();
        for (f, _, t) in viewer_flow() {
            screens.insert(f);
            screens.insert(t);
        }
        // "The result of schema integration can be viewed using the set of
        // eight screens arranged in a hierarchy."
        assert_eq!(screens.len(), 8, "{screens:?}");
    }

    #[test]
    fn object_class_screen_is_the_root() {
        let targets = reachable_from(ScreenId::ObjectClass);
        assert_eq!(targets.len(), 4);
        assert!(targets.contains(&ScreenId::EntityView));
        assert!(targets.contains(&ScreenId::CategoryView));
        assert!(targets.contains(&ScreenId::RelationshipView));
        assert!(targets.contains(&ScreenId::AttributeView));
        // Nothing flows INTO the root.
        assert!(viewer_flow()
            .iter()
            .all(|(_, _, t)| *t != ScreenId::ObjectClass));
    }

    #[test]
    fn every_screen_reachable_from_the_root() {
        let arcs = viewer_flow();
        let mut reached: HashSet<ScreenId> = HashSet::from([ScreenId::ObjectClass]);
        let mut grew = true;
        while grew {
            grew = false;
            for (f, _, t) in &arcs {
                if reached.contains(f) && reached.insert(*t) {
                    grew = true;
                }
            }
        }
        assert_eq!(reached.len(), 8);
    }

    #[test]
    fn component_attribute_reachable_only_via_attribute_screen() {
        let sources: Vec<ScreenId> = viewer_flow()
            .into_iter()
            .filter(|(_, _, t)| *t == ScreenId::ComponentAttribute)
            .map(|(f, _, _)| f)
            .collect();
        assert_eq!(sources, vec![ScreenId::AttributeView]);
    }

    #[test]
    fn equivalent_screen_reachable_from_three_views() {
        let sources: HashSet<ScreenId> = viewer_flow()
            .into_iter()
            .filter(|(_, _, t)| *t == ScreenId::EquivalentView)
            .map(|(f, _, _)| f)
            .collect();
        assert_eq!(sources.len(), 3);
    }
}
