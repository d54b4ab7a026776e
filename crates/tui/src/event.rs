//! The tool's input alphabet.
//!
//! The paper's screens take two kinds of input: single-character menu
//! choices (`Choose: (S)croll (A)dd (D)elete (U)pdate (E)xit`) and typed
//! form fields (names, domains, cardinalities). Events are either, plus a
//! convenience constructor set used by scripted sessions.

/// One input event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A single-character menu choice (case-insensitive).
    Key(char),
    /// A typed line submitted with return (form field content).
    Text(String),
}

impl Event {
    /// Typed-line constructor.
    pub fn text(s: impl Into<String>) -> Event {
        Event::Text(s.into())
    }

    /// The event as a menu choice, lowercased (`None` for text).
    pub fn key(&self) -> Option<char> {
        match self {
            Event::Key(c) => Some(c.to_ascii_lowercase()),
            Event::Text(_) => None,
        }
    }

    /// The event as field text (`None` for keys).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Event::Text(s) => Some(s),
            Event::Key(_) => None,
        }
    }
}

/// Shorthand for scripting: keys from a literal (`keys("1ae")`).
pub fn keys(s: &str) -> Vec<Event> {
    s.chars().map(Event::Key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Event::Key('A').key(), Some('a'));
        assert_eq!(Event::Key('A').as_text(), None);
        let t = Event::text("hello");
        assert_eq!(t.as_text(), Some("hello"));
        assert_eq!(t.key(), None);
    }

    #[test]
    fn keys_shorthand() {
        assert_eq!(keys("1e"), vec![Event::Key('1'), Event::Key('e')]);
    }
}
