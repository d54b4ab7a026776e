//! Scripted session runner.
//!
//! Feeds a list of events to an [`App`] and captures the frame after every
//! event — the deterministic substitute for a DDA at a terminal, and the
//! mechanism the `figures` binary uses to regenerate the paper's screens.

use crate::app::App;
use crate::event::Event;
use crate::screen::Frame;

/// One step of a captured session.
#[derive(Clone, Debug)]
pub struct Capture {
    /// The event that was delivered (`None` for the initial frame).
    pub event: Option<Event>,
    /// The frame rendered after handling it.
    pub frame: Frame,
}

/// Run `events` through `app`, capturing the initial frame and the frame
/// after each event.
pub fn run_script(app: &mut App, events: Vec<Event>) -> Vec<Capture> {
    let mut out = vec![Capture {
        event: None,
        frame: app.render(),
    }];
    for event in events {
        app.handle(event.clone());
        out.push(Capture {
            event: Some(event),
            frame: app.render(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::keys;

    #[test]
    fn captures_initial_and_per_event_frames() {
        let mut app = App::new();
        let caps = run_script(&mut app, keys("1"));
        assert_eq!(caps.len(), 2);
        assert!(caps[0].frame.contains("Main Menu"));
        assert!(caps[1].frame.contains("Schema Name Collection"));
        assert_eq!(caps[1].event, Some(Event::Key('1')));
    }
}
