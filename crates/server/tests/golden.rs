//! Golden request/response fixtures for every protocol verb.
//!
//! The transcript below drives one service through all 23 verbs
//! ([`sit_server::proto::VERBS`]) with byte-exact expected responses
//! (the `stats`, `metrics_text`, and `trace_dump` responses carry
//! wall-clock timings and are checked structurally instead). If a
//! protocol change alters any frame, this test names the verb and shows
//! both lines — update deliberately.

use sit_server::service::Service;
use sit_server::store::StoreConfig;
use sit_server::wire::Json;

const DDL1: &str = "schema sc1 { entity Student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Student (0,1); Department (0,n); } }";
const DDL2: &str = "schema sc2 { entity Grad_student { Name: char key; GPA: real; } entity Department { Dname: char key; } relationship Majors { Grad_student (0,1); Department (0,n); } }";

/// `(verb, request frame, expected response frame)`; `@stats`,
/// `@metrics_text`, and `@trace` mark structurally-checked responses.
const TRANSCRIPT: &[(&str, &str, &str)] = &[
    ("ping", r#"{"op":"ping"}"#, r#"{"ok":true,"pong":true}"#),
    ("open", r#"{"op":"open"}"#, r#"{"ok":true,"session":"1"}"#),
    (
        "add_schema",
        r#"{"op":"add_schema","session":"1","ddl":"%DDL1%"}"#,
        r#"{"ok":true,"schemas":["sc1"]}"#,
    ),
    (
        "add_schema",
        r#"{"op":"add_schema","session":"1","ddl":"%DDL2%"}"#,
        r#"{"ok":true,"schemas":["sc2"]}"#,
    ),
    (
        "list_schemas",
        r#"{"op":"list_schemas","session":"1"}"#,
        r#"{"ok":true,"schemas":[{"name":"sc1","objects":2,"relationships":1},{"name":"sc2","objects":2,"relationships":1}]}"#,
    ),
    (
        "render",
        r#"{"op":"render","session":"1","schema":"sc1"}"#,
        r#"{"ok":true,"text":"schema sc1\n  object classes:\n    [Student] (entity)\n        . Name: char [key]\n        . GPA: real\n    [Department] (entity)\n        . Dname: char [key]\n  relationship sets:\n    <Majors> -- Student (0,1) -- Department (0,n)\n"}"#,
    ),
    (
        "equiv",
        r#"{"op":"equiv","session":"1","a":"sc1.Student.Name","b":"sc2.Grad_student.Name"}"#,
        r#"{"ok":true,"classes":1}"#,
    ),
    (
        "equiv",
        r#"{"op":"equiv","session":"1","a":"sc1.Department.Dname","b":"sc2.Department.Dname"}"#,
        r#"{"ok":true,"classes":2}"#,
    ),
    (
        "candidates",
        r#"{"op":"candidates","session":"1","a":"sc1","b":"sc2"}"#,
        r#"{"ok":true,"pairs":[{"left":"sc1.Department","right":"sc2.Department","equivalent":1,"ratio":0.5},{"left":"sc1.Student","right":"sc2.Grad_student","equivalent":1,"ratio":0.3333333333333333}]}"#,
    ),
    (
        "rel_candidates",
        r#"{"op":"rel_candidates","session":"1","a":"sc1","b":"sc2"}"#,
        r#"{"ok":true,"pairs":[]}"#,
    ),
    (
        "assert",
        r#"{"op":"assert","session":"1","a":"sc1.Department","b":"sc2.Department","assertion":"equals"}"#,
        r#"{"ok":true,"derived":[{"a":"sc1.Student","rel":"DR","b":"sc2.Department"},{"a":"sc1.Department","rel":"DR","b":"sc2.Grad_student"}]}"#,
    ),
    (
        "assert",
        r#"{"op":"assert","session":"1","a":"sc1.Student","b":"sc2.Grad_student","assertion":"contains"}"#,
        r#"{"ok":true,"derived":[]}"#,
    ),
    (
        "rel_assert",
        r#"{"op":"rel_assert","session":"1","a":"sc1.Majors","b":"sc2.Majors","assertion":"equals"}"#,
        r#"{"ok":true,"derived":[]}"#,
    ),
    (
        "matrix",
        r#"{"op":"matrix","session":"1","a":"sc1","b":"sc2"}"#,
        r#"{"ok":true,"rows":["sc1.Student","sc1.Department"],"cols":["sc2.Grad_student","sc2.Department"],"cells":[["contains","disjoint-non-integrable"],["disjoint-non-integrable","equals"]]}"#,
    ),
    (
        "integrate",
        r#"{"op":"integrate","session":"1","a":"sc1","b":"sc2","pull_up":false,"mappings":true}"#,
        r##"{"ok":true,"schema":"schema sc1+sc2\n  object classes:\n    [Student] (entity)\n        . D_Name: char [key]\n        . GPA: real\n      [Grad_student] (category)\n          . GPA: real\n    [E_Department] (entity)\n        . D_Dname: char [key]\n  relationship sets:\n    <E_Stud_Majo> -- Student (0,1) -- E_Department (0,n)\n","objects":3,"relationships":1,"mappings":"# mapping dictionary\nobject sc1.Department -> E_Department\nobject sc1.Majors -> E_Stud_Majo\nobject sc1.Student -> Student\nobject sc2.Department -> E_Department\nobject sc2.Grad_student -> Grad_student\nobject sc2.Majors -> E_Stud_Majo\nattr   sc1.Department.Dname -> E_Department.D_Dname\nattr   sc1.Student.GPA -> Student.GPA\nattr   sc1.Student.Name -> Student.D_Name\nattr   sc2.Department.Dname -> E_Department.D_Dname\nattr   sc2.Grad_student.GPA -> Grad_student.GPA\nattr   sc2.Grad_student.Name -> Student.D_Name\n"}"##,
    ),
    (
        "retract",
        r#"{"op":"retract","session":"1","a":"sc1.Student","b":"sc2.Grad_student"}"#,
        r#"{"ok":true,"retracted":true}"#,
    ),
    (
        "rel_retract",
        r#"{"op":"rel_retract","session":"1","a":"sc1.Majors","b":"sc2.Majors"}"#,
        r#"{"ok":true,"retracted":true}"#,
    ),
    (
        "unequiv",
        r#"{"op":"unequiv","session":"1","a":"sc2.Grad_student.Name"}"#,
        r#"{"ok":true,"removed":true}"#,
    ),
    (
        "save",
        r#"{"op":"save","session":"1"}"#,
        r##"{"ok":true,"script":"# sit session v1\nschema sc1 {\n  entity Student {\n    Name: char key;\n    GPA: real;\n  }\n  entity Department {\n    Dname: char key;\n  }\n  relationship Majors {\n    Student (0,1);\n    Department (0,n);\n  }\n}\nschema sc2 {\n  entity Grad_student {\n    Name: char key;\n    GPA: real;\n  }\n  entity Department {\n    Dname: char key;\n  }\n  relationship Majors {\n    Grad_student (0,1);\n    Department (0,n);\n  }\n}\nequiv sc1.Department.Dname = sc2.Department.Dname;\nassert sc1.Department equals sc2.Department;\n"}"##,
    ),
    (
        "load",
        r#"{"op":"load","script":"schema tiny { entity Only { id: int key; } }"}"#,
        r#"{"ok":true,"session":"2","schemas":["tiny"]}"#,
    ),
    (
        "close",
        r#"{"op":"close","session":"2"}"#,
        r#"{"ok":true,"closed":true}"#,
    ),
    ("stats", r#"{"op":"stats"}"#, "@stats"),
    ("metrics_text", r#"{"op":"metrics_text"}"#, "@metrics_text"),
    ("trace_dump", r#"{"op":"trace_dump","limit":64}"#, "@trace"),
    (
        "persist_stats",
        r#"{"op":"persist_stats"}"#,
        r#"{"ok":true,"enabled":false}"#,
    ),
    (
        "shutdown",
        r#"{"op":"shutdown"}"#,
        r#"{"ok":true,"draining":true}"#,
    ),
];

fn substitute(frame: &str) -> String {
    frame.replace("%DDL1%", DDL1).replace("%DDL2%", DDL2)
}

#[test]
fn every_verb_has_a_fixture() {
    let covered: std::collections::BTreeSet<&str> =
        TRANSCRIPT.iter().map(|(verb, _, _)| *verb).collect();
    for verb in sit_server::proto::VERBS {
        assert!(
            covered.contains(verb),
            "verb `{verb}` has no golden fixture"
        );
    }
}

#[test]
fn transcript_matches_goldens() {
    let service = Service::new(StoreConfig::default());
    for (verb, request, expected) in TRANSCRIPT {
        let request = substitute(request);
        let handled = service.handle_line(&request);
        let response = handled.frame;
        if *expected == "@stats" {
            let v = Json::parse(&response).expect("stats parses");
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{response}");
            let verbs = v.get("verbs").expect("stats has verbs");
            let ping = verbs.get("ping").expect("ping was counted");
            assert_eq!(ping.get("count").and_then(Json::as_num), Some(1.0));
            assert!(v.get("uptime_ms").and_then(Json::as_num).is_some());
            assert_eq!(v.get("sessions").and_then(Json::as_num), Some(1.0));
            continue;
        }
        if *expected == "@metrics_text" {
            let v = Json::parse(&response).expect("metrics_text parses");
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{response}");
            let text = v.get("text").and_then(Json::as_str).expect("text field");
            assert!(text.contains("# TYPE sit_requests_total counter"), "{text}");
            assert!(
                text.contains("sit_requests_total{verb=\"ping\"} 1"),
                "{text}"
            );
            assert!(
                text.contains("sit_request_latency_ns_bucket{verb=\"integrate\",le="),
                "{text}"
            );
            // The transcript's two add_schema texts differ: two parses,
            // two kept entries.
            for series in [
                "# TYPE sit_schema_intern_hits_total counter\nsit_schema_intern_hits_total 0\n",
                "# TYPE sit_schema_intern_misses_total counter\nsit_schema_intern_misses_total 2\n",
                "# TYPE sit_schema_intern_entries gauge\nsit_schema_intern_entries 2\n",
                "# TYPE sit_schema_intern_bytes gauge\nsit_schema_intern_bytes ",
            ] {
                assert!(text.contains(series), "{series}: {text}");
            }
            continue;
        }
        if *expected == "@trace" {
            let v = Json::parse(&response).expect("trace_dump parses");
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{response}");
            let trace = v.get("trace").and_then(Json::as_str).expect("trace field");
            let chrome = Json::parse(trace).expect("trace is valid JSON");
            let events = chrome
                .get("traceEvents")
                .and_then(Json::as_arr)
                .expect("traceEvents array");
            assert!(!events.is_empty(), "trace has events");
            let names: Vec<&str> = events
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .collect();
            assert!(names.contains(&"request"), "{names:?}");
            assert!(names.contains(&"dispatch"), "{names:?}");
            continue;
        }
        let expected = substitute(expected);
        assert_eq!(
            response, expected,
            "verb `{verb}`\nrequest : {request}\ngot     : {response}\nexpected: {expected}"
        );
    }
}

/// Error frames are fixtures too: the typed codes are part of the
/// protocol surface.
#[test]
fn golden_error_frames() {
    let service = Service::new(StoreConfig::default());
    let cases = [
        (
            "not json at all",
            r#"{"ok":false,"error":{"code":"parse","message":"json error at byte 0: expected `null`"}}"#,
        ),
        (
            r#"{"op":"frobnicate"}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"unknown op `frobnicate`"}}"#,
        ),
        (
            r#"{"op":"save","session":"41"}"#,
            r#"{"ok":false,"error":{"code":"unknown_session","message":"no session `41` (closed, evicted, or never opened)"}}"#,
        ),
        // A present field of the wrong type is refused, not read as absent.
        (
            r#"{"op":"integrate","session":"41","a":"s1","b":"s2","mappings":"yes"}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`mappings` must be a bool"}}"#,
        ),
        (
            r#"{"op":"integrate","session":"41","a":"s1","b":"s2","pull_up":1}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`pull_up` must be a bool"}}"#,
        ),
        (
            r#"{"op":"trace_dump","limit":"1"}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`limit` must be a whole number from 0 to 2^53"}}"#,
        ),
        (
            r#"{"op":"trace_dump","limit":-1}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`limit` must be a whole number from 0 to 2^53"}}"#,
        ),
        (
            r#"{"op":"trace_dump","limit":2.5}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`limit` must be a whole number from 0 to 2^53"}}"#,
        ),
        (
            r#"{"op":"trace_dump","limit":1e16}"#,
            r#"{"ok":false,"error":{"code":"bad_request","message":"`limit` must be a whole number from 0 to 2^53"}}"#,
        ),
    ];
    for (request, expected) in cases {
        let got = service.handle_line(request).frame;
        assert_eq!(got, expected, "request: {request}");
    }
}

const REL_DDL1: &str = "schema r1 { entity Person { Id: int key; } entity Car { Vin: char key; } relationship Owns { Person (0,n); Car (0,1); Since: int; Price: real; } relationship Rents { Person (0,n); Car (0,n); Fee: real; } }";
const REL_DDL2: &str = "schema r2 { entity Operator { Id: int key; } entity Vehicle { Vin: char key; } relationship Holds { Operator (0,n); Vehicle (0,1); Since: int; } relationship Leases { Operator (0,n); Vehicle (0,n); Fee: real; Term: int; } }";
const REL_DDL3: &str = "schema r3 { entity Holder { Id: int key; } entity Auto { Vin: char key; } relationship Has { Holder (0,n); Auto (0,1); Since: int; } }";

/// The relationship side of the protocol with relationship attributes
/// and their equivalences in play: ranked `rel_candidates`, derivation
/// across three schemas, a conflict with its derivation chain, phase 4
/// over merged and derived relationship sets, repair, and the
/// `rel-assert` lines of a saved script. `(request, expected response)`.
const REL_TRANSCRIPT: &[(&str, &str)] = &[
    (r#"{"op":"open"}"#, r##"{"ok":true,"session":"1"}"##),
    (
        r#"{"op":"add_schema","session":"1","ddl":"%REL_DDL1%"}"#,
        r##"{"ok":true,"schemas":["r1"]}"##,
    ),
    (
        r#"{"op":"add_schema","session":"1","ddl":"%REL_DDL2%"}"#,
        r##"{"ok":true,"schemas":["r2"]}"##,
    ),
    (
        r#"{"op":"add_schema","session":"1","ddl":"%REL_DDL3%"}"#,
        r##"{"ok":true,"schemas":["r3"]}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r1.Owns.Since","b":"r2.Holds.Since"}"#,
        r##"{"ok":true,"classes":1}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r2.Holds.Since","b":"r3.Has.Since"}"#,
        r##"{"ok":true,"classes":1}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r1.Rents.Fee","b":"r2.Leases.Fee"}"#,
        r##"{"ok":true,"classes":2}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r1.Owns.Price","b":"r2.Leases.Fee"}"#,
        r##"{"ok":true,"classes":2}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r1.Person.Id","b":"r2.Operator.Id"}"#,
        r##"{"ok":true,"classes":3}"##,
    ),
    (
        r#"{"op":"equiv","session":"1","a":"r1.Car.Vin","b":"r2.Vehicle.Vin"}"#,
        r##"{"ok":true,"classes":4}"##,
    ),
    (
        r#"{"op":"assert","session":"1","a":"r1.Person","b":"r2.Operator","assertion":"equals"}"#,
        r##"{"ok":true,"derived":[{"a":"r1.Person","rel":"DR","b":"r2.Vehicle"},{"a":"r1.Car","rel":"DR","b":"r2.Operator"}]}"##,
    ),
    (
        r#"{"op":"assert","session":"1","a":"r1.Car","b":"r2.Vehicle","assertion":"equals"}"#,
        r##"{"ok":true,"derived":[]}"##,
    ),
    (
        r#"{"op":"rel_candidates","session":"1","a":"r1","b":"r2"}"#,
        r##"{"ok":true,"pairs":[{"left":"r1.Owns","right":"r2.Holds","equivalent":1,"ratio":0.5},{"left":"r1.Rents","right":"r2.Leases","equivalent":1,"ratio":0.5},{"left":"r1.Owns","right":"r2.Leases","equivalent":1,"ratio":0.3333333333333333}]}"##,
    ),
    (
        r#"{"op":"rel_candidates","session":"1","a":"r2","b":"r3"}"#,
        r##"{"ok":true,"pairs":[{"left":"r2.Holds","right":"r3.Has","equivalent":1,"ratio":0.5}]}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1.Owns","b":"r2.Holds","assertion":"equals"}"#,
        r##"{"ok":true,"derived":[{"a":"r1.Owns","rel":"DR","b":"r2.Leases"},{"a":"r1.Rents","rel":"DR","b":"r2.Holds"}]}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r2.Holds","b":"r3.Has","assertion":"contains"}"#,
        r##"{"ok":true,"derived":[{"a":"r1.Owns","rel":"PPi","b":"r3.Has"},{"a":"r1.Rents","rel":"DR","b":"r3.Has"},{"a":"r2.Leases","rel":"DR","b":"r3.Has"}]}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1.Owns","b":"r3.Has","assertion":"disjoint-non-integrable"}"#,
        r##"{"ok":false,"error":{"code":"conflict","message":"assertion conflict: `r1.Owns` vs `r3.Has`: existing constraint {PPi} contradicts new assertion `disjoint non-integrable` (code 0); derived from:\n  r1.Owns ~ r2.Holds : 1\n  r2.Holds ~ r3.Has : 3"}}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1.Rents","b":"r2.Leases","assertion":"may-be-integrable"}"#,
        r##"{"ok":true,"derived":[]}"##,
    ),
    (
        r#"{"op":"integrate","session":"1","a":"r1","b":"r2","pull_up":true,"mappings":true}"#,
        r##"{"ok":true,"schema":"schema r1+r2\n  object classes:\n    [E_Pers_Oper] (entity)\n        . D_Id: int [key]\n    [E_Car_Vehi] (entity)\n        . D_Vin: char [key]\n  relationship sets:\n    <E_Owns_Hold> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,1)\n        . D_Since: int\n        . Price: real\n    <Rents> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n        . Fee: real\n    <Leases> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n        . Fee: real\n        . Term: int\n    <D_Rent_Leas> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n        . D_Fee: real\n","objects":2,"relationships":4,"mappings":"# mapping dictionary\nobject r1.Car -> E_Car_Vehi\nobject r1.Owns -> E_Owns_Hold\nobject r1.Person -> E_Pers_Oper\nobject r1.Rents -> Rents\nobject r2.Holds -> E_Owns_Hold\nobject r2.Leases -> Leases\nobject r2.Operator -> E_Pers_Oper\nobject r2.Vehicle -> E_Car_Vehi\nattr   r1.Car.Vin -> E_Car_Vehi.D_Vin\nattr   r1.Owns.Price -> E_Owns_Hold.Price\nattr   r1.Owns.Since -> E_Owns_Hold.D_Since\nattr   r1.Person.Id -> E_Pers_Oper.D_Id\nattr   r1.Rents.Fee -> D_Rent_Leas.D_Fee\nattr   r2.Holds.Since -> E_Owns_Hold.D_Since\nattr   r2.Leases.Fee -> D_Rent_Leas.D_Fee\nattr   r2.Leases.Term -> Leases.Term\nattr   r2.Operator.Id -> E_Pers_Oper.D_Id\nattr   r2.Vehicle.Vin -> E_Car_Vehi.D_Vin\n"}"##,
    ),
    (
        r#"{"op":"integrate","session":"1","a":"r1","b":"r2","pull_up":false,"mappings":false}"#,
        r##"{"ok":true,"schema":"schema r1+r2\n  object classes:\n    [E_Pers_Oper] (entity)\n        . D_Id: int [key]\n    [E_Car_Vehi] (entity)\n        . D_Vin: char [key]\n  relationship sets:\n    <E_Owns_Hold> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,1)\n        . D_Since: int\n        . Price: real\n    <Rents> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n        . Fee: real\n    <Leases> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n        . Fee: real\n        . Term: int\n    <D_Rent_Leas> -- E_Pers_Oper (0,n) -- E_Car_Vehi (0,n)\n","objects":2,"relationships":4}"##,
    ),
    (
        r#"{"op":"save","session":"1"}"#,
        r##"{"ok":true,"script":"# sit session v1\nschema r1 {\n  entity Person {\n    Id: int key;\n  }\n  entity Car {\n    Vin: char key;\n  }\n  relationship Owns {\n    Person (0,n);\n    Car (0,1);\n    Since: int;\n    Price: real;\n  }\n  relationship Rents {\n    Person (0,n);\n    Car (0,n);\n    Fee: real;\n  }\n}\nschema r2 {\n  entity Operator {\n    Id: int key;\n  }\n  entity Vehicle {\n    Vin: char key;\n  }\n  relationship Holds {\n    Operator (0,n);\n    Vehicle (0,1);\n    Since: int;\n  }\n  relationship Leases {\n    Operator (0,n);\n    Vehicle (0,n);\n    Fee: real;\n    Term: int;\n  }\n}\nschema r3 {\n  entity Holder {\n    Id: int key;\n  }\n  entity Auto {\n    Vin: char key;\n  }\n  relationship Has {\n    Holder (0,n);\n    Auto (0,1);\n    Since: int;\n  }\n}\nequiv r1.Person.Id = r2.Operator.Id;\nequiv r1.Car.Vin = r2.Vehicle.Vin;\nequiv r1.Owns.Since = r2.Holds.Since;\nequiv r1.Owns.Since = r3.Has.Since;\nequiv r2.Leases.Fee = r1.Rents.Fee;\nequiv r1.Owns.Price = r2.Leases.Fee;\nassert r1.Person equals r2.Operator;\nassert r1.Car equals r2.Vehicle;\nrel-assert r1.Owns equals r2.Holds;\nrel-assert r2.Holds contains r3.Has;\nrel-assert r1.Rents may-be-integrable r2.Leases;\n"}"##,
    ),
    (
        r#"{"op":"rel_retract","session":"1","a":"r2.Holds","b":"r3.Has"}"#,
        r##"{"ok":true,"retracted":true}"##,
    ),
    (
        r#"{"op":"rel_retract","session":"1","a":"r2.Holds","b":"r3.Has"}"#,
        r##"{"ok":true,"retracted":false}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1.Owns","b":"r3.Has","assertion":"disjoint-non-integrable"}"#,
        r##"{"ok":true,"derived":[{"a":"r2.Holds","rel":"DR","b":"r3.Has"}]}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1.Owns","b":"r1.Rents","assertion":"equals"}"#,
        r##"{"ok":false,"error":{"code":"core","message":"assertions relate object classes of different schemas: r1.Owns vs r1.Rents"}}"##,
    ),
    (
        r#"{"op":"rel_assert","session":"1","a":"r1Owns","b":"r2.Holds","assertion":"equals"}"#,
        r##"{"ok":false,"error":{"code":"bad_request","message":"relationship paths are `schema.Rel`: `r1Owns`"}}"##,
    ),
    (
        r#"{"op":"rel_candidates","session":"1","a":"r1","b":"r9"}"#,
        r##"{"ok":false,"error":{"code":"bad_request","message":"unknown schema `r9`"}}"##,
    ),
    (
        r#"{"op":"save","session":"1"}"#,
        r##"{"ok":true,"script":"# sit session v1\nschema r1 {\n  entity Person {\n    Id: int key;\n  }\n  entity Car {\n    Vin: char key;\n  }\n  relationship Owns {\n    Person (0,n);\n    Car (0,1);\n    Since: int;\n    Price: real;\n  }\n  relationship Rents {\n    Person (0,n);\n    Car (0,n);\n    Fee: real;\n  }\n}\nschema r2 {\n  entity Operator {\n    Id: int key;\n  }\n  entity Vehicle {\n    Vin: char key;\n  }\n  relationship Holds {\n    Operator (0,n);\n    Vehicle (0,1);\n    Since: int;\n  }\n  relationship Leases {\n    Operator (0,n);\n    Vehicle (0,n);\n    Fee: real;\n    Term: int;\n  }\n}\nschema r3 {\n  entity Holder {\n    Id: int key;\n  }\n  entity Auto {\n    Vin: char key;\n  }\n  relationship Has {\n    Holder (0,n);\n    Auto (0,1);\n    Since: int;\n  }\n}\nequiv r1.Person.Id = r2.Operator.Id;\nequiv r1.Car.Vin = r2.Vehicle.Vin;\nequiv r1.Owns.Since = r2.Holds.Since;\nequiv r1.Owns.Since = r3.Has.Since;\nequiv r2.Leases.Fee = r1.Rents.Fee;\nequiv r1.Owns.Price = r2.Leases.Fee;\nassert r1.Person equals r2.Operator;\nassert r1.Car equals r2.Vehicle;\nrel-assert r1.Owns equals r2.Holds;\nrel-assert r1.Rents may-be-integrable r2.Leases;\nrel-assert r1.Owns disjoint-non-integrable r3.Has;\n"}"##,
    ),
];

#[test]
fn relationship_transcript_matches_goldens() {
    let service = Service::new(StoreConfig::default());
    let substitute = |frame: &str| {
        frame
            .replace("%REL_DDL1%", REL_DDL1)
            .replace("%REL_DDL2%", REL_DDL2)
            .replace("%REL_DDL3%", REL_DDL3)
    };
    for (request, expected) in REL_TRANSCRIPT {
        let request = substitute(request);
        let response = service.handle_line(&request).frame;
        assert_eq!(
            response, *expected,
            "\nrequest : {request}\ngot     : {response}\nexpected: {expected}"
        );
    }
}
