//! The process-wide facade: the free functions and `span!` forward to
//! one recorder behind one enabled flag. It is process state, so this
//! binary holds exactly one test; everything that can be checked on a
//! `Recorder` value is a unit test in `src/`.

use snapify_obs as obs;

fn never_formatted() -> u32 {
    panic!("span! evaluated a field while recording was disabled")
}

#[test]
fn free_functions_forward_to_the_one_process_recorder() {
    // Disabled (the default): every entry point is a no-op, and `span!`
    // does not evaluate its fields.
    assert!(!obs::is_enabled());
    drop(obs::span!("phase", x = never_formatted()));
    obs::instant("nothing");
    obs::counter_add("c", 5);
    obs::counter_add_labeled("c", &[("k", "v")], 5);
    obs::histogram_observe("h", 17);
    obs::sketch_observe("s", 9);
    assert_eq!(obs::events_total(), 0);
    assert!(obs::events().is_empty());
    assert!(obs::flight_tail(8).is_empty());
    let s = obs::Summary::capture();
    assert!(s.counters.is_empty() && s.histograms.is_empty() && s.labeled.is_empty());

    // Metadata is recorded even while disabled.
    obs::set_meta("chaos.seed", "42");
    assert_eq!(obs::meta(), vec![("chaos.seed".into(), "42".into())]);

    // Enabled: spans nest, metrics land, exports see them.
    obs::enable();
    {
        let _outer = obs::span!("snapify.pause", device = 0);
        let _inner = obs::span!("drain");
        obs::instant("checkpoint done");
    }
    obs::counter_add("bytes", 10);
    obs::counter_add_labeled("bytes", &[("node", "mic0")], 32);
    obs::histogram_observe("sizes", 1024);
    obs::sketch_observe_labeled("lat", &[("tenant", "a")], 1000);
    obs::sketch_observe("rotate", 7);

    // A guard opened while enabled and dropped while disabled records
    // no end event.
    let dangling = obs::span!("dangling");
    obs::disable();
    drop(dangling);
    obs::counter_add("bytes", 1_000);

    assert_eq!(obs::events_total(), 6);
    let evs = obs::events();
    match (&evs[0], &evs[1]) {
        (
            obs::Event::SpanBegin {
                id,
                parent: 0,
                fields,
                ..
            },
            obs::Event::SpanBegin { parent, .. },
        ) => {
            assert_eq!(parent, id);
            assert_eq!(fields, &vec![("device", "0".to_string())]);
        }
        other => panic!("unexpected events: {other:?}"),
    }
    assert!(matches!(&evs[3], obs::Event::SpanEnd { name: "drain", .. }));
    assert!(obs::flight_tail(2).starts_with("flight recorder (last 2 of 6 events):"));

    let s = obs::Summary::capture();
    assert_eq!(s.counters["bytes"], 42);
    assert_eq!(s.histograms["sizes"].count, 1);
    assert_eq!(s.durations["snapify.pause"].count, 1);
    assert!(!s.durations.contains_key("dangling"));
    assert_eq!(s.tenant_sketch("lat", "a").unwrap().count(), 1);
    let trace = obs::chrome_trace();
    let obs::Json::Array(events) = &trace["traceEvents"] else {
        panic!("no event array: {trace}")
    };
    let phases: Vec<obs::Json> = events.iter().map(|e| e["ph"].clone()).collect();
    assert_eq!(phases, ["B", "B", "i", "E", "E", "B"].map(obs::Json::from));
    let meta = obs::Json::from_iter([("chaos.seed", "42")]);
    assert_eq!(trace["otherData"], meta);
    let summary = obs::summary_json();
    assert_eq!(summary["labeled"]["bytes{node=mic0}"]["value"], 32.into());
    assert!(obs::summary_text().contains("rotate"));

    // reset() clears everything, metadata included.
    obs::reset();
    assert_eq!(obs::events_total(), 0);
    assert!(obs::meta().is_empty());
    assert!(obs::Summary::capture().counters.is_empty());
}
