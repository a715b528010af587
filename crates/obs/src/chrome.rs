//! Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).
//!
//! One process (`pid`) per PE; handler spans become `"X"` complete events,
//! deliveries become `"s"`/`"f"` flow-event pairs drawn from sender to
//! receiver, and idle/checkpoint/recovery transitions become instant
//! events.  Timestamps (`ts`) are microseconds, per the trace-event spec.

use mdo_netsim::Time;

use crate::event::Event;
use crate::json::escape;
use crate::PeObs;

fn us(t: Time) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

fn push_event(out: &mut String, body: &str) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    out.push_str(body);
}

/// Render per-PE event streams as one Chrome trace-event JSON document.
pub fn chrome_trace(pes: &[PeObs]) -> String {
    let mut events = String::new();
    for p in pes {
        push_event(
            &mut events,
            &format!(
                r#"{{"name":"process_name","ph":"M","ts":0,"pid":{},"tid":0,"args":{{"name":"pe{}"}}}}"#,
                p.pe, p.pe
            ),
        );
    }
    let mut flow_id: u64 = 0;
    for p in pes {
        for ev in &p.events {
            match *ev {
                Event::Handler { obj, start, end } => {
                    let name = obj.map(|o| o.to_string()).unwrap_or_else(|| "runtime".to_string());
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"{}","cat":"handler","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":0}}"#,
                            escape(&name),
                            us(start),
                            us(end) - us(start),
                            p.pe
                        ),
                    );
                }
                Event::Recv { at, src, sent, bytes, cross, sys } => {
                    // A flow pair: start at the sender when the message was
                    // issued, finish at the receiver on delivery.
                    flow_id += 1;
                    let cat = if cross { "msg_wan" } else { "msg" };
                    let name = if sys { "sysmsg" } else { "msg" };
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"{name}","cat":"{cat}","ph":"s","id":{flow_id},"ts":{:.3},"pid":{src},"tid":0,"args":{{"bytes":{bytes}}}}}"#,
                            us(sent)
                        ),
                    );
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"{name}","cat":"{cat}","ph":"f","bp":"e","id":{flow_id},"ts":{:.3},"pid":{},"tid":0}}"#,
                            us(at),
                            p.pe
                        ),
                    );
                }
                Event::Idle { at } => {
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"idle","cat":"sched","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":0}}"#,
                            us(at),
                            p.pe
                        ),
                    );
                }
                Event::Checkpoint { at, epoch } => {
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"checkpoint","cat":"ft","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":0,"args":{{"epoch":{epoch}}}}}"#,
                            us(at),
                            p.pe
                        ),
                    );
                }
                Event::Recovery { at } => {
                    push_event(
                        &mut events,
                        &format!(
                            r#"{{"name":"recovery","cat":"ft","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":0}}"#,
                            us(at),
                            p.pe
                        ),
                    );
                }
                Event::Send { .. } => {} // drawn from the receiver's Recv
            }
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{events}\n]}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObjTag;
    use crate::json::{parse, Json};
    use crate::PeRecorder;
    use mdo_netsim::Dur;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let mut r0 = PeRecorder::new(0);
        let mut r1 = PeRecorder::new(1);
        r0.handler(Some(ObjTag { array: 0, elem: 3 }), t(0), t(2));
        r0.send(t(2), 1, 64, true, false);
        r0.idle(t(2));
        r1.recv(t(6), 0, t(2), 64, true, false);
        r1.handler(None, t(6), t(7));
        r1.checkpoint(t(7), 1);
        r1.recovery(t(8));
        let doc = chrome_trace(&[r0.finish().unwrap(), r1.finish().unwrap()]);
        let v = parse(&doc).expect("exported trace parses as JSON");
        let events = v.get("traceEvents").expect("traceEvents").as_arr().expect("array");
        assert!(events.len() >= 8, "metadata + spans + flow pair + instants");
        for ev in events {
            assert!(ev.get("ph").and_then(Json::as_str).is_some(), "every event has ph");
            assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "every event has ts");
            assert!(ev.get("pid").and_then(Json::as_f64).is_some(), "every event has pid");
        }
        // The handler span landed on pid 0 with the object's name.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_f64).is_none()
                && e.get("name").and_then(Json::as_str) == Some("a0[3]")
                && e.get("pid").and_then(Json::as_f64) == Some(0.0)
        }));
        // The flow pair references both PEs with matching ids.
        let starts: Vec<_> = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("s")).collect();
        let finishes: Vec<_> = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("f")).collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(finishes.len(), 1);
        assert_eq!(starts[0].get("id").unwrap().as_f64(), finishes[0].get("id").unwrap().as_f64());
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut r = PeRecorder::new(0);
        r.handler(None, t(1), t(3));
        let doc = chrome_trace(&[r.finish().unwrap()]);
        let v = parse(&doc).unwrap();
        let span = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1_000.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2_000.0));
    }
}
