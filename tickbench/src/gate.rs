//! The correctness gate: every line a tick put on the wire must equal,
//! byte for byte, the line the traced in-process replay renders for the
//! same tick (the observer-on/off contract, checked end to end).

use va_server::{proto, Server, TickResult};

/// What one `TICK` put on the wire: the subscriber's `RESULT` lines in
/// arrival order and the driver's reply (`TICK_DONE`, or an `ERROR`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TickLines {
    /// `RESULT` lines, one per live session of the ticked relation.
    pub results: Vec<String>,
    /// The reply to the `TICK` request.
    pub done: String,
}

impl TickLines {
    /// Renders the lines the front-end sends for `res`: one payload per
    /// query shape, wrapped per session in broadcast order, then the
    /// `TICK_DONE` trailer.
    pub fn render(server: &Server, relation: &str, res: &TickResult) -> Self {
        let groups = server
            .broadcast_groups_in(relation, &res.answers)
            .expect("replayed relation exists");
        let mut results = Vec::with_capacity(res.answers.len());
        for group in groups {
            let payload = proto::result_payload(relation, res.tick, res.rate, group.answer);
            for &sid in &group.sessions {
                results.push(proto::result_line(sid, &payload));
            }
        }
        let shed = server
            .catalog()
            .by_name(relation)
            .map_or(0, va_server::Tenant::shed);
        Self {
            results,
            done: proto::tick_done(relation, res, shed),
        }
    }
}

/// Checks `got` (from the wire) against `want` (from the replay) and
/// describes the first difference.
pub fn check(want: &TickLines, got: &TickLines) -> Result<(), String> {
    if want.done != got.done {
        return Err(format!(
            "reply differs:\n  want {}\n  got  {}",
            want.done, got.done
        ));
    }
    if want.results.len() != got.results.len() {
        return Err(format!(
            "{} RESULT lines, want {}",
            got.results.len(),
            want.results.len()
        ));
    }
    for (w, g) in want.results.iter().zip(&got.results) {
        if w != g {
            return Err(format!("RESULT differs:\n  want {w}\n  got  {g}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::{BondPricer, BondUniverse};
    use va_server::{Answer, ServerConfig};
    use va_stream::{BondRelation, Query};
    use vao::Bounds;

    fn ticked() -> (Server, TickResult) {
        let relation = BondRelation::from_universe(&BondUniverse::generate(6, 11));
        let mut server = Server::new(BondPricer::default(), relation, ServerConfig::default());
        server
            .subscribe(Query::Max { epsilon: 1.0 }, 1)
            .expect("subscribe");
        server
            .subscribe(Query::Max { epsilon: 1.0 }, 1)
            .expect("subscribe");
        server
            .subscribe(Query::Min { epsilon: 0.5 }, 2)
            .expect("subscribe");
        let res = server.tick(0.0583).expect("tick");
        (server, res)
    }

    #[test]
    fn identical_ticks_pass() {
        let (server, res) = ticked();
        let lines = TickLines::render(&server, "default", &res);
        assert_eq!(lines.results.len(), 3);
        check(&lines, &lines.clone()).expect("identical lines pass");
    }

    #[test]
    fn one_corrupted_answer_is_caught() {
        let (server, res) = ticked();
        let want = TickLines::render(&server, "default", &res);
        let mut bad = res.clone();
        bad.answers[2].1 = Answer::Partial {
            bounds: Bounds::new(90.0, 110.0),
        };
        let got = TickLines::render(&server, "default", &bad);
        let err = check(&want, &got).expect_err("corrupted answer must fail the gate");
        assert!(err.contains("RESULT differs"), "{err}");
    }

    #[test]
    fn wrong_work_units_missing_lines_and_errors_are_caught() {
        let (server, res) = ticked();
        let want = TickLines::render(&server, "default", &res);
        let mut off = want.clone();
        off.done = off.done.replacen("\"work_units\":", "\"work_units\":1", 1);
        assert!(check(&want, &off).is_err());
        let mut short = want.clone();
        short.results.pop();
        assert!(check(&want, &short).is_err());
        let error = TickLines {
            results: Vec::new(),
            done: proto::error("boom"),
        };
        assert!(check(&want, &error).is_err());
    }
}
