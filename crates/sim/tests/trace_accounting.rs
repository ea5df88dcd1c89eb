//! `via-trace` integration tests: the conservation invariant, tracing
//! transparency (bit-identical cycles), per-region attribution, the event
//! ring, and Chrome-trace export validity.

use via_sim::trace::CAUSE_COUNT;
use via_sim::{AluKind, CoreConfig, Engine, MemConfig, StallCause, TraceEvent, VecOpKind};

/// Pushes a deterministic stream exercising every op class and every
/// stall source: cold loads (DRAM), gathers/scatters (ports), dependent
/// chains, alternating branches (redirects), delays, fences, and
/// commit-serialized custom ops.
fn run_stream(e: &mut Engine, with_custom: bool) {
    e.region("warmup");
    let mut chain = e.scalar_op(AluKind::Int, &[]);
    for i in 0..40u64 {
        let v = e.load(0x10_0000 + i * 4096, 8);
        chain = e.scalar_op(AluKind::FpFma, &[v, chain]);
    }
    e.region_end();
    e.region("body");
    // VL is 4 lanes on the default core; the verifier checks the list.
    let loads: Vec<u64> = (0..4u64).map(|i| 0x20_0000 + i * 808).collect();
    let stores: Vec<u64> = (0..4u64).map(|i| 0x28_0000 + i * 808).collect();
    for i in 0..30u64 {
        let g = e.gather(&loads, 8, &[]);
        let r = e.vec_op(VecOpKind::Fma, &[g]);
        e.scatter(&stores, 8, &[r]);
        e.branch(i % 2 == 0, 3, &[r]);
        if with_custom {
            e.custom_op(2, 9, true, &[r]);
        }
        if i % 7 == 0 {
            let d = e.delay(25, &[r]);
            e.store(0x30_0000 + i * 64, 8, &[d]);
        }
        if i % 11 == 0 {
            e.fence();
        }
    }
    e.region_end();
}

fn traced_engine(core: CoreConfig) -> Engine {
    let mut e = Engine::new(core, MemConfig::default());
    e.enable_stall_accounting();
    e.enable_trace_events(4096);
    e
}

#[test]
fn conservation_attributed_equals_total_cycles() {
    for rob in [16usize, 64, CoreConfig::default().rob_size] {
        let core = CoreConfig {
            rob_size: rob,
            ..CoreConfig::default().with_custom_unit()
        };
        let mut e = traced_engine(core);
        run_stream(&mut e, true);
        let report = e.stall_report().expect("accounting enabled");
        let stats = e.finish();
        assert_eq!(
            report.attributed(),
            stats.cycles,
            "conservation violated at rob_size {rob}: attributed {} != cycles {}",
            report.attributed(),
            stats.cycles
        );
        assert_eq!(report.total_cycles, stats.cycles);
        // Per-region cells partition the same total.
        let region_sum: u64 = report.regions.iter().flat_map(|r| r.cycles.iter()).sum();
        assert_eq!(region_sum, stats.cycles);
        assert!(report.active() > 0 && report.stalled() > 0);
        // With the default (large) ROB the frontier is not absorbed by
        // ROB-full waits, so the stream's other stall sources must show.
        if rob == CoreConfig::default().rob_size {
            // BranchRedirect is absent here by design: in this mix the
            // redirect window is fully shadowed by slow gather/scatter
            // commits (the commit frontier overtakes `fence_until` before
            // the post-branch instruction fetches). A branch-dominated
            // stream exposes it — see `branch_redirects_show_in_a_branchy_stream`.
            for cause in [
                StallCause::LoadPort,
                StallCause::DramBandwidth,
                StallCause::StoreBufferDrain,
            ] {
                assert!(
                    report.cause_total(cause) > 0,
                    "expected nonzero {cause:?} with the default ROB"
                );
            }
        }
    }
}

#[test]
fn branch_redirects_show_in_a_branchy_stream() {
    // Alternating-taken branches on one site defeat the two-bit
    // predictor; with only cheap scalar work in flight the redirect
    // penalty cannot hide behind the commit frontier.
    let mut e = traced_engine(CoreConfig::default());
    for i in 0..50u64 {
        let r = e.scalar_op(AluKind::Int, &[]);
        e.branch(i % 2 == 0, 9, &[r]);
        e.scalar_op(AluKind::Int, &[r]);
    }
    let report = e.stall_report().unwrap();
    let stats = e.finish();
    assert!(stats.mispredicts > 0, "stream must actually mispredict");
    assert!(
        report.cause_total(StallCause::BranchRedirect) > 0,
        "redirect penalty must be attributed"
    );
    assert_eq!(report.attributed(), stats.cycles);
}

#[test]
fn tracing_never_perturbs_cycle_counts() {
    let run = |traced: bool| {
        let core = CoreConfig::default().with_custom_unit();
        let mut e = Engine::new(core, MemConfig::default());
        if traced {
            e.enable_stall_accounting();
            e.enable_trace_events(512);
        }
        run_stream(&mut e, true);
        e.finish()
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain, traced, "tracing must be timing-transparent");
}

#[test]
fn regions_split_the_attribution() {
    let mut e = traced_engine(CoreConfig::default().with_custom_unit());
    run_stream(&mut e, true);
    let report = e.stall_report().unwrap();
    let names: Vec<&str> = report.regions.iter().map(|r| r.name.as_str()).collect();
    assert!(
        names.contains(&"warmup") && names.contains(&"body"),
        "{names:?}"
    );
    let body = report.regions.iter().find(|r| r.name == "body").unwrap();
    assert!(body.cycles.iter().sum::<u64>() > 0);
    assert_eq!(body.cycles.len(), CAUSE_COUNT);
}

#[test]
fn markers_and_regions_reach_the_ring() {
    let mut e = traced_engine(CoreConfig::default());
    e.region("row_loop");
    e.load(0x1000, 8);
    e.trace_marker("sspm mode: cam");
    e.region_end();
    let ring = e.trace_events().unwrap();
    let mut saw_marker = false;
    let mut saw_region = false;
    for event in ring.events() {
        match event {
            TraceEvent::Marker { name, .. } => saw_marker |= *name == "sspm mode: cam",
            TraceEvent::RegionBegin { .. } => saw_region = true,
            _ => {}
        }
    }
    assert!(saw_marker && saw_region);
}

// ---- Chrome-trace JSON validity ---------------------------------------

/// Minimal JSON value for the dependency-free validity check.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn expect(&mut self, c: u8) {
        assert_eq!(self.peek(), c, "expected {:?} at {}", c as char, self.pos);
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool),
            b'f' => self.literal("false", Json::Bool),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(lit.as_bytes()),
            "bad literal at {}",
            self.pos
        );
        self.pos += lit.len();
        value
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            assert!(self.pos < self.bytes.len(), "unterminated string");
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes[self.pos];
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' | b'f' => out.push(' '),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => panic!("bad escape \\{}", other as char),
                    }
                }
                _ => {
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("invalid UTF-8 in JSON");
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] got {:?}", other as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = {
                assert_eq!(self.peek(), b'"', "object key must be a string");
                self.string()
            };
            self.expect(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected , or }} got {:?}", other as char),
            }
        }
    }

    fn parse_complete(mut self) -> Json {
        let v = self.value();
        self.skip_ws();
        assert_eq!(self.pos, self.bytes.len(), "trailing garbage after JSON");
        v
    }
}

fn field<'j>(obj: &'j Json, name: &str) -> Option<&'j Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_timestamps() {
    let mut e = traced_engine(CoreConfig::default().with_custom_unit());
    run_stream(&mut e, true);
    e.trace_marker("end of stream");
    let json = e.chrome_trace().expect("events enabled");

    let doc = Parser::new(&json).parse_complete();
    let events = field(&doc, "traceEvents").expect("traceEvents key");
    let Json::Arr(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());

    let mut last_ts = 0.0f64;
    let mut timed = 0usize;
    for event in events {
        let ph = match field(event, "ph") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("event missing ph"),
        };
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let ts = match field(event, "ts") {
            Some(Json::Num(n)) => *n,
            _ => panic!("timed event missing numeric ts"),
        };
        assert!(
            ts >= last_ts,
            "timestamps must be non-decreasing: {ts} after {last_ts}"
        );
        last_ts = ts;
        timed += 1;
        if ph == "X" {
            match field(event, "dur") {
                Some(Json::Num(d)) => assert!(*d >= 1.0),
                _ => panic!("slice missing dur"),
            }
        }
    }
    assert!(
        timed > 100,
        "expected a populated trace, got {timed} events"
    );

    // Also check one Inst event in the ring obeys lifecycle ordering.
    let ring = e.trace_events().unwrap();
    for event in ring.events() {
        if let TraceEvent::Inst {
            fetch,
            issue,
            complete,
            commit,
            ..
        } = event
        {
            assert!(fetch <= issue && issue <= complete && complete <= commit);
        }
    }
}

#[test]
fn stall_report_render_names_dominant_causes() {
    let mut e = traced_engine(CoreConfig::default().with_custom_unit());
    run_stream(&mut e, true);
    let report = e.stall_report().unwrap();
    let text = report.render(8);
    assert!(text.contains("cycles"));
    assert!(text.contains("active"));
    assert!(text.contains("regions:"), "region rollup missing:\n{text}");
}
