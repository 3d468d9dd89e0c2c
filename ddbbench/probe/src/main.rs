//! `ddbbench-probe` — the per-layer ledger behind `run.py --trace 1`.
//!
//! ```text
//! ddbbench-probe <ops.json> <out.json>
//! ```
//!
//! Replays, in this process, the op sequence a benchmark run sent to
//! `ddb`: CLI ops (`ddb query <file> --semantics S --formula F`) and
//! wire frames (`query`/`load` lines as sent to `ddb serve`). Every op
//! is replayed twice: a bare pass that makes only the calls the real
//! path makes, and a traced pass that wraps each layer's public entry
//! point in a span and captures the engine's own span events inside the
//! route call. Nothing inside the engine is changed; the spans live
//! here. The output holds each op's answer and oracle bill (so the
//! caller can check the replay is the same computation as the live run),
//! per-layer self times, and per-layer counts.

use disjunctive_db::analysis::PlanQuery;
use disjunctive_db::ground::{ground_reduced, parse::parse_datalog};
use disjunctive_db::obs::json::{self, Json};
use disjunctive_db::obs::{self, Budget, Event, MemorySink};
use disjunctive_db::prelude::*;
use disjunctive_db::serve::protocol::{ok_frame, parse_request, Op, Request};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The grounding bound the CLI and the server both use.
const GROUNDING_LIMIT: usize = 1_000_000;

/// One op of the replayed sequence.
enum Step {
    /// `ddb query <path> --semantics <semantics> --formula <formula>`.
    Cli {
        path: String,
        semantics: String,
        formula: String,
    },
    /// One wire request line, as sent to `ddb serve`.
    Wire(String),
}

/// What one op answered: the answer text and its oracle bill.
#[derive(Clone, Debug, PartialEq)]
struct Answer {
    text: String,
    sat_calls: u64,
}

/// Per-layer totals of the traced pass: nanoseconds and counts by name.
#[derive(Default)]
struct Ledger {
    ns: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
}

impl Ledger {
    fn add_ns(&mut self, key: &'static str, ns: u64) {
        *self.ns.entry(key).or_default() += ns;
    }

    fn add(&mut self, key: &'static str, n: u64) {
        *self.count.entry(key).or_default() += n;
    }
}

/// Times `f` into `ledger.ns[key]` when tracing, and also into the
/// enclosing op's covered time, so the op's self time is what no layer
/// span covers.
fn timed<T>(trace: &mut Option<Trace>, key: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(t) = trace else {
        return f();
    };
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    t.ledger.add_ns(key, ns);
    t.covered_ns += ns;
    out
}

/// Tracing state for the traced pass.
struct Trace {
    ledger: Ledger,
    sink: Arc<MemorySink>,
    /// Layer-span time inside the current op.
    covered_ns: u64,
}

/// The engine layer a span name belongs to, for splitting the route
/// call's time.
fn layer_of(name: &str) -> &'static str {
    if name.starts_with("sat.") {
        "sat.solve"
    } else if name == "models.minimize" {
        "models.minimize"
    } else if name.starts_with("models.") || name.starts_with("cegar.") {
        "models.circ"
    } else {
        "core.route_self"
    }
}

/// Self time per span from a single thread's event stream: each span's
/// duration minus the time its direct children cover. Returns
/// `(name, self_ns)` per closed span, in exit order, and the summed
/// duration of the top-level spans.
fn self_times(events: &[Event]) -> (Vec<(&str, u64)>, u64) {
    let mut child_ns: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    let mut top_ns = 0;
    for event in events {
        match event {
            Event::SpanEnter { .. } => child_ns.push(0),
            Event::SpanExit { name, dur_ns, .. } => {
                let children = child_ns.pop().unwrap_or(0);
                out.push((name.as_str(), dur_ns.saturating_sub(children)));
                match child_ns.last_mut() {
                    Some(parent) => *parent += dur_ns,
                    None => top_ns += dur_ns,
                }
            }
            _ => {}
        }
    }
    (out, top_ns)
}

/// The route call: the caller's span covers it, and the engine's own
/// span events inside it split its time into core, models and sat self
/// time.
fn route(
    trace: &mut Option<Trace>,
    cfg: &SemanticsConfig,
    db: &Database,
    formula: &Formula,
    cost: &mut Cost,
) -> Result<Verdict, String> {
    let Some(t) = trace else {
        return cfg
            .infers_formula(db, formula, cost)
            .map_err(|e| e.to_string());
    };
    let started = Instant::now();
    let verdict = cfg.infers_formula(db, formula, cost);
    let ns = started.elapsed().as_nanos() as u64;
    obs::flush_thread_events();
    let events: Vec<Event> = t.sink.take().into_iter().map(|e| e.event).collect();
    let (spans, top_ns) = self_times(&events);
    for (name, self_ns) in spans {
        t.ledger.add_ns(layer_of(name), self_ns);
    }
    t.ledger
        .add_ns("core.route_self", ns.saturating_sub(top_ns));
    t.covered_ns += ns;
    verdict.map_err(|e| e.to_string())
}

fn semantics(name: &str) -> Result<SemanticsId, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "gcwa" => SemanticsId::Gcwa,
        "egcwa" => SemanticsId::Egcwa,
        "ccwa" => SemanticsId::Ccwa,
        "ecwa" | "circ" => SemanticsId::Ecwa,
        "ddr" | "wgcwa" => SemanticsId::Ddr,
        "pws" | "pms" => SemanticsId::Pws,
        "perf" => SemanticsId::Perf,
        "icwa" => SemanticsId::Icwa,
        "dsm" | "stable" => SemanticsId::Dsm,
        "pdsm" => SemanticsId::Pdsm,
        other => return Err(format!("unknown semantics `{other}`")),
    })
}

/// Formula grammar first, then a verbatim (optionally negated) atom name
/// — the lookup order of `ddb query --formula` and the wire `formula`.
fn query_formula(raw: &str, db: &Database) -> Result<Formula, String> {
    match parse_formula(raw, db.symbols()) {
        Ok(f) => Ok(f),
        Err(e) => literal(raw.trim(), db).map_err(|_| e.to_string()),
    }
}

fn literal(raw: &str, db: &Database) -> Result<Formula, String> {
    let (name, positive) = match raw.strip_prefix('-') {
        Some(rest) => (rest.trim(), false),
        None => (raw, true),
    };
    let atom = db
        .symbols()
        .lookup(name)
        .ok_or_else(|| format!("unknown atom `{name}`"))?;
    Ok(Formula::literal(atom, positive))
}

/// Parses and grounds one Datalog∨ source, as `ddb query` and the
/// server's `load` do.
fn ground(trace: &mut Option<Trace>, source: &str) -> Result<Database, String> {
    let program =
        timed(trace, "ground.parse", || parse_datalog(source)).map_err(|e| e.to_string())?;
    let db = timed(trace, "ground.ground", || {
        ground_reduced(&program, GROUNDING_LIMIT)
    })
    .map_err(|e| e.to_string())?;
    if let Some(t) = trace {
        t.ledger.add("programs", 1);
        t.ledger.add("rules", db.rules().len() as u64);
        t.ledger.add("atoms", db.num_atoms() as u64);
    }
    Ok(db)
}

/// The layer calls of one inference: classify and plan (timed on their
/// own when tracing, as the route repeats them internally), then route.
fn infer(
    trace: &mut Option<Trace>,
    cfg: &SemanticsConfig,
    db: &Database,
    formula: &Formula,
    cost: &mut Cost,
) -> Result<Verdict, String> {
    if trace.is_some() {
        let atoms = formula.atoms();
        timed(trace, "analysis.classify", || {
            std::hint::black_box(disjunctive_db::analysis::classify(db))
        });
        timed(trace, "core.plan", || {
            std::hint::black_box(cfg.plan(db, &PlanQuery::Formula(atoms)))
        })
        .map_err(|e| e.to_string())?;
    }
    let verdict = route(trace, cfg, db, formula, cost)?;
    if let Some(t) = trace {
        t.ledger.add("queries", 1);
        t.ledger.add("candidates", cost.candidates);
        t.ledger.add("sat.solves", cost.sat_calls);
        t.ledger.add("sat.conflicts", cost.conflicts);
        t.ledger.add("sat.decisions", cost.decisions);
        t.ledger.add("sat.propagations", cost.propagations);
    }
    Ok(verdict)
}

fn verdict_text(verdict: &Verdict) -> &'static str {
    match verdict.as_bool() {
        Some(true) => "inferred",
        Some(false) => "not inferred",
        None => "unknown",
    }
}

fn run_cli(
    trace: &mut Option<Trace>,
    path: &str,
    semantics_name: &str,
    raw: &str,
) -> Result<Answer, String> {
    // `ddb query` installs no budget without limits; the traced pass
    // installs an unlimited one to count checkpoints.
    let _guard = trace.is_some().then(|| Budget::unlimited().install());
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let db = ground(trace, &source)?;
    let formula = query_formula(raw, &db)?;
    let cfg = SemanticsConfig::new(semantics(semantics_name)?);
    let mut cost = Cost::new();
    let verdict = infer(trace, &cfg, &db, &formula, &mut cost)?;
    Ok(Answer {
        text: verdict_text(&verdict).to_owned(),
        sat_calls: cost.sat_calls,
    })
}

fn run_wire(
    trace: &mut Option<Trace>,
    catalog: &mut HashMap<String, Arc<Database>>,
    line: &str,
) -> Result<Answer, String> {
    let request: Request =
        timed(trace, "serve.decode", || parse_request(line)).map_err(|e| e.error.to_string())?;
    let started = Instant::now();
    // The server runs every query-class request under a budget; an
    // unlimited one changes no answer and counts checkpoints.
    let guard = Budget::unlimited().install();
    let name = request.db.clone().ok_or("missing `db`")?;
    let (mut fields, answer) = match request.op {
        Op::Query => {
            let db = catalog
                .get(&name)
                .cloned()
                .ok_or_else(|| format!("unknown database `{name}`"))?;
            let formula = match (&request.formula, &request.literal) {
                (Some(f), None) => query_formula(f, &db)?,
                (None, Some(l)) => literal(l, &db)?,
                _ => return Err("need exactly one of `formula` / `literal`".into()),
            };
            let sem = request.semantics.as_deref().ok_or("missing `semantics`")?;
            let cfg = SemanticsConfig::new(semantics(sem)?);
            let mut cost = Cost::new();
            let verdict = infer(trace, &cfg, &db, &formula, &mut cost)?;
            let text = verdict_text(&verdict);
            let fields = vec![
                ("answer", Json::Str(text.to_owned())),
                ("verdict", verdict.as_bool().map_or(Json::Null, Json::Bool)),
                ("resource", Json::Null),
                ("sat_calls", Json::UInt(cost.sat_calls)),
                ("candidates", Json::UInt(cost.candidates)),
            ];
            let answer = Answer {
                text: text.to_owned(),
                sat_calls: cost.sat_calls,
            };
            (fields, answer)
        }
        Op::Load => {
            let source = request.source.as_deref().ok_or("load needs `source`")?;
            let db = ground(trace, source)?;
            let text = format!("loaded `{name}`");
            let fields = vec![
                ("answer", Json::Str(text.clone())),
                ("atoms", Json::UInt(db.num_atoms() as u64)),
                ("rules", Json::UInt(db.rules().len() as u64)),
            ];
            catalog.insert(name, Arc::new(db));
            (fields, Answer { text, sat_calls: 0 })
        }
        other => return Err(format!("op `{}` is not replayed", other.name())),
    };
    let consumed = obs::budget::consumed().expect("a budget is installed");
    drop(guard);
    fields.push((
        "consumed",
        Json::obj([
            ("checkpoints", Json::UInt(consumed.checkpoints)),
            ("conflicts", Json::UInt(consumed.conflicts)),
            ("oracle_calls", Json::UInt(consumed.oracle_calls)),
            ("models", Json::UInt(consumed.models)),
        ]),
    ));
    fields.push(("wall_ms", Json::UInt(started.elapsed().as_millis() as u64)));
    let frame = timed(trace, "serve.encode", || {
        ok_frame(request.id.as_ref(), fields)
    });
    std::hint::black_box(frame);
    Ok(answer)
}

/// One pass over every step; returns the answers and the pass's wall
/// time (the catalog is grounded before the clock starts).
fn pass(
    trace: &mut Option<Trace>,
    catalog_sources: &[(String, String)],
    steps: &[Step],
) -> Result<(Vec<Answer>, u64), String> {
    let mut catalog = HashMap::new();
    for (name, source) in catalog_sources {
        catalog.insert(name.clone(), Arc::new(ground(trace, source)?));
    }
    let mut answers = Vec::with_capacity(steps.len());
    let started = Instant::now();
    for step in steps {
        let op_started = Instant::now();
        if let Some(t) = trace {
            t.covered_ns = 0;
        }
        let answer = match step {
            Step::Cli {
                path,
                semantics,
                formula,
            } => run_cli(trace, path, semantics, formula)?,
            Step::Wire(line) => run_wire(trace, &mut catalog, line)?,
        };
        if let Some(t) = trace {
            let op_ns = op_started.elapsed().as_nanos() as u64;
            t.ledger.add_ns("op", op_ns);
            t.ledger
                .add_ns("op_self", op_ns.saturating_sub(t.covered_ns));
            t.ledger.add("ops", 1);
        }
        answers.push(answer);
    }
    Ok((answers, started.elapsed().as_nanos() as u64))
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("input: missing string field `{key}`"))
}

/// The catalog to preload, as `(name, source)`, and the ops to replay.
type Input = (Vec<(String, String)>, Vec<Step>);

fn read_input(path: &str) -> Result<Input, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let input = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut catalog = Vec::new();
    for entry in input.get("catalog").and_then(Json::as_arr).unwrap_or(&[]) {
        let file = field(entry, "path")?;
        let source = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        catalog.push((field(entry, "name")?.to_owned(), source));
    }
    let mut steps = Vec::new();
    for op in input.get("ops").and_then(Json::as_arr).unwrap_or(&[]) {
        steps.push(match op.get("frame").and_then(Json::as_str) {
            Some(frame) => Step::Wire(frame.to_owned()),
            None => Step::Cli {
                path: field(op, "path")?.to_owned(),
                semantics: field(op, "semantics")?.to_owned(),
                formula: field(op, "formula")?.to_owned(),
            },
        });
    }
    Ok((catalog, steps))
}

fn run(input: &str, output: &str) -> Result<(), String> {
    let (catalog, steps) = read_input(input)?;
    let (bare_answers, bare_ns) = pass(&mut None, &catalog, &steps)?;

    let sink = MemorySink::new();
    obs::set_sink(sink.clone());
    let before = obs::snapshot();
    let mut trace = Some(Trace {
        ledger: Ledger::default(),
        sink: sink.clone(),
        covered_ns: 0,
    });
    let (answers, traced_ns) = pass(&mut trace, &catalog, &steps)?;
    let after = obs::snapshot();
    obs::clear_sink();
    if answers != bare_answers {
        return Err("the traced pass answered differently from the bare pass".into());
    }

    let mut ledger = trace.expect("traced pass").ledger;
    for (key, counter) in [
        ("checkpoints", "govern.checkpoints"),
        ("route.magic", "route.magic"),
        ("route.generic", "route.generic"),
        ("route.split", "route.split"),
        ("route.hcf", "route.hcf"),
        ("route.magic.dropped_rules", "route.magic.dropped_rules"),
    ] {
        ledger.add(key, after.get(counter) - before.get(counter));
    }
    let to_obj = |map: &BTreeMap<&'static str, u64>| {
        Json::Obj(
            map.iter()
                .map(|(k, v)| ((*k).to_owned(), Json::UInt(*v)))
                .collect(),
        )
    };
    let out = Json::obj([
        ("bare_ns", Json::UInt(bare_ns)),
        ("traced_ns", Json::UInt(traced_ns)),
        (
            "answers",
            Json::Arr(
                answers
                    .iter()
                    .map(|a| Json::Arr(vec![Json::Str(a.text.clone()), Json::UInt(a.sat_calls)]))
                    .collect(),
            ),
        ),
        ("ns", to_obj(&ledger.ns)),
        ("count", to_obj(&ledger.count)),
    ]);
    std::fs::write(output, out.render()).map_err(|e| format!("writing {output}: {e}"))
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [input, output] = args.as_slice() else {
        eprintln!("usage: ddbbench-probe <ops.json> <out.json>");
        return std::process::ExitCode::from(2);
    };
    match run(input, output) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ddbbench-probe: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(name: &str, depth: usize) -> Event {
        Event::SpanEnter {
            name: name.to_owned(),
            depth,
            at_ns: 0,
        }
    }

    fn exit(name: &str, depth: usize, dur_ns: u64) -> Event {
        Event::SpanExit {
            name: name.to_owned(),
            depth,
            at_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // route(100) ⊃ { circ(60) ⊃ { solve(25), solve(15) }, solve(10) }
        let events = vec![
            enter("route", 0),
            enter("models.circ", 1),
            enter("sat.solve", 2),
            exit("sat.solve", 2, 25),
            enter("sat.solve", 2),
            exit("sat.solve", 2, 15),
            exit("models.circ", 1, 60),
            enter("sat.solve", 1),
            exit("sat.solve", 1, 10),
            exit("route", 0, 100),
        ];
        let (spans, top) = self_times(&events);
        assert_eq!(
            spans,
            vec![
                ("sat.solve", 25),
                ("sat.solve", 15),
                ("models.circ", 20),
                ("sat.solve", 10),
                ("route", 30),
            ]
        );
        assert_eq!(top, 100);
        // Self times partition the root's duration.
        assert_eq!(spans.iter().map(|s| s.1).sum::<u64>(), 100);
    }

    #[test]
    fn self_time_sums_sibling_roots_and_ignores_other_events() {
        let events = vec![
            enter("a", 0),
            Event::Instant {
                name: "mark".to_owned(),
                at_ns: 0,
            },
            exit("a", 0, 7),
            enter("b", 0),
            exit("b", 0, 5),
        ];
        let (spans, top) = self_times(&events);
        assert_eq!(spans, vec![("a", 7), ("b", 5)]);
        assert_eq!(top, 12);
    }

    #[test]
    fn layers_split_engine_span_names() {
        assert_eq!(layer_of("sat.solve"), "sat.solve");
        assert_eq!(layer_of("models.minimize"), "models.minimize");
        assert_eq!(layer_of("models.circ.holds_in_all"), "models.circ");
        assert_eq!(layer_of("cegar.round"), "models.circ");
        assert_eq!(layer_of("dispatch.query"), "core.route_self");
        assert_eq!(layer_of("gcwa.infers_formula"), "core.route_self");
    }

    #[test]
    fn replay_answers_cli_and_wire_ops() {
        // Beside the test binary, inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("probe-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = dir.join("p.dlv");
        std::fs::write(
            &prog,
            "start(c,a) | start(c,b).\nreach(C) :- start(C,a).\nreach(C) :- start(C,b).\n",
        )
        .unwrap();
        let path = prog.to_str().unwrap().to_owned();
        let source = std::fs::read_to_string(&prog).unwrap();
        let steps = vec![
            Step::Cli {
                path: path.clone(),
                semantics: "gcwa".into(),
                formula: "reach(c)".into(),
            },
            Step::Wire(
                r#"{"op":"query","db":"p","semantics":"dsm","literal":"start(c,a)"}"#.into(),
            ),
            Step::Wire(r#"{"op":"load","db":"q","source":"x(k)."}"#.into()),
            Step::Wire(r#"{"op":"query","db":"q","semantics":"egcwa","formula":"x(k)"}"#.into()),
        ];
        let catalog = vec![("p".to_owned(), source)];
        let (bare, _) = pass(&mut None, &catalog, &steps).unwrap();
        let sink = MemorySink::new();
        obs::set_sink(sink.clone());
        let mut trace = Some(Trace {
            ledger: Ledger::default(),
            sink,
            covered_ns: 0,
        });
        let (traced, _) = pass(&mut trace, &catalog, &steps).unwrap();
        obs::clear_sink();
        assert_eq!(bare, traced);
        let texts: Vec<&str> = traced.iter().map(|a| a.text.as_str()).collect();
        assert_eq!(
            texts,
            ["inferred", "not inferred", "loaded `q`", "inferred"]
        );
        let ledger = trace.unwrap().ledger;
        assert_eq!(ledger.count["ops"], 4);
        assert_eq!(ledger.count["queries"], 3);
        // The catalog entry, the CLI program and the loaded source.
        assert_eq!(ledger.count["programs"], 3);
        assert!(ledger.ns["op"] >= ledger.ns["op_self"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
