"""The three workloads: set-up, the timed replay of a fixed op sequence,
answer checking, and the per-layer ledger of a traced run."""

import collections
import json
import os
import re
import statistics
import subprocess
import time

import client
import gen
from stats import latency_summary, metric, percentile

# Set-up samples (cold starts) per run, some before and some after the
# timed phase so they see the same host as it; setup_s is their median.
SETUP_REPEATS = 6
SETUP_BEFORE = 3
# The timed phase runs in segments; workloads without timed loads run
# one load probe in each gap, so the probes sample the host state all
# through the run, as the timed ops do, without competing with them.
SEGMENTS = 32
PARITY_ENTRY = 1        # catalog entry whose keys are checked wire vs CLI
SERVE_WORKERS = 2       # = nproc of the reference host
SPAWN_PROBES = 21
ORACLE_LINE = re.compile(r"^\[oracle: (\d+) SAT calls, (\d+) candidates\]$", re.M)


class Run:
    """Everything one run measured and checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []     # one line per wrong, failed or refused op/check
        self.latencies = []    # ms, every timed op
        self.query_ms = []     # ms, timed query ops
        self.load_ms = []      # ms, load ops (timed, or set-up probes)
        self.sat_calls = []    # per answered timed op
        self.answers = []      # per timed op, (answer, sat_calls)
        self.setup = []        # s, per cold start
        self.wall = 0.0        # s, timed phase
        self.peak_rss_mb = 0.0
        self.extra = {}        # per-layer figures measured live
        self.probe_input = None  # the timed ops, in order, for the probe
        self.cycle_ops = 1     # ops per whole cycle of the op sequence

    def fail(self, what):
        self.failures.append(what)

    def check(self, op, answer, sat_calls):
        """Checks one timed op's answer against the generator's."""
        self.attempted += 1
        self.answers.append((answer, sat_calls))
        if answer != op["expect"]:
            self.fail(f"{op['cls']}: answered {answer!r}, expected {op['expect']!r}")

    def end_to_end(self):
        lat = latency_summary(self.latencies)
        ops = len(self.latencies)
        return {
            "setup_s": metric(statistics.median(self.setup), "s"),
            "ops_per_s": metric(ops / self.wall, "1/s"),
            "latency_p50_ms": metric(lat["p50"], "ms"),
            "latency_p90_ms": metric(lat["p90"], "ms"),
            "load_p50_ms": metric(percentile(self.load_ms, 50), "ms"),
            "query_p90_ms": metric(percentile(self.query_ms, 90), "ms"),
            "oracle_calls_per_op": metric(sum(self.sat_calls) / ops, "count"),
            "peak_rss_mb": metric(self.peak_rss_mb, "MiB"),
        }

    def report(self):
        """Human-readable lines: every figure with its unit and sample count."""
        lat = latency_summary(self.latencies)
        lines = [f"workload {self.workload}: {self.attempted} ops attempted, "
                 f"{len(self.failures)} failed, fail_frac {self.fail_frac():.6f} ratio"]
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in self.end_to_end().items()]
        lines.append(f"  latency over {lat['n']} ops: p50 {lat['p50']:.3f} ms, p90 {lat['p90']:.3f} ms, "
                     f"p99 {lat['p99']:.3f} ms, max {lat['max']:.3f} ms (p99/max not gated)")
        lines.append(f"  samples: {len(self.query_ms)} queries, {len(self.load_ms)} loads, "
                     f"{len(self.setup)} cold starts")
        lines += [f"  FAIL {f}" for f in self.failures[:20]]
        return lines

    def fail_frac(self):
        return len(self.failures) / max(1, self.attempted)


def parse_oracle(stderr):
    m = ORACLE_LINE.search(stderr)
    return (int(m.group(1)), int(m.group(2))) if m else None


# --------------------------------------------------------------- cli_ground

def cli_setup(ctx, run, workdir):
    """Input generation plus one warm-up invocation: one set-up sample."""
    started = time.perf_counter()
    os.makedirs(workdir, exist_ok=True)
    plan = gen.cli_plan(ctx.seed, ctx.seconds)
    for i, op in enumerate(plan):
        op["path"] = os.path.join(workdir, f"op{i}.dlv")
        with open(op["path"], "w") as f:
            f.write(op["source"])
    warm = plan[0]
    out, err, code, _, _ = client.run_cli(ctx.ddb, query_args(warm))
    run.setup.append(time.perf_counter() - started)
    if code != 0 or out.strip() != warm["expect"]:
        raise RuntimeError(f"warm-up query failed ({code}): {out}{err}")
    return plan


def cli_ground(ctx):
    """One ``ddb query`` process per op over freshly generated programs;
    ``ddb ground`` load probes run in the gaps between timed segments."""
    run = Run("cli_ground")
    run.cycle_ops = len(gen.CLI_SHAPES) * len(gen.CLI_CLASSES)
    workdir = os.path.join(ctx.work, "cli")
    for _ in range(SETUP_BEFORE):
        plan = cli_setup(ctx, run, workdir)
    by_shape = [[op for op in plan if op["cls"].startswith("{}x{}x{}/".format(*shape))]
                for shape in gen.CLI_SHAPES]
    for seg, chunk in enumerate(segments(plan)):
        started = time.perf_counter()
        for op in chunk:
            out, err, code, seconds, rss = client.run_cli(ctx.ddb, query_args(op))
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            cli_response(run, op, out, err, code, seconds * 1e3)
        run.wall += time.perf_counter() - started
        probe = by_shape[seg % len(by_shape)][seg // len(by_shape)]
        _, err, code, seconds, _ = client.run_cli(ctx.ddb, ["ground", probe["path"]])
        if code != 0:
            run.fail(f"ddb ground {probe['cls']}: exit {code}: {err.strip()}")
        run.load_ms.append(seconds * 1e3)
    run.probe_input = {
        "catalog": [],
        "ops": [{"path": op["path"], "semantics": op["semantics"], "formula": op["formula"]}
                for op in plan],
    }
    for _ in range(SETUP_REPEATS - SETUP_BEFORE):
        cli_setup(ctx, run, os.path.join(workdir, "again"))
    return run


def cli_response(run, op, out, err, code, ms):
    run.latencies.append(ms)
    run.query_ms.append(ms)
    bill = parse_oracle(err)
    if code != 0 or bill is None:
        run.attempted += 1
        run.answers.append((None, None))
        run.fail(f"{op['cls']}: exit {code}: {err.strip()}")
        return
    run.sat_calls.append(bill[0])
    run.check(op, out.rstrip("\n"), bill[0])


def query_args(op):
    return ["query", op["path"], "--semantics", op["semantics"], "--formula", op["formula"]]


def segments(ops):
    """SEGMENTS consecutive, nearly equal slices of ``ops``."""
    bounds = [round(k * len(ops) / SEGMENTS) for k in range(SEGMENTS + 1)]
    return [ops[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------- serve workloads

class Serve:
    """The sealed catalog on disk and the ``ddb serve`` children run on it."""

    def __init__(self, ctx, run, entries):
        self.ctx, self.run = ctx, run
        workdir = os.path.join(ctx.work, "serve")
        os.makedirs(workdir, exist_ok=True)
        self.dbs = []
        for name, source, _, _ in entries:
            path = os.path.join(workdir, f"{name}.dlv")
            with open(path, "w") as f:
                f.write(source)
            self.dbs.append((name, path))
        self.log = os.path.join(workdir, "serve.log")
        self.server = None
        self.window = collections.Counter()

    def cold_starts(self, n, keep):
        """``n`` cold starts, each a set-up sample; the last stays up
        when ``keep``."""
        for k in range(n):
            server = client.Server(self.ctx.ddb, self.dbs, SERVE_WORKERS, self.log)
            self.run.setup.append(server.start())
            if keep and k == n - 1:
                self.server = server
            elif server.stop() != 0:
                self.run.fail(f"cold start: the drain failed (see {self.log})")

    def stats(self):
        conn = client.Conn(self.server.addr)
        counters = conn.call({"op": "stats"})["counters"]
        conn.close()
        return counters

    def timed(self, conns, rounds):
        """One timed segment; server counters are summed over segments
        only, so untimed work between them stays out."""
        before = self.stats()
        results, wall = client.replay_rounds(conns, rounds)
        after = self.stats()
        # The first stats request closes its span after its own snapshot,
        # so it falls inside the window; the second does not.
        self.window["span.serve.request.calls"] -= 1
        for key, value in after.items():
            if isinstance(value, int):
                self.window[key] += value - before.get(key, 0)
        self.run.wall += wall
        return results

    def finish(self):
        """Server-side figures, peak RSS, then a checked drain."""
        run, window = self.run, self.window
        server_ms = window["span.serve.request.ns"] / max(1, window["span.serve.request.calls"]) / 1e6
        run.extra["serve.server_ms"] = metric(server_ms, "ms")
        run.extra["serve.transport_ms"] = metric(statistics.fmean(run.latencies) - server_ms, "ms")
        run.extra["serve.shed_count"] = metric(window["serve.shed"], "count")
        errors = sum(v for k, v in window.items() if k.startswith("serve.errors."))
        run.extra["serve.errors_count"] = metric(errors, "count")
        run.peak_rss_mb = self.server.peak_rss_mb()
        self.stop()

    def stop(self):
        if self.server is not None and self.server.stop() != 0:
            self.run.fail(f"the drain failed (see {self.log})")
        self.server = None

    def check_parity(self, keys):
        """Wire answers and oracle bills must be byte-identical to the
        CLI's for every key of one catalog entry."""
        name, path = self.dbs[PARITY_ENTRY]
        conn = client.Conn(self.server.addr)
        for key in keys:
            request = key["request"]
            if request["db"] != name:
                continue
            reply = conn.call(request)
            field = "literal" if "literal" in request else "formula"
            out, err, code, _, _ = client.run_cli(self.ctx.ddb, [
                "query", path, "--semantics", request["semantics"], f"--{field}", request[field]])
            bill = f"[oracle: {reply.get('sat_calls')} SAT calls, {reply.get('candidates')} candidates]"
            if code != 0 or out != f"{reply.get('answer')}\n" or err.strip() != bill:
                self.run.fail(f"parity {key['cls']}: cli {out.strip()!r} {err.strip()!r} "
                              f"vs wire {reply.get('answer')!r} {bill!r}")
        conn.close()

    def probe_input(self, ops):
        return {
            "catalog": [{"name": n, "path": p} for n, p in self.dbs],
            "ops": [{"frame": client.encode(op["request"]).decode().rstrip("\n")} for op in ops],
        }


def serve_response(run, op, raw, ms):
    reply = json.loads(raw)
    run.latencies.append(ms)
    if op["request"]["op"] == "load":
        run.load_ms.append(ms)
    else:
        run.query_ms.append(ms)
    if not reply.get("ok"):
        run.attempted += 1
        run.answers.append((None, None))
        run.fail(f"{op['cls']}: {reply.get('error')}")
        return
    if reply.get("resource") is not None:
        run.fail(f"{op['cls']}: budget tripped ({reply['resource']})")
    calls = reply.get("sat_calls", 0)
    run.sat_calls.append(calls)
    run.check(op, reply.get("answer"), calls)


def lines(ops):
    return [client.encode(op["request"]) for op in ops]


def serve_hot(ctx):
    """Two connections replay repeated oracle-bound keys on sealed
    entries; wire load probes run in the gaps between timed segments."""
    run = Run("serve_hot")
    entries = gen.catalog(ctx.seed)
    serve = Serve(ctx, run, entries)
    try:
        serve.cold_starts(SETUP_BEFORE, keep=True)
        keys = gen.hot_keys(entries)
        run.cycle_ops = len(keys)
        serve.check_parity(keys)
        plan = gen.hot_plan(ctx.seed, ctx.seconds, entries)
        conns = [client.Conn(serve.server.addr) for _ in range(SERVE_WORKERS)]
        per_conn = [segments(plan[k::SERVE_WORKERS]) for k in range(SERVE_WORKERS)]
        replies = [[] for _ in conns]
        for seg in range(SEGMENTS):
            chunks = [per_conn[k][seg] for k in range(SERVE_WORKERS)]
            for k, res in enumerate(serve.timed(conns, [[lines(c) for c in chunks]])):
                replies[k] += res
            name, source, _, _ = entries[seg % len(entries)]
            started = time.perf_counter()
            reply = conns[0].call({"op": "load", "db": f"probe_{name}", "source": source,
                                   "overwrite": True})
            run.load_ms.append((time.perf_counter() - started) * 1e3)
            if not reply.get("ok"):
                run.fail(f"load probe {name}: {reply.get('error')}")
        for c in conns:
            c.close()
        # Answers in plan order, so the traced replay lines up op by op.
        merged = [None] * len(plan)
        for k in range(SERVE_WORKERS):
            merged[k::SERVE_WORKERS] = replies[k]
        for op, (raw, ms) in zip(plan, merged):
            serve_response(run, op, raw, ms)
        serve.finish()
        serve.cold_starts(SETUP_REPEATS - SETUP_BEFORE, keep=False)
    finally:
        serve.stop()
    run.probe_input = serve.probe_input(plan)
    return run


def serve_churn(ctx):
    """One connection overwrites client entries and reads back the
    version it wrote; the other reads sealed entries, in lockstep rounds."""
    run = Run("serve_churn")
    entries = gen.catalog(ctx.seed)
    serve = Serve(ctx, run, entries)
    try:
        serve.cold_starts(SETUP_BEFORE, keep=True)
        serve.check_parity(gen.hot_keys(entries))
        rounds, reads = gen.churn_plan(ctx.seed, ctx.seconds, entries)
        per = gen.READS_PER_ROUND
        run.cycle_ops = gen.CHURN_CYCLE_ROUNDS * (2 + per)
        plan = [(list(pair), reads[r * per:(r + 1) * per]) for r, pair in enumerate(rounds)]
        conns = [client.Conn(serve.server.addr) for _ in range(2)]
        order = []
        for chunk in segments(plan):
            written, read = serve.timed(conns, [[lines(w), lines(r)] for w, r in chunk])
            for w, r in chunk:
                order += [(op, written.pop(0)) for op in w] + [(op, read.pop(0)) for op in r]
        for c in conns:
            c.close()
        for op, (raw, ms) in order:
            serve_response(run, op, raw, ms)
        serve.finish()
        serve.cold_starts(SETUP_REPEATS - SETUP_BEFORE, keep=False)
    finally:
        serve.stop()
    run.probe_input = serve.probe_input([op for op, _ in order])
    return run


WORKLOADS = {"cli_ground": cli_ground, "serve_hot": serve_hot, "serve_churn": serve_churn}


# ------------------------------------------------------------ traced run

def spawn_ms(ddb):
    """Median time of a trivial ``ddb`` invocation: the CLI's floor."""
    times = []
    for _ in range(SPAWN_PROBES):
        _, _, code, seconds, _ = client.run_cli(ddb, ["help"])
        if code != 0:
            raise RuntimeError("ddb help failed")
        times.append(seconds * 1e3)
    return statistics.median(times)


def per_layer(ctx, run):
    """Replays the first quarter of the run's whole op cycles through the
    probe and returns the per-layer metrics. The replay's answers and
    oracle bills must equal the live run's op by op."""
    ops_path = os.path.join(ctx.work, "probe-ops.json")
    out_path = os.path.join(ctx.work, "probe-out.json")
    n = gen.traced_prefix(len(run.answers), run.cycle_ops)
    replay_ops = run.probe_input["ops"][:n]
    with open(ops_path, "w") as f:
        json.dump(dict(run.probe_input, ops=replay_ops), f)
    subprocess.run([ctx.probe, ops_path, out_path], check=True, timeout=170)
    with open(out_path) as f:
        ledger = json.load(f)

    replayed = [tuple(a) for a in ledger["answers"]]
    if len(replayed) != n:
        run.fail(f"replay answered {len(replayed)} of {n} ops")
    for i, (live, again) in enumerate(zip(run.answers, replayed)):
        if live != again:
            run.fail(f"op {i}: live {live} but traced replay {again}")

    ns, count = ledger["ns"], ledger["count"]
    ops = count["ops"]
    programs = max(1, count.get("programs", 0))
    wire = sum("frame" in op for op in replay_ops)
    per_op_ms = lambda key: ns.get(key, 0) / ops / 1e6
    per_op = lambda key: count.get(key, 0) / ops
    m = {
        "ground.parse_ms": metric(ns.get("ground.parse", 0) / programs / 1e6, "ms"),
        "ground.ground_ms": metric(ns.get("ground.ground", 0) / programs / 1e6, "ms"),
        "ground.rules_per_program": metric(count.get("rules", 0) / programs, "count"),
        "ground.atoms_per_program": metric(count.get("atoms", 0) / programs, "count"),
        "obs.checkpoints_per_op": metric(per_op("checkpoints"), "count"),
        "analysis.classify_ms": metric(per_op_ms("analysis.classify"), "ms"),
        "core.plan_ms": metric(per_op_ms("core.plan"), "ms"),
        "core.route_self_ms": metric(per_op_ms("core.route_self"), "ms"),
        "core.route.magic_per_op": metric(per_op("route.magic"), "count"),
        "core.route.generic_per_op": metric(per_op("route.generic"), "count"),
        "core.route.split_per_op": metric(per_op("route.split"), "count"),
        "core.route.hcf_per_op": metric(per_op("route.hcf"), "count"),
        "core.magic.dropped_rules_per_op": metric(per_op("route.magic.dropped_rules"), "count"),
        "models.minimize_ms": metric(per_op_ms("models.minimize"), "ms"),
        "models.circ_ms": metric(per_op_ms("models.circ"), "ms"),
        "models.candidates_per_op": metric(per_op("candidates"), "count"),
        "sat.solve_ms": metric(per_op_ms("sat.solve"), "ms"),
        "sat.solves_per_op": metric(per_op("sat.solves"), "count"),
        "sat.conflicts_per_op": metric(per_op("sat.conflicts"), "count"),
        "sat.decisions_per_op": metric(per_op("sat.decisions"), "count"),
        "sat.propagations_per_op": metric(per_op("sat.propagations"), "count"),
        "serve.decode_us": metric(ns.get("serve.decode", 0) / max(1, wire) / 1e3, "us"),
        "serve.encode_us": metric(ns.get("serve.encode", 0) / max(1, wire) / 1e3, "us"),
        "serve.server_ms": metric(0.0, "ms"),
        "serve.transport_ms": metric(0.0, "ms"),
        "serve.shed_count": metric(0, "count"),
        "serve.errors_count": metric(0, "count"),
        "cli.spawn_ms": metric(spawn_ms(ctx.ddb), "ms"),
        "trace.unattributed_frac": metric(ns["op_self"] / ns["op"], "ratio"),
        "trace.overhead_frac": metric(ledger["traced_ns"] / ledger["bare_ns"] - 1.0, "ratio"),
    }
    m.update(run.extra)
    return m
