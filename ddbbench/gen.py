"""Seeded inputs and op sequences for the three workloads.

Every program is built from a *shape* (a fixed, seed-independent size
class) and a seeded renaming of its constants. Constant names are
``<prefix><zero-padded index><two seeded letters>``: the index fixes the
lexicographic order of every ground atom, so two seeds give programs that
are identical up to an order-preserving renaming. The engine's work
(grounded rules, atom order, SAT calls) is then the same for every seed
while the text ``ddb`` receives differs, and each workload's op sequence
is a seeded permutation of a fixed multiset of op classes. So every count
repeats exactly across seeds and runs, and timings vary only by noise.

Every op carries the answer it must get, known from how the program was
built (see ``goal``).
"""

import random
import string

# cli_ground: chains x depth x guess nodes. Grounding cost is about the
# same for each shape (roughly 50-80 ms when the benchmark was written).
CLI_SHAPES = ((7, 34, 4), (8, 32, 5), (9, 30, 4), (10, 28, 5))

# (semantics, goal) pairs whose inference is cheap next to grounding on
# every CLI shape, so grounding is nearly the whole op. PWS and DDR are
# not defined on programs with negation and are served on serve_hot.
CLI_CLASSES = (
    ("gcwa", "reach"), ("gcwa", "no_reach"), ("ccwa", "reach"), ("ccwa", "no_reach"),
    ("egcwa", "founder"), ("egcwa", "no_both"), ("ecwa", "guess_or"), ("ecwa", "founder"),
    ("perf", "reach"), ("perf", "guess_in"), ("icwa", "guess_or"), ("icwa", "no_both"),
    ("dsm", "reach"), ("dsm", "guess_in"), ("pdsm", "founder"), ("pdsm", "guess_in"),
)

# serve_hot/serve_churn: the sealed catalog, chains x depth, positive.
HOT_SHAPES = ((6, 40), (8, 32), (10, 28), (12, 24))

# Oracle-bound keys on every catalog entry: (semantics, wire field, goal).
# GCWA/CCWA cost 250-400 SAT calls per request, PWS one large SAT call;
# DSM and EGCWA add variety.
HOT_CLASSES = (
    ("gcwa", "literal", "end"), ("gcwa", "literal", "not_end"), ("gcwa", "literal", "not_end0"),
    ("ccwa", "literal", "end0"), ("ccwa", "formula", "not_end0"), ("ccwa", "literal", "end"),
    ("pws", "literal", "end"), ("pws", "formula", "end_and_founder"),
    ("pws", "formula", "end_or_founder"),
    ("dsm", "formula", "end_or_founder"), ("egcwa", "literal", "not_end0"),
)

# serve_churn: the shape loaded each round and the semantics its
# post-load query cycles through.
CHURN_SHAPE = (8, 32)
CHURN_SEMANTICS = ("egcwa", "dsm", "pws")
CHURN_ENTRIES = 2
READS_PER_ROUND = 3
# Rounds per churn cycle: a multiple of the 4-round entry/version period,
# and its reads are a whole number of copies of the 44 hot keys
# (44 x 3 = 3 x 44).
CHURN_CYCLE_ROUNDS = 44

# Nominal op rates on a 2-vCPU host when the benchmark was written: ``--seconds``
# sets the size of the fixed op sequence, rate x seconds, not a deadline.
CLI_OPS_PER_S = 16.0
HOT_OPS_PER_S = 300.0
CHURN_ROUNDS_PER_S = 13.5


class Names:
    """Order-preserving seeded constant names for one program."""

    def __init__(self, rng):
        self.rng = rng
        self.cache = {}

    def __call__(self, prefix, index, width=3):
        key = (prefix, index)
        if key not in self.cache:
            tag = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(2))
            self.cache[key] = f"{prefix}{index:0{width}d}{tag}"
        return self.cache[key]


def rng_for(seed, *stream):
    """An independent seeded stream per (seed, purpose)."""
    return random.Random("/".join(map(str, (seed,) + stream)))


def chains_program(names, chains, depth, guess=0, flip=False):
    """The ``bound_chains`` family, plus a guess/check shape when
    ``guess`` > 0.

    Chains: ``start(C,a) | start(C,b).`` founds chain ``C`` and ``reach``
    follows ``edge`` facts from ``n0`` to ``n<depth>``; with ``flip`` the
    founder of chain 0 is the fact ``start(C0,a).`` instead. Guess/check:
    each of ``guess`` path nodes is ``in`` or ``out``, ``both`` joins
    adjacent ``in`` nodes, a constraint forbids ``both``, and ``lone``
    holds for nodes not ``in`` (a negated body literal).
    """
    lines = []
    for c in range(chains):
        cn = names("c", c, 2)
        lines.append(f"start({cn},a)." if c == 0 and flip else f"start({cn},a) | start({cn},b).")
        for i in range(depth):
            lines.append(f"edge({cn},{names('n', i)},{names('n', i + 1)}).")
    lines.append(f"reach(C,{names('n', 0)}) :- start(C,a).")
    lines.append(f"reach(C,{names('n', 0)}) :- start(C,b).")
    lines.append("reach(C,Y) :- reach(C,X), edge(C,X,Y).")
    if guess:
        for v in range(guess):
            lines.append(f"node({names('v', v, 2)}).")
        for v in range(guess - 1):
            lines.append(f"link({names('v', v, 2)},{names('v', v + 1, 2)}).")
        lines.append("in(X) | out(X) :- node(X).")
        lines.append("both(X,Y) :- in(X), link(X,Y), in(Y).")
        lines.append("lone(X) :- node(X), not in(X).")
        lines.append(":- both(X,Y).")
    return "\n".join(lines) + "\n"


def goal(names, kind, chains, depth):
    """A query over a ``chains_program`` and the answer it must get,
    as ``(query text, inferred?)``.

    Every chain's end ``reach(C,n<depth>)`` holds in every model, whichever
    founder is chosen; ``start(C0,a)`` holds only in some; a guessed node
    is ``in`` or ``out`` but neither in all models; the constraint makes
    ``both`` false everywhere.
    """
    end = f"reach({names('c', chains - 1, 2)},{names('n', depth)})"
    end0 = f"reach({names('c', 0, 2)},{names('n', depth)})"
    founder = f"start({names('c', 0, 2)},a)"
    v0, v1 = names("v", 0, 2), names("v", 1, 2)
    return {
        "reach": (end, True),
        "end": (end, True),
        "end0": (end0, True),
        "no_reach": (f"!{end}", False),
        "not_end": (f"-{end}", False),
        "not_end0": (f"-{end0}", False),
        "founder": (founder, False),
        "end_or_founder": (f"{end} | {founder}", True),
        "end_and_founder": (f"{end} & {founder}", False),
        "guess_or": (f"in({v0}) | out({v0})", True),
        "guess_in": (f"in({v0})", False),
        "no_both": (f"!both({v0},{v1})", True),
    }[kind]


def answer_text(inferred):
    return "inferred" if inferred else "not inferred"


def cycles(seconds, rate, per_cycle):
    """Whole cycles of ``per_cycle`` ops that fill ``seconds`` at ``rate``."""
    return max(1, round(seconds * rate / per_cycle))


def shuffled_cycles(items, n, rng):
    """``n`` copies of ``items``, each in its own seeded order. Any prefix
    of whole cycles has the same composition for every seed."""
    out = []
    for _ in range(n):
        batch = list(items)
        rng.shuffle(batch)
        out += batch
    return out


def traced_prefix(n_ops, cycle_ops):
    """How many leading ops a traced replay covers: the first quarter of
    the whole cycles, at least one."""
    return cycle_ops * max(1, n_ops // cycle_ops // 4)


def cli_plan(seed, seconds):
    """cli_ground: one fresh program per op.

    Returns a list of ops ``{"source", "semantics", "formula", "expect",
    "cls"}``: every (shape, class) pair once per cycle, in seeded order.
    """
    combos = [(shape, cls) for shape in CLI_SHAPES for cls in CLI_CLASSES]
    n = cycles(seconds, CLI_OPS_PER_S, len(combos))
    ops = []
    for (chains, depth, guess), (sem, kind) in shuffled_cycles(
            combos, n, rng_for(seed, "cli", "order")):
        names = Names(rng_for(seed, "cli", len(ops)))
        formula, inferred = goal(names, kind, chains, depth)
        ops.append({
            "source": chains_program(names, chains, depth, guess),
            "semantics": sem,
            "formula": formula,
            "expect": answer_text(inferred),
            "cls": f"{chains}x{depth}x{guess}/{sem}/{kind}",
        })
    return ops


def catalog(seed):
    """The sealed serve catalog: ``[(name, source, names, shape)]``."""
    entries = []
    for i, (chains, depth) in enumerate(HOT_SHAPES):
        names = Names(rng_for(seed, "hot", i))
        entries.append((f"hot{i}", chains_program(names, chains, depth), names, (chains, depth)))
    return entries


def hot_keys(entries):
    """Every (entry, class) key as a wire request plus its answer."""
    keys = []
    for name, _, names, (chains, depth) in entries:
        for sem, fieldname, kind in HOT_CLASSES:
            query, inferred = goal(names, kind, chains, depth)
            keys.append({
                "request": {"op": "query", "db": name, "semantics": sem, fieldname: query},
                "expect": answer_text(inferred),
                "cls": f"{name}/{sem}/{kind}",
            })
    return keys


def hot_plan(seed, seconds, entries):
    """serve_hot: cycles of every key once, each cycle in seeded order.
    Connection ``k`` of ``n`` takes ops ``k::n``."""
    keys = hot_keys(entries)
    n = cycles(seconds, HOT_OPS_PER_S, len(keys))
    return shuffled_cycles(keys, n, rng_for(seed, "hot", "order"))


def churn_plan(seed, seconds, entries):
    """serve_churn: rounds of (load, query the loaded entry) on one
    connection beside ``READS_PER_ROUND`` hot reads on the other.

    Round ``r`` overwrites client entry ``r % CHURN_ENTRIES``; successive
    versions of an entry alternate between founding chain 0 with a fact
    and with a disjunction, so ``start(C0,a)`` flips between inferred and
    not inferred and a stale read is a wrong answer. Returns
    ``(rounds, reads)``: each round is ``(load op, query op)``, and round
    ``r`` reads ``reads[r*READS_PER_ROUND:(r+1)*READS_PER_ROUND]``.
    """
    chains, depth = CHURN_SHAPE
    keys = hot_keys(entries)
    copies, rest = divmod(CHURN_CYCLE_ROUNDS * READS_PER_ROUND, len(keys))
    assert rest == 0, "a churn cycle must read every hot key equally often"
    n_cycles = cycles(seconds, CHURN_ROUNDS_PER_S, CHURN_CYCLE_ROUNDS)
    n = n_cycles * CHURN_CYCLE_ROUNDS
    rounds = []
    for r in range(n):
        entry = f"tenant{r % CHURN_ENTRIES}"
        flip = (r // CHURN_ENTRIES) % 2 == 0
        names = Names(rng_for(seed, "churn", r))
        source = chains_program(names, chains, depth, flip=flip)
        load = {
            "request": {"op": "load", "db": entry, "source": source, "overwrite": True},
            "expect": f"loaded `{entry}`",
            "cls": "load",
        }
        founder, _ = goal(names, "founder", chains, depth)
        sem = CHURN_SEMANTICS[r % CHURN_CYCLE_ROUNDS % len(CHURN_SEMANTICS)]
        query = {
            "request": {"op": "query", "db": entry, "semantics": sem, "literal": founder},
            "expect": answer_text(flip),
            "cls": f"churn/{sem}/{'fact' if flip else 'or'}",
        }
        rounds.append((load, query))
    reads = shuffled_cycles(keys * copies, n_cycles, rng_for(seed, "churn", "reads"))
    return rounds, reads
