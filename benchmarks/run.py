#!/usr/bin/env python3
"""Benchmark for matspan: four workloads, one caller, one operation at a time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verdict-ext, span-dim-large, analyze-cli, selftest, or
``all`` to run each of them in its own process.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A readable summary goes to
standard error.  See README.md in this directory.

A run is a sequence of whole rounds and stops after the first round that
brings the summed operation time to S seconds (with ``--trace 1``, summed
over the three passes a round then makes), and, without tracing, not
before the second round.  Each round imports
matspan afresh, so its memo caches and field registries start empty,
builds that round's inputs with the program's generators, runs every
operation once, then checks every answer against ``oracle.py``, outside
the timed region.  The set-up time is taken apart from that, in fresh
interpreters (``setup_child.py``), so that it covers the whole cold
``import matspan``.

Every operation time and set-up time is scaled to a reference speed: a
helper process (``reference.py``) times a fixed pure-Python loop right
before and right after it, and the time is multiplied by ``REF_S`` over
the mean of those samples.  The host's speed drifts by 15-30% over
seconds and minutes; scaled, the times of one operation drift far less.
The measured times are in the ``summary`` line too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import setup_child
import tracer
from reference import REF_S

# Users run matspan from compiled bytecode.  Write it on the first import
# and read it afterwards, here and in child processes, whatever
# PYTHONDONTWRITEBYTECODE says, so that set-up and start-up times do not
# depend on that setting.
sys.dont_write_bytecode = False

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
TRACE_DIR = ROOT / ".bench_traces"

# Untraced runs make at least this many rounds, so that even selftest (one
# round is about 15 s) has two samples of each operation.
MIN_ROUNDS = 2
SETUP_CHILDREN = 5    # cold set-ups timed in each of the first MIN_ROUNDS rounds
STARTUP_REPS = 5      # fresh interpreters timed for cli.startup_s
CHILD_TIMEOUT_S = 120
# Reference loop samples are taken before and after every timed operation,
# at least one each time, and after an operation as many as add up to this
# share of its time (see reference.py).
REF_SHARE = 0.1

SUITES = (
    "theorem-exhaustive-gf2", "theorem-sampled", "shift-example", "pbh-random",
    "squarefree-dimension", "irreducible-criterion", "cardinality-grid",
    "outer-fibers", "commutator-gf3", "commutator-gf2", "combination-consistency",
)
# Suites reseeded from --seed.  squarefree-dimension keeps its fixed seed:
# other seeds can draw a splitting field whose canonical modulus takes
# hours to find (see CHANGES.md).
RESEEDED = ("theorem-sampled", "pbh-random", "combination-consistency")

PER_LAYER = (
    ("matrices.rank.calls", "count"),
    ("matrices.rank.self_s", "s"),
    ("span.products_matrix.self_s", "s"),
    ("matrices.matmul.calls", "count"),
    ("fields.mul.calls", "count"),
    ("fields.inv.calls", "count"),
    ("matrices.eigen_data.self_s", "s"),
    ("polys.factor.calls", "count"),
    ("polys.factor.self_s", "s"),
    ("polys.embed.calls", "count"),
    ("polys.embed.self_s", "s"),
    ("span.coupling_condition.self_s", "s"),
    ("polys.smallest_irreducible.calls", "count"),
    ("polys.smallest_irreducible.self_s", "s"),
    ("polys.canonical_field.calls", "count"),
    ("matrices.charpoly.hit_ratio", "ratio"),
    ("matrices.minpoly.hit_ratio", "ratio"),
    ("matrices.eigen_data.hit_ratio", "ratio"),
    ("span.pbh_test.self_s", "s"),
    ("counting.enumerate_products.self_s", "s"),
) + tuple((f"verify.{name}.elapsed_s", "s") for name in SUITES) + (
    ("cli.startup_s", "s"),
    ("instances.parse_instance.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class WrongAnswer(Exception):
    """The program returned an answer that a check rejects."""


# -- program state ----------------------------------------------------------


def fresh_matspan():
    """Import matspan from src/ as if for the first time."""
    for name in [n for n in sys.modules if n == "matspan" or n.startswith("matspan.")]:
        del sys.modules[name]
    return importlib.import_module("matspan")


def coeff_rows(mat):
    """A matspan matrix as rows of coefficient tuples."""
    return [[e.coeffs for e in mat.row(i)] for i in range(mat.rows)]


class Picker:
    """Chooses generator seeds for input slots.

    A slot fixes the generator, field, shape and, where the generator does
    not, the degree over F_p of the common splitting field of A and B.
    The run seed picks the matrices: candidate generator seeds are drawn
    from it until the splitting degree, computed by oracle.py, matches.
    Uses an import of its own, so the timed rounds start cold.
    """

    def __init__(self):
        self.ms = fresh_matspan()

    def pick(self, rng, kind, p, m, n, degree):
        field = self.ms.canonical_field(p, 1)
        for _ in range(20000):
            gseed = rng.randrange(1 << 31)
            if degree is None:
                return gseed
            inst = setup_child.generator(self.ms, kind)(field, m, n, gseed)
            got = math.lcm(*(oracle.splitting_degree(
                [[x[0] for x in row] for row in coeff_rows(mat)], p)
                for mat in (inst.a, inst.b)))
            if got == degree:
                return gseed
        raise RuntimeError(f"no {kind} {m}x{n} instance over GF({p}) "
                           f"with splitting degree {degree}")


# -- checks shared by the verdict workloads -------------------------------------


def check_verdict(kind, field, a, b, s, got, witness):
    """Check one span verdict.  field is an oracle.ExtField; a, b, s are rows
    of its elements; got holds span_dim, spans_full, a_cyclic, b_cyclic and
    consistency_ok; witness is None or (dst field, alpha, beta, u, v, value)."""
    m, n = len(a), len(b)
    want = oracle.products_rank(field, a, b, s)
    if got["span_dim"] != want:
        raise WrongAnswer(f"span_dim {got['span_dim']}, independent rank {want}")
    if got["spans_full"] != (want == m * n):
        raise WrongAnswer(f"spans_full {got['spans_full']} with rank {want} of {m * n}")
    if not got["consistency_ok"]:
        raise WrongAnswer("the rank and criterion routes disagree")
    s_nonzero = any(any(x) for row in s for x in row)
    if kind == "irreducible-pair" and math.gcd(m, n) == 1 and s_nonzero \
            and not got["spans_full"]:
        raise WrongAnswer("coprime irreducible pair with S != 0 does not span")
    if kind == "random-cyclic" and not (got["a_cyclic"] and got["b_cyclic"]):
        raise WrongAnswer("companion matrices reported as not cyclic")
    if witness is not None:
        try:
            oracle.check_witness(field, a, b, s, *witness)
        except oracle.CheckFailed as exc:
            raise WrongAnswer(str(exc)) from exc


def _ext(field):
    return oracle.ExtField(field.p, field.modulus)


# -- workloads ---------------------------------------------------------------


class Workload:
    """plan() picks a round's inputs as plain data, which
    setup_child.build turns into program objects; call() is one timed
    operation and check() judges its answer."""

    def may_fail(self, ms, item, exc):
        """Whether exc is this operation's known, counted failure."""
        return False


class VerdictExt(Workload):
    """span_verdict on triples whose splitting fields are proper extensions."""

    name = "verdict-ext"
    # (generator, p, m, n, splitting degree over F_p).  The slots cost from
    # 2 ms to 0.6 s.  Within a field, the first slot that needs an
    # extension pays to build it.
    SLOTS = (
        ("irreducible-pair", 2, 3, 4, 12),
        ("random-cyclic", 2, 4, 4, 6),
        ("random", 2, 4, 5, 15),
        ("random", 2, 3, 3, 2),
        ("irreducible-pair", 3, 2, 3, 6),
        ("random-cyclic", 3, 3, 4, 6),
        ("random", 3, 3, 3, 6),
        ("irreducible-pair", 3, 2, 5, 10),
        ("irreducible-pair", 3, 4, 4, 4),
        ("irreducible-pair", 5, 2, 3, 6),
        ("random", 5, 4, 4, 4),
        ("random-cyclic", 5, 4, 4, 4),
        ("irreducible-pair", 5, 4, 4, 4),
        ("irreducible-pair", 5, 2, 2, 2),
        ("random-cyclic", 5, 4, 4, 4),
        ("irreducible-pair", 5, 4, 2, 4),
        ("irreducible-pair", 5, 2, 4, 4),
        ("irreducible-pair", 7, 4, 4, 4),
        ("random-cyclic", 7, 3, 3, 6),
        ("random", 7, 2, 2, 2),
        ("irreducible-pair", 7, 2, 3, 6),
        ("irreducible-pair", 7, 3, 3, 3),
    )
    # (generator, p, m, n, generator seed): the same four triples in every
    # round and run; each raises Overflow because one splitting field for
    # all factors of both characteristic polynomials exceeds 2^31
    FAILING = (
        ("random", 65521, 2, 2, 0),
        ("random", 65521, 2, 2, 1),
        ("random", 101, 3, 3, 1),
        ("random", 101, 2, 3, 3),
    )

    def plan(self, picker, rng):
        specs = [(kind, p, m, n, picker.pick(rng, kind, p, m, n, d), False)
                 for kind, p, m, n, d in self.SLOTS]
        return specs + [(kind, p, m, n, g, True) for kind, p, m, n, g in self.FAILING]

    def call(self, ms, item, mode):
        inst = item[1]
        return ms.span_verdict(inst.a, inst.b, inst.s)

    def may_fail(self, ms, item, exc):
        return item[0][5] and isinstance(exc, ms.errors.Overflow)

    def check(self, item, rep, memo):
        spec, inst = item
        field = _ext(inst.field)
        wit = rep.witness
        witness = None if wit is None else (
            _ext(wit.u.field), wit.alpha.coeffs, wit.beta.coeffs,
            [e.coeffs for e in wit.u.entries], [e.coeffs for e in wit.v.entries],
            wit.value_uSv.coeffs)
        check_verdict(spec[0], field, coeff_rows(inst.a), coeff_rows(inst.b),
                      coeff_rows(inst.s), vars(rep), witness)


class SpanDimLarge(Workload):
    """span_dimension on random triples with mn from 64 to 144."""

    name = "span-dim-large"
    # (p, m, n)
    SLOTS = ((2, 8, 8), (3, 8, 8), (65521, 8, 8),
             (3, 10, 10), (101, 8, 10), (101, 9, 9), (65521, 8, 10), (2, 10, 12),
             (101, 8, 12), (2, 12, 12), (65521, 10, 10))

    def plan(self, picker, rng):
        return [(p, m, n, rng.randrange(1 << 31)) for p, m, n in self.SLOTS]

    def call(self, ms, item, mode):
        inst = item[1]
        return ms.span_dimension(inst.a, inst.b, inst.s)

    def check(self, item, dim, memo):
        spec, inst = item
        if spec not in memo:
            memo[spec] = oracle.products_rank(
                _ext(inst.field), coeff_rows(inst.a), coeff_rows(inst.b),
                coeff_rows(inst.s))
        if dim != memo[spec]:
            raise WrongAnswer(f"span dimension {dim}, independent rank {memo[spec]}")


class AnalyzeCli(Workload):
    """One `python -m matspan.cli analyze FILE --json` process per operation."""

    name = "analyze-cli"
    # (generator, p, extension degree of the instance field, m, n,
    #  splitting degree over F_p or None when the generator fixes it, S = 0)
    SLOTS = (
        ("irreducible-pair", 2, 1, 3, 4, None, False),
        ("random-cyclic", 3, 1, 3, 3, 3, False),
        ("random", 5, 1, 3, 3, 6, False),
        ("random", 101, 1, 2, 2, 2, False),
        ("irreducible-pair", 7, 1, 4, 4, None, False),
        ("irreducible-pair", 2, 8, 2, 1, None, False),
        ("shift-example", 3, 2, 3, 3, None, True),
        ("irreducible-pair", 5, 2, 2, 1, None, False),
        ("random", 2, 1, 3, 3, 2, False),
        ("random-cyclic", 7, 1, 2, 2, 2, False),
        ("shift-example", 2, 4, 3, 2, None, False),
    )

    def plan(self, picker, rng):
        return [slot[:5] + (picker.pick(rng, slot[0], slot[1], slot[3], slot[4], slot[5]),
                            slot[6])
                for slot in self.SLOTS]

    def call(self, ms, item, mode):
        path = Path(item[1])
        if mode == "plain":
            cmd = [sys.executable, "-m", "matspan.cli"]
        else:
            out = path.with_suffix(f".{mode}.json")
            cmd = [sys.executable, str(HERE / "cli_child.py"), mode, str(out)]
        return subprocess.run(cmd + ["analyze", str(path), "--json"],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)

    def child_record(self, item, mode):
        """What a traced child wrote (see cli_child.py)."""
        out = Path(item[1]).with_suffix(f".{mode}.json")
        return json.loads(out.read_text(encoding="utf-8"))

    def check(self, item, proc, memo):
        try:
            self.check_output(item, proc)
        except (ValueError, KeyError, TypeError, oracle.CheckFailed) as exc:
            raise WrongAnswer(f"exit {proc.returncode}, malformed verdict "
                              f"({type(exc).__name__}: {exc}): {proc.stdout[-300:]!r} "
                              f"{proc.stderr.strip()[-300:]}") from exc

    def check_output(self, item, proc):
        spec, _, obj = item
        out = json.loads(proc.stdout)
        want_rc = 0 if out["spans_full"] else 1
        if proc.returncode != want_rc:
            raise WrongAnswer(f"exit code {proc.returncode} but spans_full is "
                              f"{out['spans_full']}")
        fobj = out["field"]
        field = oracle.ExtField(fobj["p"], fobj.get("modulus"))
        if fobj["p"] != spec[1] or field.degree != spec[2]:
            raise WrongAnswer(f"echoed field {fobj} is not the instance field")
        a, b, s = ([[field.elem(x) for x in row] for row in obj[key]]
                   for key in ("A", "B", "S"))
        wit = out["witness"]
        witness = None
        if wit is not None:
            dst = oracle.ExtField(wit["field"]["p"], wit["field"].get("modulus"))
            witness = (dst, dst.elem(wit["alpha"]), dst.elem(wit["beta"]),
                       [dst.elem(x) for x in wit["u"]], [dst.elem(x) for x in wit["v"]],
                       dst.elem(wit["value_uSv"]))
        check_verdict(spec[0], field, a, b, s, out, witness)


class Selftest(Workload):
    """Every suite of matspan.verify through run_suite, one per operation."""

    name = "selftest"

    def plan(self, picker, rng):
        return [(name, rng.randrange(1 << 31) if name in RESEEDED else None)
                for name in SUITES]

    def call(self, ms, item, mode):
        return ms.run_suite(item[0], seed=item[1])

    def check(self, item, result, memo):
        if result.gating and not result.passed:
            raise WrongAnswer(f"gating suite {result.name} failed: {result.detail}")


WORKLOADS = {w.name: w for w in (VerdictExt(), SpanDimLarge(), AnalyzeCli(), Selftest())}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# -- the measuring loop ------------------------------------------------------


class Pass:
    """Timings and counts of one kind of pass over the rounds of a run.
    Operation times are scaled to the reference speed (see reference.py)."""

    def __init__(self):
        self.op_s = []          # every attempted operation
        self.ok = []            # (item[0], seconds) of each operation checked correct
        self.raw_s = []         # every attempted operation, as measured
        self.ref_s = []         # every reference() sample
        self.ops = []           # (slot, measured seconds, speed) of every attempted operation
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.cache = {}

    @property
    def ok_s(self):
        return [seconds for _, seconds in self.ok]

    def ops_per_s(self):
        return len(self.ok) / sum(self.op_s)

    def speed(self):
        """How much faster than the reference host this host ran the pass."""
        return REF_S / statistics.fmean(self.ref_s)


class Reference:
    """The helper process of reference.py, which times a fixed loop on
    request, one request at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def samples(self, owed):
        """Seconds of each loop run: at least one, and as many as add up to
        owed seconds."""
        self.proc.stdin.write(f"{owed!r}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def cold_setups(wl, specs, workdir, setups, ref):
    """Time SETUP_CHILDREN set-ups of a round, each in a fresh interpreter,
    scaled to the reference speed as operations are."""
    setup_dir = workdir / "setup"
    cmd = [sys.executable, str(HERE / "setup_child.py"), wl.name, str(setup_dir)]
    cmd += [setup_child.encode(spec) for spec in specs]
    ref_before = ref.samples(0.0)
    for _ in range(SETUP_CHILDREN):
        shutil.rmtree(setup_dir, ignore_errors=True)
        setup_dir.mkdir(parents=True)
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        seconds = float(out.stdout)
        ref_after = ref.samples(REF_SHARE * seconds)
        setups.append(seconds * REF_S / statistics.fmean(ref_before + ref_after))
        ref_before = ref_after
    shutil.rmtree(setup_dir, ignore_errors=True)


def run_pass(wl, specs, workdir, mode, stats, rec, memo, ref):
    """Import matspan afresh and build the inputs, then run every
    operation once in the given mode and check it."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    ms = fresh_matspan()
    items = setup_child.build(ms, wl.name, specs, workdir)
    counts = None
    if mode == "spans":
        rec.install()
        before = tracer.cache_counts()
    elif mode == "counts":
        counts = tracer.install_counters()
    done = []
    ref_before = ref.samples(0.0)
    for slot, item in enumerate(items):
        rec.op += 1
        with rec.span("op") if mode == "spans" else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                res, exc = wl.call(ms, item, mode), None
            except Exception as e:  # judged below, outside the timed region
                res, exc = None, e
            elapsed = time.perf_counter() - start
            if mode != "plain" and exc is None and hasattr(wl, "child_record"):
                record = wl.child_record(item, mode)
                if mode == "spans":
                    rec.absorb(record)
                else:
                    for key, value in record["counts"].items():
                        counts[key] += value
        ref_after = ref.samples(REF_SHARE * elapsed)
        speed = REF_S / statistics.fmean(ref_before + ref_after)
        stats.ref_s += ref_before
        ref_before = ref_after
        done.append((item, res, exc, elapsed, speed))
        stats.ops.append((slot, elapsed, speed))
    stats.ref_s += ref_before
    results = []
    for item, res, exc, elapsed, speed in done:
        stats.attempted += 1
        stats.raw_s.append(elapsed)
        stats.op_s.append(elapsed * speed)
        if exc is not None:
            if not wl.may_fail(ms, item, exc):
                raise WrongAnswer(f"{item[0]} raised {type(exc).__name__}: {exc}") from exc
            stats.failed += 1
        else:
            results.append((item, res, elapsed * speed))
    if mode == "spans":
        for key, (hits, misses) in tracer.cache_delta(before, tracer.cache_counts()).items():
            h, m = stats.cache.get(key, (0, 0))
            stats.cache[key] = (h + hits, m + misses)
    if counts is not None:
        for key, value in counts.items():
            stats.counts[key] = stats.counts.get(key, 0) + value
    for item, res, elapsed in results:
        wl.check(item, res, memo)
        stats.ok.append((item[0], elapsed))


def measure(wl, seed, seconds, trace, plain, spans, counts, rec, setups):
    """Run whole rounds into the given passes; returns the number of rounds."""
    workdir = RUN_DIR / f"{wl.name}-{os.getpid()}"
    picker = Picker()
    ref = Reference()
    round_no = 0
    try:
        while True:
            rng = random.Random(f"{wl.name}/{seed}/{round_no}")
            specs = wl.plan(picker, rng)
            memo = {}
            if not trace and round_no < MIN_ROUNDS:
                cold_setups(wl, specs, workdir, setups, ref)
            run_pass(wl, specs, workdir, "plain", plain, rec, memo, ref)
            if trace:
                run_pass(wl, specs, workdir, "spans", spans, rec, memo, ref)
                run_pass(wl, specs, workdir, "counts", counts, rec, memo, ref)
            round_no += 1
            measured = sum(plain.raw_s) + sum(spans.raw_s) + sum(counts.raw_s)
            if measured >= seconds and (trace or round_no >= MIN_ROUNDS):
                break
    finally:
        ref.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()  # only when no other run is using it
    return round_no


def end_to_end(wl, plain, setups):
    if wl.name == "analyze-cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": plain.ops_per_s(), "unit": "1/s"},
        "op_ms_geomean": {"value": statistics.geometric_mean(plain.ok_s) * 1000,
                          "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def cli_startup_s():
    code = ("import time; t = time.perf_counter(); import matspan.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(STARTUP_REPS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, cwd=ROOT, env=child_env(), check=True,
                             timeout=CHILD_TIMEOUT_S)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def per_layer(wl, plain, spans, counts, rec):
    ops = spans.attempted
    totals = rec.totals()
    values = {}
    for name, _ in PER_LAYER:
        layer, what = name.rsplit(".", 1)
        if what == "calls" and layer in counts.counts:
            values[name] = counts.counts[layer] / counts.attempted
        elif what == "calls":
            values[name] = totals.get(layer, (0, 0))[0] / ops
        elif what == "self_s":
            values[name] = totals.get(layer, (0, 0))[1] / 1e9 / ops
        elif what == "hit_ratio":
            hits, misses = spans.cache.get(layer, (0, 0))
            ch, cm = rec.child_cache.get(layer, (0, 0))
            hits, misses = hits + ch, misses + cm
            values[name] = hits / (hits + misses) if hits + misses else 0.0
        elif what == "elapsed_s":  # selftest items start with the suite name
            samples = [t for key, t in plain.ok if key == layer.split(".", 1)[1]]
            values[name] = statistics.fmean(samples) if samples else 0.0
    values["cli.startup_s"] = cli_startup_s()
    values["trace.overhead_ratio"] = plain.ops_per_s() / spans.ops_per_s()
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def run_one(args):
    if not (SRC / "matspan" / "__init__.py").is_file():
        print(f"error: no matspan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    started = time.perf_counter()
    plain, spans, counts = Pass(), Pass(), Pass()
    rec = tracer.SpanRecorder()
    setups = []
    try:
        rounds = measure(wl, args.seed, args.seconds, args.trace,
                         plain, spans, counts, rec, setups)
    except WrongAnswer:
        traceback.print_exc()
        failing = spans if args.trace and spans.attempted else plain
        print(json.dumps({"correct": False, "attempted": failing.attempted,
                          "failed": failing.failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics = per_layer(wl, plain, spans, counts, rec)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{wl.name}-seed{args.seed}.tsv"
        rec.write_tsv(trace_path)
        timed = spans
    else:
        metrics = end_to_end(wl, plain, setups)
        timed = plain
    summary = {
        "workload": wl.name, "seed": args.seed, "rounds": rounds,
        "wall_s": time.perf_counter() - started,
        "op_ms": sorted(round(x * 1000, 3) for x in timed.ok_s),
        "setup_s": setups,
        "speed": timed.speed(),
        "raw_ops_per_s": len(timed.ok) / sum(timed.raw_s),
        "ops": [(k, round(t * 1000, 3), round(v, 4)) for k, t, v in timed.ops],
    }
    for name, m in metrics.items():
        print(f"{wl.name:15s} {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        print(f"spans written to {trace_path}", file=sys.stderr)
    print("summary " + json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": timed.attempted,
                      "failed": timed.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; one JSON line keyed by workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
        if results[name] is None:
            continue
        res = results[name]
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}", file=sys.stderr)
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
