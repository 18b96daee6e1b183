"""gglab benchmark: instance-to-verdict time, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; gglab is imported from ``src/``.

One op takes one generated instance document through the public API:
``load_instance_dict`` -> ``run_suite(scope="all")`` ->
``VerificationReport.to_json``.  Load is a closed loop: one process, one
client, one op at a time.  A run is made of whole passes over the
workload's documents (see ``workloads.py``), each pass in an order drawn
from the seed.  It ends at the first pass boundary after ``--seconds``
have elapsed, but not before MIN_PASSES passes: with every document seen
at least eleven times, the ten ops beyond the tail percentile all come
from the slowest document, so the tail does not jump between documents
from run to run.  With 25 seconds the pass floor binds only on
``rational`` (about 2 s a pass at the reference speed), and only when the
host runs slow: on the host named below its runs measured 26-37 s.

``instances_per_s`` is ops per second of op time at the reference host
speed (below): the ops divided by the sum of their scaled times.  It
leaves out the benchmark's own work between ops (the collection, the
calibration brackets and the report check), which is not the program's.

Every op is checked: it must not raise, its report must list the checks
of the stored reference table with no violation, every verdict must agree
with that table (a stored ``inconclusive`` also accepts a decided
``pass`` or ``skip``), and its JSON must equal that of the first op on the
same document.

Host speed.  A shared host can change speed under a run: on the 2-vCPU
Xeon (2.1 GHz) virtual machine this benchmark was built on, a fixed
pure-Python loop alternates between about 1.15 ms and 2.1 ms every few
seconds, on either CPU, and raw medians of identical runs differ by up to
35%.  So every op is bracketed by that fixed loop (``calibration_s``,
best of three before the op and after it), and a SIGALRM every TICK_S
seconds times it once more inside the op, so that a change of speed in
the middle of a long op is seen (``Speedometer``).  The op's times, less
the time those in-op readings took, are scaled by
REFERENCE_CALIBRATION_S / (the mean of all its readings).  Times are thus reported
at a reference host speed: plain seconds on that host when it is quiet,
and on other hardware off by a constant factor, the same for every run and
commit.  Set-up probes are scaled by their brackets.  The unscaled figures are
kept in the result file.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the workload untraced and then traced (see
``tracing.py``) and prints the per-layer metrics.  The last line of
standard output is the result as one JSON object; the full result, with
the run environment, and the spans of a traced run are written to
``perfbench/out/``.  ``compare.py`` sets results side by side.

``reference.json`` is committed data: a change that means to change a
verdict edits its entry by hand, so the change shows in the diff.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
MIN_PASSES = 11
TRACE_PASSES = 2
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
TICK_S = 0.1
REFERENCE_CALIBRATION_S = 1.15e-3  # calibration_s() on the quiet host named above
# the cheapest document of each workload, run once as the warm-up op
WARMUP = {"builtins": "trivial", "klein_p": "klein_m2f5", "objects": "pair_f5x2", "rational": "pair_q"}


def calibration_s(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of a fixed pure-Python elimination loop."""
    best = float("inf")
    for _ in range(repeats):
        rows = [[(i * 7 + j * 13) % 101 for j in range(24)] for i in range(24)]
        t0 = time.perf_counter()
        for r in range(24):
            for i in range(24):
                f = rows[i][r]
                rows[i] = [(a - f * b) % 101 for a, b in zip(rows[i], rows[r])]
        best = min(best, time.perf_counter() - t0)
    return best


class Api:
    """The gglab modules an op goes through, looked up at call time so
    that the tracer's wrappers are seen."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            import gglab
        except ImportError as e:
            raise SystemExit(f"cannot import gglab from {src}: {e}") from None
        if Path(gglab.__file__).resolve().parent != src / "gglab":
            raise SystemExit(f"gglab was imported from {gglab.__file__}, not from {src}")
        self.gglab = gglab
        self.instances = sys.modules["gglab.instances"]
        self.suite = sys.modules["gglab.suite"]

    def op(self, text: str) -> tuple[float, float, float, str]:
        """(start, end of load, end, report JSON) for one document."""
        doc = json.loads(text)
        t0 = time.perf_counter()
        inst = self.instances.load_instance_dict(doc)
        t1 = time.perf_counter()
        out = self.suite.run_suite(inst, scope="all").to_json()
        return t0, t1, time.perf_counter(), out


class Speedometer:
    """Readings of ``calibration_s`` taken inside an op, one every TICK_S
    seconds from a SIGALRM handler in the op's own thread.  They take about
    1% of the op; in a traced run that time also falls inside the spans."""

    def __init__(self):
        self.readings: list[float] = []
        self.ticks: list[tuple[float, float]] = []  # (start, seconds the reading took)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(calibration_s(repeats=1))
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Speedometer":
        self.readings, self.ticks = [], []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end, less the readings taken in between."""
        return end - start - sum(d for t, d in self.ticks if start <= t < end)


def reference_speed(seconds: float, bracket: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / bracket


def setup(workload: str) -> tuple[tuple[float, float], Api, dict[str, str]]:
    """Import gglab, generate the documents and run the warm-up op.

    Returns (set-up seconds, calibration bracket), the API and the documents.
    """
    before = calibration_s()
    t0 = time.perf_counter()
    api = Api()
    texts = workloads.documents(workload)
    api.op(texts[WARMUP[workload]])
    elapsed = time.perf_counter() - t0
    return (elapsed, (before + calibration_s()) / 2), api, texts


def setup_probe(workload: str) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, as a user pays it."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    elapsed, bracket = done.stdout.split()
    return float(elapsed), float(bracket)


def cross_check(api: Api) -> None:
    """The benchmark's generators must reproduce the shipped builders."""
    for name, text in workloads.documents("builtins").items():
        if text != api.instances.emit_instance(api.instances.builtin(name)):
            raise SystemExit(f"generated {name} differs from gglab's builtin {name}")


def environment(api: Api) -> dict:
    return {
        "backend": api.gglab.BACKEND,
        "fastrref_imported": "gglab._fastrref" in sys.modules,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "GG_LAB_CAPS": os.environ.get("GG_LAB_CAPS"),
        "GG_LAB_PURE": os.environ.get("GG_LAB_PURE"),
    }


class Checker:
    """Judges each op's report against the reference table."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, tuple[str, str | None]] = {}
        self.problems: list[str] = []

    def judge(self, name: str, out: str) -> str | None:
        if name in self.first:
            first, problem = self.first[name]
            return problem if out == first else "report differs from the first op on this document"
        problem = self._against_reference(name, json.loads(out))
        self.first[name] = (out, problem)
        return problem

    def _against_reference(self, name: str, rep: dict) -> str | None:
        want = self.reference.get(name)
        if want is None:
            return "no reference verdicts for this document"
        got = [(c["check_id"], c["verdict"]) for c in rep["checks"]]
        if [cid for cid, _ in got] != [cid for cid, _ in want]:
            return f"{len(got)} check records, want the {len(want)} of the reference"
        if rep["violations"]:
            return f"{rep['violations']} violations"
        for (cid, verdict), (_, ref) in zip(got, want):
            agree = verdict == ref or (ref == "inconclusive" and verdict in ("pass", "skip"))
            if not agree:
                return f"{cid}: verdict {verdict}, reference {ref}"
        return None

    def decided_share(self) -> float:
        verdicts = [c["verdict"] for out, _ in self.first.values() for c in json.loads(out)["checks"]]
        return sum(v != "inconclusive" for v in verdicts) / len(verdicts)


class Run:
    """Samples of one measured phase; ``op_s`` and ``load_s`` are at the
    reference host speed (see the module docstring)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.wall = 0.0
        self.names: list[str] = []
        self.raw_op_s: list[float] = []
        self.raw_load_s: list[float] = []
        self.brackets: list[float] = []
        self.op_s: list[float] = []
        self.load_s: list[float] = []

    @property
    def ops(self) -> int:
        """Ops that returned a report (an op that raised has no time)."""
        return len(self.raw_op_s)

    def scale(self) -> None:
        self.op_s = [reference_speed(t, b) for t, b in zip(self.raw_op_s, self.brackets)]
        self.load_s = [reference_speed(t, b) for t, b in zip(self.raw_load_s, self.brackets)]

    def tail(self, times: list[float]) -> tuple[float, float]:
        """(op time, percentile) at the highest percentile with at least
        TAIL_BEYOND ops beyond it."""
        if len(times) <= TAIL_BEYOND:
            raise RuntimeError(f"{len(times)} ops are too few for a tail with {TAIL_BEYOND} beyond")
        rank = len(times) - TAIL_BEYOND
        return sorted(times)[rank - 1], 100.0 * rank / len(times)

    def document_medians(self) -> dict[str, float]:
        by_doc: dict[str, list[float]] = {}
        for name, t in zip(self.names, self.op_s):
            by_doc.setdefault(name, []).append(t)
        return {name: statistics.median(ts) for name, ts in sorted(by_doc.items())}


def measure(api, texts, rng, seconds, min_passes, checker, tracer=None) -> Run:
    run = Run()
    meter = Speedometer()
    t_start = time.perf_counter()
    while run.passes < min_passes or time.perf_counter() - t_start < seconds:
        order = list(texts)
        rng.shuffle(order)
        for name in order:
            run.attempted += 1
            gc.collect()  # start every op from the same heap state, outside its time
            before = calibration_s()
            if tracer is not None:
                tracer.record_kernel = run.passes == 0
                tracer.begin_op(run.attempted)
            out = None
            try:
                with meter:
                    t0, t1, t2, out = api.op(texts[name])
            except Exception as e:  # an op that raises is a failed op, not a crash
                problem = f"raised {type(e).__name__}: {e}"
            finally:
                if tracer is not None:
                    tracer.end_op()
            if out is not None:
                run.brackets.append(statistics.fmean([before, *meter.readings, calibration_s()]))
                run.names.append(name)
                run.raw_op_s.append(meter.net(t0, t2))
                run.raw_load_s.append(meter.net(t0, t1))
                problem = checker.judge(name, out)
            if problem:
                run.failed += 1
                checker.problems.append(f"{name}: {problem}")
        run.passes += 1
    run.wall = time.perf_counter() - t_start
    run.scale()
    return run


def end_to_end(run: Run, setups: list[tuple[float, float]], checker: Checker) -> tuple[dict, dict]:
    tail, pct = run.tail(run.op_s)
    setup_s = [reference_speed(elapsed, bracket) for elapsed, bracket in setups]
    metrics = {
        "verdict_s.p50": statistics.median(run.op_s),
        "verdict_s.tail": tail,
        "instances_per_s": run.ops / sum(run.op_s),
        "load_s.p50": statistics.median(run.load_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_share": checker.decided_share(),
    }
    notes = {
        "tail_percentile": pct,
        "ops": run.ops,
        "passes": run.passes,
        "measured_s": run.wall,
        "failed_share": run.failed / run.attempted,
        "document_p50_s": run.document_medians(),
        "unscaled": {
            "verdict_s.p50": statistics.median(run.raw_op_s),
            "verdict_s.tail": run.tail(run.raw_op_s)[0],
            "instances_per_s": run.ops / run.wall,
            "load_s.p50": statistics.median(run.raw_load_s),
            "setup_s": statistics.median(elapsed for elapsed, _ in setups),
        },
        "calibration_s": {"min": min(run.brackets), "median": statistics.median(run.brackets), "max": max(run.brackets)},
        "samples": {"names": run.names, "op_s": run.raw_op_s, "load_s": run.raw_load_s, "brackets": run.brackets},
    }
    return metrics, notes


def per_layer(tracer, workload: str, base: Run, traced: Run, check_ids: list[str], api: Api) -> tuple[dict, dict]:
    from tracing import SPANS, replay, shape_histogram

    idle = tracer.idle_layers(workload)
    if idle:
        raise SystemExit(f"traced run recorded no call in layer(s) {idle} on {workload}")
    calls, layer_self_s = tracer.layers()

    ops = traced.ops
    busy = sum(traced.raw_op_s)
    tot = tracer.totals()
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = tot[name]["calls"] / ops
        out[f"{name}.self_s"] = tot[name]["self_s"] / ops
    for key, value in tracer.counters.items():
        out[key] = value / ops
    candidates, found = tracer.candidates(), tracer.counters["separability.found"]
    out["separability.candidates"] = candidates / ops
    out["separability.useful_ratio"] = found / candidates if candidates else 0.0
    lookups = tot["suite.restriction"]["calls"]
    out["suite.restriction.hit_ratio"] = 1.0 - tot["action.restrict"]["calls"] / lookups if lookups else 0.0
    for cid in check_ids:
        out[f"suite.check.{cid}.s"] = tracer.check_seconds[cid] / ops

    # kernel replay: the rref inputs of the first traced pass (one op per document)
    pure = sys.modules["gglab._purerref"]
    recorded_ops = traced.ops // traced.passes
    kernels = {"kernel.rref_mod": pure.rref_mod, "kernel.rref_frac": lambda m, p: pure.rref_frac(m)}
    replays = {"python": replay(tracer.kernel_calls, kernels) / recorded_ops}
    fast = sys.modules.get("gglab._fastrref")
    if fast is not None:
        kernels["kernel.rref_mod"] = fast.rref_mod
        replays["compiled"] = replay(tracer.kernel_calls, kernels) / recorded_ops
    out["kernel.replay_s"] = replays[api.gglab.BACKEND]
    out["trace.overhead_s"] = statistics.median(traced.op_s) - statistics.median(base.op_s)
    notes = {
        "ops_untraced": base.ops,
        "ops_traced": traced.ops,
        "verdict_s.p50_untraced": statistics.median(base.op_s),
        "verdict_s.p50_traced": statistics.median(traced.op_s),
        "kernel_replay_s_per_op": replays,
        "kernel_shapes": shape_histogram(tracer.kernel_calls),
        "kernel_calls_recorded": len(tracer.kernel_calls),
        "layer_calls_per_op": {layer: c / ops for layer, c in sorted(calls.items())},
        "layer_self_share": {layer: t / busy for layer, t in sorted(layer_self_s.items())},
        "check_share_top": {cid: t / busy for cid, t in tracer.check_seconds.most_common(5)},
    }
    return out, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        elapsed, bracket = setup(args.workload)[0]
        print(repr(elapsed), repr(bracket))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first_setup, api, texts = setup(args.workload)
    cross_check(api)
    reference = json.loads(REFERENCE.read_text())
    checker = Checker(reference)
    rng = random.Random(args.seed)
    env = environment(api)

    if args.trace:
        from tracing import Tracer  # not at the top: it imports numpy, which set-up must pay for

        base = measure(api, texts, rng, args.seconds / 2, TRACE_PASSES, checker)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(api, texts, rng, 0.0, TRACE_PASSES, checker, tracer)
        finally:
            tracer.remove()
        check_ids = [cid for cid, _ in next(iter(reference.values()))]
        values, notes = per_layer(tracer, args.workload, base, traced, check_ids, api)
        wanted = spec["per_layer"]
        attempted, failed = base.attempted + traced.attempted, base.failed + traced.failed
    else:
        setups = [first_setup] + [setup_probe(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        run = measure(api, texts, rng, args.seconds, MIN_PASSES, checker)
        values, notes = end_to_end(run, setups, checker)
        wanted = spec["end_to_end"]
        attempted, failed = run.attempted, run.failed
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, workload=args.workload, seed=args.seed, env=env, notes=notes)
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.npz")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, {failed} failed")
    for problem in checker.problems[:10]:
        print(f"  FAILED {problem}")
    for key, value in notes.items():
        if key != "samples":
            print(f"  {key}: {value}")
    print(f"  env: {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
