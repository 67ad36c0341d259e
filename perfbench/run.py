"""crossing-ledger benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tight_pipe|geom_corpus|render \\
        --seed N --seconds S --trace 0|1

Workloads are closed loops with one caller. ``--trace 0`` reports the
end-to-end metrics, with every time in reference seconds (see
``calibrate``); ``--trace 1`` alternates traced and untraced operations,
reports self time and counts per layer, the tracing overhead, and the growth
of each layer on the tight family. Every run checks the outputs. The run
prints a header, one line per metric with its unit, and as its last line a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``BENCHMARK.json`` gates ``tight_pipe`` and ``render``;
``geom_corpus`` runs the same way but is not gated. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

TIGHT_N = 202  # strict-paper vertex count of the pipe and render inputs
TIMED_HASH_SEED = 0  # PYTHONHASHSEED of every timed CLI process
CAL_REF_S = 0.1  # the calibration task's time on the reference host
CAL_ROUNDS = 40
STARTUP_REPEATS = 5
MIN_OPS = 5
OP_TIMEOUT = 60.0
GROWTH_NS = (102, 202, 402)

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = (
    "generator.generate",
    "interchange.parse",
    "interchange.emit",
    "drawing.build",
    "validate.sanity",
    "validate.homotopy",
    "validate.k_planar",
    "skeleton.extract",
    "segments.decompose",
    "segments.profiles",
    "audit.density",
    "figures.export_svg",
)
COUNTS = {
    "interchange.report_bytes": "bytes",
    "drawing.nodes": "count",
    "drawing.segments": "count",
    "drawing.faces": "count",
    "validate.homotopy_curves": "count",
    "skeleton.conflict_components": "count",
    "skeleton.largest_component": "count",
    "skeleton.budget_refusals": "count",
    "segments.pieces": "count",
    "segments.disconnected_region_errors": "count",
    "figures.svg_bytes": "bytes",
}
PEAK_COUNTS = frozenset({"skeleton.largest_component"})
PER_LAYER = {
    "cli.startup_s": "s",
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    **COUNTS,
    **{f"{layer}_growth": "log-log" for layer in TIMED_LAYERS},
    "tracing.overhead_s": "s",
}


class CheckFailed(Exception):
    """An output of the program is not the known answer."""


# -- processes -----------------------------------------------------------------


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def cli_command(args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), *args]
    return [sys.executable, "-m", "crossing_ledger.cli", *args]


def _finish(proc: subprocess.Popen, stdin: bytes | None = None) -> tuple[bytes, bytes]:
    try:
        return proc.communicate(stdin, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise CheckFailed(f"{proc.args[2:]} did not finish within {OP_TIMEOUT} s")


def _check_exit(name: str, proc: subprocess.Popen, err: bytes) -> None:
    if proc.returncode != 0:
        raise CheckFailed(f"{name} exited {proc.returncode}: {err.decode(errors='replace')[-300:]}")


def _adopt_spans(tracer, err: bytes, parent: int) -> None:
    """Move the spans a traced CLI wrote on stderr into ``tracer``."""
    from traced_cli import SPANS_MARKER

    _, sep, tail = err.rpartition(SPANS_MARKER.encode())
    if not sep:
        raise CheckFailed("traced CLI wrote no spans")
    tracer.adopt(json.loads(tail), parent)


def run_cli(args: list[str], stdin: bytes, hash_seed: int, tracer=None) -> bytes:
    """Stdout of one CLI process fed ``stdin``; a non-zero exit fails the check."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cli_command(args, tracer is not None),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(hash_seed),
    )
    out, err = _finish(proc, stdin)
    end = time.perf_counter()
    _check_exit(args[0], proc, err)
    if tracer is not None:
        _adopt_spans(tracer, err, tracer.record("cli", start, end, parent=0))  # 0: the operation
    return out


def run_pipe(gen_args: list[str], audit_args: list[str], hash_seed: int, tracer=None) -> bytes:
    """``generate | audit`` as two processes joined by an OS pipe; returns audit's stdout."""
    env = child_env(hash_seed)
    traced = tracer is not None
    gen_start = time.perf_counter()
    gen = subprocess.Popen(
        cli_command(gen_args, traced), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    aud_start = time.perf_counter()
    aud = subprocess.Popen(
        cli_command(audit_args, traced),
        stdin=gen.stdout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    gen.stdout.close()
    gen_err: list[bytes] = []
    gen_end: list[float] = []

    def drain_generate():
        gen_err.append(gen.stderr.read())
        gen.wait()
        gen_end.append(time.perf_counter())

    waiter = threading.Thread(target=drain_generate)
    waiter.start()
    try:
        out, aud_err = _finish(aud)
    except BaseException:
        gen.kill()
        raise
    finally:
        waiter.join()
    aud_end = time.perf_counter()
    _check_exit("generate", gen, gen_err[0])
    _check_exit("audit", aud, aud_err)
    if traced:
        _adopt_spans(tracer, gen_err[0], tracer.record("cli", gen_start, gen_end[0], parent=0))
        _adopt_spans(tracer, aud_err, tracer.record("cli", aud_start, aud_end, parent=0))
    return out


def cli_startup() -> float:
    """Median wall time of ``python -m crossing_ledger.cli --version``, after one warm-up."""
    times = []
    for i in range(STARTUP_REPEATS + 1):
        start = time.perf_counter()
        run_cli(["--version"], b"", 0)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task that uses no package code.

    The host's speed drifts by up to 1.6x over minutes. Each timed interval
    is bracketed by calibrations and reported in reference seconds: its wall
    time times CAL_REF_S over the mean of the two calibrations around it.
    """
    start = time.perf_counter()
    rng = random.Random(CAL_ROUNDS)
    values = [rng.random() for _ in range(2000)]  # small, so the runner's memory stays flat
    total = 0.0
    for r in range(CAL_ROUNDS):
        table = {}
        for i, x in enumerate(values):
            table[(i * 7919 + r) % 10007, i & 63] = x
        for (a, b), x in sorted(table.items()):
            total += a * b * x
    return time.perf_counter() - start


class ReferenceClock:
    """Converts wall seconds between two calibrations into reference seconds."""

    def __init__(self):
        self.calibrations = [calibrate()]

    def scale(self) -> float:
        """Calibrate once more; the factor for the interval since the last calibration."""
        self.calibrations.append(calibrate())
        return 2 * CAL_REF_S / (self.calibrations[-2] + self.calibrations[-1])


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# -- workloads -------------------------------------------------------------------
#
# A workload builds its inputs in setup() and names them in keys. op() runs
# one operation on one input and returns (refusal kind or None, output),
# where output is bytes, text or a tuple of them; check() compares an output
# with the known answer. The runner checks the first output of every input,
# repeats it under a second PYTHONHASHSEED taken from the workload seed, and
# then times op() under TIMED_HASH_SEED, requiring every output of an input
# to be byte-identical.


def tight_document() -> bytes:
    """The library's canonical tight-family document at TIGHT_N vertices."""
    from crossing_ledger import emit_drawing, generate_optimal

    return emit_drawing(generate_optimal(TIGHT_N)).encode("utf-8")


class TightPipe:
    """``generate --n 202 | audit --k 3``: the user's main workflow."""

    keys = (TIGHT_N,)
    setup_repeats = 21
    output = b""  # the checked output, kept for the summary

    def setup(self) -> None:
        # The expected pipe input, which check() compares with generate's output.
        self.input_digest = sha256(tight_document())

    def op(self, n, hash_seed, tracer=None):
        return None, run_pipe(["generate", "--n", str(n)], ["audit", "--k", "3"], hash_seed, tracer)

    def check(self, n, kind, output, hash_seed) -> None:
        self.output = output
        doc = run_cli(["generate", "--n", str(n)], b"", hash_seed)
        if sha256(doc) != self.input_digest:
            raise CheckFailed("generate output differs from the library's canonical document")
        lines = output.decode("utf-8").splitlines()
        edges = 11 * n // 2 - 11
        if not lines or not lines[0].startswith(f"n={n}  edges={edges}  "):
            raise CheckFailed(f"expected n={n} and {edges} edges, got {lines[:1]!r}")
        if f"bound: {edges} vs {edges} -> tight" not in lines:
            raise CheckFailed("bound verdict is not tight")
        if any(line.startswith("VIOLATION") for line in lines) or lines[-1] != "verdict: ok":
            raise CheckFailed("validation or audit reported violations")

    def summary(self) -> list[str]:
        return [f"input {self.input_digest}", f"audit output {sha256(self.output)}"]


class Render:
    """``analyze --skeleton --segments --format json`` and ``export --figure svg``."""

    keys = (TIGHT_N,)
    setup_repeats = 21
    output = (b"", b"")  # the checked output, kept for the summary

    def setup(self) -> None:
        self.document = tight_document()

    def op(self, n, hash_seed, tracer=None):
        report = run_cli(
            ["analyze", "--skeleton", "--segments", "--format", "json", "-"],
            self.document, hash_seed, tracer,
        )
        svg = run_cli(["export", "--figure", "svg", "-"], self.document, hash_seed, tracer)
        return None, (report, svg)

    def check(self, n, kind, output, hash_seed) -> None:
        self.output = output
        report, svg = output
        doc = json.loads(report)
        if doc["input_digest"] != sha256(self.document):
            raise CheckFailed("analyze report names another input digest")
        if len(doc["skeleton"]["skeleton_edges"]) != 3 * n - 6 or not doc["segments"]["pieces"]:
            raise CheckFailed("analyze report lacks the expected skeleton or segments")
        if not ET.fromstring(svg).tag.endswith("svg"):
            raise CheckFailed("export did not produce an SVG document")

    def summary(self) -> list[str]:
        report, svg = self.output
        return [f"report {len(report)} bytes {sha256(report)}", f"svg {len(svg)} bytes {sha256(svg)}"]


class GeomCorpus:
    """Seeded random straight-line 3-planar drawings, audited in-process."""

    setup_repeats = 3  # each build takes seconds

    def __init__(self, seed: int):
        import corpus
        import geom
        import layers
        from _geom import drawing_doc

        self.seed = seed
        self.corpus, self.drawing_doc, self.geom, self.layers = corpus, drawing_doc, geom, layers
        self.lib = layers.library()
        self.outputs: dict[int, tuple] = {}

    def setup(self) -> None:
        self.texts = self.corpus.build_corpus(self.seed, self.drawing_doc)
        self.keys = range(len(self.texts))

    def op(self, i, hash_seed, tracer=None):
        lib = self.lib if tracer is None else self.layers.library(tracer)
        return self.geom.outcome(self.texts[i], lib)

    def check(self, i, kind, output, hash_seed) -> None:
        self.outputs[i] = (kind, output)
        if kind is not None:
            return
        doc = json.loads(output)
        if not doc["validation"]["ok"]:
            raise CheckFailed(f"drawing {i}: validation failed on a 3-planar drawing")
        if doc["audit"]["bound_verdict"] not in ("tight", "within"):
            raise CheckFailed(f"drawing {i}: bound verdict {doc['audit']['bound_verdict']}")

    def outcome_digest(self) -> str:
        return self.geom.combined_digest(
            [self.geom.outcome_digest(self.outputs[i][1]) for i in sorted(self.outputs)]
        )

    def final_check(self, hash_seeds) -> None:
        """The whole corpus audited by fresh interpreters under both hash seeds."""
        expected = self.outcome_digest()
        for hs in hash_seeds:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "geom.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env(hs),
            )
            out, _ = _finish(proc, json.dumps(self.texts).encode("utf-8"))
            if proc.returncode != 0 or out.decode().strip() != expected:
                raise CheckFailed(f"corpus outcomes differ under PYTHONHASHSEED={hs}")

    def summary(self) -> list[str]:
        kinds = [kind for kind, _ in self.outputs.values()]
        return [
            f"corpus {len(self.texts)} drawings {self.corpus.corpus_digest(self.texts)}",
            f"outcomes: {kinds.count(None)} reports, {kinds.count('budget')} budget refusals, "
            f"{kinds.count('disconnected-region')} disconnected-region refusals",
            f"outcome digest {self.outcome_digest()}",
        ]


def output_digest(output) -> tuple[str, ...]:
    parts = output if isinstance(output, tuple) else (output,)
    return tuple(sha256(p.encode("utf-8") if isinstance(p, str) else p) for p in parts)


# -- runner ----------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timed(fn, *args, **kwargs):
    """(result, median seconds) of ``fn``; cheap calls repeat up to 7 times or 0.2 s."""
    times: list[float] = []
    while not times or (len(times) < 7 and sum(times) < 0.2):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def growth_slopes() -> dict[str, float]:
    """Least-squares log-log slope of each layer's time on the tight family."""
    import layers

    lib = layers.library()
    per_layer: dict[str, list[float]] = {layer: [] for layer in TIMED_LAYERS}
    for n in GROWTH_NS:
        t: dict[str, float] = {}
        spec, t["generator.generate"] = _timed(lib.generate_optimal, n)
        text, emit_drawing = _timed(lib.emit_drawing, spec)
        spec, t["interchange.parse"] = _timed(lib.parse_text, text)
        pmap, t["drawing.build"] = _timed(lib.build_map, spec)
        sanity, t["validate.sanity"] = _timed(lib.check_sanity, pmap)
        homotopy, t["validate.homotopy"] = _timed(lib.check_homotopy, pmap)
        k_planar, t["validate.k_planar"] = _timed(lib.check_k_planar, pmap, 3)
        dec, t["skeleton.extract"] = _timed(lib.extract_skeleton, pmap, "exact")
        pieces, t["segments.decompose"] = _timed(lib.decompose, dec)
        profiles, t["segments.profiles"] = _timed(lib.face_profiles, dec, pieces)
        report, t["audit.density"] = _timed(lib.density_report, dec, profiles, pieces, k=3)
        sections = {
            "validation": lib.merge_reports(sanity, homotopy, k_planar).to_dict(),
            "audit": report.to_dict(),
        }
        doc, report_document = _timed(lib.report_document, spec, sections, include_drawing=False)
        _, emit_report = _timed(lib.emit_report, doc)
        t["interchange.emit"] = emit_drawing + report_document + emit_report
        _, t["figures.export_svg"] = _timed(lib.export_figure, pmap, "svg")
        for layer in TIMED_LAYERS:
            per_layer[layer].append(t[layer])
    xs = [math.log(n) for n in GROWTH_NS]
    mx = statistics.fmean(xs)
    out = {}
    for layer, ts in per_layer.items():
        ys = [math.log(v) for v in ts]
        my = statistics.fmean(ys)
        out[f"{layer}_growth"] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
    return out


def source_id() -> tuple[str, str]:
    """(git commit or "unknown", SHA-256 over the package sources)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return commit, "sha256:" + h.hexdigest()


def run_workload(w, seed: int, seconds: float, trace: bool) -> tuple[dict | None, int, int, list[str]]:
    """Set up, warm up, measure and check one workload.

    Returns (metrics, attempted, failed, problems); metrics is None when no
    operation completed.
    """
    from tracing import Tracer, merge_counts, self_times

    hash_seeds = ((2 * seed + 1) % 2**32, (2 * seed + 2) % 2**32)  # for the checks only
    problems: list[str] = []
    startup = cli_startup()
    print(f"cli.startup_s {startup!r} s (median of {STARTUP_REPEATS})")

    clock = ReferenceClock()
    setup_times = []  # (wall, reference) seconds
    for _ in range(w.setup_repeats):
        start = time.perf_counter()
        w.setup()
        dt = time.perf_counter() - start
        setup_times.append((dt, dt * clock.scale()))

    # Warm-up: one untimed operation per input fills caches and gives the
    # reference output, whose content is checked against the known answer.
    # A second one under another PYTHONHASHSEED must give the same bytes.
    reference: dict = {}
    for key in w.keys:
        try:
            kind, output = w.op(key, TIMED_HASH_SEED)
            reference[key] = output_digest(output)
            w.check(key, kind, output, TIMED_HASH_SEED)
            if output_digest(w.op(key, hash_seeds[0])[1]) != reference[key]:
                problems.append(f"input {key}: output differs under PYTHONHASHSEED={hash_seeds[0]}")
        except Exception as exc:  # any other outcome fails the benchmark
            problems.append(f"warm-up on input {key}: {type(exc).__name__}: {exc}")

    # A pass runs every input once and is bracketed by calibrations.
    samples: list[tuple] = []  # (key, traced, wall s, reference s, refusal kind)
    traced_spans: list[tuple] = []  # (key, spans) per traced operation
    attempted = failed = passes = 0
    wall = ref = 0.0  # measured seconds, calibrations excluded
    clock.scale()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        timed = []
        for idx, key in enumerate(w.keys):
            tracer = Tracer() if trace and (passes + idx) % 2 == 0 else None
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    root = tracer.begin("op")
                kind, output = w.op(key, TIMED_HASH_SEED, tracer)
                if tracer is not None:
                    tracer.end(root)
            except Exception as exc:  # any other outcome fails the benchmark
                failed += 1
                problems.append(f"input {key}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            if output_digest(output) != reference.get(key):
                failed += 1
                problems.append(f"input {key}: output differs from its first run")
                continue
            timed.append((key, tracer is not None, dt, kind))
            if tracer is not None:
                traced_spans.append((key, tracer.spans))
        pass_wall = time.perf_counter() - pass_start
        scale = clock.scale()
        wall += pass_wall
        ref += pass_wall * scale
        samples.extend((key, traced, dt, dt * scale, kind) for key, traced, dt, kind in timed)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (failed or (len(samples) >= MIN_OPS and (not trace or passes >= 2))):
            break

    if hasattr(w, "final_check"):
        try:
            w.final_check(hash_seeds)
        except CheckFailed as exc:
            problems.append(str(exc))
    for line in w.summary():
        print(line)

    kinds = [kind for *_, kind in samples]
    refusals = len(kinds) - kinds.count(None)
    print(f"fail_ratio {refusals / attempted!r} ratio ({refusals} typed refusals of {attempted})")
    done = [(dt, dt_ref) for _, _, dt, dt_ref, kind in samples if kind is None]
    if not done or (trace and not traced_spans):
        return None, attempted, failed, problems
    if not trace:
        done_wall = [dt for dt, _ in done]
        done_ref = [dt_ref for _, dt_ref in done]
        line = f"completed operations {len(done)}"
        if len(done) >= 11:
            q = 100 - math.ceil(1000 / len(done))
            line += (
                f"; p{q} {quantile(done_ref, q)!r} s is the highest percentile "
                "with ten samples beyond it"
            )
        print(line)
        print(
            f"calibration median {statistics.median(clock.calibrations)!r} s of "
            f"{len(clock.calibrations)} (reference {CAL_REF_S} s)"
        )
        print(
            f"wall clock: setup_s {statistics.median(t for t, _ in setup_times)!r}  "
            f"op_s_p50 {statistics.median(done_wall)!r}  op_s_p90 {quantile(done_wall, 90)!r}  "
            f"ops_per_s {len(done) / wall!r}"
        )
        who = resource.RUSAGE_SELF if isinstance(w, GeomCorpus) else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": statistics.median(t for _, t in setup_times),
            "op_s_p50": statistics.median(done_ref),
            "op_s_p90": quantile(done_ref, 90),
            "ops_per_s": len(done) / ref,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        return metrics, attempted, failed, problems

    per_op: dict[str, float] = {}
    for _, spans in traced_spans:
        for name, t in self_times(spans, skip={0}).items():
            per_op[name] = per_op.get(name, 0.0) + t / len(traced_spans)
    # Counts: the work of one operation on each distinct input, summed.
    first: dict = {}
    for key, spans in traced_spans:
        first.setdefault(key, merge_counts((s[4] for s in spans), PEAK_COUNTS))
    totals = merge_counts(first.values(), PEAK_COUNTS)
    by_key: dict = {}
    for key, traced, dt, _, _ in samples:
        by_key.setdefault(key, ([], []))[traced].append(dt)
    overhead = statistics.fmean(
        statistics.fmean(t) - statistics.fmean(u) for u, t in by_key.values() if u and t
    )
    op_wall = statistics.fmean(s[0][2] - s[0][1] for _, s in traced_spans)
    print(f"traced operations {len(traced_spans)}; wall {op_wall!r} s per traced operation")
    print("self time per traced operation, by layer:")
    for name, t in sorted(per_op.items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {t:.6f} s  {100 * t / op_wall:5.1f}%")

    metrics = {"cli.startup_s": startup}
    metrics.update({f"{layer}_s": per_op.get(layer, 0.0) for layer in TIMED_LAYERS})
    metrics.update({name: totals.get(name, 0) for name in COUNTS})
    metrics.update(growth_slopes())
    metrics["tracing.overhead_s"] = overhead
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tight_pipe", "geom_corpus", "render"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crossing_ledger" / "cli.py").is_file() or not (TESTS / "_geom.py").is_file():
        sys.stderr.write(
            "error: src/crossing_ledger or tests/_geom.py is missing; "
            "run from the root of a crossing-ledger checkout\n"
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(TESTS))
    import crossing_ledger  # noqa: F401  (imported before any timing)

    commit, source = source_id()
    print(
        f"crossing-ledger benchmark  workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    print(
        f"python {sys.version.split()[0]}  commit {commit}  source {source}  "
        f"nproc {len(os.sched_getaffinity(0))}"
    )
    if args.workload == "geom_corpus":
        workload = GeomCorpus(args.seed)
    else:
        workload = TightPipe() if args.workload == "tight_pipe" else Render()
    metrics, attempted, failed, problems = run_workload(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: {len(problems) - 20} more")
    if metrics is None:
        sys.stderr.write("error: no operation completed, so there is nothing to measure\n")
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
