"""Passes, timings, set-up probes and the metrics a run reports.

See ``run.py`` for the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .inputs import generate
from .layers import SPAN_METRICS, new_tracer
from .spans import SpanTree
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh-interpreter starts per run for set-up time and import profiles.
SETUP_STARTS = 5
IMPORT_PROFILES = 3
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rbell.cli\n"
    "rbell.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
MARK = "@@perfbench-import"
IMPORT_CODE = f"import sys\nsys.stderr.write('{MARK}\\n')\nsys.stderr.flush()\nimport rbell.cli\n"

#: What a per-layer metric reads when it cannot be measured: the result line
#: must give every metric as a number.  Each such metric is also listed, with
#: its reason, under ``absent`` in the report line.
ABSENT = 0.0

#: Per-operation medians of the untraced passes, reported as per-layer metrics.
OP_METRICS = {"op.run_s": "run", "op.audit_s": "audit", "op.optimize_s": "optimize",
              "op.analytic_mc_s": "analytic_mc", "op.verify_s": "verify"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="rbell benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# What the result records about its machine and inputs
# ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(workers_env) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RBL_WORKERS": {"found": workers_env, "used": "unset"},
        "commit": git_commit(),
    }


# ----------------------------------------------------------------------
# Timings
# ----------------------------------------------------------------------


def summary(samples: list) -> dict:
    """Median, sample count, and the highest percentile that still has at
    least ten samples above it (absent with fewer than eleven samples)."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    if len(samples) >= 11:
        ordered = sorted(samples)
        k = len(ordered) - 10
        out[f"p{100 * k // len(ordered)}"] = ordered[k - 1]
    return out


class Runner:
    """Runs passes of a workload and keeps its timings and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_id = 0
        self.plain: list[float] = []
        self.plain_cpu: list[float] = []
        self.traced: list[float] = []
        self.per_kind: dict[str, list[float]] = {}
        self.tracers = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def one_pass(self, tracer=None) -> tuple[float, dict]:
        """Run every operation once; returns busy time and time per kind."""
        kinds: dict[str, float] = {}
        for op in self.workload.ops():
            self.attempted += 1
            self.op_id += 1
            if tracer is not None:
                tracer.op = self.op_id
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:
                out = exc
            elapsed = time.perf_counter() - start
            kinds[op.kind] = kinds.get(op.kind, 0.0) + elapsed
            if isinstance(out, Exception):
                self.fail(op.kind, out)
                continue
            try:
                op.check(out)
            except Exception as exc:
                self.fail(op.kind, exc)
        return sum(kinds.values()), kinds

    def plain_pass(self) -> None:
        cpu = time.process_time()
        busy, kinds = self.one_pass()
        self.plain_cpu.append(time.process_time() - cpu)
        self.plain.append(busy)
        for kind, seconds in kinds.items():
            self.per_kind.setdefault(kind, []).append(seconds)

    def traced_pass(self) -> None:
        tracer = new_tracer()
        with tracer:
            busy, _ = self.one_pass(tracer)
        self.traced.append(busy)
        self.tracers.append(tracer)

    def run(self, seconds: float, trace: bool, probe, probes: int) -> list:
        """Warm up, then run passes for ``seconds``; in a traced run each
        round is one untraced and one traced pass, in alternating order.
        ``probe`` runs ``probes`` times, spread evenly over the window, so
        its median does not come from a single stretch of machine load."""
        self.workload.prepare()
        self.one_pass()  # warm-up: checked, not timed
        results = []
        start = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - start
            if len(results) < probes and elapsed >= len(results) * seconds / probes:
                results.append(probe(self))
            if elapsed >= seconds:
                break
            order = (self.plain_pass, self.traced_pass) if trace else (self.plain_pass,)
            for run_pass in order[::-1] if rounds % 2 else order:
                run_pass()
            rounds += 1
        while len(results) < probes:
            results.append(probe(self))
        return [r for r in results if r is not None]


def child(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def setup_start(runner: Runner):
    """Seconds for ``import rbell.cli`` plus ``build_parser()`` in a fresh
    interpreter."""
    runner.attempted += 1
    proc = child(SETUP_CODE)
    try:
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip()[-300:])
        return float(proc.stdout.strip())
    except (RuntimeError, ValueError) as exc:
        runner.fail("setup", exc)
        return None


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Total import time of ``rbell.cli`` and the self time of scipy modules."""
    entries = []
    for line in stderr.split(MARK, 1)[-1].splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        try:
            entries.append((len(name) - len(name.lstrip()), int(self_us), int(cumulative_us),
                            name.strip()))
        except ValueError:
            continue  # the header line
    top = min(e[0] for e in entries)
    total = sum(e[2] for e in entries if e[0] == top)
    scipy = sum(e[1] for e in entries if e[3] == "scipy" or e[3].startswith("scipy."))
    return total / 1e6, scipy / 1e6


def import_start(runner: Runner):
    """``python -X importtime``: total and scipy import seconds of rbell.cli."""
    runner.attempted += 1
    proc = child(IMPORT_CODE, "-X", "importtime")
    try:
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip()[-300:])
        return parse_importtime(proc.stderr)
    except (RuntimeError, ValueError) as exc:
        runner.fail("import", exc)
        return None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(runner: Runner, setup: list) -> dict:
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        # with no successful start the run is already marked incorrect
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "pass_s": {"value": statistics.median(runner.plain), "unit": "s"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
        "success_ratio": {"value": 1.0 - runner.failed / runner.attempted, "unit": "ratio"},
    }


def per_layer(runner: Runner, imports: list) -> tuple[dict, list[str]]:
    wrapped = set().union(*(t.wrapped for t in runner.tracers))
    broken = {}
    for tracer in runner.tracers:
        broken.update(tracer.hook_errors)
    trees = [SpanTree(t.spans) for t in runner.tracers]
    metrics, absent = {}, []
    for k, name in enumerate(("cli.import_s", "cli.import_scipy_s")):
        if not imports:
            absent.append(f"{name}: every import profile failed")
        value = statistics.median(i[k] for i in imports) if imports else ABSENT
        metrics[name] = {"value": value, "unit": "s"}
    for m in SPAN_METRICS:
        missing = [r for r in m.reads if r not in wrapped or r in broken]
        if missing:
            absent.append(f"{m.name}: {', '.join(missing)}")
            value = ABSENT
        else:
            values = [v for v in (m.value(tree) for tree in trees) if v is not None]
            value = statistics.median(values) if values else ABSENT
            if not values:
                absent.append(f"{m.name}: nothing to divide by on this workload")
        metrics[m.name] = {"value": value, "unit": m.unit}
    plain = statistics.median(runner.plain)
    for name, kind in OP_METRICS.items():
        samples = runner.per_kind.get(kind)
        if not samples:
            absent.append(f"{name}: no {kind} operation on this workload")
        metrics[name] = {"value": statistics.median(samples) if samples else ABSENT, "unit": "s"}
    trials = runner.workload.trials_per_pass()
    if not trials:
        absent.append("op.trials_per_s: no trials on this workload")
    metrics["op.trials_per_s"] = {"value": trials / plain if trials else ABSENT, "unit": "1/s"}
    overhead = statistics.median(runner.traced) - plain
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead / plain, "unit": "ratio"}
    return metrics, absent


def write_spans(runner: Runner, path: Path) -> None:
    rows = [{"pass": k, "id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "counts": s.counts, "ok": s.ok}
            for k, tracer in enumerate(runner.tracers) for s in tracer.spans]
    path.write_text(json.dumps(rows))


NOTES = [
    "quantum-singlet outcomes in run_scenario are sampled by scenarios._sample_outcomes "
    "inside the estimation.map_blocks callback, so that time shows in "
    "estimation.map_blocks_s and not in models.sample_s",
    "models.sample_s and models.samples cover the outcome functions and the quantum "
    "pair sampler; drawing lambda happens in a HiddenSpace closure that is not wrapped",
    "per-layer times and counts are per pass, medians over the traced passes; op.* are "
    "medians over the untraced passes of the same run",
]


def main(argv=None) -> int:
    args = parse_args(argv)
    workers_env = os.environ.pop("RBL_WORKERS", None)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = generate(args.seed, workdir)

    runner = Runner(WORKLOADS[args.workload](inputs))
    if args.trace:
        probes = runner.run(args.seconds, True, import_start, IMPORT_PROFILES)
    else:
        probes = runner.run(args.seconds, False, setup_start, SETUP_STARTS)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client in one process; no threads",
        "machine": machine(workers_env),
        "inputs": inputs.describe(),
        "passes": {"warmup": 1, "untraced": len(runner.plain), "traced": len(runner.traced)},
        "pass_s": summary(runner.plain),
        "pass_cpu_s": summary(runner.plain_cpu),
        "ops_s": {kind: summary(v) for kind, v in runner.per_kind.items()},
    }
    if args.trace:
        metrics, absent = per_layer(runner, probes)
        report.update(absent=absent, notes=NOTES, traced_pass_s=summary(runner.traced))
        write_spans(runner, workdir / "spans.json")
    else:
        metrics = end_to_end(runner, probes)
    report.update(attempted=runner.attempted, failed=runner.failed,
                  error_rate=runner.failed / runner.attempted, errors=runner.errors,
                  metrics=metrics)
    for line in runner.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0
