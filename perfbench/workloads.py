"""The three closed-loop workloads: their operations and correctness gates.

One client runs the operations of a pass in order, each starting when
the previous one has finished.  An operation is a timed call into rbell
followed by an untimed gate that raises :class:`GateError` when the
output is wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import inputs as gen
from .oracle import predictive_label


class GateError(Exception):
    """An output of the program failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli(*argv: str) -> CliResult:
    """Run ``rbell <argv>`` in this process, as the console script does."""
    import rbell.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rbell.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def expect_code(res: CliResult, code: int) -> None:
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    require(res.code == code, f"exit code {res.code}, expected {code}: {tail[0]}")


def _ids(log, column: np.ndarray) -> np.ndarray:
    return np.asarray(log.ids())[column]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fingerprint(values: np.ndarray) -> str:
    """Digest of a column's values: labels as text, numbers as float64."""
    arr = np.asarray(values)
    arr = arr.astype(str) if arr.dtype.kind in "OUS" else arr.astype(np.float64) + 0.0
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# run-audit
# ----------------------------------------------------------------------

AUDIT_OCTUPLE = ("a", "a2", "b", "b2", "a", "a2", "b", "b")
LABEL_COLUMNS = ("a", "b", "a_r", "b_r")
VALUE_COLUMNS = ("t1", "t2", "outcome_1", "outcome_2", "lam")
ANGLE_FLAGS = ("a", "a2", "b", "b2", "ar", "a2r", "br", "b2r")


@dataclass
class Audit:
    log: object
    replay: tuple
    table: object
    check: CliResult


class RunAudit:
    """``rbell run`` to disk, then an audit that reads the artifacts back."""

    name = "run-audit"

    def __init__(self, inputs: gen.Inputs):
        self.config = inputs.audit_config
        self.outdir = inputs.root / "run"
        self.n = gen.AUDIT_TRIALS
        self.trials = self.outdir / "trials.csv"
        self.table = self.outdir / "correlations.csv"
        self.digests = None
        self.check_value = None

    def prepare(self) -> None:
        """Fingerprint the columns of an in-memory run of the same config;
        only the digests are kept, so the reference adds no resident log."""
        from rbell import scenarios

        ref = scenarios.run_scenario(scenarios.load_config(self.config)).log
        self.angles = {lbl.id: lbl.angle for lbl in ref.palette}
        self.ids = np.asarray(ref.ids())
        self.ref = {col: _fingerprint(self.ids[getattr(ref, col)]) for col in LABEL_COLUMNS}
        self.ref.update({col: _fingerprint(getattr(ref, col)) for col in VALUE_COLUMNS})

    def ops(self) -> list[Op]:
        return [Op("run", self._run, self._check_run),
                Op("audit", self._audit, self._check_audit)]

    def trials_per_pass(self) -> int:
        return self.n

    def _run(self) -> CliResult:
        return cli("run", "--config", str(self.config), "--out", str(self.outdir))

    def _check_run(self, res: CliResult) -> None:
        expect_code(res, 0)
        payload = json.loads(res.stdout)
        require(payload["trials"] == self.n, f"run reported {payload['trials']} trials")
        quartet = dict(zip(ANGLE_FLAGS, AUDIT_OCTUPLE))
        values = [r["value"] for r in payload["reports"]
                  if r["name"] == "retarded_chsh" and r["inputs"] == quartet]
        require(len(values) == 1, "run did not report the audited octuple")
        self.check_value = values[0]
        names = ("trials.csv", "correlations.csv", "reports.json", "classification.json")
        digests = {name: _digest(self.outdir / name) for name in names}
        if self.digests is None:
            self.digests = digests
        require(digests == self.digests, "artifacts differ between runs of one seed")

    def _audit(self) -> Audit:
        from rbell import estimation, scenarios

        log = estimation.read_trial_log(self.trials, palette=self.angles)
        replay = scenarios.replay_retarded(scenarios.load_config(self.config), log)
        table = estimation.read_table(self.table)
        flags = [f"--{k}={v}" for k, v in zip(ANGLE_FLAGS, AUDIT_OCTUPLE)]
        check = cli("check", "--table", str(self.table), "--ineq", "retarded_chsh", *flags)
        return Audit(log, replay, table, check)

    def _check_audit(self, audit: Audit) -> None:
        log = audit.log
        require(len(log) == self.n, f"trial log has {len(log)} rows")
        for col in LABEL_COLUMNS:
            require(_fingerprint(_ids(log, getattr(log, col))) == self.ref[col],
                    f"trial log column {col} differs from the in-memory run")
        for col in VALUE_COLUMNS:
            require(_fingerprint(getattr(log, col)) == self.ref[col],
                    f"trial log column {col} differs from the in-memory run")
        ar, br = audit.replay
        require(np.array_equal(self.ids[ar], _ids(log, log.a_r)),
                "replayed a_r differs from the recorded column")
        require(np.array_equal(self.ids[br], _ids(log, log.b_r)),
                "replayed b_r differs from the recorded column")
        total = sum(c.count for c in audit.table.cells.values())
        require(total == self.n, f"table counts sum to {total}, not {self.n}")
        expect_code(audit.check, 0)
        value = json.loads(audit.check.stdout)["value"]
        require(self.check_value is not None and abs(value - self.check_value) <= 1e-12,
                f"check on the table gives {value}, the run reported {self.check_value}")


# ----------------------------------------------------------------------
# scenario-sweep
# ----------------------------------------------------------------------

#: Legs whose retarded settings equal the actual ones on every trial.
ALWAYS_EQUAL = ("periodic_quantum", "delay_control")
ORACLE_SAMPLES = 200


class ScenarioSweep:
    """``run_scenario`` in memory over four legs; no artifacts."""

    name = "scenario-sweep"

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.legs = inputs.legs

    def prepare(self) -> None:
        pass

    def ops(self) -> list[Op]:
        return [Op(f"leg.{name}", partial(self._leg, path), partial(self._check_leg, name, n))
                for name, path, n in self.legs]

    def trials_per_pass(self) -> int:
        return sum(n for _, _, n in self.legs)

    @staticmethod
    def _leg(path: Path):
        from rbell import scenarios

        return scenarios.run_scenario(scenarios.load_config(path))

    def _check_leg(self, name: str, n: int, result) -> None:
        require(len(result.log) == n, f"{name}: {len(result.log)} trials, expected {n}")
        if result.config.model == "quantum-singlet":
            # Retarded settings always equal the actual ones, so no complete
            # retarded octuple exists and nothing may be scored.
            require(not result.reports,
                    f"{name}: {len(result.reports)} reports without a complete octuple")
        else:
            require(not result.violated(), f"{name}: a local model violated a bound")
        if name in ALWAYS_EQUAL:
            both = result.classification["both-equal"]
            require(both == 1.0, f"{name}: both-equal fraction {both}, expected 1.0")
        if name == "mixed_delay_stream":
            self._check_oracle(result)

    def _check_oracle(self, result) -> None:
        """Retarded labels of sampled trials against the brute-force oracle."""
        log = result.log
        tau = result.config.geometry.retardation
        rng = np.random.default_rng(self.inputs.seeds["oracle"])
        sample = rng.choice(len(log), size=min(ORACLE_SAMPLES, len(log)), replace=False)
        recorded = {1: _ids(log, log.a_r), 2: _ids(log, log.b_r)}
        for station in (1, 2):
            rows = self.inputs.streams[station]
            decisions = np.array([r.decision for r in rows])
            delays = np.array([r.delay for r in rows])
            labels = [r.label for r in rows]
            own, far = (log.t1, log.t2) if station == 1 else (log.t2, log.t1)
            for k in sample:
                want = predictive_label(gen.STREAM_BASES[station], (), decisions,
                                        delays, labels, float(own[k]), float(far[k]) - tau)
                require(recorded[station][k] == want,
                        f"stream leg trial {k}: station {station} retarded "
                        f"{recorded[station][k]}, oracle {want}")


# ----------------------------------------------------------------------
# optimize-verify
# ----------------------------------------------------------------------

#: Actual quartet and retarded angles of the analytic calls.
ANALYTIC_ANGLES = {"a": math.pi / 2, "a2": 0.0, "b": -math.pi / 4, "b2": math.pi / 4,
                   "ar": 0.0, "a2r": math.pi / 2, "br": math.pi / 4, "b2r": -math.pi / 4}
MC_SIGMAS = 5.0


def hardy_E(a, b, ar, br):
    """Half-circle model correlation: -(cos(a - br) + cos(ar - b)) / 2."""
    return -0.5 * (math.cos(a - br) + math.cos(ar - b))


def retarded_chsh_value(E, s: dict) -> float:
    return (E(s["a2"], s["b2"], s["a2r"], s["b2r"]) + E(s["a2"], s["b"], s["ar"], s["b2r"])
            + E(s["a"], s["b2"], s["a2r"], s["br"]) - E(s["a"], s["b"], s["ar"], s["br"]))


def quantum_ch_value(s: dict) -> float:
    """CH combination of the singlet: p12 = (1 - cos(x - y)) / 4, marginals 1/2."""
    def p12(x, y):
        return (1.0 - math.cos(x - y)) / 4.0
    return (p12(s["a2"], s["b2"]) + p12(s["a2"], s["b"]) + p12(s["a"], s["b2"])
            - p12(s["a"], s["b"]) - 1.0)


class OptimizeVerify:
    """Commands that run no trials: optimize, analytic and verify."""

    name = "optimize-verify"

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.angles = ANALYTIC_ANGLES

    def prepare(self) -> None:
        pass

    def trials_per_pass(self) -> int:
        return 0

    def ops(self) -> list[Op]:
        flags = [f"--{k}={v!r}" for k, v in ANALYTIC_ANGLES.items()]
        quartet = flags[:4]
        return [
            Op("optimize", partial(cli, "optimize", "--model", "quantum", "--ineq", "chsh",
                                   "--direction", "min"), self._check_quantum_optimum),
            Op("optimize", partial(cli, "optimize", "--model", "hardy", "--ineq",
                                   "retarded_chsh", "--retarded", "free", "--free",
                                   ",".join(ANGLE_FLAGS)), self._check_hardy_optimum),
            Op("analytic_mc", partial(cli, "analytic", "hardy", "retarded_chsh", *flags,
                                      "--n", str(gen.MC_TRIALS),
                                      "--seed", str(self.inputs.seeds["analytic"])),
               self._check_mc),
            Op("analytic_ch", partial(cli, "analytic", "quantum", "retarded_ch", *quartet),
               self._check_ch),
            Op("verify", partial(cli, "verify", "--seed", str(self.inputs.seeds["verify"])),
               self._check_verify),
        ]

    @staticmethod
    def _check_quantum_optimum(res: CliResult) -> None:
        expect_code(res, 0)
        value = json.loads(res.stdout)["value"]
        require(abs(value + 2.0 * math.sqrt(2.0)) <= 1e-9,
                f"quantum chsh minimum {value!r}, expected -2*sqrt(2)")

    @staticmethod
    def _check_hardy_optimum(res: CliResult) -> None:
        expect_code(res, 0)
        payload = json.loads(res.stdout)
        value = payload["value"]
        require(value >= -2.0 - 1e-9, f"local model minimum {value!r} is below -2")
        again = retarded_chsh_value(hardy_E, payload["settings"])
        require(abs(again - value) <= 1e-9,
                f"optimum {value!r} disagrees with the closed form {again!r} at its settings")

    def _check_mc(self, res: CliResult) -> None:
        expect_code(res, 0)
        payload = json.loads(res.stdout)
        exact = retarded_chsh_value(hardy_E, self.angles)
        require(abs(payload["value"] - exact) <= 1e-12,
                f"exact value {payload['value']!r}, closed form {exact!r}")
        mc = payload["monte_carlo"]
        require(abs(mc["value"] - exact) <= MC_SIGMAS * mc["combined_se"],
                f"Monte Carlo {mc['value']!r} is more than {MC_SIGMAS} SE from {exact!r}")

    def _check_ch(self, res: CliResult) -> None:
        expect_code(res, 3)  # the singlet violates the CH bound at this quartet
        value = json.loads(res.stdout)["value"]
        exact = quantum_ch_value(self.angles)
        require(abs(value - exact) <= 1e-12, f"CH value {value!r}, closed form {exact!r}")

    @staticmethod
    def _check_verify(res: CliResult) -> None:
        expect_code(res, 0)
        lines = res.stdout.strip().splitlines()
        require(len(lines) > 1 and all(line.startswith("ok ") for line in lines[:-1]),
                "verify reported a failed check")


WORKLOADS = {w.name: w for w in (RunAudit, ScenarioSweep, OptimizeVerify)}
