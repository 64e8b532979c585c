"""The benchmark's workloads: seeded CLI inputs and the check of each answer.

A workload is an endless stream of operations, one ``wand_gibbs.cli.main``
call each, grouped into passes.  Inputs come only from
``random.Random(f"{name}:{seed}")``, so one seed always gives the same
operations in the same order.  Every operation yields a known number of
answers (scan rows, solved points, tree orders or verified activities);
``check`` returns how many of them are wrong, comparing the output with
the values computed in ``reference``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field

import reference as ref

#: relative tolerance on a returned law's recomputed fixed-point residual;
#: loose enough for log-space rounding at k = 256, far below a 10% error
RESIDUAL_TOL = 1e-9

#: tolerance on spectral and certificate fields recomputed from the law
FIELD_TOL = 1e-9

#: relative tolerance on swap closure of the asymmetric pair; near theta_cr
#: two residual-certified roots of the ill-conditioned pair differ by ~1e-8
SWAP_TOL = 1e-6

#: tolerance on the thresholds of k = 2 and k = 3 against the closed form
THRESHOLD_TOL = 1e-7

EXIT_OK = 0
EXIT_SOLVER = 3

SCAN_COLUMNS = (
    "theta", "z_sym", "z_asym_1", "z_asym_2", "tisgm_count",
    "s1", "s2", "lambda2", "ks_value", "kappa", "gamma", "product",
    "classification",
)


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the answers it yields and what checks need."""

    argv: tuple
    answers: int
    pass_index: int
    pass_size: int
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: object  # (rng) -> list of (argv, answers, meta)
    check: object  # (op, exit code, stdout) -> failed answers

    def ops(self, seed: int):
        """The endless, seed-determined operation stream, pass after pass."""
        rng = random.Random(f"{self.name}:{seed}")
        pass_index = 0
        while True:
            batch = self.make_pass(rng)
            for argv, answers, meta in batch:
                yield Op(tuple(argv), answers, pass_index, len(batch), meta)
            pass_index += 1


def _close(a: float, b: float, tol: float = FIELD_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _law_ok(k: int, theta: float, z1: float, z2: float) -> bool:
    return (
        isinstance(z1, float) and isinstance(z2, float)
        and z1 > 0.0 and z2 > 0.0
        and ref.residual(k, theta, z1, z2) <= RESIDUAL_TOL
    )


def _symmetric_fields_ok(k: int, theta: float, z: float, fields: dict) -> bool:
    expected = ref.symmetric_spectrum(k, theta, z)
    return all(
        fields.get(name) is not None and _close(float(fields[name]), value)
        for name, value in expected.items()
    )


def _class_ok(k: int, theta: float, label: str) -> bool:
    expected = ref.expected_class(k, theta)
    return expected is None or label == expected


def _separated(z1: float, z2: float) -> bool:
    return abs(z1 - z2) > ref.EXEMPT_BAND * max(z1, z2)


# -- scan-k3 ----------------------------------------------------------------

SCAN_STEPS = 300


def scan_op(theta_min: float, theta_max: float, steps: int = SCAN_STEPS) -> tuple:
    argv = ["scan", "--k", "3", "--theta-min", repr(theta_min),
            "--theta-max", repr(theta_max), "--steps", str(steps)]
    return argv, steps, {"k": 3, "lo": theta_min, "hi": theta_max, "steps": steps}


def _scan_pass(rng: random.Random) -> list:
    lo = 0.1 * (1.0 + rng.uniform(-0.03, 0.03))
    hi = 3.0 * (1.0 + rng.uniform(-0.03, 0.03))
    return [scan_op(lo, hi)]


def _scan_row_ok(k: int, theta: float, row: dict) -> bool:
    z = float(row["z_sym"])
    if not _law_ok(k, theta, z, z):
        return False
    fields = {name: row[name] for name in ref.symmetric_spectrum(k, theta, z)}
    if not _symmetric_fields_ok(k, theta, z, fields):
        return False
    count = int(row["tisgm_count"])
    expected = ref.expected_count(k, theta)
    if expected is not None and count != expected:
        return False
    if count == 3:
        a1, a2 = float(row["z_asym_1"]), float(row["z_asym_2"])
        if not (a1 > a2 and _separated(a1, a2) and _law_ok(k, theta, a1, a2)):
            return False
    elif count != 1 or row["z_asym_1"] != "" or row["z_asym_2"] != "":
        return False
    return _class_ok(k, theta, row["classification"])


def check_scan(op: Op, code, out: str) -> int:
    k, lo, hi, steps = (op.meta[key] for key in ("k", "lo", "hi", "steps"))
    if code != EXIT_OK:
        return op.answers
    reader = csv.reader(io.StringIO(out))
    header = next(reader, None)
    if tuple(header or ()) != SCAN_COLUMNS:
        return op.answers
    rows = [dict(zip(SCAN_COLUMNS, values)) for values in reader]
    failed = max(0, steps - len(rows))
    for i, row in enumerate(rows[:steps]):
        theta_expected = lo + i * (hi - lo) / (steps - 1)
        try:
            theta = float(row["theta"])
            ok = _close(theta, theta_expected, 1e-12) and _scan_row_ok(k, theta, row)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed


# -- domain-solve -----------------------------------------------------------

SOLVE_PASS = 20


def solve_op(k: int, theta: float) -> tuple:
    argv = ["solve", "--k", str(k), "--theta", repr(theta), "--format", "json"]
    return argv, 1, {"k": k, "theta": theta}


def _solve_pass(rng: random.Random) -> list:
    ops = []
    for _ in range(SOLVE_PASS):
        k = min(256, int(math.exp(rng.uniform(math.log(2.0), math.log(257.0)))))
        if rng.random() < 0.25:
            distance = 10.0 ** rng.uniform(-9.0, -1.0)
            theta = ref.theta_critical(k) * (1.0 + rng.choice((-1.0, 1.0)) * distance)
        else:
            theta = 10.0 ** rng.uniform(-8.0, 8.0)
        ops.append(solve_op(k, theta))
    return ops


def _solve_doc_ok(k: int, theta: float, doc: dict) -> bool:
    if doc.get("command") != "solve" or doc.get("k") != k or doc.get("theta") != theta:
        return False
    if not _close(float(doc["theta_cr"]), ref.theta_critical(k), 1e-12):
        return False
    laws = doc["laws"]
    count = doc["tisgm_count"]
    expected = ref.expected_count(k, theta)
    if count not in (1, 3) or len(laws) != count:
        return False
    if expected is not None and count != expected:
        return False
    sym = laws[0]
    z = sym["z1"]
    if sym["kind"] != "symmetric" or sym["z2"] != z or not _law_ok(k, theta, z, z):
        return False
    if not _symmetric_fields_ok(k, theta, z, sym) or not _class_ok(k, theta, sym["classification"]):
        return False
    if count == 3:
        first, second = laws[1], laws[2]
        if not (_close(first["z1"], second["z2"], SWAP_TOL)
                and _close(first["z2"], second["z1"], SWAP_TOL)):
            return False
        for law in (first, second):
            z1, z2 = law["z1"], law["z2"]
            if law["kind"] != "asymmetric" or law["classification"] != "no-claim":
                return False
            if not (_separated(z1, z2) and _law_ok(k, theta, z1, z2)):
                return False
            eig_sum, eig_prod = ref.nonunit_eigen_sum_product(theta, z1, z2)
            s1, s2 = law["s1"], law["s2"]
            lam = max(abs(s1), abs(s2))
            if not (_close(s1 + s2, eig_sum) and _close(s1 * s2, eig_prod)
                    and _close(law["lambda2"], lam) and _close(law["ks_value"], k * lam * lam)):
                return False
    return True


def check_solve(op: Op, code, out: str) -> int:
    k, theta = op.meta["k"], op.meta["theta"]
    if code == EXIT_SOLVER and not ref.must_answer(k, theta):
        return 0
    if code != EXIT_OK:
        return 1
    try:
        return 0 if _solve_doc_ok(k, theta, json.loads(out)) else 1
    except (KeyError, TypeError, ValueError, IndexError):
        return 1


# -- thresholds -------------------------------------------------------------

THRESHOLD_KS = tuple(range(2, 11))


def thresholds_op(k: int) -> tuple:
    return ["thresholds", "--k", str(k), "--criterion", "both"], 1, {"k": k}


def _thresholds_pass(rng: random.Random) -> list:
    order = list(THRESHOLD_KS)
    rng.shuffle(order)
    return [thresholds_op(k) for k in order]


def check_thresholds(op: Op, code, out: str) -> int:
    k = op.meta["k"]
    if k >= 4:
        # the window is empty: the documented answer is a solver failure
        return 0 if code == EXIT_SOLVER else 1
    if code != EXIT_OK:
        return 1
    lo, hi = ref.extremal_window(k)
    try:
        doc = json.loads(out)
        ok = (
            doc["command"] == "thresholds" and doc["k"] == k
            and doc["criterion"] == "both" and doc["certified"] is True
            and all(
                abs(doc[name]["lower"] - lo) <= THRESHOLD_TOL
                and abs(doc[name]["upper"] - hi) <= THRESHOLD_TOL
                for name in ("ks", "msw")
            )
            and 0.0 <= doc["agreement"] <= THRESHOLD_TOL
        )
    except (KeyError, TypeError, ValueError):
        ok = False
    return 0 if ok else 1


# -- verify -----------------------------------------------------------------

#: (k, activities per call) for the calls of one pass; two of three calls
#: are k = 3 so the median operation is a k = 3 enumeration
VERIFY_PASS = ((2, 6), (3, 4), (3, 4))

VERIFY_LINE = re.compile(
    r"theta=(\S+) certified defect=(\S+) \[(PASS|FAIL)\] "
    r"perturbed defect=(\S+) \[(PASS|FAIL)\]$"
)


def verify_op(k: int, thetas: list) -> tuple:
    argv = ["verify", "--k", str(k), "--depth", "2",
            "--thetas", ",".join(repr(t) for t in thetas)]
    return argv, len(thetas), {"k": k, "thetas": tuple(thetas)}


def _verify_pass(rng: random.Random) -> list:
    return [
        verify_op(k, [math.exp(rng.uniform(math.log(0.05), math.log(5.0))) for _ in range(n)])
        for k, n in VERIFY_PASS
    ]


def _verify_line_ok(k: int, theta: float, line: str) -> bool:
    match = VERIFY_LINE.match(line)
    if match is None or float(match[1]) != theta:
        return False
    z = math.exp(ref.log_symmetric_root(k, theta))
    perturbed = ref.consistency_defect(k, theta, 1.1 * z, 0.9 * z)
    return (
        float(match[2]) <= 1e-10 and match[3] == "PASS"
        and perturbed >= 1e-6 and match[5] == "PASS"
        and abs(float(match[4]) / perturbed - 1.0) <= 1e-2
    )


def check_verify(op: Op, code, out: str) -> int:
    k, thetas = op.meta["k"], op.meta["thetas"]
    lines = out.splitlines()
    if code != EXIT_OK or len(lines) != len(thetas) + 1:
        return op.answers
    if lines[-1] != "all consistency checks passed":
        return op.answers
    return sum(not _verify_line_ok(k, theta, line) for theta, line in zip(thetas, lines))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-k3",
            "the paper's Fig. 2 table: 300-row k=3 scan, half the rows below "
            "theta_cr; the asymmetric search dominates and grid neighbours share work",
            _scan_pass, check_scan,
        ),
        Workload(
            "domain-solve",
            "isolated solve calls over k in [2, 256] and theta in [1e-8, 1e8], a quarter "
            "near theta_cr; no grid reuse, CLI overhead shows, fails at some points",
            _solve_pass, check_solve,
        ),
        Workload(
            "thresholds",
            "threshold search for k = 2..10: symmetric solver, spectrum and root "
            "finding only, never the asymmetric search; k >= 4 must exit 3",
            _thresholds_pass, check_thresholds,
        ),
        Workload(
            "verify",
            "exact enumeration oracle at depth 2 for k in {2, 3}: oracle-bound, the "
            "solver is negligible and the same four trees are enumerated repeatedly",
            _verify_pass, check_verify,
        ),
    )
}
