"""Checks of one command's output directory against ``reference``.

Each check returns a list of problems; an empty list means the output is
correct.  Deterministic values are compared with fixed tolerances, Monte
Carlo estimates with a 5-sigma z-test against exact values.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import reference

Z_GATE = 5.0
KS_GATE = 2.5   # sqrt(N) times the KS distance; exceeded with probability about 1e-5


class Expected:
    """Exact values for one case: closed forms on the full 2-shift, dense numpy otherwise."""

    def __init__(self, config: dict, closed_form: bool) -> None:
        self.config = config
        self.ref = reference.build(config["system"])
        self.closed_form = closed_form
        self.mu = 0.5 if closed_form else self.ref.mu
        self.sigma2 = 2.0 if closed_form else reference.sigma2(self.ref)
        self.sigma2_bar = self.sigma2 * self.mu**3
        self._memo: dict[tuple[str, float], float] = {}

    def _value(self, order: str, alpha: float) -> float:
        key = (order, alpha)
        if key not in self._memo:
            self._memo[key] = (getattr(reference, f"full2_{order}")(alpha) if self.closed_form
                               else getattr(reference, order)(self.ref, alpha))
        return self._memo[key]

    def psi(self, alpha: float) -> float:
        return self._value("psi", alpha)

    def psi1(self, alpha: float) -> float:
        return self._value("psi1", alpha)

    def psi2(self, alpha: float) -> float:
        return self._value("psi2", alpha)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(name: str, got: float, want: float, tol: float, problems: list[str]) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{name}: got {got!r}, expected {want!r} (tolerance {tol:.1e})")


def _z(name: str, estimate: float, exact: float, se: float, problems: list[str]) -> None:
    z = abs(estimate - exact) / se
    if not z <= Z_GATE:
        problems.append(f"{name}: {estimate!r} vs exact {exact!r} is {z:.2f} sigma off")


def check_scalars(report: dict, exp: Expected, problems: list[str]) -> None:
    s = {k: v["value"] for k, v in report["scalars"].items()}
    _close("pressure", s["pressure"], math.log(2.0) if exp.closed_form else exp.ref.pressure,
           1e-10, problems)
    _close("mu_target", s["mu_target"], exp.mu, 1e-10, problems)
    _close("sigma2", s["sigma2"], exp.sigma2, 1e-6 * exp.sigma2, problems)
    _close("sigma2_bar", s["sigma2_bar"], exp.sigma2_bar, 1e-6 * exp.sigma2_bar, problems)
    if math.isfinite(exp.ref.alpha0):
        _close("alpha0", s["alpha0"], exp.ref.alpha0, 1e-9, problems)
    elif s["alpha0"] != math.inf:
        problems.append(f"alpha0: got {s['alpha0']!r}, expected inf")


def check_scgf(path: Path, exp: Expected, problems: list[str]) -> None:
    for row in _rows(path):
        a = float(row["alpha"])
        _close(f"psi({a})", float(row["psi"]), exp.psi(a), 1e-9 * max(1.0, abs(exp.psi(a))), problems)
        want1 = exp.psi1(a)
        _close(f"psi1({a})", float(row["psi1"]), want1, 1e-8 * want1, problems)
        want2 = exp.psi2(a)
        _close(f"psi2({a})", float(row["psi2"]), want2, 1e-5 * want2, problems)


def check_rate(path: Path, exp: Expected, problems: list[str]) -> None:
    rows = _rows(path)
    seen = {float(r["u"]) for r in rows}
    grid = exp.config["u_grid"]
    if isinstance(grid, dict):
        step = (grid["max"] - grid["min"]) / max(grid["count"] - 1, 1)
        grid = [grid["min"] + k * step for k in range(grid["count"])]
    for u in grid:
        if u >= 1.0 / exp.mu and not any(math.isclose(u, v, rel_tol=1e-12) for v in seen):
            problems.append(f"rate.csv lacks u={u}, which is above the mean return time")
    for row in rows:
        u, value, alpha = float(row["u"]), float(row["rate"]), float(row["alpha_star"])
        if not value >= -1e-12:
            problems.append(f"I({u}) = {value!r} is negative")
        if not math.isfinite(alpha):
            continue
        if exp.closed_form:
            want, want_alpha = reference.full2_rate(u)
            _close(f"alpha*({u})", alpha, want_alpha, 1e-7 * max(1.0, abs(want_alpha)), problems)
            _close(f"I({u})", value, want, 1e-9 * max(1.0, want), problems)
        else:
            want = u * alpha - exp.psi(alpha)
            _close(f"I({u}) = u alpha* - Psi(alpha*)", value, want, 1e-8 * max(1.0, abs(want)), problems)
            _close(f"Psi'(alpha*({u}))", exp.psi1(alpha), u, 1e-6 * u, problems)


def check_simulation(report: dict, hist: Path, exp: Expected, problems: list[str]) -> None:
    sim = report["simulation"]
    n, size = sim["n_returns"], sim["n_samples"]
    cfg = exp.config["simulation"]
    if (n, size) != (cfg["n_returns"], cfg["n_samples"]):
        problems.append(f"simulated {size} samples of T_{n}, configured {cfg['n_samples']} of T_{cfg['n_returns']}")
    rows = _rows(hist)
    total = sum(int(r["count"]) for r in rows)
    mean = sum(int(r["value"]) * int(r["count"]) for r in rows) / total
    if total != size:
        problems.append(f"histogram holds {total} samples, not {size}")
    _close("histogram mean", mean, sim["mean"], 1e-9 * mean, problems)
    _z("mean of T_n", sim["mean"], n / exp.mu, math.sqrt(sim["variance"] / size), problems)
    if exp.closed_form:
        # T_n is a sum of n iid Geometric(1/2): variance 2n, excess kurtosis 6.5/n
        var = 2.0 * n
        _z("variance of T_n", sim["variance"], var, var * math.sqrt(2.0 / (size - 1) + 6.5 / n / size), problems)
        # Kolmogorov-Smirnov distance to the exact law, P(T_n <= t) = P(Bin(t, 1/2) >= n)
        seen, distance = 0, 0.0
        for r in sorted(rows, key=lambda r: int(r["value"])):
            t = int(r["value"])
            below = 1.0 - reference.binomial_cdf_half(t - 1, n - 1)
            distance = max(distance, abs(seen / size - below))
            seen += int(r["count"])
            distance = max(distance, abs(seen / size - (1.0 - reference.binomial_cdf_half(t, n - 1))))
        if not distance <= KS_GATE / math.sqrt(size):
            problems.append(f"histogram of T_{n} is {distance:.4f} from the exact law in KS distance")


def check_validate(report: dict, out: Path, exp: Expected, problems: list[str]) -> None:
    check_scalars(report, exp, problems)
    verdicts = {v["name"]: v for v in report["verdicts"]}
    failed = [name for name, v in verdicts.items() if not v["passed"]]
    if failed:
        problems.append(f"verdicts failed: {failed}")
    cfg = exp.config["simulation"]
    horizon, size = cfg["horizon"], cfg["n_samples"]
    exact = reference.finite_horizon_count_variance(exp.ref, horizon) / horizon
    estimate = verdicts["variancebis"]["estimate"]
    # sample variance of near-normal counts: standard error sqrt(2 / (N - 1)) relative
    _z("counting variance rate", estimate, exact, exact * math.sqrt(2.0 / (size - 1)), problems)
    for row in _rows(out / "clt.csv"):
        t = float(row["t"])
        _close(f"normal_cdf({t})", float(row["normal_cdf"]), 0.5 * math.erfc(-t / math.sqrt(2.0)), 1e-15, problems)
    n = cfg["n_returns"]
    for row in _rows(out / "tails.csv"):
        u, side, count = float(row["u"]), row["side"], int(row["count"])
        if exp.closed_form and side == "upper":
            threshold = math.ceil(n * (1.0 / exp.mu + u))
            p = reference.full2_tail_probability(n, threshold)
            _z(f"tail count T_{n} >= {threshold}", count, size * p, math.sqrt(size * p * (1.0 - p)), problems)
            want, _ = reference.full2_rate(1.0 / exp.mu + u)
            _close("predicted tail rate", float(row["predicted_rate"]), want, 1e-9, problems)


def check_output(command: str, out: Path, exp: Expected) -> list[str]:
    """Problems with the files ``command`` wrote to ``out`` on a successful run."""
    problems: list[str] = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if command == "analyze":
        check_scalars(report, exp, problems)
    elif command == "simulate":
        check_simulation(report, out / "returns_hist.csv", exp, problems)
    else:
        check_validate(report, out, exp, problems)
    if command != "simulate":
        if "alpha_grid" in exp.config:
            check_scgf(out / "scgf.csv", exp, problems)
        if "u_grid" in exp.config:
            check_rate(out / "rate.csv", exp, problems)
    return problems
