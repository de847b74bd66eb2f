"""Command-line front end: config ingestion, analyses, and reports.

Configuration is a single JSON document (see README for the schema); every
command writes a ``report.json`` plus the CSV tables it produces.  Floats in
CSV files are printed with 17 significant digits so outputs round-trip
bit-exactly; identical config and seed give byte-identical files.

Exit codes: 0 ok, 2 configuration error, 3 domain error, 4 numeric failure,
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from . import __version__
from .deviations import VarianceReport, conjugate_points, opening_asks, variance_report
from .errors import (
    ConfigurationError,
    DomainError,
    InvalidSystemError,
    NumericError,
    SftReturnsError,
)
from .montecarlo import (
    RNG_ALGORITHM,
    EmpiricalStats,
    SimConfig,
    empirical_clt,
    empirical_tail_rate,
    normal_cdf,
    sample_return_times,
    tail_cut,
    visit_counts,
)
from .oracle import FirstReturnLaw, exact_mgf, first_return_law, mgf_matrix, return_time_law
from .return_op import ReturnOperator
from .system import (
    DepthKPotential,
    RecodedSystem,
    SymbolicSystem,
    TargetSet,
    admissible_words,
    recode_higher_block,
    validate_system,
)
from .thermo import GibbsChain, gibbs_chain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5

GRID_MARGIN = 2e-5  # alpha grid points must lie this far below alpha0, where Psi' has its pole


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# clt.csv's grid of t, and the file with its t and normal_cdf columns formatted
# once per process, each empirical_cdf field left as a {:.17g} to format
_CLT_GRID = np.linspace(-4.0, 4.0, 401)
_CLT_CSV = "t,empirical_cdf,normal_cdf\n" + "".join(
    f"{_fmt(float(t))},{{:.17g}},{_fmt(float(normal_cdf(t)))}\n" for t in _CLT_GRID
)


@dataclass
class AnalysisConfig:
    """Parsed configuration with recorded parse-time notices."""

    system: SymbolicSystem
    alpha_grid: np.ndarray | None
    u_grid: np.ndarray | None
    simulation: SimConfig | None
    tails: list[tuple[float, str]]
    notices: list[str] = field(default_factory=list)


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}


def _typed(value: Any, kind: type, context: str) -> Any:
    """``value`` if it is a JSON object (``dict``) or array (``list``) as ``kind`` asks."""
    if not isinstance(value, kind):
        got = _JSON_TYPES.get(type(value), "number")
        raise ConfigurationError(f"{context} must be a JSON {_JSON_TYPES[kind]}, got {got}")
    return value


def _need(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigurationError(f"missing '{key}' in {context}")
    return mapping[key]


def _parse_grid(spec: Any, context: str) -> np.ndarray:
    if isinstance(spec, list):
        return np.asarray([float(x) for x in spec], dtype=float)
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{context} must be a list or a min/max/count object")
    lo = float(_need(spec, "min", context))
    hi = float(_need(spec, "max", context))
    count = int(_need(spec, "count", context))
    if count < 1 or hi < lo:
        raise ConfigurationError(f"{context} needs min <= max and count >= 1")
    return np.linspace(lo, hi, count)


def _parse_system(raw: dict, notices: list[str]) -> SymbolicSystem:
    _typed(raw, dict, "system")
    n = int(_need(raw, "n_symbols", "system"))
    rows = _need(raw, "transitions", "system")
    if not isinstance(rows, list) or len(rows) != n:
        raise ConfigurationError(f"transitions must be a list of {n} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigurationError(f"transition row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if entry not in (0, 1):
                raise ConfigurationError(f"transition entry ({i},{j}) must be 0 or 1")
    transitions = np.asarray(rows, dtype=int)

    pot_raw = _typed(_need(raw, "potential", "system"), dict, "potential")
    depth = int(_need(pot_raw, "depth", "potential"))
    values: dict[tuple[int, ...], float] = {}
    for k, item in enumerate(_typed(pot_raw.get("values", []), list, "potential values")):
        _typed(item, dict, f"potential value {k}")
        word = tuple(int(s) for s in _need(item, "word", f"potential value {k}"))
        val = _need(item, "value", f"potential value {k}")
        if not isinstance(val, (int, float)) or not math.isfinite(float(val)):
            raise ConfigurationError(f"potential value {k} for word {word} is not finite")
        values[word] = float(val)
    known = set(values)
    words = admissible_words(transitions.astype(bool), depth)
    admissible = set(words)
    extra = known - admissible
    if extra:
        raise ConfigurationError(f"potential word {sorted(extra)[0]} is not admissible")
    missing = admissible - known
    if missing:
        notices.append(
            f"{len(missing)} admissible word(s) had no potential value; defaulted to 0.0"
        )
        for word in missing:
            values[word] = 0.0

    target = _need(raw, "target", "system")
    if not isinstance(target, list) or not target:
        raise ConfigurationError("target must be a nonempty list of symbols")
    return SymbolicSystem(
        n_symbols=n,
        transitions=transitions,
        potential=DepthKPotential(depth, values),
        target=TargetSet(tuple(sorted(int(s) for s in target))),
        words=words,
    )


@contextmanager
def _block(name: str) -> Iterator[None]:
    """Re-raise a bare TypeError or ValueError (``int("a")``, say) as a ConfigurationError naming the block."""
    try:
        yield
    except SftReturnsError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"'{name}' block: {exc}") from exc


def load_config(path: Path, seed_override: int | None, samples_override: int | None) -> AnalysisConfig:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    notices: list[str] = []
    with _block("system"):
        system = _parse_system(_need(raw, "system", "config"), notices)
    with _block("alpha_grid"):
        alpha_grid = _parse_grid(raw["alpha_grid"], "alpha_grid") if "alpha_grid" in raw else None
    with _block("u_grid"):
        u_grid = _parse_grid(raw["u_grid"], "u_grid") if "u_grid" in raw else None

    simulation = None
    tails: list[tuple[float, str]] = []
    if "simulation" in raw:
        sim = _typed(raw["simulation"], dict, "simulation")
        with _block("simulation"):
            simulation = SimConfig(
                seed=seed_override if seed_override is not None else int(_need(sim, "seed", "simulation")),
                n_returns=int(sim.get("n_returns", 1)),
                n_samples=samples_override if samples_override is not None else int(sim.get("n_samples", 1)),
                horizon=int(sim.get("horizon", 1)),
            )
            for k, item in enumerate(_typed(sim.get("tails", []), list, "tails")):
                _typed(item, dict, f"tails entry {k}")
                u = float(_need(item, "u", f"tails entry {k}"))
                side = _need(item, "side", f"tails entry {k}")
                if side not in ("upper", "lower"):
                    raise ConfigurationError(f"tails entry {k}: side must be 'upper' or 'lower'")
                tails.append((u, side))
    return AnalysisConfig(
        system=system,
        alpha_grid=alpha_grid,
        u_grid=u_grid,
        simulation=simulation,
        tails=tails,
        notices=notices,
    )


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------

@dataclass
class Bundle:
    """Everything derived deterministically from the configured system."""

    config: AnalysisConfig
    recoded: RecodedSystem
    op: ReturnOperator
    chain: GibbsChain
    notices: list[str]

    @property
    def target(self) -> tuple[int, ...]:
        return self.recoded.target_blocks

    @cached_property
    def variance(self) -> VarianceReport:
        return variance_report(self.op, self.chain)

    @cached_property
    def law(self) -> FirstReturnLaw:
        """The first-return law of the oracle checks, certified up to their largest tilt."""
        conj_tilt, sandwich_tilts = _oracle_tilts(self.op)
        budget = 1.1 * max([conj_tilt] + [a for a in sandwich_tilts if a > 0.0])
        return first_return_law(self.chain, self.target, tol=1e-12, alpha_max=budget)


def _oracle_tilts(op: ReturnOperator) -> tuple[float, list[float]]:
    """(conjugacy tilt, sandwich tilts) of the oracle checks, all below alpha0 / 2."""
    conj_tilt = 0.5 * op.alpha0 if np.isfinite(op.alpha0) else 1.0
    return conj_tilt, [a for a in (-1.0, -0.2, 0.2) if a < 0.5 * op.alpha0]


def build_bundle(config: AnalysisConfig) -> Bundle:
    recoded = recode_higher_block(config.system)
    op = ReturnOperator(recoded)
    chain = gibbs_chain(recoded, op.perron)
    return Bundle(config=config, recoded=recoded, op=op, chain=chain, notices=list(config.notices))


def clip_alpha_grid(bundle: Bundle, grid: np.ndarray, clip: bool) -> np.ndarray:
    limit = bundle.op.alpha0 - GRID_MARGIN
    bad = np.flatnonzero(grid >= limit)
    if bad.size == 0:
        return grid
    if not clip:
        raise DomainError(
            f"alpha grid point {grid[bad[0]]!r} (index {bad[0]}) is not below "
            f"alpha0 - margin = {limit!r}; rerun with --clip-grid to clip"
        )
    bundle.notices.append(
        f"clipped {bad.size} alpha grid point(s) at or above alpha0 - margin = {limit!r}"
    )
    return grid[grid < limit]


def clip_u_grid(bundle: Bundle, grid: np.ndarray, clip: bool) -> np.ndarray:
    floor = float(bundle.op.min_cycle_mean)
    bad = np.flatnonzero(grid < floor)
    if bad.size == 0:
        return grid
    if not clip:
        raise DomainError(
            f"u grid point {grid[bad[0]]!r} (index {bad[0]}) is below the attainable "
            f"return average {floor!r}; rerun with --clip-grid to clip"
        )
    bundle.notices.append(f"clipped {bad.size} u grid point(s) below {floor!r}")
    return grid[grid >= floor]


def _kept_grids(bundle: Bundle) -> tuple[list[float], list[float]]:
    """The alpha and u grid points that :func:`clip_alpha_grid` and :func:`clip_u_grid` keep when clipping.

    Read without the clips' notices and errors, which a command meets where it clips.
    """
    config, op = bundle.config, bundle.op
    alphas = [] if config.alpha_grid is None else config.alpha_grid[config.alpha_grid < op.alpha0 - GRID_MARGIN]
    us = [] if config.u_grid is None else config.u_grid[config.u_grid >= float(op.min_cycle_mean)]
    return list(alphas), [float(u) for u in us]


def scalar_block(bundle: Bundle) -> dict[str, Any]:
    op = bundle.op
    report = bundle.variance
    psi1_0, _ = op.scgf_derivatives(0.0)
    kac_residual = abs(psi1_0 * op.mu_target - 1.0)
    lam_p = op.eval(op.pressure).lam
    scalars = {
        "pressure": {"value": op.pressure, "tolerance": 1e-12},
        "restricted_pressure": {"value": op.s_critical, "tolerance": 1e-12},
        "s_critical": {"value": op.s_critical, "tolerance": 1e-12},
        "alpha0": {"value": op.alpha0, "tolerance": 1e-12},
        "mu_target": {"value": op.mu_target, "tolerance": 1e-10},
        "minimal_return_time": {"value": op.minimal_return, "tolerance": 0},
        "min_return_cycle_mean": {"value": float(op.min_cycle_mean), "tolerance": 0},
        "sigma2": {"value": report.sigma2, "tolerance": 1e-9},
        "sigma2_bar": {"value": report.sigma2_bar, "tolerance": 1e-9},
        "series_sigma2": {"value": report.series_sigma2, "tolerance": 1e-6},
        "lambda_at_pressure": {"value": lam_p, "tolerance": 1e-10},
        "kac_residual": {"value": kac_residual, "tolerance": 1e-8},
        "entropy": {"value": bundle.chain.entropy, "tolerance": 1e-10},
    }
    return scalars


def write_csv(path: Path, header: Sequence[str], rows: list[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_scgf_csv(bundle: Bundle, grid: np.ndarray, out: Path) -> Path:
    curve = bundle.op.curve(grid)
    rows = [
        [float(a), float(p), float(p1), float(p2)]
        for a, p, p1, p2 in zip(curve.alpha_grid, curve.psi, curve.psi1, curve.psi2)
    ]
    path = out / "scgf.csv"
    write_csv(path, ["alpha", "psi", "psi1", "psi2"], rows)
    return path


def write_rate_csv(us: list[float], points: list, out: Path) -> Path:
    """rate.csv from the grid's :func:`conjugate_points`; the first failed point raises its error."""
    rows = []
    for u, point in zip(us, points):
        if isinstance(point, SftReturnsError):
            raise point
        rows.append([u, float(point[0]), float(point[1])])
    path = out / "rate.csv"
    write_csv(path, ["u", "rate", "alpha_star"], rows)
    return path


def write_grid_csvs(
    args: argparse.Namespace, bundle: Bundle, out: Path, abscissas: Sequence[float] = ()
) -> tuple[list[str], list]:
    """scgf.csv and rate.csv for the configured grids, clipped as the flags say.

    The rate searches of the u grid and of ``abscissas`` advance in one
    lockstep.  Returns the files and the abscissas' conjugate points, each a
    point or the error its search met.
    """
    files = []
    if bundle.config.alpha_grid is not None:
        grid = clip_alpha_grid(bundle, bundle.config.alpha_grid, args.clip_grid)
        files.append(str(write_scgf_csv(bundle, grid, out)))
    us = []
    if bundle.config.u_grid is not None:
        us = [float(u) for u in clip_u_grid(bundle, bundle.config.u_grid, args.clip_grid)]
    points = conjugate_points(bundle.op, us + list(abscissas))
    if bundle.config.u_grid is not None:
        files.append(str(write_rate_csv(us, points[: len(us)], out)))
    return files, points[len(us) :]


def write_clt_csv(bundle: Bundle, stats: EmpiricalStats, sigma: float, out: Path) -> Path:
    n = stats.n_returns
    mu = bundle.op.mu_target
    z = np.sort((stats.samples - n / mu) / (sigma * math.sqrt(n)))
    emp = np.searchsorted(z, _CLT_GRID, side="right") / z.size
    path = out / "clt.csv"
    path.write_text(_CLT_CSV.format(*emp.tolist()), encoding="utf-8", newline="\n")
    return path


def write_tails_csv(
    bundle: Bundle, stats: EmpiricalStats, tails: list[tuple[float, str]], points: list, out: Path
) -> tuple[Path, list[dict[str, Any]]]:
    """tails.csv from each tail's conjugate point; a search that failed numerically predicts rate inf."""
    mu = bundle.op.mu_target
    rows = []
    details = []
    for (u, side), point in zip(tails, points):
        rate, count = empirical_tail_rate(stats, mu, u, side)
        if isinstance(point, NumericError):
            predicted = float("inf")
        elif isinstance(point, SftReturnsError):
            raise point
        else:
            predicted = point[0]
        rows.append([float(u), side, float(rate), int(count), float(predicted)])
        details.append(
            {"u": u, "side": side, "rate_estimate": rate, "count": count, "predicted_rate": predicted}
        )
    path = out / "tails.csv"
    write_csv(path, ["u", "side", "rate_estimate", "count", "predicted_rate"], rows)
    return path, details


def write_hist_csv(stats: EmpiricalStats, out: Path) -> Path:
    rows = "".join(f"{v},{c}\n" for v, c in stats.histogram.items())
    path = out / "returns_hist.csv"
    path.write_text("value,count\n" + rows, encoding="utf-8", newline="\n")
    return path


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

def _verdict(name: str, kind: str, passed: bool, **metrics: Any) -> dict[str, Any]:
    return {"name": name, "kind": kind, "passed": bool(passed), **metrics}


def deterministic_checks(bundle: Bundle) -> list[dict[str, Any]]:
    op = bundle.op
    out = []
    lam = op.eval(op.pressure).lam
    out.append(_verdict("lambda_at_pressure", "deterministic", abs(lam - 1.0) <= 1e-10,
                        residual=abs(lam - 1.0), tolerance=1e-10))
    psi1_0, _ = op.scgf_derivatives(0.0)
    kac = abs(psi1_0 * op.mu_target - 1.0)
    out.append(_verdict("kac_identity", "deterministic", kac <= 1e-8, residual=kac, tolerance=1e-8))
    gap = op.pressure - op.s_critical
    out.append(_verdict("pressure_gap", "deterministic", gap > 1e-12, residual=gap, tolerance=1e-12))
    vari = abs(bundle.chain.entropy + _mean_potential(bundle) - bundle.chain.pressure)
    out.append(_verdict("variational_identity", "deterministic", vari <= 1e-10,
                        residual=vari, tolerance=1e-10))
    two_routes, two_route_tol = bundle.variance.two_route_gap, bundle.variance.two_route_tol
    out.append(_verdict("variance_two_routes", "deterministic", two_routes <= two_route_tol,
                        residual=two_routes, tolerance=two_route_tol))

    conj_tilt, sandwich_tilts = _oracle_tilts(op)
    conj_tilts = (-1.0, 0.0, conj_tilt)
    law = bundle.law
    worst = 0.0
    for alpha in conj_tilts:
        Q, _ = mgf_matrix(law, alpha)
        ev = op.eval(op.pressure - alpha)
        v_t = op.right_vec[np.array(op.target)]
        conj = np.diag(1.0 / v_t) @ ev.R @ np.diag(v_t)
        worst = max(worst, float(np.abs(Q - conj).max()))
    out.append(_verdict("oracle_spectral_conjugacy", "deterministic", worst <= 1e-10,
                        residual=worst, tolerance=1e-10))

    worst_ratio = 0.0
    for alpha in sandwich_tilts:
        psi = op.scgf(alpha)
        cs = [abs(math.log(exact_mgf(law, n, alpha)[0]) - n * psi) for n in range(1, 9)]
        # the floor guards exactly-iid targets where every C_n is pure roundoff
        worst_ratio = max(worst_ratio, max(cs) / max(2.0 * cs[2], 1e-9))
    out.append(_verdict("sandwich_bounded", "deterministic", worst_ratio <= 1.0,
                        residual=worst_ratio, tolerance=1.0))
    return out


def _mean_potential(bundle: Bundle) -> float:
    p = bundle.chain.transition_probs
    pi = bundle.chain.stationary
    phi = np.where(p > 0.0, bundle.recoded.potential2, 0.0)
    return float((pi[:, np.newaxis] * p * phi).sum())


def stochastic_checks(
    bundle: Bundle, stats: EmpiricalStats, counts: np.ndarray, var_rate: float,
    tails: list[tuple[float, str]],
) -> list[dict[str, Any]]:
    op = bundle.op
    out = []
    n = stats.n_returns
    mu = op.mu_target
    n_samples = stats.samples.size
    se = math.sqrt(stats.variance / n_samples) if stats.variance > 0 else float("inf")
    z_mean = abs(stats.mean - n / mu) / se
    out.append(_verdict("mc_mean_kac", "stochastic", z_mean <= 5.0, z_score=z_mean, tolerance=5.0))

    report = bundle.variance
    predicted_bar = report.sigma2_bar
    c = counts.astype(float)
    horizon = bundle.config.simulation.horizon if bundle.config.simulation else 1
    expected_visits = c.size * horizon * mu
    if expected_visits >= 10.0:
        centered = (c - c.mean()) ** 2
        se_var = math.sqrt(max(centered.var(ddof=1), 1e-300) / c.size) / horizon
        z_var = abs(var_rate - predicted_bar) / se_var if se_var > 0 else float("inf")
        out.append(_verdict("variancebis", "stochastic", z_var <= 5.0, z_score=z_var,
                            tolerance=5.0, estimate=var_rate, predicted=predicted_bar))
    else:
        # with few visits every count may be equal, and the sample standard error 0
        out.append(_verdict("variancebis", "stochastic", True,
                            note=f"expected visits {expected_visits:.2f} < 10; z-test skipped",
                            estimate=var_rate, predicted=predicted_bar))

    sigma = math.sqrt(report.sigma2)
    ks = empirical_clt(stats, sigma, mu)
    # Berry-Esseen-style allowance: at n_returns >= 400 this is the plain 0.05
    ks_gate = max(0.05, 1.0 / math.sqrt(n))
    out.append(_verdict("clt_ks", "stochastic", ks <= ks_gate, statistic=ks, tolerance=ks_gate))

    for u, side in tails:
        # P(T_n >= cut) is the mass beyond cut - 1, P(T_n <= cut) the mass up to cut
        cut = tail_cut(n, mu, u, side)
        probs, beyond = return_time_law(bundle.chain, bundle.target, n, cut - (side == "upper"))
        p_exact = beyond if side == "upper" else float(probs.sum())
        count = empirical_tail_rate(stats, mu, u, side).count
        expected = p_exact * n_samples
        if expected >= 10.0:
            z = abs(count - expected) / math.sqrt(expected * (1.0 - p_exact))
            out.append(_verdict(f"tail_count_{side}_u={u}", "stochastic", z <= 5.0,
                                z_score=z, tolerance=5.0, count=count, expected=expected))
        else:
            out.append(_verdict(f"tail_count_{side}_u={u}", "stochastic", True,
                                note=f"expected count {expected:.2f} < 10; z-test skipped",
                                count=count, expected=expected))
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _report_skeleton(args: argparse.Namespace, bundle: Bundle) -> dict[str, Any]:
    return {
        "tool": {"name": "sftreturns", "version": __version__},
        "command": args.command,
        "config": str(args.config),
        "rng": RNG_ALGORITHM,
        "seed": bundle.config.simulation.seed if bundle.config.simulation else None,
        "notices": bundle.notices,
        "files": [],
    }


def _emit(report: dict[str, Any], out_dir: Path) -> None:
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("command", "files") if k in report}))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def cmd_analyze(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    alphas, us = _kept_grids(bundle)
    bundle.op.solve_ahead([0.0, *alphas, *opening_asks(bundle.op, us)])
    variance = bundle.variance
    if not variance.two_route_gap <= variance.two_route_tol:
        raise NumericError(
            f"variance routes disagree: Psi''(0)={variance.sigma2!r} vs series={variance.series_sigma2!r}"
        )
    report = _report_skeleton(args, bundle)
    report["scalars"] = scalar_block(bundle)
    report["restricted_components"] = bundle.op.restricted_components
    report["diagnostics"] = vars(validate_system(bundle.config.system))
    report["files"] = write_grid_csvs(args, bundle, out_dir)[0]
    _emit(report, out_dir)
    return EXIT_OK


def cmd_scgf(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    _require(bundle.config.alpha_grid is not None, "scgf command needs an alpha_grid block")
    grid = clip_alpha_grid(bundle, bundle.config.alpha_grid, args.clip_grid)
    report = _report_skeleton(args, bundle)
    report["files"] = [str(write_scgf_csv(bundle, grid, out_dir))]
    _emit(report, out_dir)
    return EXIT_OK


def cmd_rate(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    _require(bundle.config.u_grid is not None, "rate command needs a u_grid block")
    grid = clip_u_grid(bundle, bundle.config.u_grid, args.clip_grid)
    report = _report_skeleton(args, bundle)
    us = [float(u) for u in grid]
    bundle.op.solve_ahead(opening_asks(bundle.op, us))
    report["files"] = [str(write_rate_csv(us, conjugate_points(bundle.op, us), out_dir))]
    _emit(report, out_dir)
    return EXIT_OK


def cmd_clt(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    _require(bundle.config.simulation is not None, "clt command needs a simulation block")
    stats = sample_return_times(bundle.chain, bundle.target, bundle.config.simulation)
    sigma = math.sqrt(bundle.op.scgf_derivatives(0.0)[1])
    path = write_clt_csv(bundle, stats, sigma, out_dir)
    ks = empirical_clt(stats, sigma, bundle.op.mu_target)
    report = _report_skeleton(args, bundle)
    report["files"] = [str(path)]
    report["clt"] = {"ks_statistic": ks, "sigma_predicted": sigma, "flags": list(stats.flags)}
    _emit(report, out_dir)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    _require(bundle.config.simulation is not None, "simulate command needs a simulation block")
    stats = sample_return_times(bundle.chain, bundle.target, bundle.config.simulation)
    report = _report_skeleton(args, bundle)
    report["files"] = [str(write_hist_csv(stats, out_dir))]
    report["simulation"] = {
        "n_returns": stats.n_returns,
        "n_samples": int(stats.samples.size),
        "mean": stats.mean,
        "variance": stats.variance,
        "flags": list(stats.flags),
    }
    _emit(report, out_dir)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, bundle: Bundle, out_dir: Path) -> int:
    _require(bundle.config.simulation is not None, "validate command needs a simulation block")
    sim = bundle.config.simulation
    # the variance verdicts take sample variances, which need two samples
    _require(sim.n_samples >= 2, f"validate command needs n_samples >= 2, got {sim.n_samples}")
    op = bundle.op
    tails = bundle.config.tails or [(1.0, "upper")]
    # the rate searches at the tails' edges 1/mu +- u advance in the u grid's lockstep
    abscissas = [1.0 / op.mu_target + u if side == "upper" else 1.0 / op.mu_target - u for u, side in tails]
    alphas, us = _kept_grids(bundle)
    conj_tilt, sandwich_tilts = _oracle_tilts(op)
    op.solve_ahead([0.0, *alphas, -1.0, conj_tilt, *sandwich_tilts, *opening_asks(op, us + abscissas)])
    report = _report_skeleton(args, bundle)
    report["scalars"] = scalar_block(bundle)
    verdicts = deterministic_checks(bundle)

    # the return walk and the visit walk step in lockstep on each block's first chunk
    counts, var_rate, stats = visit_counts(bundle.chain, bundle.target, sim, returns=True)
    verdicts.extend(stochastic_checks(bundle, stats, counts, var_rate, tails))

    files, tail_points = write_grid_csvs(args, bundle, out_dir, abscissas)
    sigma = math.sqrt(op.scgf_derivatives(0.0)[1])
    files.append(str(write_clt_csv(bundle, stats, sigma, out_dir)))
    tails_path, tail_details = write_tails_csv(bundle, stats, tails, tail_points, out_dir)
    files.append(str(tails_path))

    report["files"] = files
    report["verdicts"] = verdicts
    report["tails"] = tail_details
    _emit(report, out_dir)
    failed = [v["name"] for v in verdicts if not v["passed"]]
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "scgf": cmd_scgf,
    "rate": cmd_rate,
    "clt": cmd_clt,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftreturns",
        description="Return-time statistics of subshifts of finite type",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, required=True, help="JSON configuration file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    parser.add_argument("--samples", type=int, default=None, help="override the sample count")
    parser.add_argument(
        "--clip-grid", action="store_true",
        help="clip grid points outside certified domains instead of failing",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.seed, args.samples)
        bundle = build_bundle(config)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](args, bundle, out_dir)
    except (ConfigurationError, InvalidSystemError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
