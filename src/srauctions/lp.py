"""Ex-ante allocation LPs for the multi-item budgeted setting.

Two linear programs share one structure: maximize the f-weighted virtual
surplus sum f(r) phi(r) x(r) over per-(bidder, item, value) allocation
variables x in [0,1], subject to per-bidder item-count rows, per-bidder
budget rows, and per-item unit-supply rows.  The exact program reads f and
phi from the true discrete distributions; the sample-based program reads
them from a discretization of the empirical model (one atom per distinct
retained value plus the top point mass).

A bounded-variable primal simplex with Bland's rule solves them; instances
here are tiny, so a dense, restart-from-scratch implementation is chosen
for numerical transparency over speed.

Aggregation converts a per-value solution into per-pair quantiles x*
(threshold form: fill from the most valuable atoms down), on which the
pricing plan is built: z* floors the quantile at xi_bar*(1+gamma)^2, the
posted price randomizes between the two integers bracketing the value at
z*, and the offer probability is (1-c*xi_bar)/(4(1+gamma)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dists import DiscreteTabular, check_alpha_sr, dist_from_spec, reject_unknown_keys, revenue_curve_hull
from .empirical import EmpiricalModel, SampleParams

__all__ = [
    "MultiItemInstance",
    "LpProblem",
    "LpSolution",
    "QuantileSolution",
    "PricingPlan",
    "EmpiricalAtoms",
    "NumericalFailureError",
    "build_lp2",
    "build_lp3",
    "solve",
    "aggregate",
    "decompose_quantile",
    "discretize_model",
    "make_pricing_plan",
    "check_lp2_feasible",
    "mirror_below_reserve",
    "threshold_fill",
]


class NumericalFailureError(RuntimeError):
    """Simplex exceeded its iteration cap; the problem data is suspect."""


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiItemInstance:
    """Bidders x items with independent discrete priors on integer values.

    Each per-pair prior must be regular and have support inside [1, B_i],
    so a bidder can always afford any realized value of any item.
    """

    budgets: tuple[float, ...]
    item_limits: tuple[int, ...]
    dists: tuple[tuple[DiscreteTabular, ...], ...]  # dists[i][j]

    def __post_init__(self):
        if len(self.dists) != len(self.budgets):
            raise ValueError("need one row of distributions per bidder")
        widths = {len(row) for row in self.dists}
        if len(widths) != 1:
            raise ValueError("ragged distribution grid")
        (n_items,) = widths
        if n_items == 0:
            raise ValueError("need at least one item")
        if len(self.item_limits) != len(self.budgets):
            raise ValueError("need one item limit per bidder")
        for i, (b, n) in enumerate(zip(self.budgets, self.item_limits)):
            if b <= 0:
                raise ValueError(f"budget of bidder {i} must be positive")
            if n < 0 or n != int(n):
                raise ValueError(f"item limit of bidder {i} must be a nonnegative integer")
        for i, row in enumerate(self.dists):
            for j, d in enumerate(row):
                sup = d.support
                if np.any(np.abs(sup - np.round(sup)) > 1e-9) or sup[0] < 1:
                    raise ValueError(f"support of pair ({i},{j}) must be integers >= 1")
                if sup[-1] > self.budgets[i] + 1e-9:
                    raise ValueError(
                        f"pair ({i},{j}) has support above the bidder budget "
                        f"({sup[-1]} > {self.budgets[i]}); truncate first"
                    )
                rep = check_alpha_sr(d, 0.0)
                if not rep.satisfied:
                    raise ValueError(f"distribution of pair ({i},{j}) is not regular")

    @property
    def n_bidders(self) -> int:
        return len(self.budgets)

    @property
    def n_items(self) -> int:
        return len(self.dists[0])

    def pairs(self):
        for i in range(self.n_bidders):
            for j in range(self.n_items):
                yield i, j, self.dists[i][j]

    def to_spec(self) -> dict:
        return {
            "budgets": list(self.budgets),
            "item_limits": list(self.item_limits),
            "dists": [[d.to_spec() for d in row] for row in self.dists],
        }

    #: the keys of an instance spec
    SPEC_KEYS = frozenset({"budgets", "item_limits", "dists"})

    @classmethod
    def from_spec(cls, spec: dict) -> "MultiItemInstance":
        """The instance of a spec (`to_spec`'s form); a key outside
        ``SPEC_KEYS`` is a ValueError that names it."""
        reject_unknown_keys(spec, cls.SPEC_KEYS, "instance")
        return cls(
            budgets=tuple(float(b) for b in spec["budgets"]),
            item_limits=tuple(int(n) for n in spec["item_limits"]),
            dists=tuple(
                tuple(dist_from_spec(s) for s in row) for row in spec["dists"]
            ),
        )


# ---------------------------------------------------------------------------
# empirical discretization (the sample-based program's f-bar, phi-bar)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalAtoms:
    """Discrete rendering of an empirical model.

    One atom per distinct retained value not above the top point mass, plus
    the point-mass atom itself; masses are quantile widths and virtuals are
    envelope increments per unit width, so the implied revenue curve is the
    chord-linearization of the envelope with matching boundary values.
    """

    values: np.ndarray  # descending
    masses: np.ndarray  # positive, sums to 1
    virtuals: np.ndarray  # nonincreasing
    boundaries: np.ndarray  # cumulative quantiles, [0, ..., 1]

    def cr(self, q) -> np.ndarray | float:
        """Revenue curve of the atom set (piecewise linear in quantile)."""
        heights = np.concatenate(([0.0], np.cumsum(self.masses * self.virtuals)))
        return np.interp(q, self.boundaries, heights)


def discretize_model(em: EmpiricalModel) -> EmpiricalAtoms:
    distinct, grid = em._distinct_retained()  # descending values
    # the point mass value is R/q at xi_bar, which lies between the grid
    # rows of the top two retained values, so it stands for the top distinct
    # value and every other one lies below it.  Picking them by position
    # rather than by a value comparison leaves no slack in the unit of value
    below = distinct[1:]
    leftmost = np.maximum(grid(np.arange(1, len(distinct))), em.xi_bar)
    atom_values = np.concatenate(([em.point_mass_value], below))
    boundaries = np.concatenate(([0.0], leftmost, [1.0]))
    masses = np.diff(boundaries)
    if np.any(masses <= 0):
        raise ValueError("degenerate atom widths; empirical model malformed")
    cr_at = em.envelope_at(boundaries)
    virtuals = np.diff(cr_at) / masses
    return EmpiricalAtoms(
        values=atom_values,
        masses=masses,
        virtuals=virtuals,
        boundaries=boundaries,
    )


# ---------------------------------------------------------------------------
# LP construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LpProblem:
    tag: str  # "LP2" or "LP3"
    var_keys: tuple  # (i, j, value) per column
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    row_labels: tuple
    f_var: np.ndarray  # probability mass of each column's atom
    value_var: np.ndarray  # the atom's value
    phi_var: np.ndarray  # virtual value of the atom

    @property
    def n_vars(self) -> int:
        return len(self.c)

    def dump(self) -> str:
        lines = [f"{self.tag}: {self.n_vars} vars, {len(self.b)} rows"]
        lines.append("max " + " + ".join(f"{ci:.6g}*x{k}" for k, ci in enumerate(self.c)))
        for label, row, rhs in zip(self.row_labels, self.A, self.b):
            terms = " + ".join(
                f"{a:.6g}*x{k}" for k, a in enumerate(row) if abs(a) > 1e-15
            )
            lines.append(f"{label}: {terms or '0'} <= {rhs:.6g}")
        lines.append("0 <= x <= 1")
        return "\n".join(lines)


def _assemble(tag, inst, per_pair_atoms):
    """per_pair_atoms[(i,j)] = (values desc or asc, masses, virtuals)."""
    var_keys, c, f_var, value_var, phi_var = [], [], [], [], []
    col_of = {}
    for i, j, _ in inst.pairs():
        values, masses, virtuals = per_pair_atoms[(i, j)]
        if len(values) == 0:
            raise ValueError(f"empty support for pair ({i},{j})")
        for v, m, phi in zip(values, masses, virtuals):
            col_of[(i, j, float(v))] = len(var_keys)
            var_keys.append((i, j, float(v)))
            c.append(m * phi)
            f_var.append(m)
            value_var.append(float(v))
            phi_var.append(phi)
    n = len(var_keys)
    n_i, n_j = inst.n_bidders, inst.n_items
    A = np.zeros((2 * n_i + n_j, n))
    b = np.concatenate(
        [
            np.asarray(inst.item_limits, dtype=float),
            np.asarray(inst.budgets, dtype=float),
            np.ones(n_j),
        ]
    )
    labels = (
        [f"count[{i}]" for i in range(n_i)]
        + [f"budget[{i}]" for i in range(n_i)]
        + [f"supply[{j}]" for j in range(n_j)]
    )
    for k, (i, j, _) in enumerate(var_keys):
        A[i, k] = f_var[k]
        A[n_i + i, k] = f_var[k] * phi_var[k]
        A[2 * n_i + j, k] = f_var[k]
    return LpProblem(
        tag=tag,
        var_keys=tuple(var_keys),
        c=np.asarray(c, dtype=float),
        A=A,
        b=b,
        row_labels=tuple(labels),
        f_var=np.asarray(f_var, dtype=float),
        value_var=np.asarray(value_var, dtype=float),
        phi_var=np.asarray(phi_var, dtype=float),
    )


def build_lp2(inst: MultiItemInstance) -> LpProblem:
    atoms = {}
    for i, j, d in inst.pairs():
        atoms[(i, j)] = (d.support, d.pmf, d.virtual_values())
    return _assemble("LP2", inst, atoms)


def build_lp3(
    inst: MultiItemInstance,
    models: Mapping[tuple, EmpiricalModel],
    p: SampleParams,
) -> LpProblem:
    atoms = {}
    for i, j, _ in inst.pairs():
        a = discretize_model(models[(i, j)])
        atoms[(i, j)] = (a.values, a.masses, a.virtuals)
    return _assemble("LP3", inst, atoms)


# ---------------------------------------------------------------------------
# bounded-variable primal simplex
# ---------------------------------------------------------------------------

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int


def solve(lp: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Maximize c.x subject to A x <= b, 0 <= x <= 1.

    Slack start (x = 0 is always feasible here since b >= 0), Bland's rule
    for both entering and leaving choices, dense refactorization each
    pivot.  Deterministic.  Raises NumericalFailureError at the iteration
    cap, which defaults to 1e5 per variable.
    """
    n = lp.n_vars
    m_rows = len(lp.b)
    A = np.hstack([lp.A, np.eye(m_rows)])
    c = np.concatenate([lp.c, np.zeros(m_rows)])
    lower = np.zeros(n + m_rows)
    upper = np.concatenate([np.ones(n), np.full(m_rows, np.inf)])
    status = np.full(n + m_rows, _AT_LOWER)
    basis = list(range(n, n + m_rows))
    status[basis] = _BASIC
    x = np.zeros(n + m_rows)
    x[basis] = lp.b

    pivot_tol = 1e-9
    cap = 100_000 * max(n, 1) if max_iterations is None else int(max_iterations)
    for iteration in range(cap + 1):
        B = A[:, basis]
        nonbasic = [k for k in range(n + m_rows) if status[k] != _BASIC]
        x_nb = x[nonbasic]
        rhs = lp.b - A[:, nonbasic] @ x_nb
        xb = np.linalg.solve(B, rhs)
        x[basis] = xb
        y = np.linalg.solve(B.T, c[basis])
        entering = -1
        direction = 0
        for k in nonbasic:  # Bland: smallest index wins
            d_k = c[k] - y @ A[:, k]
            if status[k] == _AT_LOWER and d_k > pivot_tol:
                entering, direction = k, 1
                break
            if status[k] == _AT_UPPER and d_k < -pivot_tol:
                entering, direction = k, -1
                break
        if entering < 0:
            obj = float(c[:n] @ x[:n])
            return LpSolution(x=x[:n].copy(), objective=obj, iterations=iteration)
        w = np.linalg.solve(B, A[:, entering])
        move = direction * w  # basic values change by -move * t
        t_best = upper[entering] - lower[entering]  # bound flip
        leaving_pos = -1
        hit_upper = False
        for pos, var in enumerate(basis):
            if move[pos] > pivot_tol:
                t_i = (x[var] - lower[var]) / move[pos]
                if t_i < t_best - 1e-12 or (
                    t_i < t_best + 1e-12
                    and (leaving_pos < 0 or var < basis[leaving_pos])
                ):
                    t_best, leaving_pos, hit_upper = t_i, pos, False
            elif move[pos] < -pivot_tol and np.isfinite(upper[var]):
                t_i = (upper[var] - x[var]) / (-move[pos])
                if t_i < t_best - 1e-12 or (
                    t_i < t_best + 1e-12
                    and (leaving_pos < 0 or var < basis[leaving_pos])
                ):
                    t_best, leaving_pos, hit_upper = t_i, pos, True
        if not np.isfinite(t_best):
            raise NumericalFailureError("unbounded direction in a box-bounded LP")
        t_best = max(t_best, 0.0)
        if direction == 1:
            x[entering] = x[entering] + t_best
        else:
            x[entering] = x[entering] - t_best
        if leaving_pos < 0:
            # bound flip: entering variable moves to its other bound
            status[entering] = _AT_UPPER if direction == 1 else _AT_LOWER
            continue
        leaving = basis[leaving_pos]
        x[leaving] = upper[leaving] if hit_upper else lower[leaving]
        status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
        basis[leaving_pos] = entering
        status[entering] = _BASIC
    raise NumericalFailureError(
        f"simplex exceeded {cap} iterations on {lp.tag} with {n} variables"
    )


# ---------------------------------------------------------------------------
# aggregation to quantile space
# ---------------------------------------------------------------------------


def threshold_fill(masses: np.ndarray, target: float) -> np.ndarray:
    """Fill atoms (ordered by descending value) from the top until the
    f-weighted sum reaches target; returns the per-atom levels in [0,1]."""
    out = np.zeros(len(masses))
    remaining = target
    for k, mass in enumerate(masses):
        if remaining <= 1e-15:
            break
        take = min(1.0, remaining / mass)
        out[k] = take
        remaining -= take * mass
    return out


@dataclass(frozen=True, eq=False)
class QuantileSolution:
    x_star: np.ndarray  # (I, J) aggregates
    thresholds: dict  # (i,j) -> (value at the fractional atom, its level)
    objective: float
    tag: str


def aggregate(sol: LpSolution, lp: LpProblem, inst: MultiItemInstance) -> QuantileSolution:
    """Collapse per-atom variables to per-pair quantiles x* = sum f x and
    re-express each pair in threshold form (fill from the highest value
    down).  The f*phi-weighted objective of the threshold form equals the
    revenue-curve height at x*, which this function cross-checks.
    """
    n_i, n_j = inst.n_bidders, inst.n_items
    x_star = np.zeros((n_i, n_j))
    thresholds = {}
    objective = 0.0
    keys = np.asarray([(i, j) for (i, j, _) in lp.var_keys])
    for i in range(n_i):
        for j in range(n_j):
            cols = np.where((keys[:, 0] == i) & (keys[:, 1] == j))[0]
            order = np.argsort(-lp.value_var[cols], kind="stable")
            cols = cols[order]  # descending value
            f = lp.f_var[cols]
            q = float(f @ sol.x[cols])
            x_star[i, j] = q
            fill = threshold_fill(f, q)
            pair_obj = float((f * lp.phi_var[cols]) @ fill)
            objective += pair_obj
            frac_pos = np.where((fill > 1e-12) & (fill < 1 - 1e-12))[0]
            if len(frac_pos):
                k = int(frac_pos[0])
            else:
                filled = np.where(fill > 1e-12)[0]
                k = int(filled[-1]) if len(filled) else 0
            thresholds[(i, j)] = (float(lp.value_var[cols][k]), float(fill[k]))
    return QuantileSolution(
        x_star=x_star, thresholds=thresholds, objective=objective, tag=lp.tag
    )


def decompose_quantile(value_at_q: float) -> tuple[int, float]:
    """Write a value as w*r + (1-w)*(r+1) with integer r and w in [0,1].

    Integral values (within 1e-9) return (value, 1); values below 1 clamp
    to (1, 1).
    """
    v = float(value_at_q)
    if v < 1.0:
        return 1, 1.0
    nearest = round(v)
    if abs(v - nearest) <= 1e-9:
        return int(nearest), 1.0
    r = math.floor(v)
    return r, float(r + 1 - v)


def mirror_below_reserve(d: DiscreteTabular, q: float) -> float:
    """Smallest quantile at which the revenue curve matches its height at q.

    For q beyond the revenue-maximizing quantile this reflects the point to
    the increasing side of the curve, leaving the curve value unchanged.
    """
    target = float(revenue_curve_hull(d, q))
    sale = np.concatenate(([1.0], 1.0 - np.cumsum(d.pmf)[:-1]))
    grid_q = np.concatenate(([0.0], sale[::-1]))
    grid_cr = np.concatenate(([0.0], (sale * d.support)[::-1]))
    peak = int(np.argmax(grid_cr))
    if q <= grid_q[peak]:
        return float(q)
    # invert the increasing prefix
    return float(np.interp(target, grid_cr[: peak + 1], grid_q[: peak + 1]))


# ---------------------------------------------------------------------------
# pricing plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PricingPlan:
    z_star: np.ndarray  # (I, J) floored quantiles
    r_bar: np.ndarray  # (I, J) integer price base
    w_bar: np.ndarray  # (I, J) probability of posting r_bar (else r_bar+1)
    p_offer: float
    c: float
    c_prime: float
    gamma: float
    xi_bar: float
    y_bar: np.ndarray | None = None  # witness point in LP2's variable order
    y_bar_keys: tuple | None = None

    def expected_price(self, i: int, j: int) -> float:
        return self.w_bar[i, j] * self.r_bar[i, j] + (1 - self.w_bar[i, j]) * (
            self.r_bar[i, j] + 1
        )


def make_pricing_plan(
    qsol: QuantileSolution,
    inst: MultiItemInstance,
    models: Mapping[tuple, EmpiricalModel],
    p: SampleParams,
) -> PricingPlan:
    """Posted-price plan from a solved sample-based program.

    Exposes the analysis witness y_bar: for each pair, the threshold
    decomposition (under the true distribution) of the chance a valuation
    is at least the random posted price, scaled by (1-c*xi_bar)/(1+g)^2.
    """
    n_i, n_j = inst.n_bidders, inst.n_items
    g = p.gamma
    xi_bar = max(models[(i, j)].xi_bar for i in range(n_i) for j in range(n_j))
    scale_c = max(n_i, n_j) * (1 + g) ** 4
    scale_cp = max(n_i, n_j) * (1 + g) ** 2
    c_val = scale_c * xi_bar
    p_offer = (1 - c_val) / (4 * (1 + g) ** 2)
    z_star = np.zeros((n_i, n_j))
    r_bar = np.zeros((n_i, n_j), dtype=int)
    w_bar = np.zeros((n_i, n_j))
    y_parts = {}
    floor_q = xi_bar * (1 + g) ** 2
    for i, j, d in inst.pairs():
        em = models[(i, j)]
        z = max(float(qsol.x_star[i, j]), floor_q)
        z_star[i, j] = z
        v_at_z = em.value_at_quantile(z)
        r, w = decompose_quantile(v_at_z)
        r_bar[i, j], w_bar[i, j] = r, w
        # witness: quantile of the value under the TRUE distribution
        q_true = float(d.sale_probability(v_at_z))
        fill = threshold_fill(d.pmf[::-1], q_true)[::-1]  # back to ascending
        y_parts[(i, j)] = (1 - c_val) / (1 + g) ** 2 * fill
    lp2 = build_lp2(inst)
    y_bar = np.zeros(lp2.n_vars)
    for k, (i, j, v) in enumerate(lp2.var_keys):
        d = inst.dists[i][j]
        idx = int(np.searchsorted(d.support, v))
        y_bar[k] = y_parts[(i, j)][idx]
    return PricingPlan(
        z_star=z_star,
        r_bar=r_bar,
        w_bar=w_bar,
        p_offer=float(p_offer),
        c=float(scale_c),
        c_prime=float(scale_cp),
        gamma=float(g),
        xi_bar=float(xi_bar),
        y_bar=y_bar,
        y_bar_keys=lp2.var_keys,
    )


# ---------------------------------------------------------------------------
# feasibility report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    slacks: dict  # row label -> slack (negative = violated)
    box_slack: float
    feasible: bool

    def worst(self) -> float:
        return min(min(self.slacks.values()), self.box_slack)


def check_lp2_feasible(
    point: np.ndarray, inst: MultiItemInstance, tol: float = 1e-9
) -> FeasibilityReport:
    lp2 = build_lp2(inst)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp2.n_vars,):
        raise ValueError(f"expected a point of length {lp2.n_vars}")
    row_slacks = lp2.b - lp2.A @ x
    slacks = dict(zip(lp2.row_labels, row_slacks.tolist()))
    box = float(min(np.min(x), np.min(1.0 - x)))
    feasible = min(row_slacks.min(), box) >= -tol
    return FeasibilityReport(slacks=slacks, box_slack=box, feasible=bool(feasible))
