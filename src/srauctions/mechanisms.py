"""Auction mechanisms over downward-closed environments.

The module covers: VCG with Clarke payments, VCG against duplicated bidders,
lazy-reserve VCG (exact and sample-based reserves), the single-item virtual
surplus auction, a coin-flip pair of budget-respecting mechanisms, a lottery
menu for bidders with private budgets, and the sequential posted-price sale
driven by a PricingPlan.

Every entry point is a pure function of its inputs plus, where randomness is
involved, an explicitly passed generator; repeated calls with equal inputs
and an equally seeded stream reproduce outcomes bit for bit.  Tie-breaking
is always toward smaller bidder (then item) indices.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dists import DiscreteTabular, ValuationDistribution
from .empirical import EmpiricalModel
from .lp import MultiItemInstance, PricingPlan

__all__ = [
    "Environment",
    "ExplicitFeasibleSets",
    "KUniformMatroid",
    "MechanismOutcome",
    "LotteryOffer",
    "LotteryChoice",
    "vcg",
    "vcg_with_duplicates",
    "vcg_lazy",
    "empirical_vcg_lazy",
    "myerson_single_item",
    "two_mech_budget",
    "lottery_offer",
    "lottery_bidder_choice",
    "compute_B_set_and_thresholds",
    "lottery_mechanism",
    "posted_price_mechanism",
]


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class Environment(ABC):
    """A downward-closed set system over bidders 0..n-1."""

    n_bidders: int

    @abstractmethod
    def is_feasible(self, bidders) -> bool: ...

    @abstractmethod
    def best_set(
        self, values, exclude=frozenset(), include_zero: bool = False
    ) -> tuple[tuple, float]:
        """The welfare-maximizing feasible set avoiding ``exclude``.

        Ties break toward the lexicographically smallest sorted index
        tuple, so an all-zero profile selects the empty set unless
        ``include_zero`` asks for zero-weight bidders to stay in.
        """

    def inclusion_threshold(self, weights, i: int) -> float:
        """Infimum of the weights v' that put bidder ``i`` in ``best_set``.

        Every other weight stays as given.  Membership is monotone in v',
        so a bisection to 1e-9 over [0, max weight + 1] finds it; 0 when
        bidder ``i`` is a member at weight 0, inf when it never is.
        Environments with a closed form override this.
        """
        w = np.array(weights, dtype=float)
        hi = float(w.max()) + 1.0

        def member(vprime: float) -> bool:
            w[i] = vprime
            return i in self.best_set(w)[0]

        if member(0.0):
            return 0.0
        if not member(hi):
            return float("inf")
        lo = 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if member(mid):
                hi = mid
            else:
                lo = mid
        return hi


class ExplicitFeasibleSets(Environment):
    """Feasibility by exhaustive listing, validated downward-closed."""

    def __init__(self, n_bidders: int, sets: Sequence):
        if n_bidders < 1:
            raise ValueError("need at least one bidder")
        canon = {frozenset(int(i) for i in s) for s in sets}
        canon.add(frozenset())
        for s in canon:
            if any(i < 0 or i >= n_bidders for i in s):
                raise ValueError("set member outside the bidder range")
            for member in s:
                if s - {member} not in canon:
                    raise ValueError(
                        f"not downward-closed: {sorted(s)} is listed but "
                        f"{sorted(s - {member})} is not"
                    )
        self.n_bidders = int(n_bidders)
        self._sets = sorted(canon, key=lambda s: (len(s), sorted(s)))

    def is_feasible(self, bidders) -> bool:
        return frozenset(int(i) for i in bidders) in set(self._sets)

    def best_set(self, values, exclude=frozenset(), include_zero=False):
        v = np.asarray(values, dtype=float)
        excl = set(exclude)
        best_key = None
        best = ((), 0.0)
        for s in self._sets:
            if s & excl:
                continue
            members = tuple(sorted(s))
            if not include_zero:
                members = tuple(i for i in members if v[i] > 0.0)
            weight = float(sum(v[i] for i in members))
            key = (-weight, members)
            if best_key is None or key < best_key:
                best_key = key
                best = (members, weight)
        return best


class KUniformMatroid(Environment):
    """Any set of at most k bidders is feasible."""

    def __init__(self, k: int, n_bidders: int):
        if k < 0 or n_bidders < 1:
            raise ValueError("need k >= 0 and at least one bidder")
        self.k = int(k)
        self.n_bidders = int(n_bidders)

    def is_feasible(self, bidders) -> bool:
        s = {int(i) for i in bidders}
        return len(s) <= self.k and all(0 <= i < self.n_bidders for i in s)

    def best_set(self, values, exclude=frozenset(), include_zero=False):
        v = np.asarray(values, dtype=float)
        excl = set(exclude)
        floor = -1e-300 if include_zero else 0.0
        order = sorted(
            (i for i in range(self.n_bidders) if i not in excl and v[i] > floor),
            key=lambda i: (-v[i], i),
        )
        chosen = tuple(sorted(order[: self.k]))
        return chosen, float(sum(v[i] for i in chosen))

    def inclusion_threshold(self, weights, i: int) -> float:
        """The k-th largest positive weight among the other bidders.

        0 when fewer than k of them are positive, inf when k = 0.
        """
        if self.k == 0:
            return float("inf")
        others = np.delete(np.asarray(weights, dtype=float), i)
        positive = np.sort(others[others > 0.0])
        return float(positive[-self.k]) if positive.size >= self.k else 0.0


class _DoubledEnvironment(Environment):
    """base environment over bidder *slots*, where slot i is contested by the
    original bidder i and its copy n+i; the two can never win together."""

    def __init__(self, base: Environment):
        self.base = base
        self.n_bidders = 2 * base.n_bidders

    def is_feasible(self, bidders) -> bool:
        n = self.base.n_bidders
        s = {int(i) for i in bidders}
        slots = [i % n for i in s]
        return len(slots) == len(set(slots)) and self.base.is_feasible(set(slots))

    def best_set(self, values, exclude=frozenset(), include_zero=False):
        n = self.base.n_bidders
        v = np.asarray(values, dtype=float)
        excl = set(exclude)
        champion = {}
        slot_values = np.zeros(n)
        dead_slots = set()
        for slot in range(n):
            live = [m for m in (slot, slot + n) if m not in excl]
            if not live:
                dead_slots.add(slot)
                continue
            champ = min(live, key=lambda m: (-v[m], m))
            champion[slot] = champ
            slot_values[slot] = v[champ]
        slots, welfare = self.base.best_set(
            slot_values, exclude=dead_slots, include_zero=include_zero
        )
        winners = tuple(sorted(champion[s] for s in slots))
        return winners, welfare


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismOutcome:
    """winners, per-winner payments, and the resulting revenue/welfare."""

    winners: tuple
    payments: dict
    revenue: float
    welfare: float

    def to_json_dict(self) -> dict:
        return {
            "winners": [list(w) if isinstance(w, tuple) else w for w in self.winners],
            "payments": {str(k): v for k, v in self.payments.items()},
            "revenue": self.revenue,
            "welfare": self.welfare,
        }


def _outcome(winners, payments, values_of):
    winners = tuple(sorted(winners))
    revenue = float(sum(payments.values()))
    welfare = float(sum(values_of(w) for w in winners))
    return MechanismOutcome(
        winners=winners, payments=payments, revenue=revenue, welfare=welfare
    )


# ---------------------------------------------------------------------------
# VCG family
# ---------------------------------------------------------------------------


def vcg(env: Environment, values) -> MechanismOutcome:
    """Welfare-maximizing allocation with Clarke payments.

    payment_i = (best welfare without i) - (best welfare with i) + v_i.
    """
    v = np.asarray(values, dtype=float)
    if len(v) != env.n_bidders:
        raise ValueError("one value per bidder required")
    winners, opt = env.best_set(v)
    payments = {}
    for i in winners:
        _, opt_without = env.best_set(v, exclude={i})
        # externality imposed on the others; clamp the tiny negative values
        # floating-point cancellation can produce
        payments[i] = max(0.0, float(opt_without - (opt - v[i])))
    return _outcome(winners, payments, lambda i: v[i])


def vcg_with_duplicates(env: Environment, values, duplicate_values) -> MechanismOutcome:
    """VCG where each bidder competes against an independent copy of itself.

    Bidders 0..n-1 are the originals; winner index n+i denotes the copy of
    bidder i.  A bidder and its copy are mutually exclusive, and the copies
    face the same feasibility structure through their slots.
    """
    orig = np.asarray(values, dtype=float)
    dup = np.asarray(duplicate_values, dtype=float)
    if orig.shape != dup.shape or len(orig) != env.n_bidders:
        raise ValueError("need matching value vectors, one per bidder")
    doubled = _DoubledEnvironment(env)
    return vcg(doubled, np.concatenate([orig, dup]))


def vcg_lazy(env: Environment, values, reserves) -> MechanismOutcome:
    """VCG, then drop winners valued below their reserve; survivors pay the
    larger of reserve and their VCG payment."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reserves, dtype=float)
    base = vcg(env, v)
    survivors = [i for i in base.winners if v[i] >= r[i]]
    payments = {i: float(max(r[i], base.payments[i])) for i in survivors}
    return _outcome(survivors, payments, lambda i: v[i])


def empirical_vcg_lazy(
    env: Environment, values, empirical_models: Sequence[EmpiricalModel]
) -> MechanismOutcome:
    """vcg_lazy at the sample-based reserve of each bidder's class model."""
    if len(empirical_models) != env.n_bidders:
        raise ValueError("one class model per bidder required")
    reserves = [m.empirical_reserve() for m in empirical_models]
    return vcg_lazy(env, values, reserves)


# ---------------------------------------------------------------------------
# virtual-surplus auctions
# ---------------------------------------------------------------------------


def _min_winning_report(wins, v_won: float, dist: ValuationDistribution) -> float:
    """Least report keeping ``wins`` true, assuming upward-closed wins.

    Discrete kinds scan their support; continuous kinds bisect to 1e-10.
    """
    if isinstance(dist, DiscreteTabular):
        for u in dist.support:
            if u <= v_won + 1e-12 and wins(float(u)):
                return float(u)
        return v_won
    lo, hi = 0.0, v_won
    if wins(lo):
        return lo
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _virtual_step(dist: ValuationDistribution, u: float) -> float:
    """Virtual valuation extended off-support by the quantile step.

    A budget-capped report can land between the atoms of a discrete prior,
    where the quantile (and hence the virtual valuation) is the one of the
    largest atom at or below the report; below the least atom there is no
    quantile to speak of and the report can never be served.
    """
    if isinstance(dist, DiscreteTabular):
        idx = int(np.searchsorted(dist.support, u + 1e-12)) - 1
        if idx < 0:
            return -np.inf
        return float(dist.virtual_valuation(float(dist.support[idx])))
    return float(dist.virtual_valuation(u))


def myerson_single_item(
    dists: Sequence[ValuationDistribution], values
) -> MechanismOutcome:
    """Sell one item to the highest nonnegative virtual valuation.

    The winner (smallest index on ties) pays the least value that would
    still have won, i.e. the virtual-valuation threshold against the
    runner-up and the reserve.
    """
    v = np.asarray(values, dtype=float)
    if len(v) != len(dists):
        raise ValueError("one distribution per bidder required")
    phis = np.array([float(d.virtual_valuation(x)) for d, x in zip(dists, v)])

    def winner_of(ph):
        eligible = [i for i in range(len(ph)) if ph[i] >= 0.0]
        if not eligible:
            return None
        return min(eligible, key=lambda i: (-ph[i], i))

    win = winner_of(phis)
    if win is None:
        return MechanismOutcome(winners=(), payments={}, revenue=0.0, welfare=0.0)

    def wins(report: float) -> bool:
        trial = phis.copy()
        trial[win] = float(dists[win].virtual_valuation(report))
        return winner_of(trial) == win

    pay = _min_winning_report(wins, float(v[win]), dists[win])
    return _outcome([win], {win: pay}, lambda i: v[i])


def two_mech_budget(
    env: Environment,
    dists: Sequence[ValuationDistribution],
    values,
    budgets,
    coin: int,
) -> MechanismOutcome:
    """One of two budget-feasible mechanisms, selected by a fair coin upstream.

    coin=1: allocate the feasible set maximizing the sum of reserve prices
    and charge nothing.  coin=2: cap each value at its budget and run the
    virtual-surplus auction on the capped profile; capped payments never
    exceed budgets.

    A budget can cap a value between the atoms of a discrete prior; the
    virtual valuation there is the step extension (the virtual value of the
    largest atom at or below the capped value, ineligible below the least
    atom), matching how such a report ranks under the prior's quantiles.
    """
    v = np.asarray(values, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if coin not in (1, 2):
        raise ValueError("coin must be 1 or 2")
    if coin == 1:
        reserves = [float(d.reserve_price) for d in dists]
        winners, _ = env.best_set(reserves)
        return _outcome(winners, {i: 0.0 for i in winners}, lambda i: v[i])
    capped = np.minimum(v, b)
    phis = np.array(
        [_virtual_step(d, x) for d, x in zip(dists, capped)]
    )
    eligible = np.where(phis >= 0.0, phis, 0.0)
    winners, _ = env.best_set(eligible)
    payments = {}
    for i in winners:

        def wins(report: float, i=i) -> bool:
            trial = eligible.copy()
            phi = _virtual_step(dists[i], report)
            trial[i] = phi if phi >= 0.0 else 0.0
            return phi >= 0.0 and i in env.best_set(trial)[0]

        payments[i] = _min_winning_report(wins, float(capped[i]), dists[i])
    return _outcome(winners, payments, lambda i: v[i])


# ---------------------------------------------------------------------------
# lottery menus for private budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LotteryOffer:
    """Either a plain posted price, or a menu of price/probability pairs
    indexed by a in [a_min, 2/3]: pay a*pprime/2, win with chance 1/3 + a."""

    p: float
    pprime: float
    mode: str  # "posted" | "menu"
    a_min: float = 0.0
    a_max: float = 2.0 / 3.0


@dataclass(frozen=True)
class LotteryChoice:
    bought: bool
    price: float
    a: float | None = None
    win_prob: float | None = None


def lottery_offer(p: float, pprime: float) -> LotteryOffer:
    p = float(p)
    pprime = float(pprime)
    if p < 0 or pprime < 0:
        raise ValueError("prices must be nonnegative")
    if p >= pprime / 3.0:
        return LotteryOffer(p=p, pprime=pprime, mode="posted")
    return LotteryOffer(
        p=p, pprime=pprime, mode="menu", a_min=2.0 * p / pprime, a_max=2.0 / 3.0
    )


def lottery_bidder_choice(
    offer: LotteryOffer, v: float, budget: float, rng: np.random.Generator
) -> LotteryChoice:
    """Risk-neutral utility-maximizing response to a lottery offer.

    Menu utility (1/3 + a)(v - a*pprime/2) is a downward parabola with
    stationary point a = v/pprime - 1/6; the bidder clips it to the menu
    range intersected with affordability, participating when the expected
    utility is nonnegative.
    """
    v = float(v)
    if offer.mode == "posted":
        if v >= offer.p and budget >= offer.p:
            return LotteryChoice(bought=True, price=offer.p, win_prob=1.0)
        return LotteryChoice(bought=False, price=0.0, win_prob=0.0)
    a_cap = offer.a_max
    if math.isfinite(budget):
        if budget < offer.a_min * offer.pprime / 2.0 - 1e-15:
            return LotteryChoice(bought=False, price=0.0, win_prob=0.0)
        if offer.pprime > 0:
            a_cap = min(a_cap, 2.0 * budget / offer.pprime)
    a_star = v / offer.pprime - 1.0 / 6.0 if offer.pprime > 0 else offer.a_max
    a = min(max(a_star, offer.a_min), a_cap)
    utility = (1.0 / 3.0 + a) * (v - a * offer.pprime / 2.0)
    if utility < 0.0:
        return LotteryChoice(bought=False, price=0.0, a=a, win_prob=0.0)
    win_prob = 1.0 / 3.0 + a
    bought = bool(rng.random() < win_prob)
    return LotteryChoice(
        bought=bought,
        price=a * offer.pprime / 2.0 if bought else 0.0,
        a=a,
        win_prob=win_prob,
    )


def compute_B_set_and_thresholds(env: Environment, values, budgets):
    """The budget-capped welfare set and each bidder's inclusion threshold.

    The set maximizes sum of min{v_i, B_i} over feasible sets.  T_i is the
    infimum of the v' that make bidder i join the set when both its value
    and its budget are replaced by v' (``Environment.inclusion_threshold``).
    """
    v = np.asarray(values, dtype=float)
    b = np.asarray(budgets, dtype=float)
    weights = np.minimum(v, b)
    b_set, _ = env.best_set(weights)
    thresholds = np.array(
        [env.inclusion_threshold(weights, i) for i in range(env.n_bidders)]
    )
    return tuple(sorted(b_set)), thresholds


def lottery_mechanism(
    env: Environment,
    dists: Sequence[ValuationDistribution],
    values,
    budgets,
    rng: np.random.Generator,
    reserves=None,
) -> MechanismOutcome:
    """Offer every bidder the lottery system (T_i, r_i).

    ``reserves`` defaults to each distribution's exact reserve price; pass
    sample-based reserves for the empirical variant.  Offers go to the
    members of the budget-capped welfare set only, so realized winners
    always form a feasible set.  Any other bidder's capped weight is below
    its threshold, where no purchase is affordable and profitable, or ties
    it and lost the tie on index: two bidders capped at one shared budget
    would otherwise both buy a single item at that price.
    """
    v = np.asarray(values, dtype=float)
    if reserves is None:
        reserves = [float(d.reserve_price) for d in dists]
    r = np.asarray(reserves, dtype=float)
    b_set, thresholds = compute_B_set_and_thresholds(env, v, budgets)
    winners = []
    payments = {}
    for i in b_set:
        offer = lottery_offer(thresholds[i], r[i])
        choice = lottery_bidder_choice(offer, float(v[i]), float(budgets[i]), rng)
        if choice.bought:
            winners.append(i)
            payments[i] = choice.price
    return _outcome(winners, payments, lambda i: v[i])


# ---------------------------------------------------------------------------
# sequential posted prices (sample-based multi-item sale)
# ---------------------------------------------------------------------------


def posted_price_mechanism(
    inst: MultiItemInstance,
    plan: PricingPlan,
    values,
    rng: np.random.Generator,
) -> MechanismOutcome:
    """Offer items at randomized integer prices in fixed order.

    Prices first: r~_ij = r_bar_ij with probability w_bar_ij, else
    r_bar_ij + 1.  Offers second: each (i, j) is extended with probability
    p_offer.  Bidders are then processed in index order; each buys offered,
    still-available items in item order while the value clears the price,
    the remaining budget covers it, and fewer than n_i items are held.
    """
    n_i, n_j = inst.n_bidders, inst.n_items
    v = np.asarray(values, dtype=float)
    if v.shape != (n_i, n_j):
        raise ValueError(f"values must have shape {(n_i, n_j)}")
    price_mix = rng.random((n_i, n_j))
    prices = np.where(price_mix < plan.w_bar, plan.r_bar, plan.r_bar + 1).astype(float)
    offered = rng.random((n_i, n_j)) < plan.p_offer

    sold = np.zeros(n_j, dtype=bool)
    winners = []
    payments = {}
    welfare = 0.0
    for i in range(n_i):
        budget_left = float(inst.budgets[i])
        held = 0
        for j in range(n_j):
            if held >= inst.item_limits[i]:
                break
            if sold[j] or not offered[i, j]:
                continue
            price = float(prices[i, j])
            if v[i, j] >= price and budget_left >= price:
                sold[j] = True
                winners.append((i, j))
                payments[(i, j)] = price
                budget_left -= price
                held += 1
                welfare += float(v[i, j])
    return MechanismOutcome(
        winners=tuple(winners),
        payments=payments,
        revenue=float(sum(payments.values())),
        welfare=welfare,
    )
