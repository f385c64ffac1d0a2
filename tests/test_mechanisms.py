"""Mechanism tests: frozen hand-worked outcomes, exhaustive truthfulness
checks on tiny instances, and the structural invariants every outcome must
satisfy (feasibility, individual rationality, budget compliance)."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from srauctions.dists import DiscreteTabular, Exponential, make_falpha, truncate_at
from srauctions.empirical import SampleCountWarning, SampleParams, build_empirical
from srauctions.lp import (
    MultiItemInstance,
    QuantileSolution,
    aggregate,
    build_lp3,
    make_pricing_plan,
    solve,
)
from srauctions.mechanisms import (
    Environment,
    ExplicitFeasibleSets,
    KUniformMatroid,
    LotteryOffer,
    compute_B_set_and_thresholds,
    empirical_vcg_lazy,
    lottery_bidder_choice,
    lottery_mechanism,
    lottery_offer,
    myerson_single_item,
    posted_price_mechanism,
    two_mech_budget,
    vcg,
    vcg_lazy,
    vcg_with_duplicates,
)


def rng_of(seed):
    return np.random.default_rng(np.random.Philox(key=[seed, 0]))


def single_item(n):
    return KUniformMatroid(1, n)


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class TestEnvironments:
    def test_explicit_requires_downward_closure(self):
        with pytest.raises(ValueError, match="downward-closed"):
            ExplicitFeasibleSets(3, [{0, 1}])  # {0} and {1} missing

    def test_explicit_accepts_closed_family(self):
        env = ExplicitFeasibleSets(3, [{0}, {1}, {2}, {0, 1}, set()])
        assert env.is_feasible({0, 1})
        assert env.is_feasible(set())
        assert not env.is_feasible({0, 2})

    def test_empty_set_always_feasible(self):
        env = ExplicitFeasibleSets(2, [{0}])
        assert env.is_feasible(set())

    def test_matroid_feasibility(self):
        env = KUniformMatroid(2, 4)
        assert env.is_feasible({0, 3})
        assert not env.is_feasible({0, 1, 2})

    def test_best_set_breaks_ties_toward_small_indices(self):
        env = KUniformMatroid(1, 3)
        winners, welfare = env.best_set([2.0, 2.0, 1.0])
        assert winners == (0,)
        assert welfare == 2.0


# ---------------------------------------------------------------------------
# VCG family
# ---------------------------------------------------------------------------


class TestVcg:
    def test_single_item_second_price(self):
        out = vcg(single_item(2), [3.0, 2.0])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(2.0)
        assert out.revenue == pytest.approx(2.0)
        assert out.welfare == pytest.approx(3.0)

    def test_two_uniform_matroid(self):
        out = vcg(KUniformMatroid(2, 3), [3.0, 2.0, 1.0])
        assert out.winners == (0, 1)
        assert out.payments[0] == pytest.approx(1.0)
        assert out.payments[1] == pytest.approx(1.0)

    def test_all_zero_values_sell_nothing(self):
        out = vcg(single_item(3), [0.0, 0.0, 0.0])
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_payments_never_exceed_bids(self):
        rng = rng_of(101)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n + 1))
            v = rng.uniform(0.0, 5.0, n)
            out = vcg(KUniformMatroid(k, n), v)
            for i in out.winners:
                assert 0.0 <= out.payments[i] <= v[i] + 1e-12

    def test_winners_feasible_in_explicit_environment(self):
        env = ExplicitFeasibleSets(3, [{0}, {1}, {2}, {0, 2}])
        rng = rng_of(102)
        for _ in range(25):
            out = vcg(env, rng.uniform(0.0, 3.0, 3))
            assert env.is_feasible(out.winners)

    def test_monotone_in_own_value(self):
        env = KUniformMatroid(2, 3)
        grid = [0.5, 1.0, 1.7, 2.5]
        for profile in itertools.product(grid, repeat=3):
            base = vcg(env, list(profile))
            for i in base.winners:
                for bump in (0.3, 1.1):
                    raised = list(profile)
                    raised[i] += bump
                    assert i in vcg(env, raised).winners


class TestVcgWithDuplicates:
    def test_single_bidder_faces_its_copy(self):
        out = vcg_with_duplicates(single_item(1), [3.0], [2.0])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(2.0)

    def test_stronger_copy_wins(self):
        out = vcg_with_duplicates(single_item(1), [2.0], [5.0])
        assert out.winners == (1,)  # index n+0 is the copy
        assert out.payments[1] == pytest.approx(2.0)

    def test_four_bid_second_price(self):
        out = vcg_with_duplicates(single_item(2), [3.0, 1.0], [2.0, 4.0])
        assert out.winners == (3,)  # the copy of bidder 1
        assert out.payments[3] == pytest.approx(3.0)

    def test_swap_symmetry(self):
        rng = rng_of(103)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            env = KUniformMatroid(k, n)
            v = rng.uniform(0.0, 5.0, n)
            d = rng.uniform(0.0, 5.0, n)
            base = vcg_with_duplicates(env, v, d)
            swap_at = int(rng.integers(0, n))
            v2, d2 = v.copy(), d.copy()
            v2[swap_at], d2[swap_at] = d[swap_at], v[swap_at]
            swapped = vcg_with_duplicates(env, v2, d2)
            assert swapped.revenue == pytest.approx(base.revenue, abs=1e-12)

    def test_copy_and_original_never_win_together(self):
        rng = rng_of(104)
        for _ in range(30):
            v = rng.uniform(0.0, 5.0, 3)
            d = rng.uniform(0.0, 5.0, 3)
            out = vcg_with_duplicates(KUniformMatroid(2, 3), v, d)
            slots = [w % 3 for w in out.winners]
            assert len(slots) == len(set(slots))


class TestVcgLazy:
    def test_reserve_below_threshold_keeps_vcg_payment(self):
        out = vcg_lazy(single_item(2), [3.0, 2.0], [1.0, 1.0])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(2.0)

    def test_no_sale_when_all_below_reserve(self):
        out = vcg_lazy(single_item(2), [0.5, 0.4], [1.0, 1.0])
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_reserve_dominates_weak_competition(self):
        out = vcg_lazy(single_item(2), [3.0, 0.5], [1.0, 1.0])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(1.0)

    def test_empirical_variant_delegates_to_model_reserves(self):
        p = SampleParams(gamma=0.2, xi=0.1, delta=0.1, m=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleCountWarning)
            model = build_empirical([5.0, 3.0, 1.0], p)
        assert model.empirical_reserve() == pytest.approx(3.0)
        models = [model, model]
        direct = vcg_lazy(single_item(2), [4.0, 2.5], [3.0, 3.0])
        via_models = empirical_vcg_lazy(single_item(2), [4.0, 2.5], models)
        assert via_models.winners == direct.winners
        assert via_models.payments == direct.payments


# ---------------------------------------------------------------------------
# virtual-surplus auctions
# ---------------------------------------------------------------------------


class TestMyerson:
    def test_symmetric_pair_pays_virtual_threshold(self):
        d = make_falpha(0.5, 1.0)
        out = myerson_single_item([d, d], [3.0, 2.0])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(2.0, abs=1e-8)

    def test_no_sale_when_all_virtuals_negative(self):
        d = make_falpha(0.5, 1.0)  # phi(v) = (v - 1) / 2
        out = myerson_single_item([d, d], [0.8, 0.9])
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_asymmetric_threshold_crosses_distributions(self):
        d1 = make_falpha(0.5, 1.0)
        d2 = Exponential(1.0)
        out = myerson_single_item([d1, d2], [1.5, 1.2])
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(1.4, abs=1e-8)

    def test_payment_at_most_value(self):
        d1, d2 = make_falpha(0.5, 1.0), Exponential(1.0)
        rng = rng_of(105)
        for _ in range(40):
            v = rng.uniform(0.0, 6.0, 2)
            out = myerson_single_item([d1, d2], v)
            for i in out.winners:
                assert out.payments[i] <= v[i] + 1e-9

    def test_discrete_payment_scans_the_support(self):
        d = DiscreteTabular((1.0, 2.0, 3.0), (0.5, 0.3, 0.2))
        # phi = (1 - 1, 2 - 0.2/0.3, 3) = (0, 4/3, 3)
        out = myerson_single_item([d, d], [3.0, 2.0])
        assert out.winners == (0,)
        # reporting 2 ties the rival at phi = 4/3 and index 0 keeps the item
        assert out.payments[0] == pytest.approx(2.0)

    def test_discrete_zero_virtual_still_eligible(self):
        d = DiscreteTabular((1.0, 2.0, 3.0), (0.5, 0.3, 0.2))
        out = myerson_single_item([d, d], [3.0, 1.0])
        assert out.winners == (0,)
        # a report of 1 ties the rival at phi = 0, so that is the threshold
        assert out.payments[0] == pytest.approx(1.0)


class TestTwoMech:
    def test_coin_one_allocates_by_reserve_weight_for_free(self):
        d = make_falpha(0.5, 1.0)  # reserve = scale = 1
        out = two_mech_budget(single_item(2), [d, d], [3.0, 2.0], [10.0, 10.0], coin=1)
        assert out.winners == (0,)
        assert out.payments[0] == 0.0
        assert out.revenue == 0.0
        assert out.welfare == pytest.approx(3.0)

    def test_coin_two_runs_capped_virtual_auction(self):
        d = make_falpha(0.5, 1.0)
        out = two_mech_budget(single_item(2), [d, d], [3.0, 2.0], [2.5, 10.0], coin=2)
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(2.0, abs=1e-8)
        assert out.payments[0] <= 2.5

    def test_coin_two_no_sale_when_capped_virtuals_negative(self):
        d = make_falpha(0.5, 1.0)
        out = two_mech_budget(single_item(2), [d, d], [5.0, 5.0], [0.7, 0.9], coin=2)
        assert out.winners == ()

    def test_payments_respect_budgets(self):
        d = make_falpha(0.5, 1.0)
        rng = rng_of(106)
        for _ in range(30):
            v = rng.uniform(0.0, 8.0, 3)
            b = rng.uniform(0.5, 4.0, 3)
            out = two_mech_budget(KUniformMatroid(2, 3), [d] * 3, v, b, coin=2)
            for i in out.winners:
                assert out.payments[i] <= b[i] + 1e-9
                assert out.payments[i] <= min(v[i], b[i]) + 1e-9

    def test_rejects_bad_coin(self):
        d = make_falpha(0.5, 1.0)
        with pytest.raises(ValueError, match="coin"):
            two_mech_budget(single_item(1), [d], [1.0], [1.0], coin=3)


# ---------------------------------------------------------------------------
# lotteries
# ---------------------------------------------------------------------------


class TestLotteryOffer:
    def test_posted_when_price_clears_a_third_of_anchor(self):
        offer = lottery_offer(1.0, 2.0)
        assert offer.mode == "posted"
        assert offer.p == 1.0

    def test_menu_range_starts_at_two_p_over_anchor(self):
        offer = lottery_offer(0.1, 2.0)
        assert offer.mode == "menu"
        assert offer.a_min == pytest.approx(0.1)
        assert offer.a_max == pytest.approx(2.0 / 3.0)

    def test_zero_threshold_menu_opens_the_full_range(self):
        offer = lottery_offer(0.0, 2.0)
        assert offer.mode == "menu"
        assert offer.a_min == 0.0

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            lottery_offer(-1.0, 2.0)


class TestLotteryChoice:
    def test_high_value_caps_the_menu_parameter(self):
        offer = lottery_offer(0.1, 2.0)
        choice = lottery_bidder_choice(offer, 3.0, math.inf, rng_of(107))
        assert choice.a == pytest.approx(2.0 / 3.0)
        assert choice.win_prob == pytest.approx(1.0)
        assert choice.bought
        assert choice.price == pytest.approx(2.0 / 3.0)

    def test_posted_price_refused_below_value(self):
        offer = lottery_offer(1.0, 2.0)
        choice = lottery_bidder_choice(offer, 0.5, math.inf, rng_of(108))
        assert not choice.bought
        assert choice.price == 0.0

    def test_budget_exactly_at_cheapest_menu_entry(self):
        offer = lottery_offer(0.1, 2.0)
        budget = offer.a_min * offer.pprime / 2.0
        choice = lottery_bidder_choice(offer, 3.0, budget, rng_of(109))
        assert choice.a == pytest.approx(offer.a_min)

    def test_interior_menu_optimum(self):
        offer = lottery_offer(0.0, 2.0)
        # stationary point a = v/pprime - 1/6 lands inside [0, 2/3]
        choice = lottery_bidder_choice(offer, 1.0, math.inf, rng_of(110))
        assert choice.a == pytest.approx(1.0 / 3.0)
        assert choice.win_prob == pytest.approx(2.0 / 3.0)

    def test_menu_purchases_have_nonnegative_expected_utility(self):
        rng = rng_of(111)
        for _ in range(60):
            p = float(rng.uniform(0.0, 0.5))
            pprime = float(rng.uniform(3.5 * p, 6.0 * p + 1.0))
            offer = lottery_offer(p, pprime)
            v = float(rng.uniform(0.0, 4.0))
            budget = float(rng.uniform(0.1, 3.0))
            choice = lottery_bidder_choice(offer, v, budget, rng)
            if offer.mode == "menu" and choice.bought:
                utility = (1.0 / 3.0 + choice.a) * (v - choice.a * pprime / 2.0)
                assert utility >= -1e-12
                assert choice.a * pprime / 2.0 <= budget + 1e-12


class TestBSetAndThresholds:
    def test_frozen_two_bidder_example(self):
        b_set, t = compute_B_set_and_thresholds(single_item(2), [5.0, 2.0], [5.0, 9.0])
        assert b_set == (0,)
        assert t[0] == pytest.approx(2.0, abs=1e-8)

    def test_full_matroid_makes_everyone_a_member(self):
        b_set, t = compute_B_set_and_thresholds(
            KUniformMatroid(3, 3), [4.0, 2.0, 1.0], [9.0, 9.0, 9.0]
        )
        assert b_set == (0, 1, 2)
        np.testing.assert_allclose(t, 0.0, atol=1e-8)

    def test_budget_governs_the_weight(self):
        b_set, t = compute_B_set_and_thresholds(single_item(2), [5.0, 9.0], [5.0, 2.0])
        assert b_set == (0,)
        assert t[0] == pytest.approx(2.0, abs=1e-8)


class TestInclusionThreshold:
    def test_k_uniform_closed_form_matches_bisection(self):
        rng = rng_of(118)
        n = 5
        for trial in range(40):
            w = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=n)  # ties and zeros
            if trial % 2:
                w = np.where(w > 0.0, rng.uniform(0.0, 4.0, n), 0.0)
            for k in (0, 1, 2, n):
                env = KUniformMatroid(k, n)
                for i in range(n):
                    closed = env.inclusion_threshold(w, i)
                    bisected = Environment.inclusion_threshold(env, w, i)
                    if math.isinf(bisected):
                        assert closed == bisected
                    else:
                        assert closed == pytest.approx(bisected, abs=1e-9)

    def test_k_uniform_reads_the_kth_competitor(self):
        env = KUniformMatroid(2, 4)
        w = [3.0, 1.0, 3.0, 0.0]
        assert [env.inclusion_threshold(w, i) for i in range(4)] == [1.0, 3.0, 1.0, 3.0]
        assert KUniformMatroid(3, 4).inclusion_threshold(w, 3) == 1.0
        # fewer than k positive competitors: any positive weight joins
        assert KUniformMatroid(3, 4).inclusion_threshold([3.0, 0.0, 3.0, 0.0], 3) == 0.0

    def test_explicit_family_bisects(self):
        # {0, 1} (weight w0 + 1) against {2} (weight 3): bidder 0 joins at 2
        env = ExplicitFeasibleSets(3, [{0}, {1}, {2}, {0, 1}])
        assert env.inclusion_threshold([1.0, 1.0, 3.0], 0) == pytest.approx(
            2.0, abs=1e-8
        )
        assert env.inclusion_threshold([1.0, 1.0, 3.0], 2) == pytest.approx(
            2.0, abs=1e-8
        )


class TestLotteryMechanism:
    def test_high_thresholds_collapse_to_posted_offers(self):
        d = make_falpha(0.5, 1.0)  # reserve 1
        out = lottery_mechanism(
            single_item(2), [d, d], [5.0, 4.0], [10.0, 10.0], rng_of(112)
        )
        # T_0 ~ 4 >= r/3: bidder 0 faces a posted price about the runner-up
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(4.0, abs=1e-6)

    def test_single_bidder_menu_composition(self):
        d = make_falpha(0.5, 4.0)  # reserve 4, so T=0 < r/3 opens a menu
        out = lottery_mechanism(single_item(1), [d], [6.0], [100.0], rng_of(113))
        # a* = 6/4 - 1/6 capped at 2/3: price 2/3 * 4 / 2 = 4/3, prob 1
        assert out.winners == (0,)
        assert out.payments[0] == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_unreachable_membership_means_no_offers(self):
        d = make_falpha(0.5, 1.0)
        env = ExplicitFeasibleSets(2, [set()])  # nobody can ever join B
        out = lottery_mechanism(env, [d, d], [5.0, 4.0], [10.0, 10.0], rng_of(114))
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_zero_values_buy_nothing(self):
        d = make_falpha(0.5, 1.0)
        out = lottery_mechanism(
            single_item(2), [d, d], [0.0, 0.0], [10.0, 10.0], rng_of(114)
        )
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_cheap_menu_attracts_low_values(self):
        # the cheapest menu ticket costs exactly the membership threshold, so
        # a bidder whose value clears it buys even far below the reserve
        d = make_falpha(0.5, 1.0)
        out = lottery_mechanism(
            single_item(2), [d, d], [0.2, 0.1], [10.0, 10.0], rng_of(114)
        )
        if out.winners:  # the ticket wins with probability 1/3 + a
            assert out.winners == (0,)
            assert out.payments[0] == pytest.approx(0.1, abs=1e-6)

    def test_winners_feasible_and_budgeted(self):
        d = make_falpha(0.5, 1.0)
        rng = rng_of(115)
        env = KUniformMatroid(2, 4)
        for _ in range(30):
            v = rng.uniform(0.0, 6.0, 4)
            b = rng.uniform(0.2, 5.0, 4)
            out = lottery_mechanism(env, [d] * 4, v, b, rng)
            assert env.is_feasible(out.winners)
            for i in out.winners:
                assert out.payments[i] <= b[i] + 1e-9

    def test_tied_capped_weights_sell_one_item(self):
        # both bidders capped at 0.75 tie for the item; the threshold of each
        # is 0.75, and only the index winner of the tie may take the offer
        d = make_falpha(0.5, 1.0)
        out = lottery_mechanism(
            single_item(2), [d, d], [5.0, 5.0], [0.75, 0.75], rng_of(117)
        )
        assert out.winners == (0,)
        assert out.payments[0] == 0.75

    def test_empirical_reserves_slot_in(self):
        d = make_falpha(0.5, 4.0)
        out_exact = lottery_mechanism(
            single_item(1), [d], [6.0], [100.0], rng_of(116), reserves=[4.0]
        )
        out_default = lottery_mechanism(single_item(1), [d], [6.0], [100.0], rng_of(116))
        assert out_exact.payments == out_default.payments


# ---------------------------------------------------------------------------
# sequential posted prices
# ---------------------------------------------------------------------------


def _posted_setup():
    tr = truncate_at(make_falpha(0.5, 1.0), 4.0, grid=[1.0, 2.0, 3.0, 4.0])
    inst = MultiItemInstance(budgets=(4.0, 4.0), item_limits=(2, 2), dists=((tr, tr), (tr, tr)))
    p = SampleParams(gamma=0.2, xi=0.1, delta=0.1, m=9888)
    rng = rng_of(117)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleCountWarning)
        models = {(i, j): build_empirical(d.sample(rng, p.m), p) for i, j, d in inst.pairs()}
    lp3 = build_lp3(inst, models, p)
    qsol = aggregate(solve(lp3), lp3, inst)
    plan = make_pricing_plan(qsol, inst, models, p)
    return inst, plan


class TestPostedPrice:
    def test_no_offers_no_revenue(self):
        inst, plan = _posted_setup()
        silent = dataclasses.replace(plan, p_offer=0.0)
        out = posted_price_mechanism(inst, silent, np.full((2, 2), 4.0), rng_of(118))
        assert out.winners == ()
        assert out.revenue == 0.0

    def test_degenerate_mixture_posts_the_base_price(self):
        inst, plan = _posted_setup()
        fixed = dataclasses.replace(
            plan,
            p_offer=1.0,
            w_bar=np.ones((2, 2)),
            r_bar=np.full((2, 2), 2, dtype=int),
        )
        out = posted_price_mechanism(inst, fixed, np.full((2, 2), 4.0), rng_of(119))
        assert set(out.payments.values()) == {2.0}

    def test_single_sale_trace(self):
        coin = DiscreteTabular((1.0, 2.0, 3.0), (0.5, 0.3, 0.2))
        inst = MultiItemInstance(budgets=(10.0,), item_limits=(1,), dists=((coin,),))
        plan_fields = dict(
            z_star=np.array([[0.5]]),
            r_bar=np.array([[2]]),
            w_bar=np.array([[1.0]]),
            p_offer=1.0,
            c=1.0,
            c_prime=1.0,
            gamma=0.1,
            xi_bar=0.01,
        )
        from srauctions.lp import PricingPlan

        plan = PricingPlan(**plan_fields)
        out = posted_price_mechanism(inst, plan, np.array([[3.0]]), rng_of(120))
        assert out.winners == ((0, 1),) or out.winners == ((0, 0),)
        ((i, j),) = out.winners
        assert out.payments[(i, j)] == 2.0
        assert out.welfare == 3.0

    def test_item_limits_budgets_and_supply_respected(self):
        inst, plan = _posted_setup()
        eager = dataclasses.replace(plan, p_offer=1.0)
        rng = rng_of(121)
        for _ in range(25):
            values = np.stack(
                [
                    np.column_stack([d.sample(rng, 1) for d in row]).ravel()
                    for row in inst.dists
                ]
            )
            out = posted_price_mechanism(inst, eager, values, rng)
            items_sold = [j for (_, j) in out.winners]
            assert len(items_sold) == len(set(items_sold))
            for i in range(inst.n_bidders):
                mine = [(a, b) for (a, b) in out.winners if a == i]
                assert len(mine) <= inst.item_limits[i]
                spend = sum(out.payments[w] for w in mine)
                assert spend <= inst.budgets[i] + 1e-12
            for (i, j) in out.winners:
                assert out.payments[(i, j)] <= values[i, j] + 1e-12

    def test_price_mixture_support(self):
        inst, plan = _posted_setup()
        eager = dataclasses.replace(plan, p_offer=1.0)
        rng = rng_of(122)
        seen = set()
        for _ in range(40):
            out = posted_price_mechanism(inst, eager, np.full((2, 2), 4.0), rng)
            seen.update(out.payments.values())
        bases = set()
        for i in range(2):
            for j in range(2):
                bases.add(float(eager.r_bar[i, j]))
                bases.add(float(eager.r_bar[i, j] + 1))
        assert seen <= bases


# ---------------------------------------------------------------------------
# exhaustive truthfulness on tiny instances
# ---------------------------------------------------------------------------


def _utility(out, i, true_value):
    if i in out.winners:
        return true_value - out.payments[i]
    return 0.0


class TestTruthfulness:
    SUPPORT = (1.0, 2.0, 3.0)
    PMF = (0.5, 0.3, 0.2)

    def _dist(self):
        return DiscreteTabular(self.SUPPORT, self.PMF)

    def test_vcg_and_lazy_and_myerson_resist_misreports(self):
        d = self._dist()
        env = single_item(2)
        reserves = [d.reserve_price, d.reserve_price]
        mechanisms = {
            "vcg": lambda bids: vcg(env, bids),
            "vcg_lazy": lambda bids: vcg_lazy(env, bids, reserves),
            "myerson": lambda bids: myerson_single_item([d, d], bids),
        }
        for name, run in mechanisms.items():
            for profile in itertools.product(self.SUPPORT, repeat=2):
                for i in range(2):
                    truthful = _utility(run(list(profile)), i, profile[i])
                    for lie in self.SUPPORT:
                        if lie == profile[i]:
                            continue
                        bids = list(profile)
                        bids[i] = lie
                        deviated = _utility(run(bids), i, profile[i])
                        assert deviated <= truthful + 1e-12, (
                            f"{name}: bidder {i} gains by reporting {lie} "
                            f"at profile {profile}"
                        )
