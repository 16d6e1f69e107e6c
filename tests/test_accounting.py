"""Accountant anchors, clipping, noise, and the power bound."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import dpgraphlab as dg
from dpgraphlab.accounting import (DEFAULT_ORDERS, OCCURRENCE_SENSITIVITY, SIGMA_HI, SIGMA_LO,
                                   SIGMA_REL_TOL, _clip_scale, _hyper_log_pmf, _logsumexp_rows,
                                   _sigma_free_terms, make_accountant)
from dpgraphlab.sampling import SampledSubgraph, SubgraphStore
from dpgraphlab.training import subgraph_batch_gradients
from tests.test_sampling import bfs_depths


def naive_per_step_rdp(alpha, sigma, N, T, m):
    """Direct-summation oracle: exact binomial coefficients, plain arithmetic."""
    total = 0.0
    denom = math.comb(N, m)
    for rho in range(0, min(T, m) + 1):
        if m - rho > N - T:
            continue
        p = math.comb(T, rho) * math.comb(N - T, m - rho) / denom
        total += p * math.exp(alpha * (alpha - 1) * rho * rho / (2 * sigma * sigma))
    return math.log(total) / (alpha - 1)


# ---------------------------------------------------------------- clip / noise

def test_clip_scales_down():
    g = np.ones(100)  # norm 10
    out = dg.clip(g, 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out, g * 0.1)


def test_clip_leaves_small_vectors():
    g = np.full(4, 0.25)  # norm 0.5
    np.testing.assert_array_equal(dg.clip(g, 1.0), g)
    zero = np.zeros(4)
    np.testing.assert_array_equal(dg.clip(zero, 1.0), zero)


def test_clip_norm_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        g = rng.standard_normal(100) * rng.uniform(0, 5)
        assert np.linalg.norm(dg.clip(g, 1.0)) <= 1.0 + 1e-12


def test_noisy_batch_gradient_sigma_zero_is_mean():
    # oracle: row-wise clip, then the mean; one row is all zero and one has
    # norm exactly 5 (a 3-4-5 row), which C = 5 leaves as it is
    rng = np.random.default_rng(1)
    grads = rng.standard_normal((8, 20))
    grads[2] = 0.0
    grads[5] = 0.0
    grads[5, :2] = (3.0, 4.0)
    assert np.linalg.norm(grads[5]) == 5.0
    for C in (0.7, 5.0):
        out = dg.noisy_batch_gradient(grads, clip_norm=C, sigma=0.0, seed=0)
        want = np.stack([dg.clip(g, C) for g in grads]).mean(axis=0)
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def min_clip_scale(norms, C):
    """The clip factor's earlier form, min(1, C / max(||g_i||, 1e-300))."""
    return np.minimum(1.0, C / np.maximum(norms, 1e-300))


def test_clip_scale_equals_the_min_expression_bit_for_bit():
    for C in (1.0, 0.5, 3.7, 1e-3):
        norms = np.array([0.0, 1e-300, np.nextafter(C, 0.0), C, np.nextafter(C, np.inf),
                          2.0 * C, 1e300, np.inf, np.nan])
        got, want = _clip_scale(norms, C), min_clip_scale(norms, C)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # and through the batch gradient, on rows of norm 0, C - ulp, C, C + ulp, 2C
        rows = np.zeros((5, 3))
        rows[:, 0] = norms[[0, 2, 3, 4, 5]]
        want_sum = min_clip_scale(np.sqrt(np.vecdot(rows, rows)), C) @ rows
        got = dg.noisy_batch_gradient(rows, C, 0.0, seed=0)
        assert got.tobytes() == (want_sum / 5).tobytes()


def test_clip_equals_the_branch_expression_bit_for_bit():
    # clip multiplies by _clip_scale; the rule it replaced copied a gradient of
    # norm <= C and scaled a longer one by C / norm
    def branch_clip(g, C):
        norm = float(np.linalg.norm(g))
        return np.array(g, copy=True) if norm <= C else g * (C / norm)

    for C in (1.0, 0.5, 3.7):
        for norm in (0.0, np.nextafter(C, 0.0), C, np.nextafter(C, np.inf), 2.0 * C,
                     np.inf, np.nan):
            for g in (np.array([norm]), np.array([0.0, -norm, 0.0])):
                with np.errstate(invalid="ignore"):  # inf * 0 at norm inf, in both
                    got, want = dg.clip(g, C), branch_clip(g, C)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    g = np.random.default_rng(0).normal(size=(7, 5))
    assert dg.clip(g, 1.0).tobytes() == branch_clip(g, 1.0).tobytes()


def test_noisy_batch_gradient_std_monte_carlo():
    # m=1, g=0, sigma=1, C=1: output is standard normal per coordinate
    draws = np.stack([
        dg.noisy_batch_gradient(np.zeros((1, 8)), 1.0, 1.0, seed=s) for s in range(10_000)
    ])
    stds = draws.std(axis=0)
    assert np.all(np.abs(stds - 1.0) < 0.05)


def test_noisy_batch_gradient_deterministic():
    grads = np.ones((4, 10))
    a = dg.noisy_batch_gradient(grads, 1.0, 2.0, seed=42)
    b = dg.noisy_batch_gradient(grads, 1.0, 2.0, seed=42)
    np.testing.assert_array_equal(a, b)


def test_noisy_batch_gradient_rejects_negative_sigma():
    with pytest.raises(ValueError):
        dg.noisy_batch_gradient(np.zeros((1, 4)), 1.0, -0.5, seed=0)
    for clip_norm in (0.0, -1.0):
        with pytest.raises(ValueError):
            dg.noisy_batch_gradient(np.zeros((1, 4)), clip_norm, 1.0, seed=0)


def without_local_node(sg, k):
    """``sg`` with its leaf at local index ``k`` cut out: the subgraph of the
    same root on the graph without that node, under the same sampling."""
    keep = np.arange(sg.size) != k
    edges = sg.edges[sg.edges[:, 1] != k]
    return SampledSubgraph(root=sg.root, nodes=sg.nodes[keep], edges=edges - (edges > k))


def test_removing_a_leaf_moves_a_surviving_subgraph_by_up_to_2c():
    # Removing node v cuts it out of a subgraph rooted at u != v, which
    # survives; both clipped gradients lie in the C-ball, so the shift per
    # occurrence (rho = 1 here) is at most 2C, the accountant's Delta.  A v
    # crafted with features lambda * d pushes the shift past rho * C, which
    # shows the check has power: a Delta of C would be too small.
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=300, target_homophily=0.7, seed=6))
    g = dg.assign_splits(g, dg.SplitSpec(0.56, 0.14, 0.30, seed=6))
    params = dg.init_gcn(g.feat_dim, 32, g.num_classes, 2, seed=6)
    subgraphs = [sg for sg in dg.sample_training_subgraphs(g, 5, 2, 6, seed=6)
                 if np.any(bfs_depths(sg) == 2)]
    rng = np.random.default_rng(66)
    C = 1.0

    def clipped_gradient(graph, sg):
        batch = SubgraphStore(graph, [sg], params.layers).batch(np.zeros(1, dtype=np.int64))
        return dg.clip(subgraph_batch_gradients(*batch, params)[1][0], C)

    shifts = []
    for sg in subgraphs[:12]:
        k = int(rng.choice(np.flatnonzero(bfs_depths(sg) == 2)))  # hop 2 of 2: a leaf
        v = int(sg.nodes[k])
        cut = without_local_node(sg, k)
        assert v not in cut.nodes and cut.size == sg.size - 1
        d = rng.standard_normal(g.feat_dim)
        for lam in (1.0, 10.0, 100.0):
            for sign in (1.0, -1.0):
                features = g.features.copy()
                features[v] = sign * lam * d
                crafted = dataclasses.replace(g, features=features)
                shift = float(np.linalg.norm(clipped_gradient(crafted, sg)
                                             - clipped_gradient(crafted, cut)))
                assert shift <= OCCURRENCE_SENSITIVITY * C * (1 + 1e-12)
                shifts.append(shift)
    assert max(shifts) > C


# ---------------------------------------------------------------- hypergeometric

# the accountant's T-bounded factorization of the hypergeometric log pmf

def hypergeom_pmf(N, T, m, rho):
    return math.exp(_hyper_log_pmf(N, T, m, rho))


def test_hypergeom_pmf_direct_value():
    assert hypergeom_pmf(10, 2, 5, 0) == pytest.approx(56 / 252, abs=1e-12)


def test_hypergeom_pmf_degenerate_T0():
    assert hypergeom_pmf(10, 0, 5, 0) == pytest.approx(1.0, abs=1e-12)


def test_hypergeom_pmf_normalization():
    rng = np.random.default_rng(2)
    for _ in range(20):
        N = int(rng.integers(5, 200))
        T = int(rng.integers(0, N + 1))
        m = int(rng.integers(1, N + 1))
        support = range(max(0, m - (N - T)), min(T, m) + 1)
        total = sum(hypergeom_pmf(N, T, m, r) for r in support)
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- per-step RDP

def test_rdp_degenerate_equals_gaussian():
    # T=1, m=N: every batch contains the node once; plain Gaussian mechanism
    for alpha in (1.5, 2.0, 4.0, 8.0, 32.0):
        for sigma in (0.5, 1.0, 4.0, 16.0):
            got = make_accountant(sigma, 100, 1, 100, orders=[alpha]).per_step_costs[0]
            assert got == pytest.approx(alpha / (2 * sigma * sigma), rel=1e-12, abs=1e-15)


def test_rdp_subsampling_strictly_amplifies():
    for m in (10, 50, 90):
        got = make_accountant(2.0, 100, 1, m, orders=[8.0]).per_step_costs[0]
        assert got < 8.0 / (2 * 4.0)


def test_rdp_matches_direct_summation_oracle():
    # tuple ranges kept inside the oracle's plain-float comfort zone
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(20, 500))
        T = int(rng.integers(1, 7))
        m = int(rng.integers(max(1, T), N + 1))
        sigma = float(rng.uniform(4.0, 20.0))
        alpha = float(rng.uniform(1.5, 12.0))
        got = make_accountant(sigma, N, T, m, orders=[alpha]).per_step_costs[0]
        want = naive_per_step_rdp(alpha, sigma, N, T, m)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_rdp_example_tuple_against_oracle():
    got = make_accountant(4.0, 100, 3, 10, orders=[8.0]).per_step_costs[0]
    want = naive_per_step_rdp(8.0, 4.0, 100, 3, 10)
    assert got == pytest.approx(want, rel=1e-12)


def test_rdp_monotonicity():
    base = dict(sigma=4.0, N=200, T=3, m=20)
    val = make_accountant(base["sigma"], base["N"], base["T"], base["m"],
                          orders=[8.0]).per_step_costs[0]
    assert make_accountant(4.0, 200, 3, 20, orders=[16.0]).per_step_costs[0] >= val  # alpha up
    assert make_accountant(4.0, 200, 5, 20, orders=[8.0]).per_step_costs[0] >= val  # T up
    assert make_accountant(4.0, 200, 3, 40, orders=[8.0]).per_step_costs[0] >= val  # m up
    assert make_accountant(8.0, 200, 3, 20, orders=[8.0]).per_step_costs[0] <= val  # sigma up
    assert make_accountant(4.0, 400, 3, 20, orders=[8.0]).per_step_costs[0] <= val  # N up, m fixed


def test_accountant_order_grid_against_oracles():
    # the whole DEFAULT_ORDERS grid, checked order by order against references
    # that share no code with the accountant
    for sigma in (0.5, 1.0, 4.0, 16.0):
        costs = make_accountant(sigma, 100, 1, 100).per_step_costs
        want = DEFAULT_ORDERS / (2 * sigma * sigma)
        np.testing.assert_allclose(costs, want, rtol=1e-12, atol=0)

    # Near alpha = 1 the cost is a log-moment of about 1e-3 divided by alpha - 1,
    # and the pmfs sum to 1 only to rounding, so the log-moment carries an
    # absolute error of some 1e-14 (3.9e-11 relative in the cost at alpha 1.25,
    # confirmed against 50-digit arithmetic): the bound is 1e-12 relative or
    # 1e-13 absolute on the log-moment, whichever is looser.
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(20, 500))
        T = int(rng.integers(1, 7))
        m = int(rng.integers(max(1, T), N + 1))
        sigma = float(rng.uniform(4.0, 20.0))
        costs = make_accountant(sigma, N, T, m).per_step_costs
        for alpha, cost in zip(DEFAULT_ORDERS, costs):
            if alpha > 12:
                break
            want = naive_per_step_rdp(float(alpha), sigma, N, T, m)
            assert cost == pytest.approx(want, rel=1e-12, abs=1e-13 / (alpha - 1))

    for sigma in (0.3, 1000.0):
        costs = make_accountant(sigma, 560, 6, 64).per_step_costs
        assert np.all(np.isfinite(costs))
        assert np.all(np.diff(costs) >= 0)


def log_terms(sigma, N, T, m):
    """The accountant's (orders x rho) log-moment matrix, recomputed apart from it."""
    rhos = np.arange(max(0, m - (N - T)), min(T, m) + 1)
    log_pmf = np.array([_hyper_log_pmf(N, T, m, int(r)) for r in rhos])
    alpha = DEFAULT_ORDERS[:, None]
    return log_pmf + alpha * (alpha - 1.0) * rhos * rhos / (2.0 * sigma * sigma)


def test_logsumexp_rows_matches_scipy():
    # within 1e-13 absolute on the log-moment, not bit for bit: scipy before
    # 1.15 sums exp(a - a_max) over the whole row
    rng = np.random.default_rng(12)
    cases = [log_terms(float(np.exp(rng.uniform(np.log(0.3), np.log(1000.0)))), N, T, m)
             for N, T, m in ((560, 6, 64), (100, 3, 10), (50, 1, 50), (64, 6, 64), (1000, 30, 999))]
    ties = rng.normal(size=(50, 7))
    ties[:, 3] = ties[:, 5] = ties.max(axis=1) + rng.uniform(0.0, 2.0, size=50)
    cases += [ties, np.zeros((4, 3)), np.full((2, 1), -7.5), rng.normal(scale=50.0, size=(30, 9))]
    for a in cases:
        np.testing.assert_allclose(_logsumexp_rows(a), logsumexp(a, axis=1), rtol=0, atol=1e-13)
    assert log_terms(2.0, 64, 6, 64).shape == (DEFAULT_ORDERS.size, 1)  # m = N: one rho
    assert _logsumexp_rows(np.array([[np.inf, 0.0], [1.0, 1.0]])).tolist() == [np.inf,
                                                                               1.0 + math.log(2)]


def test_sigma_free_terms_need_T_and_m_within_N():
    with pytest.raises(ValueError, match="must not exceed"):
        _sigma_free_terms(DEFAULT_ORDERS, 10, 20, 5)
    with pytest.raises(ValueError, match="must not exceed"):
        make_accountant(1.0, 10, 2, 11)


def test_accountant_names_a_nonpositive_T_or_m():
    with pytest.raises(ValueError, match="T must be an integer >= 1, not -1"):
        make_accountant(1.0, 100, -1, 64)
    with pytest.raises(ValueError, match="m must be an integer >= 1, not 0"):
        make_accountant(1.0, 100, 6, 0)


@pytest.mark.parametrize("args, message", [
    ((1.0, 560, 6.5, 64), "T must be an integer >= 1, not 6.5"),
    ((1.0, 560, True, 64), "T must be an integer >= 1, not True"),
    ((1.0, 560, 6, 64.0), "m must be an integer >= 1, not 64.0"),
    ((1.0, 560.0, 6, 64), "N must be an integer >= 1, not 560.0"),
], ids=["float-T", "bool-T", "float-m", "float-N"])
def test_accountant_rejects_a_count_that_is_not_an_integer(args, message):
    # a float T once raised a bare TypeError from math.comb
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_accountant(*args)


@pytest.mark.parametrize("orders", [[], [8.0, 1.0], [float("nan")]],
                         ids=["empty", "order-1", "nan"])
def test_accountant_applies_the_order_grid_rule_before_any_cost(orders):
    # an empty grid once blamed sigma, as no order's cost was finite
    with pytest.raises(ValueError, match=re.escape(
            f"the order grid must be nonempty with every order above 1, not {orders}")):
        make_accountant(1.0, 100, 3, 10, orders=orders)


SUBNORMAL_DELTA = "delta=1e-320 is too small: 1/delta overflows, so no epsilon is finite"


@pytest.mark.parametrize("build", [
    lambda: dg.calibrate_sigma(5.0, 1e-320, 1000, 560, 6, 64),
    lambda: dg.PrivacySpec(5.0, 1e-320),
    lambda: dg.compose_and_convert(make_accountant(1.0, 560, 6, 64), 0, 1e-320),
], ids=["calibrate", "privacy-spec", "compose-zero-steps"])
def test_a_delta_whose_log_overflows_is_named(build):
    # one delta rule: calibrate_sigma once blamed the epsilon target, and a
    # PrivacySpec took the delta and failed only when its claim was built
    with pytest.raises(ValueError, match=f"^{re.escape(SUBNORMAL_DELTA)}$"):
        build()


def scipy_calibrate(epsilon_target, delta, steps, N, T, m):
    """Oracle bisection: epsilon at each sigma from scipy's logsumexp and a
    fresh minimum over the order grid."""
    def eps_at(sigma):
        costs = logsumexp(log_terms(sigma, N, T, m), axis=1) / (DEFAULT_ORDERS - 1.0)
        return float(np.min(steps * costs + np.log(1.0 / delta) / (DEFAULT_ORDERS - 1.0)))

    if eps_at(SIGMA_HI) > epsilon_target:
        return None
    if eps_at(SIGMA_LO) <= epsilon_target:
        return SIGMA_LO
    lo, hi = SIGMA_LO, SIGMA_HI
    while (hi - lo) > SIGMA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= epsilon_target:
            hi = mid
        else:
            lo = mid
    return hi


def test_calibrate_matches_scipy_bisection():
    rng = np.random.default_rng(13)
    tuples = [(5.0, 1.79e-4, 1000, 560, 6, 64), (1e-4, 1e-5, 100_000, 100, 10, 100),
              (50.0, 1e-5, 10, 100, 2, 100), (50.0, 1e-5, 1, 1000, 1, 10)]
    for _ in range(12):
        N = int(rng.integers(20, 2000))
        T = int(rng.integers(1, 12))
        m = int(rng.integers(1, N + 1))
        tuples.append((float(rng.uniform(0.5, 20.0)), float(10 ** rng.uniform(-7, -3)),
                       int(rng.integers(1, 3000)), N, T, m))
    wants = [scipy_calibrate(*args) for args in tuples]
    assert None in wants and SIGMA_LO in wants  # infeasible and smallest-sigma cases
    for args, want in zip(tuples, wants):
        if want is None:
            with pytest.raises(dg.CalibrationError):
                dg.calibrate_sigma(*args)
        else:
            assert dg.calibrate_sigma(*args) == want


def test_calibrate_unreachable_message_reports_epsilon_at_sigma_hi():
    args = (1e-4, 1e-5, 100_000, 100, 10, 100)
    with pytest.raises(dg.CalibrationError) as err:
        dg.calibrate_sigma(*args)
    eps_hi = dg.compose_and_convert(make_accountant(SIGMA_HI, 100, 10, 100), 100_000, 1e-5)
    assert f"gives epsilon={eps_hi:.4g} over" in str(err.value)


def test_import_leaves_scipy_special_unloaded():
    src = str(Path(dg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dpgraphlab; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------- composition

def test_compose_zero_steps():
    state = make_accountant(4.0, 100, 2, 10)
    assert dg.compose_and_convert(state, 0, 1e-5) == 0.0


def test_compose_monotone_in_steps():
    state = make_accountant(4.0, 100, 2, 10)
    eps = [dg.compose_and_convert(state, s, 1e-5) for s in (1, 10, 100, 1000)]
    assert all(a <= b for a, b in zip(eps, eps[1:]))


def test_compose_single_shot_gaussian_conversion():
    # independent computation of min over the same order grid
    sigma, delta = 4.0, 1e-5
    want = min(a / (2 * sigma * sigma) + math.log(1 / delta) / (a - 1) for a in DEFAULT_ORDERS)
    state = make_accountant(sigma, 50, 1, 50)
    got = dg.compose_and_convert(state, 1, delta)
    assert got == pytest.approx(want, rel=1e-12)


def test_epsilon_spent_reports_order():
    eps, order = dg.compose_and_convert(make_accountant(4.0, 50, 1, 50), 1, 1e-5, return_order=True)
    assert eps > 0
    assert order in DEFAULT_ORDERS


# ---------------------------------------------------------------- calibration

def test_calibrate_monotone_in_epsilon():
    sigmas = [dg.calibrate_sigma(eps, 1.79e-4, 1000, 560, 6, 64) for eps in (5, 10, 15, 20)]
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))


def test_calibrate_self_consistent():
    for eps in (5.0, 10.0):
        sigma = dg.calibrate_sigma(eps, 1.79e-4, 1000, 560, 6, 64)
        assert dg.compose_and_convert(make_accountant(sigma, 560, 6, 64), 1000, 1.79e-4) <= eps


def test_calibrate_regression_pin():
    # pinned after the first verified run of this accountant configuration
    sigma = dg.calibrate_sigma(5.0, 1.79e-4, 1000, 560, 6, 64)
    assert sigma == pytest.approx(30.94, abs=0.05)


@pytest.mark.parametrize("args,match", [
    ((5.0, 2.0, 0, 100, 6, 64), "delta"),
    ((5.0, 1e-3, 0, 10, 60, 64), "must not exceed"),  # T and m above N
    ((5.0, 1e-3, -1, 100, 6, 64), "steps"),
    ((5.0, 1e-3, 0, 100, 101, 64), "must not exceed"),  # T above N
    ((5.0, 1e-3, 0, 100, 6, 101), "must not exceed"),  # m above N
    ((5.0, 1e-3, 0, 100, 0, 64), "T must be an integer >= 1, not 0"),
    ((5.0, 1e-3, 0, 100, -1, 64), "T must be an integer >= 1, not -1"),
    ((5.0, 1e-3, 0, 100, 6, 0), "m must be an integer >= 1, not 0"),
    ((5.0, 1e-3, 0, 100, 6, -3), "m must be an integer >= 1, not -3"),
])
def test_calibrate_validates_before_the_zero_step_shortcut(args, match):
    # the accountant and its conversion reject the same inputs
    with pytest.raises(ValueError, match=match):
        dg.calibrate_sigma(*args)
    epsilon, delta, steps, N, T, m = args
    with pytest.raises(ValueError, match=match):
        dg.compose_and_convert(make_accountant(1.0, N, T, m), steps, delta)


def test_calibrate_zero_steps_gives_the_smallest_sigma():
    assert dg.calibrate_sigma(5.0, 1e-3, 0, 100, 6, 64) == SIGMA_LO


def test_calibrate_unreachable_raises():
    with pytest.raises(dg.CalibrationError):
        dg.calibrate_sigma(1e-4, 1e-5, 100_000, 100, 10, 100)


# ---------------------------------------------------------------- supremum power

@pytest.mark.parametrize("eps,fpr,want", [
    (5.0, 0.001, 0.1485),
    (5.0, 0.005, 0.7422),
    (5.0, 0.01, 1.0),
    (10.0, 0.001, 1.0),
    (10.0, 0.005, 1.0),
    (10.0, 0.01, 1.0),
    (15.0, 0.001, 1.0),
    (20.0, 0.001, 1.0),
])
def test_supremum_power_published_values(eps, fpr, want):
    assert dg.supremum_power(eps, 1.31e-4, fpr) == pytest.approx(want, abs=5e-4)


def test_supremum_power_monotone_and_endpoints():
    delta = 1.31e-4
    powers = [dg.supremum_power(5.0, delta, a) for a in (0.0, 0.001, 0.01, 0.1, 1.0)]
    assert all(a <= b for a, b in zip(powers, powers[1:]))
    assert powers[0] == pytest.approx(delta)
    assert powers[-1] == 1.0
    assert dg.supremum_power(6.0, delta, 0.001) >= dg.supremum_power(5.0, delta, 0.001)
    assert dg.supremum_power(5.0, 1e-3, 0.001) >= dg.supremum_power(5.0, 1e-4, 0.001)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", [710.0, 800.0, 947.1, 1e300])
def test_supremum_power_is_finite_where_exp_epsilon_overflows(epsilon):
    # exp(epsilon) is inf here: the line is still delta at fpr 0 and 1 at
    # every fpr > 0 (e^eps * fpr >= 1 even at the smallest subnormal fpr)
    delta = 1e-4
    assert dg.supremum_power(epsilon, delta, 0.0) == delta
    assert dg.supremum_power(epsilon, delta, 0.01) == 1.0
    power = dg.supremum_power(epsilon, delta, [0.0, 5e-324, 1e-300, 0.5, 1.0])
    np.testing.assert_array_equal(power, [delta, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.filterwarnings("error")
def test_supremum_power_keeps_the_bits_of_the_plain_line_where_it_is_finite():
    # up to epsilon ~709.78 exp(epsilon) is finite, and the line has the bits
    # of min(1, exp(epsilon) * fpr + delta), fpr 0 included
    fprs = np.array([0.0, 5e-324, 1e-300, 1e-6, 0.001, 0.005, 0.01, 0.3, 1.0])
    for epsilon in (0.0, 0.1, 1.0, 5.0, 20.0, 300.0, 709.0, 709.78):
        for delta in (0.0, 1.31e-4, 0.5):
            want = np.minimum(1.0, np.exp(epsilon) * fprs + delta)
            np.testing.assert_array_equal(dg.supremum_power(epsilon, delta, fprs), want)
            for f, w in zip(fprs, want):
                assert dg.supremum_power(epsilon, delta, float(f)) == w


@pytest.mark.parametrize("epsilon,delta", [
    (float("nan"), 1e-4), (-3.0, 1e-4), (float("inf"), 1e-4),
    (5.0, 2.0), (5.0, 1.0), (5.0, -1e-4), (5.0, float("nan")),
])
def test_supremum_power_rejects_epsilon_and_delta_out_of_range(epsilon, delta):
    # at the parent these gave NaN, a bound below the FPR itself, or 1.0
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0|delta must lie in"):
        dg.supremum_power(epsilon, delta, 0.01)


# ---------------------------------------------------------------- delta policy

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: dg.PrivacySpec(NAN, 1e-3),
    lambda: dg.PrivacySpec(INF, 1e-3),
    lambda: dg.PrivacySpec(5.0, 1e-3, noise_multiplier=NAN),
    lambda: dg.PrivacySpec(5.0, 1e-3, noise_multiplier=INF),
    lambda: dg.SubgraphSpec(clip_norm=NAN),
    lambda: dg.SubgraphSpec(clip_norm=INF),
    lambda: dg.clip(np.ones(3), NAN),
    lambda: dg.clip(np.ones(3), INF),
    lambda: dg.noisy_batch_gradient(np.ones((2, 3)), NAN, 1.0, seed=0),
    lambda: dg.noisy_batch_gradient(np.ones((2, 3)), 1.0, NAN, seed=0),
    lambda: dg.noisy_batch_gradient(np.ones((2, 3)), 1.0, INF, seed=0),
    lambda: make_accountant(NAN, 100, 6, 64),
    lambda: dg.compose_and_convert(make_accountant(1.0, 100, 6, 64), NAN, 1e-3),
    lambda: dg.calibrate_sigma(NAN, 1e-3, 100, 100, 6, 64),
    lambda: dg.calibrate_sigma(INF, 1e-3, 100, 100, 6, 64),
    lambda: dg.calibrate_sigma(5.0, 1e-3, NAN, 100, 6, 64),
    lambda: dg.supremum_power(1.0, 0.01, NAN),
    lambda: dg.supremum_power(1.0, 0.01, [0.001, NAN]),
    lambda: dg.recommend_delta(NAN),
    lambda: dg.SplitSpec(NAN, 0.5, 0.5),
    lambda: dg.TrainConfig(learning_rate=NAN),
    lambda: dg.SyntheticSpec(class_separation=NAN),
    lambda: dg.SyntheticSpec(class_separation=INF),
    lambda: dg.SyntheticSpec(feature_noise_std=NAN),
    lambda: dg.SyntheticSpec(feature_noise_std=-INF),
], ids=["eps-nan", "eps-inf", "noise-mult-nan", "noise-mult-inf", "spec-clip-nan",
        "spec-clip-inf", "clip-nan", "clip-inf", "noisy-clip-nan", "noisy-sigma-nan",
        "noisy-sigma-inf", "accountant-sigma-nan", "compose-steps-nan", "calibrate-eps-nan",
        "calibrate-eps-inf", "calibrate-steps-nan", "power-fpr-nan", "power-fpr-list-nan",
        "delta-n-train-nan", "split-nan", "learning-rate-nan", "separation-nan",
        "separation-inf", "noise-std-nan", "noise-std-neg-inf"])
def test_range_checks_reject_nan_and_inf(build):
    # every float rule is a comparison that NaN fails; C, sigma and epsilon
    # must also be finite (C / max(norm, inf) is NaN)
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("n_train,want", [(559, "1.79e-04"), (763, "1.31e-04"), (560, "1.79e-04")])
def test_recommend_delta_three_sig_figs(n_train, want):
    assert f"{dg.recommend_delta(n_train):.2e}" == want


def test_recommend_delta_single_node():
    assert dg.recommend_delta(1) == pytest.approx(0.1)
