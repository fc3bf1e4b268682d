"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  The heavyweight rate and grid criteria take tens of seconds each;
the full module is budgeted well under their stated wall-clock limits.
"""

import time

import numpy as np
import pytest

import blockpd as bp
from blockpd import dlmp
from blockpd.cli import fit_rate
from blockpd.proxops import dykstra_project
from blockpd.sampling import weight_matrix_p, xi_matrix
from blockpd.solver import PdaEngine, RbcdEngine
from blockpd.stepsize import make_accelerated_policy, tau_next
from instruments import (
    Box,
    Halfspace,
    Hyperplane,
    block_xi,
    copy_state,
    exact_projection_qp,
    expectation_over_sampling,
    extrapolated,
    forward_backward_block,
    gamma_table,
    lam_full,
    lyapunov,
    make_single_line_network,
    mi_margins,
    recorded,
    schedule,
    step_on,
    tau_lower_bound,
)


def report(num, ok, text):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_01_engine_equivalence(bench_instance):
    p = bench_instance
    s = bp.single_coordinate(p.d)
    pol_a = bp.convex_default_policy(p, s)
    pol_b = bp.convex_default_policy(p, s)
    t0 = time.perf_counter()
    e1, e2 = recorded(RbcdEngine(p, s, pol_a)), recorded(PdaEngine(p, s, pol_b))
    bp.run(p, s, pol_a, np.zeros(p.m), 500, seed=17, trace_every=500, engine=e1)
    bp.run(p, s, pol_b, np.zeros(p.m), 500, seed=17, trace_every=500, engine=e2)
    elapsed = time.perf_counter() - t0
    dev = max(float(np.max(np.abs(a - b))) for a, b in zip(e1.iterates, e2.iterates))
    report(
        1,
        dev <= 1e-9 and elapsed < 5.0,
        f"shared-seed engines agree to {dev:.2e} over 500 steps "
        f"(limit 1e-9) in {elapsed:.2f}s (< 5s)",
    )


def test_02_convex_rates(bench_instance, bench_reference):
    p, ref = bench_instance, bench_reference
    s = bp.single_coordinate(p.d)
    pol = bp.convex_default_policy(p, s)
    assert pol.sigma == pytest.approx(float(np.min(s.pi)))
    t0 = time.perf_counter()
    res = bp.run(p, s, pol, np.zeros(p.m), 100_000, seed=1, trace_every=10,
                 reference=ref)
    elapsed = time.perf_counter() - t0
    ks = np.array([r.k for r in res.trace], dtype=float)
    psi_gap = np.array([r.psi_hat - ref.psi_star for r in res.trace])
    h_gap_w = np.array([r.h_gap_w for r in res.trace])
    s_psi, _ = fit_rate(ks, psi_gap, k_min=1_000, k_max=100_000)
    s_h, _ = fit_rate(ks, h_gap_w, k_min=1_000, k_max=100_000)
    report(
        2,
        s_psi <= -0.9 and s_h <= -1.8 and elapsed < 120.0,
        f"constant-step slopes: objective estimate {s_psi:.3f} (<= -0.9), "
        f"averaged penalty gap {s_h:.3f} (<= -1.8), {elapsed:.0f}s (< 120s)",
    )


def test_03_accelerated_rates(bench_instance, bench_reference):
    p, ref = bench_instance, bench_reference
    s = bp.single_coordinate(p.d)
    pol = make_accelerated_policy(p, s)
    t0 = time.perf_counter()
    res = bp.run(p, s, pol, np.zeros(p.m), 100_000, seed=1, trace_every=10,
                 reference=ref)
    elapsed = time.perf_counter() - t0
    ks = np.array([r.k for r in res.trace], dtype=float)
    psi_gap = np.array([r.psi_hat - ref.psi_star for r in res.trace])
    h_gap_w = np.array([r.h_gap_w for r in res.trace])
    s_psi, _ = fit_rate(ks, psi_gap, k_min=1_000, k_max=100_000)
    s_h, _ = fit_rate(ks, h_gap_w, k_min=1_000, k_max=100_000)
    report(
        3,
        s_psi <= -1.9 and s_h <= -3.5 and elapsed < 120.0,
        f"accelerated slopes: objective estimate {s_psi:.3f} (<= -1.9), "
        f"averaged penalty gap {s_h:.3f} (<= -3.5), {elapsed:.0f}s (< 120s)",
    )


def test_04_step_certificates(bench_instance, tau_oracle):
    p = bench_instance
    s = bp.single_coordinate(p.d)
    pol = make_accelerated_policy(p, s)
    xi = xi_matrix(s, p.gram, p.blocks)
    p_diag = weight_matrix_p(s, p.blocks)
    lam, ups = lam_full(p), p.mu_vector
    pi = float(s.pi[0])
    worst1 = worst2 = np.inf
    taus, sigmas = schedule(pol, 10_000)
    bound_ok = True
    for k in range(10_000):
        tau_k, tau_k1 = taus[k], taus[k + 1]
        m1, m2 = mi_margins(
            lam, ups, xi, p_diag, pol.b_diag,
            sigmas[k], tau_k, sigmas[k + 1], tau_k1,
        )
        worst1, worst2 = min(worst1, m1), min(worst2, m2)
        if tau_k < tau_lower_bound(k, pol.tau0, pol.kappa, pi):
            bound_ok = False
    decreasing = bool((np.diff(taus) < 0).all())
    # independent re-derivation of the recursion on random admissible states
    rng = np.random.default_rng(0)
    path_dev = 0.0
    for _ in range(10_000):
        pi_r = float(rng.uniform(0.05, 1.0))
        kap = float(rng.uniform(1.0 / pi_r, 60.0))
        tau = float(rng.uniform(1e-8, 0.999 / kap))
        out = tau_next(tau, kap, pi_r)
        path_dev = max(path_dev, abs(out - tau_oracle(tau, kap, pi_r)) / max(1.0, out))
    report(
        4,
        worst1 >= -1e-8 and worst2 >= -1e-8 and decreasing and bound_ok
        and path_dev <= 1e-10,
        f"10^4 accelerated steps: certificate margins {worst1:.2e}/{worst2:.2e} "
        f"(>= -1e-8), tau strictly decreasing={decreasing}, floor respected={bound_ok}, "
        f"root formula and normalized recursion agree to {path_dev:.1e} (<= 1e-10) "
        "on 10^4 random states",
    )


def test_05_averaging_weights(bench_instance):
    p = bench_instance
    s = bp.single_coordinate(p.d)
    pol = bp.convex_default_policy(p, s)
    assert pol.sigma <= float(np.min(s.pi)) + 1e-15
    eng = recorded(RbcdEngine(p, s, pol))
    bp.run(p, s, pol, np.zeros(p.m), 50, seed=23, trace_every=50, engine=eng)
    thetas = [pol.sigma / (1.0 + k * pol.sigma) for k in range(50)]
    gam = gamma_table(thetas, s.pi)
    min_gamma = float(gam.min())
    sum_err = float(np.max(np.abs(gam.sum(axis=1) - 1.0)))
    w_err = 0.0
    for k in range(51):
        w_direct = np.zeros(p.m)
        for t in range(k + 1):
            for i in range(p.d):
                sl = p.blocks.block_slice(i)
                w_direct[sl] += gam[k, t, i] * eng.iterates[t][sl]
        w_err = max(w_err, float(np.max(np.abs(w_direct - eng.averaged[k]))))
    report(
        5,
        min_gamma >= -1e-12 and sum_err <= 1e-12 and w_err <= 1e-10,
        f"averaging weights: min {min_gamma:.1e} (>= -1e-12), sum error "
        f"{sum_err:.1e} (<= 1e-12), averaged-iterate error {w_err:.1e} (<= 1e-10)",
    )


def test_06_supermartingale(two_block_instance, two_block_reference):
    p, ref = two_block_instance, two_block_reference
    s = bp.single_coordinate(p.d)
    worst = {}
    for name, pol in (
        ("constant", bp.convex_default_policy(p, s)),
        ("accelerated", make_accelerated_policy(p, s)),
    ):
        eng = RbcdEngine(p, s, pol)
        state = eng.init_state(np.zeros(p.m), bp.make_rng(5))
        slack = -np.inf
        for _ in range(100):
            v_k, _ = lyapunov(p, s, pol, state, ref)

            def v_next(mask):
                st = copy_state(state)
                step_on(eng, st, mask)
                return lyapunov(p, s, pol, st, ref)[0]

            exp_v = expectation_over_sampling(s, v_next)
            slack = max(slack, exp_v - (v_k - state.sigma ** 2 * ref.h_gap(p.a @ state.x - p.b)))
            eng.step(state)
        worst[name] = slack
    ok = all(v <= 1e-9 for v in worst.values())
    report(
        6,
        ok,
        "exhaustive energy descent holds for 100 steps under both policies "
        f"(worst slack constant={worst['constant']:.2e}, "
        f"accelerated={worst['accelerated']:.2e}; limit 1e-9)",
    )


def test_07_activation_second_moment(xi_oracles):
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = [
        (bp.single_coordinate(3), [rng.standard_normal((7, 2)) for _ in range(3)]),
        (bp.nice(4, 2), [rng.standard_normal((9, 2)) for _ in range(4)]),
        (bp.full(3), [rng.standard_normal((5, 3)) for _ in range(3)]),
        (bp.paired_dso(3), [rng.standard_normal((6, 2)) for _ in range(4)]),
    ]
    for s, blocks in cases:
        xi = block_xi(s, blocks)
        xi_exact = xi_oracles.exhaustive(s, blocks)
        worst = max(worst, float(np.max(np.abs(xi - xi_exact))))
        pi_mat = bp.prob_matrix(s)
        struct = bp.BlockStructure(tuple(b.shape[1] for b in blocks))
        formula = np.zeros_like(xi_exact)
        for i in range(s.d):
            sli = struct.block_slice(i)
            for j in range(s.d):
                slj = struct.block_slice(j)
                w = (1.0 / s.pi[i]) if i == j else pi_mat[i, j] / (s.pi[i] * s.pi[j])
                formula[sli, slj] = w * (blocks[i].T @ blocks[j])
        worst = max(worst, float(np.max(np.abs(xi_exact - formula))))
    report(
        7,
        worst <= 1e-12,
        f"closed-form activation second moment, its exhaustive expectation over "
        f"the support and the pairwise formula agree to {worst:.1e} (<= 1e-12) "
        "for all four sampling kinds",
    )


def test_08_prox_inequality(bench_instance):
    p = bench_instance
    s = bp.single_coordinate(p.d)
    pol = bp.convex_default_policy(p, s)
    eng = RbcdEngine(p, s, pol)
    state = eng.init_state(np.zeros(p.m), bp.make_rng(2))
    for _ in range(7):
        eng.step(state)
    z, az, _ = extrapolated(eng, state)
    q_diag = pol.b_diag * weight_matrix_p(s, p.blocks) / state.tau
    grad_phi = p.grad_phi(state.x)
    grad_pen = p.a.T @ (az - p.b)
    mu = p.mu_vector
    x_hat = np.concatenate([forward_backward_block(eng, state, i) for i in range(p.d)])

    def zeta(x):
        return (
            p.phi(state.x)
            + float(grad_phi @ (x - state.x))
            + state.s_cur * float(grad_pen @ (x - z))
            + 0.5 * float((x - state.x) @ (q_diag * (x - state.x)))
        )

    lhs = p.r_value(x_hat) + zeta(x_hat)
    rng = np.random.default_rng(3)
    worst = -np.inf
    for _ in range(1000):
        x = rng.standard_normal(p.m) * 2.0
        dx = x - x_hat
        rhs = p.r_value(x) + zeta(x) - 0.5 * float(dx @ ((q_diag + mu) * dx))
        worst = max(worst, lhs - rhs)
    report(
        8,
        worst <= 1e-9,
        f"block prox step inequality holds on 10^3 random probes "
        f"(worst slack {worst:.2e}, limit 1e-9)",
    )


def test_09_grid_pricing(pair_oracle):
    bus, edges = dlmp.default_network_paths()
    net = dlmp.load_network(bus, edges)
    problem = dlmp.build_opf_problem(net)
    x0 = dlmp.opf_initial_point(problem)

    # lockstep agreement with the coordinator/aggregator recursion over 200
    # steps: x at every step, the prices at the end
    eng = recorded(dlmp.PpdlmpEngine(problem))
    short = bp.run(problem, eng.sampling, eng.policy, x0, 200, engine=eng, seed=3,
                   trace_every=200)
    path, y_end = pair_oracle(problem, x0, 200, seed=3)
    lockstep = (
        len(eng.iterates) == len(path)
        and max(float(np.max(np.abs(a - b))) for a, b in zip(eng.iterates, path)) <= 1e-9
        and float(np.max(np.abs(short.state.y - y_end))) <= 1e-9
    )

    t0 = time.perf_counter()
    res = dlmp.ppdlmp_run(
        problem, x0, 20_000, seed=0, trace_every=500, stop_kkt_tol=1e-4
    )
    elapsed = time.perf_counter() - t0
    last = res.trace[-1]
    converged = (
        res.stopped_at is not None
        and res.stopped_at <= 20_000
        and last.kkt_res < 1e-4
        and last.primal_res < 1e-4
    )

    toy = make_single_line_network(demand=(0.5, 0.25))
    toy_prob = dlmp.build_opf_problem(toy)
    toy_res = dlmp.ppdlmp_run(
        toy_prob, dlmp.opf_initial_point(toy_prob), 30_000, seed=0,
        trace_every=1000, stop_kkt_tol=1e-10,
    )
    prices = {(n, t): yp for n, t, yp, _ in dlmp.extract_dlmp(toy_res.state.y, toy_prob)}
    toy_ok = abs(prices[(1, 0)] - 3.0) <= 1e-6 and abs(prices[(1, 1)] - 1.0) <= 1e-6
    report(
        9,
        lockstep and converged and elapsed < 180.0 and toy_ok,
        f"15-bus lossless run reaches saddle residual {last.kkt_res:.2e} and "
        f"coupling residual {last.primal_res:.2e} (< 1e-4) at k={res.stopped_at} "
        f"(<= 2e4) in {elapsed:.0f}s (< 180s); pair loop matches the "
        f"coordinator/aggregator recursion for 200 steps; single-line prices "
        f"match hand values to 1e-6",
    )


def test_10_projection_oracle():
    rng = np.random.default_rng(2025)
    worst = 0.0
    checked = 0
    while checked < 100:
        dim = int(rng.integers(1, 4))
        prims = [Box(-np.ones(dim), np.ones(dim))]
        for _ in range(int(rng.integers(1, 3))):
            prims.append(Halfspace(rng.standard_normal(dim), float(rng.uniform(0, 1))))
        if dim > 1 and rng.random() < 0.3:
            prims.append(Hyperplane(rng.standard_normal(dim), 0.0))
        v = rng.standard_normal(dim) * 2.0
        try:
            oracle = exact_projection_qp(prims, v)
        except Exception:
            continue
        mine = dykstra_project(prims, v, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(mine - oracle))))
        checked += 1
    report(
        10,
        worst <= 1e-6,
        f"cyclic projection matches the active-set oracle to {worst:.1e} "
        "(<= 1e-6) on 100 random polyhedral instances",
    )
