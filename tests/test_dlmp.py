import hashlib
import importlib.util
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import blockpd as bp
from blockpd import dlmp
from blockpd.errors import InfeasibleInstance, ProjectionDidNotConverge
from blockpd.proxops import AffineSubspace, dykstra_project
from blockpd.sampling import weight_matrix_p
from instruments import children, dso_primitives, make_single_line_network, recorded


@pytest.fixture(scope="module")
def net15():
    bus, edges = dlmp.default_network_paths()
    return dlmp.load_network(bus, edges)


@pytest.fixture(scope="module")
def opf15(net15):
    return dlmp.build_opf_problem(net15)


# SHA-256 of each assembled array's dtype, shape and bytes (see
# ``array_digest``) for the bundled network and the single line: a change to
# how the network holds its data must keep every assembled bit
ASSEMBLY_DIGESTS = {
    "net15": {
        "a": "386515f8ac386bccde213fa44642bf53572c47e728b844ef648f346aef0f9867",
        "b": "f762d1a118f3fe6e5e5be4fef78d21d9ce2cf10a53cace1568699758c3f05ff5",
        "c": "9582c818352e9023686461353df27aa8710a95a249c8574025335ed0b63746c0",
        "e": "468fa2c872cb47dddf8802fb39ab7a9afd8c889d107f5f7df79130f4a8e3c5ed",
        "lo": "2bef9df8341eda6ad9efa9a4d6eb719864b97b63b847619547c7eba67a582608",
        "hi": "7a8ed0eedae7f32409a4546c71d2b56a183b4aec7c0707bca23b3562c285e0f1",
        "radii": "29324e12e757593b9490fab8a87858669056184a58dcdca4e8a11b594421c2f5",
        "x0": "df894bb724b4a1aac312906d49c7ce2c43dd7bea3ba9be2cafc43ca92b6d18f6",
        "agg_prox": "2d5c59c29a11f7d3dfb0908e284292abaf1cfe3568b7f08521a36f49a097fab7",
    },
    "line": {
        "a": "d0f3fae41633a35f6725b359b582f0eaad62b67ce62ffb9f200f04152f609ebf",
        "b": "faeb3ed5ffcb5a15edc94952976430d5d7323e2353ca0da4da6b3b43d41fd7b8",
        "c": "c28d86384d076755e2d2ad24dc380b669548749646dbe5d16e91cd715de37157",
        "e": "f6c99c16dce9374cacfe401bb644a9c8562a9e60648690fd6b9a1672b832ac50",
        "lo": "4c248f7d5d40fe9ec2c4692a52f891b69fafe5e69725a4587da6d44910fbd053",
        "hi": "074be1c1ebdaf66baff547fb8760d0a48482ccd3ad573930242450c938f18457",
        "radii": "e4d60bdd84e7866189a944aae5bed2b99d50bfe7115be969a8f9362330f3d79e",
        "x0": "eea492fc627d6c7a0e4fb10a60750a32a9f229b8087a2ea9b478c4b3d80c7d6d",
        "agg_prox": "e6f62be4a27ebc1b77770c5201ee35f169fb259cdac74994265157a4e40f56b1",
    },
}
# ``drop_shunt`` changes only the shunt entries of A
NO_SHUNT_A_DIGEST = "107ce796f7a33d1cc0cb1d22922c558bc938df27008ca2c6b20db10c36281b05"


def array_digest(values) -> str:
    values = np.asarray(values)
    head = repr((values.dtype.str, values.shape)).encode()
    return hashlib.sha256(head + np.ascontiguousarray(values).tobytes()).hexdigest()


# a fixed path length: the seed-1 iteration count to residual 1e-4 when the
# step was halved to sigma = 1/6 (the larger certified step stops earlier)
PATH_STEPS = 5700


def final_iterate(problem):
    eng = dlmp.PpdlmpEngine(problem)
    state = eng.init_state(dlmp.opf_initial_point(problem), bp.make_rng(0))
    for _ in range(PATH_STEPS):
        eng.step(state)
    return state


@pytest.fixture(scope="module")
def opf15_path_end(opf15):
    """Final iterate of the pair-activated loop at seed 0 with the grid's own
    projections, shared by the trajectory comparisons below."""
    return final_iterate(opf15)


def kkt_certificate(prims, v, x, tol):
    """Check that x is the projection of v onto {C x = e} ∩ K from the
    optimality conditions alone: x in K, C x = e, and a multiplier lam with
    v - x - C^T lam in the normal cone of K at x.  lam solves, by least
    squares, the equations that the cone makes exact: a zero component off
    the active box bounds and off the binding balls, and no tangential
    component on a binding ball."""
    affine, box, balls = prims
    c, e = affine.c_matrix, affine.e
    idx = np.arange(v.size)
    f_idx, g_idx = idx[balls.f], idx[balls.g]
    assert np.all(x >= box.lo) and np.all(x <= box.hi)
    nrm = np.hypot(x[f_idx], x[g_idx])
    assert np.all(nrm <= balls.radii * (1.0 + 1e-12))
    assert np.max(np.abs(c @ x - e)) <= 1e-12

    at_lo, at_hi = x <= box.lo, x >= box.hi
    on_ball = nrm >= balls.radii * (1.0 - 1e-12)
    free = ~(at_lo | at_hi)
    free[f_idx[on_ball]] = False
    free[g_idx[on_ball]] = False
    xf, xg = x[f_idx[on_ball]], x[g_idx[on_ball]]
    gap = v - x
    rows = np.vstack(
        [
            c.T[free],
            xg[:, None] * c.T[f_idx[on_ball]] - xf[:, None] * c.T[g_idx[on_ball]],
        ]
    )
    rhs = np.concatenate(
        [gap[free], xg * gap[f_idx[on_ball]] - xf * gap[g_idx[on_ball]]]
    )
    lam, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    z = gap - c.T @ lam
    assert np.max(np.abs(rows @ lam - rhs), initial=0.0) <= tol
    assert np.all(z[at_hi] >= -tol) and np.all(z[at_lo] <= tol)
    radial = z[f_idx[on_ball]] * xf + z[g_idx[on_ball]] * xg
    assert np.all(radial >= -tol)
    return int(at_lo.sum() + at_hi.sum()), int(on_ball.sum())


class TestLoadNetwork:
    def test_bundled_data_follows_the_package(self, tmp_path):
        # a copy of the package imported under another name (as
        # scripts/against.py loads a second checkout) reads its own data
        pkg = tmp_path / "blockpd"
        shutil.copytree(Path(dlmp.__file__).parent, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location(
            "blockpd_copy", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
        )
        sys.modules["blockpd_copy"] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(sys.modules["blockpd_copy"])
            bus, edges = importlib.import_module("blockpd_copy.dlmp").default_network_paths()
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == "blockpd_copy"]:
                del sys.modules[name]
        assert Path(bus).parent == Path(edges).parent == pkg / "data"

    def test_line_one_parameters(self, net15):
        assert net15.buses[0] == 1
        assert net15.s_cap[0] == pytest.approx(2.000)
        assert net15.r[0] == pytest.approx(1.0e-3)
        assert net15.x[0] == pytest.approx(120e-3)

    def test_renewable_caps(self, net15):
        at = net15.buses.index(11)
        assert np.allclose(net15.renewable[at], [0.438, 0.201])
        assert np.flatnonzero(net15.renewable.any(axis=1)).tolist() == [at]

    def test_voltage_bounds(self, net15):
        assert (net15.v_lo, net15.v_hi) == (0.81, 1.21)
        assert net15.v0 == 1.0

    def test_tree_structure(self, net15):
        assert net15.parent[net15.buses.index(7)] == 8
        assert net15.parent[net15.buses.index(8)] == 3
        assert sorted(children(net15, 0)) == [1, 12]
        assert net15.n_buses == 14

    def test_default_partition(self, net15):
        assert net15.aggregators == (
            (1, 2, 3, 4, 5, 6),
            (7, 8, 9, 10, 11),
            (12, 13, 14),
        )

    def test_missing_column_rejected(self, tmp_path, net15):
        bad = tmp_path / "bus.csv"
        bad.write_text("n,S,R_e3\n1,2.0,1.0\n")
        _, edges = dlmp.default_network_paths()
        with pytest.raises(ValueError, match="missing columns"):
            dlmp.load_network(str(bad), edges)

    def test_cyclic_edges_rejected(self, tmp_path):
        bus, _ = dlmp.default_network_paths()
        cyc = tmp_path / "edges.csv"
        rows = ["parent,child", "0,1", "1,2", "2,3", "3,4", "4,5", "5,6", "3,8",
                "8,7", "8,9", "9,10", "10,11", "14,12", "12,13", "13,14"]
        cyc.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="cycle"):
            dlmp.load_network(bus, str(cyc))

    def test_parent_must_be_a_bus(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "edges.csv"
        bad.write_text(open(edges).read().replace("8,7", "20,7"))
        with pytest.raises(ValueError, match="bus 7: parent 20 is neither a bus"):
            dlmp.load_network(bus, str(bad))

    @pytest.mark.parametrize("edits, message", [
        ([("0,1\n1,2\n", "2,1\n")], "bus 2 has no parent edge"),
        ([("0,1\n1,2\n", "2,1\n"), ("0,12\n", "")],
         "bus 2 has no parent edge; bus 12 has no parent edge"),
    ], ids=["ancestor", "two-buses"])
    def test_every_bus_needs_a_parent_edge(self, tmp_path, edits, message):
        # bus 2 becomes bus 1's parent but has no parent edge itself
        bus, edges = dlmp.default_network_paths()
        text = open(edges).read()
        for old, new in edits:
            text = text.replace(old, new)
        bad = tmp_path / "edges.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            dlmp.load_network(bus, str(bad))

    def test_slack_bus_row_rejected(self, tmp_path):
        # a bus 0 would be its own child, and the branch partition would never end
        bus, edges = dlmp.default_network_paths()
        bad_bus, bad_edges = tmp_path / "bus.csv", tmp_path / "edges.csv"
        bad_bus.write_text(open(bus).read() + "0,2.0,1.0,120.0,1.1,0,0,0.1,0.1,0,0\n")
        bad_edges.write_text(open(edges).read() + "0,0\n")
        with pytest.raises(ValueError, match="the bus table has a row for the slack bus 0"):
            dlmp.load_network(str(bad_bus), str(bad_edges))

    def test_non_numeric_bus_value_named(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "bus.csv"
        bad.write_text(open(bus).read().replace("\n3,0.256,138.4,", "\n3,0.256,abc,"))
        with pytest.raises(ValueError, match=re.escape("bus 3: R_e3 'abc' is not a number")):
            dlmp.load_network(str(bad), edges)

    def test_model_holds_its_own_read_only_arrays(self):
        demand = np.array([[0.5, 0.25]])
        net = replace(make_single_line_network(), p_lo=demand, p_hi=demand)
        demand[0, 0] = 9.0  # a later write by the caller
        assert net.p_lo.tolist() == net.p_hi.tolist() == [[0.5, 0.25]]
        assert net.parent.dtype.kind == "i" and net.tau_c.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            net.p_hi[0, 0] = 9.0

    def test_repeated_child_rejected(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "edges.csv"
        bad.write_text(open(edges).read().replace("8,7\n", "8,7\n5,7\n"))
        with pytest.raises(ValueError, match="edge 5,7: bus 7 has two parent edges"):
            dlmp.load_network(bus, str(bad))

    def test_child_must_be_a_bus(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "edges.csv"
        bad.write_text(open(edges).read().replace("0,12\n", "0,12\n3,99\n"))
        with pytest.raises(ValueError, match="edge 3,99: child 99 is not in the bus table"):
            dlmp.load_network(bus, str(bad))

    def test_energy_above_caps_rejected(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        text = open(bus).read().replace("2.213", "9.9")
        bad = tmp_path / "bus.csv"
        bad.write_text(text)
        with pytest.raises(InfeasibleInstance):
            dlmp.load_network(str(bad), edges)

    def test_repeated_bus_rejected(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "bus.csv"
        # bus 3's row again, with another line capacity
        again = "3,9.999,138.4,197.8,2.4,0.003,0.011,0.020,0.035,0.047,0.418"
        bad.write_text(open(bus).read().replace("\n4,", f"\n{again}\n4,"))
        with pytest.raises(ValueError, match="bus 3 has two rows"):
            dlmp.load_network(str(bad), edges)

    @pytest.mark.parametrize("field, value, message", [
        ("p_lo", [np.nan, 0.011], "bus 3: consumption floor Pmin [nan, 0.011] is not finite"),
        ("tau_c", np.nan, "bus 3: reactive ratio tau_c nan is not finite"),
        ("energy", np.inf, "bus 3: energy demand E inf is not finite"),
        ("s_cap", -1.0, "bus 3: line capacity S -1.0 is negative"),
        ("renewable", [np.nan, 0.1], "bus 3: renewable caps [nan, 0.1] is not finite"),
        ("renewable", [-1.0, -1.0], "bus 3: renewable caps [-1.0, -1.0] is negative"),
        # whole-array cases: the floors' columns set the horizon
        ("p_lo", lambda a: a[:, :1], "consumption cap Pmax has shape (14, 2), expected (14, 1)"),
        ("p_hi", lambda a: np.hstack([a, a[:, :1]]),
         "consumption cap Pmax has shape (14, 3), expected (14, 2)"),
        ("renewable", lambda a: a[:, :1], "renewable caps has shape (14, 1), expected (14, 2)"),
    ], ids=["nan-floor", "nan-tau_c", "infinite-energy", "negative-capacity",
            "nan-renewable", "negative-renewable", "short-floor", "long-cap",
            "short-renewable"])
    def test_bus_values_are_domain_checked(self, net15, field, value, message):
        if callable(value):
            values = value(getattr(net15, field))
        else:  # bus 3's entry
            values = np.array(getattr(net15, field))
            values[net15.buses.index(3)] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(net15, **{field: values})

    @pytest.mark.parametrize("field, value, message", [
        ("renewable", np.zeros((2, 2)), "renewable caps has shape (2, 2), expected (1, 2)"),
        ("aggregators", ((1,), ()), "aggregator group 1 is empty"),
        ("v_lo", np.nan, "v_lo nan is not finite"),
        ("v_lo", 5.0, "v_lo 5.0 exceeds v0 1.0"),
        ("v0", 5.0, "v0 5.0 exceeds v_hi 4.0"),
    ], ids=["renewable-off-table", "empty-group", "nan-v_lo", "v_lo-above-v0", "v0-above-v_hi"])
    def test_network_structure_is_checked(self, field, value, message):
        # the builders would ignore such caps and fail on such a group; a
        # run on such voltages stopped in init_state, every bus starting at v0
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(make_single_line_network(), **{field: value})

    def test_slack_bus_is_not_a_table_bus(self):
        # a bus numbered 0 would be laid out as its own parent (up = [0])
        with pytest.raises(ValueError, match="bus 0 is the slack bus"):
            replace(make_single_line_network(), buses=(0,), aggregators=((0,),))

    def test_empty_bus_table_rejected(self, tmp_path):
        bus, _ = dlmp.default_network_paths()
        empty_bus, empty_edges = tmp_path / "bus.csv", tmp_path / "edges.csv"
        empty_bus.write_text(open(bus).readline())
        empty_edges.write_text("parent,child\n")
        with pytest.raises(ValueError, match="the bus table has no buses"):
            dlmp.load_network(str(empty_bus), str(empty_edges))

    def test_consumption_floor_above_cap_rejected(self, tmp_path):
        bus, edges = dlmp.default_network_paths()
        bad = tmp_path / "bus.csv"
        bad.write_text(open(bus).read().replace("2.4,0.003,0.011", "2.4,0.030,0.011"))
        with pytest.raises(InfeasibleInstance, match="bus 3, period 0: consumption floor"):
            dlmp.load_network(str(bad), edges)


class TestBuildProblem:
    def test_slack_cost_values(self, net15, opf15, rng):
        # 2 p0 + p0^2 in the first period and p0 in the second: at p0 = (1, 1)
        # the operator pays 3 + 1, and only its p0 columns carry a gradient
        assert net15.horizon == 2
        phi0 = opf15.smooth[0]
        x0 = rng.standard_normal(opf15.blocks.dims[0])
        x0[:2] = 1.0
        assert phi0.value(x0) == pytest.approx(4.0)
        assert np.array_equal(phi0.grad(x0), np.r_[4.0, 1.0, np.zeros(x0.size - 2)])

    def test_aggregator_objectives_vanish(self, opf15, rng):
        for a in range(1, opf15.d):
            sl = opf15.blocks.block_slice(a)
            xa = rng.standard_normal(sl.stop - sl.start)
            assert opf15.smooth[a].value(xa) == 0.0
            assert np.allclose(opf15.smooth[a].grad(xa), 0.0)

    def test_row_bus_bijection(self, net15, opf15):
        # each coupling row prices exactly one (bus, period) pair
        prices = dlmp.extract_dlmp(np.arange(opf15.q, dtype=float), opf15)
        pairs = [(n, t) for n in net15.buses for t in range(net15.horizon)]
        assert [(n, t) for n, t, _, _ in prices] == pairs
        assert sorted(r for _, _, y_p, y_q in prices for r in (y_p, y_q)) == list(range(opf15.q))

    @pytest.mark.parametrize("network, drop_shunt",
                             [("net15", False), ("net15", True), ("line", False)])
    def test_assembly_matches_the_grid_equations(self, request, rng, network, drop_shunt):
        net = (request.getfixturevalue("net15") if network == "net15"
               else make_single_line_network())
        problem = dlmp.build_opf_problem(net, drop_shunt=drop_shunt)
        t_h, n_b = net.horizon, net.n_buses
        x = rng.standard_normal(problem.m)
        # the documented layout: the operator's (p0, q0, f, g, v) bus-major,
        # period-minor; each aggregator's (pc, pg, qg) bus by bus
        dso = x[problem.blocks.block_slice(0)]
        p0, q0 = dso[:t_h], dso[t_h : 2 * t_h]
        f, g, v = (dict(zip(net.buses, part)) for part in dso[2 * t_h :].reshape(3, n_b, t_h))
        pc, pg, qg = {}, {}, {}
        for a, group in enumerate(net.aggregators, start=1):
            plans = x[problem.blocks.block_slice(a)].reshape(len(group), 3, t_h)
            for n, (c, p, r) in zip(group, plans):
                pc[n], pg[n], qg[n] = c, p, r
        shunt = 0.0 if drop_shunt else 1.0
        at = {n: i for i, n in enumerate(net.buses)}  # the network's arrays are in bus order

        # coupling rows: flow conservation at every bus and period
        rows = dlmp.extract_dlmp(problem.a @ x - problem.b, problem)
        assert len(rows) == n_b * t_h
        for n, t, row_p, row_q in rows:
            kids = children(net, n)
            active = pc[n][t] - pg[n][t] + sum(f[m][t] for m in kids) - f[n][t]
            reactive = (net.tau_c[at[n]] * pc[n][t] - qg[n][t] + sum(g[m][t] for m in kids)
                        - g[n][t] - shunt * net.b_shunt[at[n]] * v[n][t])
            assert row_p == pytest.approx(active, abs=1e-12)
            assert row_q == pytest.approx(reactive, abs=1e-12)

        # operator rows: root balance per period, then voltage drop per line
        affine, box, balls = dso_primitives(problem)
        expected = []
        for t in range(t_h):
            expected.append(sum(f[m][t] for m in children(net, 0)) - p0[t])
            expected.append(sum(g[m][t] for m in children(net, 0)) - q0[t])
        for n, up in zip(net.buses, net.parent):
            for t in range(t_h):
                v_up = net.v0 if up == 0 else v[up][t]
                expected.append(v[n][t] - v_up + 2 * net.r[at[n]] * f[n][t]
                                + 2 * net.x[at[n]] * g[n][t])
        assert np.max(np.abs(affine.c_matrix @ dso - affine.e - expected)) <= 1e-12

        # slack and voltage box, unbounded flows, one flow ball per line and period
        inf = np.full(2 * n_b * t_h, np.inf)
        assert np.array_equal(box.lo, np.concatenate([np.full(2 * t_h, -10.0), -inf,
                                                      np.full(n_b * t_h, net.v_lo)]))
        assert np.array_equal(box.hi, np.concatenate([np.full(2 * t_h, 10.0), inf,
                                                      np.full(n_b * t_h, net.v_hi)]))
        assert np.array_equal(balls.radii, [s for s in net.s_cap for _ in range(t_h)])
        assert np.array_equal(dso[balls.f], dso[2 * t_h : (2 + n_b) * t_h])
        assert np.array_equal(dso[balls.g], dso[(2 + n_b) * t_h : (2 + 2 * n_b) * t_h])

    @pytest.mark.parametrize("network, drop_shunt",
                             [("net15", False), ("net15", True), ("line", False)])
    def test_assembly_bits_are_pinned(self, request, network, drop_shunt):
        # the operator's rows, box and balls, the initial point (every
        # aggregator prox from zero) and every aggregator prox at 0.5, which
        # lies above bus 11's production caps
        net = (request.getfixturevalue("net15") if network == "net15"
               else make_single_line_network())
        problem = dlmp.build_opf_problem(net, drop_shunt=drop_shunt)
        projector = problem.meta["dso_projector"]
        arrays = {
            "a": problem.a, "b": problem.b, "c": projector.c, "e": projector.e,
            "lo": projector.lo, "hi": projector.hi, "radii": projector.radii,
            "x0": dlmp.opf_initial_point(problem),
            "agg_prox": np.concatenate([
                problem.prox[a].prox(None, np.full(problem.blocks.dims[a], 0.5))
                for a in range(1, problem.d)
            ]),
        }
        expected = dict(ASSEMBLY_DIGESTS[network])
        if drop_shunt:
            expected["a"] = NO_SHUNT_A_DIGEST
        assert {name: array_digest(v) for name, v in arrays.items()} == expected

    def test_coupling_is_consistent_by_default(self, opf15):
        ref = bp.least_squares_reference(opf15)
        assert ref.h_star == pytest.approx(0.0, abs=1e-20)

    def test_pair_sampling_shape(self, opf15):
        s = bp.paired_dso(opf15.d - 1)
        assert np.allclose(s.pi, [1.0, 1 / 3, 1 / 3, 1 / 3])
        p_diag = weight_matrix_p(s, opf15.blocks)
        sl0 = opf15.blocks.block_slice(0)
        assert np.allclose(p_diag[sl0], 1.0)
        assert np.allclose(p_diag[sl0.stop :], 3.0)

    def test_initial_point_feasible(self, opf15):
        x0 = dlmp.opf_initial_point(opf15)
        assert opf15.r_value(x0) == 0.0


class TestProjectors:
    def test_aggregator_prox_feasible_exactly(self, net15, opf15, rng):
        for a in range(1, opf15.d):
            sl = opf15.blocks.block_slice(a)
            dim = sl.stop - sl.start
            blk = opf15.prox[a]
            for _ in range(10):
                v = rng.standard_normal(dim) * 0.5
                out = blk.prox(np.ones(dim), v)
                assert blk.value(out) == 0.0  # membership at 1e-8

    def test_dso_prox_feasible(self, opf15, rng):
        sl = opf15.blocks.block_slice(0)
        dim = sl.stop - sl.start
        blk = opf15.prox[0]
        x0 = dlmp.opf_initial_point(opf15)[sl]
        for scale in (0.01, 0.1):
            v = x0 + rng.standard_normal(dim) * scale
            out = blk.prox(np.ones(dim), v)
            assert blk.value(out) == 0.0

    def test_production_pair_projection(self, net15, opf15):
        # the group (7, ..., 11): bus 11 produces up to (0.438, 0.201), fully
        # active; bus 7 produces nothing
        group = (7, 8, 9, 10, 11)
        a = 1 + net15.aggregators.index(group)
        sl = opf15.blocks.block_slice(a)
        plans = dlmp.opf_initial_point(opf15)[sl].reshape(len(group), 3, net15.horizon)
        v = plans.copy()
        v[4, 1:, 0] = (0.5, 0.3)  # bus 11, period 0: above the cap
        v[4, 1:, 1] = (-1.0, 5.0)  # bus 11, period 1: below zero
        v[0, 1:] = [[0.5], [0.3]]  # bus 7
        out = opf15.prox[a].prox(None, v.ravel()).reshape(v.shape)
        assert np.allclose(out[4, 1:, 0], [0.438, 0.0])
        assert np.allclose(out[4, 1:, 1], [0.0, 0.0])
        assert np.allclose(out[0, 1:], 0.0)
        assert np.array_equal(out[:, 0], plans[:, 0])  # consumption stays

    def test_operator_affine_projector_matches_normal_equations(self, opf15, rng):
        import scipy.linalg as sla

        affine = dso_primitives(opf15)[0]
        assert isinstance(affine, AffineSubspace)
        c, e = affine.c_matrix, affine.e
        assert c.shape[1] == 88
        factor = sla.cho_factor(c @ c.T + 1e-14 * np.eye(c.shape[0]))
        for _ in range(20):
            v = rng.standard_normal(c.shape[1])
            direct = v - c.T @ sla.cho_solve(factor, c @ v - e)
            assert np.max(np.abs(affine.project(v) - direct)) <= 1e-12

    @staticmethod
    def segment_points(inside, others, rng):
        """Points from ``inside`` (a point of the set) towards each point of
        ``others`` (each meets all but one group of the set's constraints),
        at steps from 1e-9 to 1.  Each violates at most that one group, by an
        amount proportional to the step, so the points straddle its
        membership tolerance."""
        return [inside + h * (q - inside) for q in others for h in 10.0 ** rng.uniform(-9, 0, 6)]

    def test_operator_membership_reads_the_primitives(self, opf15, rng):
        affine, box, balls = prims = dso_primitives(opf15)
        sl = opf15.blocks.block_slice(0)
        center = dlmp.opf_initial_point(opf15)[sl]
        unbounded = np.full(center.size, np.inf)
        no_box = dlmp._OperatorProjector(
            affine, -unbounded, unbounded, balls.f, balls.g, balls.radii
        )
        no_balls = dlmp._OperatorProjector(
            affine, box.lo, box.hi, balls.f, balls.g, np.full(balls.radii.size, np.inf)
        )
        blk = opf15.prox[0]
        lone_misses = set()
        for scale in (0.3, 3.0):
            for _ in range(5):
                v = center + rng.standard_normal(center.size) * scale
                on = blk.prox(None, v)
                others = [no_box.project(v), no_balls.project(v), balls.project(box.project(v))]
                for x in [v, on, *self.segment_points(on, others, rng)]:
                    # the membership test this one replaced: every distance <= 1e-6
                    misses = [prim.distance(x) > 1e-6 for prim in prims]
                    assert (blk.value(x) == 0.0) == (not any(misses))
                    if sum(misses) == 1:
                        lone_misses.add(misses.index(True))
        assert lone_misses == {0, 1, 2}  # each primitive alone decides somewhere

    def test_aggregator_membership_reads_the_constraints(self, net15, opf15, rng):
        x0 = dlmp.opf_initial_point(opf15)
        seen = set()
        # the production ratio bounds of the bundled study are zero
        r_lo = r_hi = 0.0
        for a, group in enumerate(net15.aggregators, start=1):
            sl = opf15.blocks.block_slice(a)
            blk = opf15.prox[a]
            shape = (len(group), 3, net15.horizon)
            at = [net15.buses.index(n) for n in group]
            p_lo, p_hi, energy = net15.p_lo[at], net15.p_hi[at], net15.energy[at]
            caps = net15.renewable[at]
            for scale in (0.3, 3.0):
                for _ in range(5):
                    v = x0[sl] + rng.standard_normal(sl.stop - sl.start) * scale
                    on = blk.prox(None, v).reshape(shape)
                    # consumption at its floor (the budget alone fails),
                    # consumption from v, production from v
                    others = [on.copy(), on.copy(), on.copy()]
                    others[0][:, 0] = p_lo
                    others[1][:, 0] = v.reshape(shape)[:, 0]
                    others[2][:, 1:] = v.reshape(shape)[:, 1:]
                    points = [v, on.ravel()] + [
                        x.ravel() for x in self.segment_points(on, others, rng)
                    ]
                    for x in points:
                        # the membership test this one replaced, at tolerance 1e-8
                        pc, pg, qg = x.reshape(shape).transpose(1, 0, 2)
                        tol = 1e-8
                        old = bool(
                            np.all(pc >= p_lo - tol)
                            and np.all(pc <= p_hi + tol)
                            and np.all(pc.sum(axis=1) >= energy - tol)
                            and np.all(pg >= -tol)
                            and np.all(pg <= caps + tol)
                            and np.all(qg >= r_lo * pg - tol)
                            and np.all(qg <= r_hi * pg + tol)
                        )
                        assert (blk.value(x) == 0.0) == old
                        seen.add(old)
        assert seen == {True, False}

    def test_exact_budget_keeps_the_bisection_trajectory(
        self, opf15, opf15_path_end, monkeypatch, bisection_budgets
    ):
        calls = []

        def bisection_rows(lo, hi, demand, v):
            calls.append(len(v))
            return bisection_budgets(lo, hi, demand, v)

        monkeypatch.setattr(dlmp, "project_energy_budgets", bisection_rows)
        bisected = final_iterate(opf15)
        # one batched call per aggregator prox, a row per bus of the group
        assert len(calls) >= PATH_STEPS and set(calls) == {6, 5, 3}
        assert np.max(np.abs(opf15_path_end.x - bisected.x)) <= 1e-10
        assert np.max(np.abs(opf15_path_end.y - bisected.y)) <= 1e-10


class TestOperatorProjection:
    @pytest.fixture
    def around_start(self, opf15):
        sl = opf15.blocks.block_slice(0)
        return dlmp.opf_initial_point(opf15)[sl]

    def test_matches_dykstra(self, opf15, around_start, rng):
        prims = dso_primitives(opf15)
        for scale in (0.01, 0.1, 0.3, 1.0, 3.0):
            for _ in range(4):
                v = around_start + rng.standard_normal(around_start.size) * scale
                oracle = dykstra_project(prims, v, tol=1e-12)
                out = opf15.prox[0].prox(None, v)
                assert np.max(np.abs(out - oracle)) <= 1e-9, f"scale {scale}"

    def test_kkt_certificate(self, opf15, around_start, rng):
        prims = dso_primitives(opf15)
        active = []
        for scale in (0.01, 0.3, 3.0, 10.0):
            for _ in range(5):
                v = around_start + rng.standard_normal(around_start.size) * scale
                x = opf15.prox[0].prox(None, v)
                active.append(kkt_certificate(prims, v, x, 1e-9 * max(1.0, scale)))
        # the draws exercise both the box and the flow balls
        assert max(a for a, _ in active) > 0 and max(b for _, b in active) > 0

    def test_converges_where_dykstra_gives_up(self, opf15, around_start):
        prims = dso_primitives(opf15)
        v = around_start + np.random.default_rng(0).standard_normal(around_start.size) * 10.0
        # the tolerance and sweep cap the operator prox used with Dykstra
        with pytest.raises(ProjectionDidNotConverge):
            dykstra_project(prims, v, tol=1e-10, max_iter=10_000)
        kkt_certificate(prims, v, opf15.prox[0].prox(None, v), 1e-8)

    def test_iteration_cap_raises(self, opf15, around_start, monkeypatch):
        v = around_start + np.random.default_rng(0).standard_normal(around_start.size) * 10.0
        monkeypatch.setattr(dlmp, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ProjectionDidNotConverge, match="after 1 Newton steps"):
            opf15.prox[0].prox(None, v)

    @staticmethod
    def warm_matches_cold(projector, points):
        """Project ``points`` in order with a session lent to ``projector``;
        each result must match the cold projection to 1e-10 and meet the
        rows to 1e-12.  Returns the session."""
        session = dlmp.ProjectionSession()
        c, e = projector.c, projector.e
        for v in points:
            projector.session = session
            try:
                warm = projector.project(v)
            finally:
                projector.session = None
            cold = projector.project(v)
            assert np.max(np.abs(warm - cold)) <= 1e-10
            assert np.max(np.abs(c @ warm - e)) <= 1e-12
        assert session.calls == len(points)
        return session

    def test_warm_path_matches_cold_on_the_step_path(self, opf15):
        steps = []

        def recording(g, v):
            steps.append(np.array(v))
            return opf15.prox[0].prox(g, v)

        problem = replace(opf15, prox=(replace(opf15.prox[0], prox=recording), *opf15.prox[1:]))
        eng = dlmp.PpdlmpEngine(problem)
        state = bp.run(problem, eng.sampling, eng.policy, dlmp.opf_initial_point(opf15), 300,
                       engine=eng, seed=1, trace_every=300).state
        # one operator prox per step, plus the one trace row's
        assert len(steps) == 301 and state.session.calls == 300
        session = self.warm_matches_cold(opf15.meta["dso_projector"], steps[:300])
        assert session.factorisations > 1
        assert session.newton_steps > session.factorisations  # chord steps taken

    def test_warm_path_across_binding_set_changes(self, opf15, around_start, rng, monkeypatch):
        # a path out to scale 3 and back along two directions: flow balls and
        # box clips enter and leave the binding set on the way
        prims = dso_primitives(opf15)
        projector = opf15.meta["dso_projector"]
        scales = np.geomspace(0.01, 3.0, 40)
        points = [
            around_start + s * d
            for d in rng.standard_normal((2, around_start.size))
            for s in np.concatenate([scales, scales[::-1]])
        ]
        steps = []  # (binding set changed since the stored factor, chord step)
        direction = projector._direction

        def recording(res, w, nrm, scale, gap, fresh):
            session = projector.session
            binding = ((w <= projector.lo) | (w >= projector.hi)).tobytes() + (scale < 1).tobytes()
            changed = session is not None and session.binding not in (None, binding)
            step, chord = direction(res, w, nrm, scale, gap, fresh)
            steps.append((changed, chord))
            return step, chord

        monkeypatch.setattr(projector, "_direction", recording)
        session = self.warm_matches_cold(projector, points)
        # a stored factor serves only the binding set it was formed on
        assert any(changed for changed, _ in steps)
        assert not any(changed and chord for changed, chord in steps)
        active = {kkt_certificate(prims, v, opf15.prox[0].prox(None, v), 3e-9) for v in points}
        assert len(active) > 4
        assert max(a for a, _ in active) > 0 and min(b for _, b in active) == 0
        assert session.factorisations > 1

    @pytest.mark.parametrize("knob, value", [("NEWTON_MAX_ITER", 1), ("NEWTON_TOL", -1.0)])
    def test_lent_session_still_raises(self, opf15, around_start, rng, monkeypatch, knob, value):
        projector = opf15.meta["dso_projector"]
        session = dlmp.ProjectionSession()
        points = [around_start + rng.standard_normal(around_start.size) * 0.1 for _ in range(4)]
        projector.session = session
        try:
            for v in points[:3]:
                projector.project(v)  # a stored multiplier and factor to start from
            monkeypatch.setattr(dlmp, knob, value)
            with pytest.raises(ProjectionDidNotConverge):
                projector.project(points[3] + rng.standard_normal(around_start.size))
        finally:
            projector.session = None

    def test_keeps_the_dykstra_trajectory(self, opf15, opf15_path_end):
        prims = dso_primitives(opf15)
        dykstra_prox = replace(
            opf15.prox[0],
            prox=lambda g, v: dykstra_project(prims, v, tol=1e-10, max_iter=10_000),
        )
        dykstra_path = final_iterate(replace(opf15, prox=(dykstra_prox, *opf15.prox[1:])))
        assert np.max(np.abs(opf15_path_end.x - dykstra_path.x)) <= 1e-9
        assert np.max(np.abs(opf15_path_end.y - dykstra_path.y)) <= 1e-10


class TestToyNetworkPrices:
    def test_prices_match_marginal_cost(self):
        net = make_single_line_network(demand=(0.5, 0.25))
        prob = dlmp.build_opf_problem(net)
        x0 = dlmp.opf_initial_point(prob)
        res = dlmp.ppdlmp_run(prob, x0, 30_000, seed=0, trace_every=1000,
                              stop_kkt_tol=1e-10)
        prices = dict()
        for busn, t, yp, yq in dlmp.extract_dlmp(res.state.y, prob):
            prices[(busn, t)] = (yp, yq)
        assert prices[(1, 0)][0] == pytest.approx(2.0 + 2.0 * 0.5, abs=1e-6)
        assert prices[(1, 1)][0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_demand_prices(self):
        net = make_single_line_network(demand=(0.0, 0.0))
        prob = dlmp.build_opf_problem(net)
        res = dlmp.ppdlmp_run(prob, dlmp.opf_initial_point(prob), 30_000, seed=0,
                              trace_every=1000, stop_kkt_tol=1e-10)
        prices = dlmp.extract_dlmp(res.state.y, prob)
        assert prices[0][2] == pytest.approx(2.0, abs=1e-6)
        assert prices[1][2] == pytest.approx(1.0, abs=1e-6)


class TestConvergenceDiagnostics:
    def test_residual_trend_and_averaged_decay(self, opf15):
        # one generic averaging-engine run gives (a) window-monotone
        # residual trends and (b) the averaged iterate's coupling residual
        # decaying at empirical order >= 1/k
        from blockpd.cli import fit_rate

        s = bp.paired_dso(opf15.d - 1)
        pol = bp.convex_default_policy(opf15, s)
        x0 = dlmp.opf_initial_point(opf15)
        res = bp.run(opf15, s, pol, x0, 6000, seed=0, trace_every=100)
        ks = np.array([r.k for r in res.trace], dtype=float)
        h_gap_w = np.array([r.h_gap_w for r in res.trace])
        slope, _ = fit_rate(ks, np.sqrt(2.0 * np.maximum(h_gap_w, 1e-300)),
                            k_min=600)
        assert slope <= -0.9

        kkt = np.array([r.kkt_res for r in res.trace])
        primal = np.array([r.primal_res for r in res.trace])
        for series in (kkt, primal):
            # compare means over consecutive 1000-iteration windows,
            # skipping the initial transient
            windows = [series[i : i + 10].mean() for i in range(10, 60, 10)]
            assert all(b <= a * 1.05 for a, b in zip(windows, windows[1:]))

    def test_stop_waits_for_both_residuals(self, opf15):
        # an early stop needs the coupling residual ||Ax - b|| below the
        # tolerance too, as acceptance criterion 9 checks at the stop
        x0 = dlmp.opf_initial_point(opf15)
        res = dlmp.ppdlmp_run(opf15, x0, 20_000, seed=1, trace_every=100, stop_kkt_tol=1e-4)
        last = res.trace[-1]
        assert res.stopped_at == last.k
        assert last.kkt_res < 1e-4 and last.primal_res < 1e-4


class TestPairActivatedLoop:
    def test_matches_generic_engine(self, opf15, pair_oracle):
        # the primal-dual engine under pair sampling replays the
        # coordinator/aggregator recursion at every one of the 200 steps
        x0 = dlmp.opf_initial_point(opf15)
        eng = recorded(dlmp.PpdlmpEngine(opf15))
        res = bp.run(opf15, eng.sampling, eng.policy, x0, 200, engine=eng, seed=3,
                     trace_every=200)
        path, y_end = pair_oracle(opf15, x0, 200, seed=3)
        assert len(eng.iterates) == len(path) == 201
        for x, x_oracle in zip(eng.iterates, path):
            assert np.max(np.abs(x - x_oracle)) <= 1e-9
        assert np.max(np.abs(res.state.y - y_end)) <= 1e-9

    def test_trace_every_must_be_positive(self, opf15):
        x0 = dlmp.opf_initial_point(opf15)
        for bad in (0, -5, 2.5):
            with pytest.raises(ValueError, match="trace_every"):
                dlmp.ppdlmp_run(opf15, x0, 10, seed=0, trace_every=bad)

    def test_initialisation_identities(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        state = eng.init_state(x0, bp.make_rng(0))
        sigma = eng.policy.sigma
        assert np.allclose(state.y, sigma * (opf15.a @ x0 - opf15.b), atol=1e-14)

    def test_refresh_restores_perturbed_residual(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        state = eng.init_state(x0, bp.make_rng(1))
        for _ in range(40):
            eng.step(state)
        u_true = opf15.a @ state.x - opf15.b
        assert np.allclose(state.u, u_true, atol=1e-10)
        state.u = state.u + 1.0
        eng.refresh(state)
        assert np.allclose(state.u, u_true, atol=1e-10)

    def test_shared_loop_stops_at_nan_aggregator_bid(self, opf15):
        # every step calls exactly one aggregator prox; the fifth returns NaN,
        # so the prices are NaN from step 5 on and the operator projection of
        # step 6 (called before that step's aggregator) gets non-finite input
        calls = []

        def nan_on_fifth(prox):
            def wrapped(g, v):
                calls.append(None)
                out = prox(g, v)
                return np.full_like(out, np.nan) if len(calls) == 5 else out

            return wrapped

        prox = [opf15.prox[0]] + [
            replace(pb, prox=nan_on_fifth(pb.prox)) for pb in opf15.prox[1:]
        ]
        problem = replace(opf15, prox=tuple(prox))
        eng = dlmp.PpdlmpEngine(problem)
        x0 = dlmp.opf_initial_point(opf15)
        with pytest.raises(ProjectionDidNotConverge, match="non-finite input"):
            bp.run(problem, eng.sampling, eng.policy, x0, 20, engine=eng)
        assert len(calls) == 5

    def test_shared_loop_streams_grid_rows(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        x0 = dlmp.opf_initial_point(opf15)
        res = bp.run(opf15, eng.sampling, eng.policy, x0, 30, engine=eng, seed=2,
                     trace_every=10)
        assert [r.k for r in res.trace] == [10, 20, 30]
        assert all(np.isfinite(r.wall_time) for r in res.trace)
        assert all(np.isfinite(r.psi_x) and np.isnan(r.psi_hat) for r in res.trace)

    def test_engine_object_must_match_run_arguments(self, opf15):
        eng = dlmp.PpdlmpEngine(opf15)
        other = bp.convex_default_policy(opf15, eng.sampling)
        with pytest.raises(ValueError, match="built for another"):
            bp.run(opf15, eng.sampling, other, dlmp.opf_initial_point(opf15), 5,
                   engine=eng)

    def test_iterates_do_not_depend_on_trace_every(self, opf15):
        # trace rows project at other points; they must not reach the step
        # path's warm start
        x0 = dlmp.opf_initial_point(opf15)
        states = [
            dlmp.ppdlmp_run(opf15, x0, 300, seed=4, trace_every=every).state
            for every in (1, 7, 300)
        ]
        for state in states[1:]:
            assert np.array_equal(state.x, states[0].x)
            assert np.array_equal(state.y, states[0].y)

    def test_runs_leave_no_projection_state_behind(self, opf15, rng):
        x0 = dlmp.opf_initial_point(opf15)
        sl = opf15.blocks.block_slice(0)
        v = x0[sl] + rng.standard_normal(sl.stop - sl.start)
        before = opf15.prox[0].prox(None, v)
        first = dlmp.ppdlmp_run(opf15, x0, 200, seed=5, trace_every=50).state
        after = opf15.prox[0].prox(None, v)
        second = dlmp.ppdlmp_run(opf15, x0, 200, seed=5, trace_every=50).state
        assert np.array_equal(before, after)
        assert np.array_equal(first.x, second.x) and np.array_equal(first.y, second.y)
        assert opf15.meta["dso_projector"].session is None
        # an engine driven twice starts its second run cold as well
        eng = dlmp.PpdlmpEngine(opf15)
        again = [
            bp.run(opf15, eng.sampling, eng.policy, x0, 200, engine=eng, seed=5,
                   trace_every=50).state
            for _ in range(2)
        ]
        assert np.array_equal(again[0].x, first.x) and np.array_equal(again[1].x, first.x)
        assert np.array_equal(again[1].y, first.y)

    def test_warm_start_cuts_newton_work(self, opf15):
        # a cold projection takes about 3.05 Newton steps, each factored
        eng = dlmp.PpdlmpEngine(opf15)
        state = bp.run(opf15, eng.sampling, eng.policy, dlmp.opf_initial_point(opf15), 2000,
                       engine=eng, seed=1, trace_every=2000).state
        totals = state.session.totals()
        assert totals["calls"] == 2000
        assert all(type(n) is int for n in totals.values())
        assert totals["newton_steps"] <= 2.2 * totals["calls"]
        assert totals["factorisations"] <= 0.7 * totals["calls"]
