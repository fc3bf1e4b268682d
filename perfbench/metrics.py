"""Metric catalogue of the blockpd benchmark.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_perfbench.py`` keeps the two in step.  For every per-layer metric the
catalogue also records which end-to-end metric it should move and on which
workload it does most of its work (``where``), and where it should show
about no change (``flat``).
"""

END_TO_END = {
    # name: (unit, better, bound)
    "setup_s": ("s", "lower", 0.25),
    "solve_s": ("s", "lower", 0.2),
    "total_s": ("s", "lower", 0.2),
    "iters": ("count", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_frac": ("fraction", "higher", 0.1),
}

_SOLVE = ("solve_s",)
_SETUP = ("setup_s",)

# name: (unit, better, moves, where, flat)
PER_LAYER = {
    "dlmp.build_s": ("s", "lower", _SETUP, ("opf15",), ()),
    "dlmp.step_us": ("us", "lower", _SOLVE, ("opf15",), ()),
    "dlmp.dso_prox_us": ("us", "lower", _SOLVE, ("opf15",), ()),
    "dlmp.agg_prox_us": ("us", "lower", _SOLVE, ("opf15",), ()),
    "proxops.energy_budget_calls": ("count", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "proxops.energy_budget_us": ("us", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "proxops.dykstra_calls": ("count", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "proxops.dykstra_us": ("us", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "proxops.affine_solves_per_iter": ("1/iter", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "proxops.share": ("fraction", "lower", _SOLVE, ("opf15",), ("ls_rates", "ls_wide")),
    "stepsize.certify_s": ("s", "lower", ("setup_s", "peak_rss_mb"), ("ls_wide",), ("ls_rates", "opf15")),
    "stepsize.xi_s": ("s", "lower", ("setup_s", "peak_rss_mb"), ("ls_wide",), ("ls_rates", "opf15")),
    "stepsize.eig_s": ("s", "lower", ("setup_s", "peak_rss_mb"), ("ls_wide",), ("ls_rates", "opf15")),
    "stepsize.halvings": ("count", "lower", ("setup_s", "peak_rss_mb"), ("ls_wide",), ("ls_rates", "opf15")),
    "stepsize.setup_share": ("fraction", "lower", _SETUP, ("ls_wide",), ("ls_rates", "opf15")),
    "stepsize.tau_next_calls": ("count", "lower", _SOLVE, ("ls_wide", "ls_rates"), ("opf15",)),
    "stepsize.tau_next_us": ("us", "lower", _SOLVE, ("ls_wide", "ls_rates"), ("opf15",)),
    "oracles.reference_s": ("s", "lower", _SETUP, ("ls_wide",), ("opf15",)),
    "oracles.setup_share": ("fraction", "lower", _SETUP, ("ls_wide",), ("opf15",)),
    "sampling.draw_us": ("us", "lower", _SOLVE, ("ls_wide",), ("opf15",)),
    "sampling.active_blocks_per_iter": ("count", "lower", _SOLVE, ("ls_wide",), ("opf15",)),
    "solver.step_self_us": ("us", "lower", _SOLVE, ("ls_wide",), ("ls_rates",)),
    "solver.flops_per_iter": ("flop.computed", "lower", _SOLVE, ("ls_wide",), ("ls_rates",)),
    "solver.bytes_per_iter": ("B.computed", "lower", _SOLVE, ("ls_wide",), ("ls_rates",)),
    "solver.trace_ms": ("ms", "lower", _SOLVE, ("ls_rates",), ("ls_wide",)),
    "solver.trace_share": ("fraction", "lower", _SOLVE, ("ls_rates",), ("ls_wide",)),
    "solver.refresh_ms": ("ms", "lower", _SOLVE, ("ls_rates",), ("ls_wide",)),
    "blocks.kkt_ms": ("ms", "lower", _SOLVE, ("ls_rates",), ("ls_wide",)),
    "blocks.grad_us": ("us", "lower", _SOLVE, ("ls_rates",), ("opf15",)),
    "blocks.psi_block_us": ("us", "lower", _SOLVE, ("ls_rates",), ("opf15",)),
    "trace.overhead": ("fraction", "lower", _SOLVE, ("opf15", "ls_rates", "ls_wide"), ()),
}

# timing metrics reported as a p50 with a tail percentile beside it
DISTRIBUTIONS = (
    "dlmp.step_us", "dlmp.dso_prox_us", "dlmp.agg_prox_us",
    "proxops.energy_budget_us", "proxops.dykstra_us", "stepsize.tau_next_us",
    "sampling.draw_us", "solver.step_self_us", "solver.trace_ms",
    "solver.refresh_ms", "blocks.kkt_ms", "blocks.grad_us", "blocks.psi_block_us",
)
for _name in DISTRIBUTIONS:
    _unit, _better, _moves, _where, _flat = PER_LAYER[_name]
    PER_LAYER[_name + ".tail"] = (_unit, _better, _moves, _where, _flat)
