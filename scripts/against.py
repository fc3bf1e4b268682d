"""The ladder scripts' A/B harness.  Importing it pins the process to one
BLAS thread, so a ladder imports it before numpy.  ``--against DIR``
loads a second checkout's ``src/blockpd`` beside this one (``load_tree``),
so both trees run in one process and their timings share one host state.

``medians``, the one window loop, follows these rules:
- the windows go round-robin over rung x tree, so drift in the host's
  speed reaches every rung and tree alike;
- the tree order flips every window, and with two trees an odd window
  count is rounded up to even: the tree that goes second finds the shared
  code paths warm, so each tree goes first equally often;
- one more window runs first as warm-up and reaches no median;
- each reading's median is kept per tree, rung and reading.
"""

import os

# must precede numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import resource
import statistics
import sys
from pathlib import Path

import blockpd

NAME = "blockpd_against"


def load_tree(root):
    """``root/src/blockpd`` as ``blockpd_against``; its modules import each
    other relatively, so every submodule comes from ``root`` too."""
    pkg = Path(root) / "src" / "blockpd"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"--against: no package at {pkg}")
    spec = importlib.util.spec_from_file_location(
        NAME, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    spec.loader.exec_module(module)
    return module


def at_least(low):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    return parse


at_least_one = at_least(1)


def parser(doc, windows):
    """A ladder's parser with the shared ``--windows`` and ``--against``."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--windows", type=at_least_one, default=windows,
                    help="timed windows, rounded up to even with --against")
    ap.add_argument("--against", metavar="DIR", help="a second checkout to time beside this one")
    return ap


def tree_set(against):
    """``this`` tree, then the ``against`` one when a directory is given."""
    return {"this": blockpd, **({"against": load_tree(against)} if against else {})}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def medians(trees, rungs, windows, time_one):
    """Median of each reading of ``time_one(tree, rung)``, a dict of
    readings, keyed by (tree, rung, reading), under the rules above."""
    if len(trees) == 2:
        windows += windows % 2
    readings = {}
    for w in range(windows + 1):
        for rung in rungs:
            for tree in list(trees)[:: 1 if w % 2 == 0 else -1]:
                for reading, value in time_one(tree, rung).items():
                    if w:
                        readings.setdefault((tree, rung, reading), []).append(value)
    return {key: statistics.median(values) for key, values in readings.items()}


def report(trees, med, table):
    """Each tree's table, ``table(cell, tree)`` with ``cell(rung, reading)``
    its medians, under its ``this:``/``against:`` line; then, with two
    trees, the table of this tree's medians over the other's
    (``tree`` None)."""
    for name, tree in trees.items():
        if len(trees) == 2:
            print(f"{name}: {tree.__file__}")
        table(lambda rung, reading: med[name, rung, reading], name)
    if len(trees) == 2:
        print("this / against (ratio of the medians)")
        table(lambda rung, reading: med["this", rung, reading] / med["against", rung, reading], None)
