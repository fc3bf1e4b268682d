"""The package's one source of LAPACK and BLAS: SciPy's f2py wrappers,
loaded without ``import scipy.linalg``.

The package calls only the raw routines that ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` re-export from the extension modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, but importing
``scipy.linalg`` runs its package ``__init__``, which loads some 300 modules
and about 23 MB of resident memory (scipy 1.17).  So the two extensions are
loaded straight from scipy's ``linalg`` directory, after the top-level
``import scipy`` that sets up its bundled BLAS.  Where ``scipy.linalg`` is
already loaded they are taken from ``sys.modules``.  Either way each routine
is the object ``scipy.linalg.lapack`` / ``blas`` exports, since CPython
keeps one copy of an extension's functions, whichever import loads it first.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import scipy


def _extension(name: str):
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = PathFinder.find_spec(full, [f"{scipy.__path__[0]}/linalg"])
    if spec is None:
        raise ImportError(f"{full} is not beside scipy at {scipy.__path__[0]}", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading registers the extension; a later ``import scipy.linalg`` must
    # load it itself, or it leaves the attribute unset on its package
    sys.modules.pop(full, None)
    return module


lapack = _extension("_flapack")
blas = _extension("_fblas")
