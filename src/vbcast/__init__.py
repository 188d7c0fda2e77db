"""vbcast: virtual broadcasting maps and their numerical toolkit.

Hermitian-preserving trace-preserving maps around the canonical virtual
broadcaster B(rho) = (1/2){rho (x) I, SWAP}: construction, axiom checks,
uniqueness certificates, diamond-norm bounds, Haar-moment machinery,
states over time, and quasi-probability sampling.

The package exports nothing but ``__version__``; import the submodules:
``densemat`` (operators, spectra, seeded randomness), ``supermap`` (maps
by their Choi operator), ``broadcast`` (B, its relatives and axioms),
``diamond`` (certified diamond-norm brackets), ``hovm`` (the virtual
measure-and-prepare map), ``sot`` (states over time), ``qsample``
(quasi-probability sampling), ``mcstats`` (streaming statistics) and
``cli`` (the ``vbcast`` command).  Importing the package imports no numpy,
so ``vbcast.cli`` can fix the BLAS thread count before numpy loads.

The submodules bind ``np`` through ``_lazy_numpy``, so numpy loads only
when a command starts dense work (a dense Choi, ADMM, ``sample --object
M``).  A covariant map's axiom residuals, spectrum, uniqueness certificate,
diamond bracket and Choi and Jamiolkowski entries are standard-library
arithmetic on its six coefficients, so ``verify`` and ``dump`` on a
covariant object, ``diamond`` on ``B`` and ``B-minus-Bplus`` and ``sample
--object B`` never execute numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_numpy():
    """numpy as a module whose import runs on its first attribute read.

    The module goes into ``sys.modules`` at once, and ``LazyLoader`` loads
    it in place, so later ``import numpy`` statements get the same object.
    If numpy is already imported, that module is returned; if it is not
    installed, this raises the usual ``ModuleNotFoundError``.
    """
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = np
        spec.loader.exec_module(np)
    return np
