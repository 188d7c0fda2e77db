"""vbcast: virtual broadcasting maps and their numerical toolkit.

Hermitian-preserving trace-preserving maps around the canonical virtual
broadcaster B(rho) = (1/2){rho (x) I, SWAP}: construction, axiom checks,
uniqueness certificates, diamond-norm bounds, Haar-moment machinery,
states over time, and quasi-probability sampling.

The package exports nothing but ``__version__``; import the submodules:
``densemat`` (dense operators, the trace norm, seeded randomness),
``supermap`` (maps, held exactly by the symmetry of their Choi or as a
dense Choi), ``broadcast`` (B, its relatives and axioms), ``diamond``
(certified diamond-norm brackets), ``hovm`` (the virtual
measure-and-prepare map), ``sot`` (no code: the axioms of states over time
E * rho are the broadcaster's own, which ``broadcast.check_axioms`` reads),
``qsample`` (quasi-probability sampling), ``mcstats`` (streaming
statistics) and ``cli`` (the ``vbcast`` command).  Importing the package
imports no numpy, so ``vbcast.cli`` can fix the BLAS thread count before
numpy loads.

``cli`` binds the library modules, ``hovm`` binds ``mcstats`` and every
module that reads numpy binds ``np`` through ``_lazy``: the module is
registered at once, and its code runs on the first attribute read.  So
``import vbcast.cli`` executes only ``vbcast`` and ``vbcast.cli``, and each
command executes the layers it calls: ``verify`` runs densemat, supermap,
broadcast and hovm; ``diamond`` densemat, supermap and diamond, and
broadcast for a named map; ``sample --object M`` densemat, supermap, hovm
and mcstats; ``sample --object B`` densemat, supermap, broadcast, qsample
and mcstats; ``dump`` densemat, supermap and the layer that builds its
object.

numpy, the optional ``dense`` extra, loads only for ``sample --object M``
and dense ``file:`` targets of ``diamond``.  ``verify`` and ``dump`` of every named object are exact and
never import numpy, nor do ``diamond`` on ``B``, ``B-minus-Bplus`` and a
covariant ``file:`` target, and ``sample --object B``; they run where
numpy is not installed, and a command that reaches numpy there exits 2.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"


class _Absent(types.ModuleType):
    """A module that is not installed: reading any attribute it does not have raises ``ModuleNotFoundError``."""

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self.__name__!r}", name=self.__name__)


def _lazy(name: str) -> types.ModuleType:
    """The module ``name``, whose code runs on its first attribute read.

    An imported module is returned as it is.  Otherwise a ``LazyLoader``
    module goes into ``sys.modules`` at once and is bound on its parent
    package, as an import binds it, so later ``import`` statements get the
    same object and it loads in place.  A module that is not installed
    comes back as an ``_Absent`` placeholder, kept out of ``sys.modules``,
    so the error arrives on first use, not at import.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:  # a finder on sys.meta_path may refuse the name instead of passing it on
        spec = None
    if spec is None:
        return _Absent(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
