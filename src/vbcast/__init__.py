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
registered at once, and its code runs on the first attribute read.  So a
fresh process executes only the layers its command reads, besides
``vbcast`` and ``vbcast.cli`` (at any ``--dim``; numpy, the ``dense``
extra, only for ``sample --object M`` and a dense Choi at ``file:PATH``):

    import vbcast.cli:               none
    verify:                          broadcast densemat hovm supermap
    diamond --target B:              broadcast densemat diamond supermap
    diamond --target B-minus-Bplus:  broadcast densemat diamond supermap
    diamond --target file:PATH:      densemat diamond supermap
    sample --object B --obs random:  broadcast densemat mcstats qsample supermap
    sample --object M:               densemat hovm mcstats supermap
    dump --object B:                 broadcast densemat supermap
    dump --object M:                 densemat hovm supermap
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
