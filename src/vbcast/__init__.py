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
"""

__version__ = "0.1.0"
