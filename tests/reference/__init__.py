"""Reference oracles: the simple code the product's fast paths replaced.

Each module keeps, outside the product, an implementation that a
rewritten layer must agree with, so ``src/`` carries one implementation
per layer:

* :mod:`reference.simulator` — the seed channel and dispatcher, and the
  :func:`~reference.simulator.reference_simulator` harness that runs the
  event engine on them (simulation cache off);
* :mod:`reference.solver` — the full-``evaluate_plan`` annealing solve
  and the job-by-job greedy seed;
* :mod:`reference.kernels` — the per-replica tempering move kernels and
  the per-call reuse/price tail.

The tests import it as ``reference`` (pytest puts ``tests/`` on
``sys.path``); the parity benches under ``benchmarks/`` add ``tests/``
to ``sys.path`` themselves.
"""
