"""Fairness-aware desk-rejection under per-author submission limits.

Data model, exact-rational fairness metrics, baseline and optimal rejection
policies, a self-contained LP solver for the mean-cost relaxation, exact
branch-and-bound solvers, a brute-force oracle, instance generators, and a
CLI (`deskfair`). Names are imported from their modules; the package
namespace holds only `__version__`.
"""

__version__ = "0.1.0"
