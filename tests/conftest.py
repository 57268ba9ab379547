import contextlib
import random
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from deskfair.generators import gen_random
from deskfair.instance import Instance, KeepVector, validate_instance


def random_instance(seed, max_n=6, max_m=12, densities=(0.3, 0.6), max_x=4):
    """Deterministic random instance; the seed fixes every parameter."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    x = rng.randint(1, max_x)
    density = rng.choice(densities)
    return gen_random(n, m, x, density, seed)


def dense(A) -> np.ndarray:
    """The dense array of a `SparseMatrix`, for HiGHS cross-checks and
    cell-by-cell assertions."""
    out = np.zeros(A.shape)
    out[A.row, A.col] = A.value
    return out


def random_feasible_keep(inst: Instance, rng: random.Random) -> KeepVector:
    """Random binary keep vector repaired to feasibility by random rejections."""
    keep = [rng.randint(0, 1) for _ in range(inst.m)]
    counts = [sum(keep[j] for j in papers) for papers in inst.author_papers]
    while True:
        over = [i for i in range(inst.n) if counts[i] > inst.x]
        if not over:
            break
        victim = rng.choice(over)
        j = rng.choice([j for j in inst.author_papers[victim] if keep[j]])
        keep[j] = 0
        for i in inst.paper_authors[j]:
            counts[i] -= 1
    return KeepVector(keep)


@st.composite
def instances(draw, max_n=5, max_m=8, max_x=4):
    """Hypothesis strategy for valid instances."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    x = draw(st.integers(1, max_x))
    authors = [f"a{i}" for i in range(1, n + 1)]
    papers = []
    for j in range(m):
        members = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        papers.append({"id": f"p{j + 1}", "authors": [authors[i] for i in sorted(members)]})
    # every author needs at least one paper
    present = {a for p in papers for a in p["authors"]}
    for i, a in enumerate(authors):
        if a not in present:
            papers[i % m]["authors"].append(a)
    return validate_instance({"x": x, "authors": authors, "papers": papers})


@st.composite
def instances_with_keep(draw, max_n=5, max_m=8):
    inst = draw(instances(max_n=max_n, max_m=max_m))
    keep = KeepVector(draw(st.lists(st.integers(0, 1), min_size=inst.m, max_size=inst.m)))
    return inst, keep


@pytest.fixture
def triangle():
    from deskfair.generators import gen_triangle

    return gen_triangle()


@pytest.fixture
def cvpr26():
    from deskfair.generators import gen_case_study

    return gen_case_study("cvpr26")


def spy_on(monkeypatch, original):
    """Replace every `deskfair.*` module attribute bound to `original` with
    one recording wrapper. Returns the list of positional-argument tuples of
    the calls seen so far."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "deskfair" or name.startswith("deskfair.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recording)
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """Real `solve_lp` calls, one argument tuple `(lp,)` per call."""
    from deskfair import lp

    return spy_on(monkeypatch, lp.solve_lp)


@contextlib.contextmanager
def pre_lp_off():
    """Send every feasibility question straight to branch and bound over the
    unpropagated LP: no bound propagation and no greedy witness."""
    from deskfair import solvers

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_propagate", lambda inst, floors, value: True)
        mp.setattr(solvers, "_greedy_witness", lambda inst, floors: None)
        yield


@pytest.fixture
def no_pre_lp():
    """`pre_lp_off` for the whole test."""
    with pre_lp_off():
        yield
