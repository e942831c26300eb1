import pytest

from coxrack import nichols
from coxrack.coxeter import build_group, preset_matrix
from coxrack.modlin import primes_one_mod


@pytest.fixture(scope="session")
def group_cache():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_group(preset_matrix(name))
        return cache[name]

    return get


@pytest.fixture
def undercounting_ladder(monkeypatch):
    """Per-prime ladder giving A2's ranks, degree 2 one short at the smaller
    prime (a modular rank can only undercount)."""

    def ladder(V, dmax, p, omega, budget):
        ranks = [1, 3, 4, 3, 1, 0][:dmax + 1]
        if p == min(primes_one_mod(V.k, count=2)):
            ranks[2] -= 1
        return ranks, [0.0] * len(ranks)

    monkeypatch.setattr(nichols, "hilbert_ladder_mod", ladder)
