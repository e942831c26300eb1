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


@pytest.fixture
def undercounting_ladder_iter(monkeypatch):
    """Installs, for a given degree, a ladder that reports that degree one
    rank short at the smaller prime (a modular rank can only undercount)."""
    real = nichols.ladder_ranks_iter

    def install(degree):
        def ladder(V, p, omega, budget=nichols.MODULAR_BUDGET):
            short = p == min(primes_one_mod(V.k, count=2))
            for n, rank, secs in real(V, p, omega, budget):
                yield n, rank - (short and n == degree), secs

        monkeypatch.setattr(nichols, "ladder_ranks_iter", ladder)

    return install
