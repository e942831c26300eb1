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
def undercounting_ladder_iter(monkeypatch):
    """Installs, for a given degree, a ladder that reports that degree one
    rank short at the smaller prime (a modular rank can only undercount)."""
    real = nichols.ladder_ranks_iter

    def install(degree):
        def ladder(V, p, omega):
            short = p == min(primes_one_mod(V.k, count=2))
            for n, rank in real(V, p, omega):
                yield n, rank - (short and n == degree)

        monkeypatch.setattr(nichols, "ladder_ranks_iter", ladder)

    return install
