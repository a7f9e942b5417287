import itertools
import random
from fractions import Fraction

import pytest

from mtzeta.bernprod import (
    BernCombo,
    carlitz_product,
    expand_by_partitions,
    expand_by_subsets,
    naive_product,
)


def test_naive_single_factor_is_identity():
    for n in (1, 2, 5):
        c = naive_product((n,))
        assert c == BernCombo.build({n: Fraction(1)}, Fraction(0))


def test_naive_11():
    c = naive_product((1, 1))
    assert dict(c.terms) == {2: Fraction(1)}
    assert c.constant == Fraction(1, 12)


def test_naive_22():
    c = naive_product((2, 2))
    assert dict(c.terms) == {4: Fraction(1), 2: Fraction(1, 3)}
    assert c.constant == Fraction(1, 180)
    # spot-check at x=0: B_4 + B_2/3 + 1/180 == B_2(0)^2
    assert Fraction(-1, 30) + Fraction(1, 6) / 3 + Fraction(1, 180) == Fraction(1, 36)


def test_carlitz_examples():
    assert carlitz_product(1, 1) == naive_product((1, 1))
    assert carlitz_product(2, 2) == naive_product((2, 2))


def test_carlitz_symmetric_and_matches_oracle():
    for a in range(1, 7):
        for b in range(1, 7):
            ab = carlitz_product(a, b)
            assert ab == carlitz_product(b, a)
            assert ab == naive_product((a, b)), (a, b)


def test_subset_expansion_examples():
    assert expand_by_subsets((1, 1)) == naive_product((1, 1))
    assert expand_by_subsets((2, 2)) == naive_product((2, 2))


def test_partition_expansion_examples():
    assert expand_by_partitions((1, 1)) == naive_product((1, 1))
    # t=2 reproduces the two-factor formula term for term
    for a in range(1, 5):
        for b in range(1, 5):
            assert expand_by_partitions((a, b)) == carlitz_product(a, b)


def test_permutation_invariance():
    s = (1, 3, 2)
    base = expand_by_partitions(s)
    for perm in itertools.permutations(s):
        assert expand_by_partitions(perm) == base
        assert expand_by_subsets(perm) == base


@pytest.mark.parametrize("t", [3, 4])
def test_oracle_grid_small(t):
    # entries <= 3 here; the full <=5 grid runs in the acceptance suite
    for s in itertools.product(range(1, 4), repeat=t):
        expect = naive_product(s)
        assert expand_by_subsets(s) == expect, s
        assert expand_by_partitions(s) == expect, s


def test_oracle_random_depth56():
    rng = random.Random(7)
    for _ in range(10):
        t = rng.choice((5, 6))
        s = tuple(rng.randint(1, 6) for _ in range(t))
        expect = naive_product(s)
        assert expand_by_subsets(s) == expect, s
        assert expand_by_partitions(s) == expect, s


def test_partition_expansion_weight_homogeneous():
    # every surviving B_m(x) coefficient involves Bernoulli indices summing
    # to |s| - m; cheap proxy: expansion of an all-even vector has terms of
    # the same parity as |s| only
    s = (2, 4, 2)
    combo = expand_by_partitions(s)
    for m in combo.terms:
        assert (sum(s) - m) % 2 == 0


def test_every_route_refuses_before_the_table_grows():
    # each route asks for its largest Bernoulli index first, so with a cold
    # table (a fresh child) (2000, 1) is refused before B_976 is built
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mtzeta

    child = (
        "import time\n"
        "from mtzeta import bernprod, exact\n"
        "for name, call in [('subsets', lambda: bernprod.expand_by_subsets((2000, 1))),\n"
        "                   ('partitions', lambda: bernprod.expand_by_partitions((2000, 1))),\n"
        "                   ('carlitz', lambda: bernprod.carlitz_product(2000, 1)),\n"
        "                   ('naive', lambda: bernprod.naive_product((2000, 1))),\n"
        "                   ('integral', lambda: exact.product_integral((2000, 1)))]:\n"
        "    t = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print(name, time.perf_counter() - t, len(exact._bernoulli_cache))\n"
    )
    src = str(Path(mtzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120).stdout
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == ["subsets", "partitions", "carlitz", "naive", "integral"], out
    for name, seconds, table in rows:
        assert float(seconds) < 1 and int(table) == 2, (name, seconds, table)
