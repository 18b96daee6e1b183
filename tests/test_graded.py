"""The graded associativity certificate against the dense contraction it
replaced.

``validate_algebra`` certifies the skew groupoid ring block by block over
its arrow grading: first that no constant lies outside the blocks
B_g x B_h -> B_gh of composable pairs, then (xy)z = x(yz) on the block
triples (g, h, k) where g, h and h, k compose.  The oracle below is the
old whole-table check, n^5 multiply-adds over every basis triple.
"""

import json
import re
import runpy
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gglab.algebra import AlgebraError, Grading, validate_algebra
from gglab.fields import Field
from gglab.galois import build_skew_groupoid_ring
from gglab.instances import clock_shift, load_instance_dict

# the benchmark's instance generators, read without importing (or writing
# bytecode into) perfbench
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
BENCH_DOCS = {name: text for w in WORKLOADS["WORKLOADS"] for name, text in WORKLOADS["documents"](w).items()}


def skew_ring(name):
    doc = clock_shift(2, 5) if name == "clock_shift(2, 5)" else json.loads(BENCH_DOCS[name])
    return build_skew_groupoid_ring(load_instance_dict(doc).action)


def dense_first_failure(field, table):
    """Both sides of associativity on every basis triple; the row-major
    first triple (i, j, k) where they differ, or None."""
    n = table.shape[0]
    nn = n * n
    left = field.reduce(np.dot(table.reshape(nn, n), table.reshape(n, nn))).reshape(n, n, n, n)
    # right[i,j,k,l] = sum_m c[j,k,m] c[i,m,l]
    mid = np.transpose(table, (1, 0, 2)).reshape(n, nn)
    right = field.reduce(np.dot(table.reshape(nn, n), mid).reshape(n, n, n, n).transpose(2, 0, 1, 3))
    bad = np.argwhere(left != right)
    return None if len(bad) == 0 else tuple(int(x) for x in bad[0][:3])


def revalidate(skew, table):
    alg = skew.algebra
    return validate_algebra(alg.field, alg.labels, table, alg.unit, skew.grading)


@pytest.mark.parametrize("name", [*BENCH_DOCS, "clock_shift(2, 5)"])
def test_skew_rings_pass_both_certificates(name):
    skew = skew_ring(name)
    alg = skew.algebra
    assert dense_first_failure(alg.field, alg.table) is None
    assert np.array_equal(revalidate(skew, alg.table).table, alg.table)


@pytest.mark.parametrize("name", ["klein_m2f3", "pair_f5x2"])
def test_bumped_entry_fails_at_the_dense_first_triple(name):
    skew = skew_ring(name)
    alg, grading = skew.algebra, skew.grading
    start = [0, *accumulate(grading.sizes)]
    pairs = [(g, h, gh) for g, row in enumerate(grading.comp) for h, gh in enumerate(row) if gh >= 0]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(pairs), st.data())
    def run(pair, data):
        # one constant inside the composable block B_g x B_h -> B_gh
        pos = tuple(start[b] + data.draw(st.integers(0, grading.sizes[b] - 1)) for b in pair)
        table = alg.table.copy()
        table[pos] = (table[pos] + data.draw(st.integers(1, alg.field.p - 1))) % alg.field.p
        first = dense_first_failure(alg.field, table)
        assert first is not None
        want = "associativity fails at triple ({},{},{})".format(*(alg.labels[i] for i in first))
        with pytest.raises(AlgebraError, match=f"^{re.escape(want)}$"):
            revalidate(skew, table)

    run()


def test_constant_outside_the_composable_blocks_is_refused():
    # the two copies of klein_disjoint2 do not compose: a product of an
    # arrow of copy 1 with one of copy 2 must be 0
    skew = skew_ring("klein_disjoint2")
    alg = skew.algebra
    copy2 = alg.labels.index("e2#0")
    table = alg.table.copy()
    table[1, copy2 + 2, 3] = 1
    table[1, copy2 + 1, 5] = 2  # the row-major first of the two
    want = f"structure constant outside the grading at ({alg.labels[1]},{alg.labels[copy2 + 1]},{alg.labels[5]})"
    with pytest.raises(AlgebraError, match=f"^{re.escape(want)}$"):
        revalidate(skew, table)


@pytest.mark.parametrize("name", ["klein_m2f3", "pair_f5"])
def test_every_composable_block_triple_is_checked(name):
    """For each block triple (g, h, k) where g, h and h, k compose, a table
    that fails associativity at one basis triple of that block triple
    alone: b_i b_j = b_m and b_m b_k = b_l, every other product 0, so
    (b_i b_j) b_k = b_l but b_i (b_j b_k) = 0.  Blocks of five keep the
    five indices apart, so no other triple fails."""
    comp = skew_ring(name).grading.comp
    f = Field("Fp", 5)
    n = 5 * len(comp)
    grading = Grading((5,) * len(comp), comp)
    labels = [f"b{i}" for i in range(n)]
    triples = [(g, h, k) for g, row in enumerate(comp) for h, gh in enumerate(row) if gh >= 0 for k in range(len(comp)) if comp[h][k] >= 0]
    assert len(triples) == (64 if name == "klein_m2f3" else 16)
    for g, h, k in triples:
        gh = comp[g][h]
        i, j, m, kk, l = 5 * g, 5 * h + 1, 5 * gh + 2, 5 * k + 3, 5 * comp[gh][k] + 4
        table = f.zeros((n, n, n))
        table[i, j, m] = table[m, kk, l] = 1
        assert dense_first_failure(f, table) == (i, j, kk)
        with pytest.raises(AlgebraError, match=rf"^associativity fails at triple \(b{i},b{j},b{kk}\)$"):
            validate_algebra(f, labels, table, f.zeros(n), grading)
