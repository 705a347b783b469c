"""Index stream properties: determinism, per-pass structure, frequencies."""

import gc
import weakref

import numpy as np
import pytest

from finito import (
    CYCLIC,
    PERMUTED,
    SAMPLING_NAMES,
    UNIFORM,
    IndexSampler,
    SamplingScheme,
)
from finito.samplers import PERMUTED_FROZEN


def draw(scheme, n, count):
    s = IndexSampler(scheme, n)
    return [s.next_index() for _ in range(count)]


def test_cyclic_is_periodic():
    got = draw(SamplingScheme(CYCLIC), 3, 9)
    assert got == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_permuted_passes_are_permutations():
    n = 7
    stream = draw(SamplingScheme(PERMUTED, seed=5), n, 5 * n)
    blocks = [stream[m * n:(m + 1) * n] for m in range(5)]
    for b in blocks:
        assert sorted(b) == list(range(n))
    # refreshing scheme: not every pass repeats the first one
    assert any(b != blocks[0] for b in blocks[1:])


def test_frozen_permutation_repeats_every_pass():
    n = 6
    scheme = SamplingScheme.from_name("permuted-frozen", seed=3)
    assert scheme == SamplingScheme(PERMUTED_FROZEN, 3)
    assert scheme.kind == "permuted-frozen" != PERMUTED
    stream = draw(scheme, n, 4 * n)
    first = stream[:n]
    assert sorted(first) == list(range(n))
    for m in range(1, 4):
        assert stream[m * n:(m + 1) * n] == first


def test_uniform_frequencies_near_uniform():
    n, total = 10, 1_000_000
    stream = np.array(draw(SamplingScheme(UNIFORM, seed=2), n, total))
    counts = np.bincount(stream, minlength=n)
    expect = total / n
    stderr = np.sqrt(total * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expect) <= 5 * stderr)


def test_same_seed_same_stream():
    a = draw(SamplingScheme(PERMUTED, seed=9), 8, 40)
    b = draw(SamplingScheme(PERMUTED, seed=9), 8, 40)
    assert a == b
    c = draw(SamplingScheme(UNIFORM, seed=9), 8, 40)
    d = draw(SamplingScheme(UNIFORM, seed=9), 8, 40)
    assert c == d


def test_different_seeds_differ():
    a = draw(SamplingScheme(PERMUTED, seed=0), 20, 40)
    b = draw(SamplingScheme(PERMUTED, seed=1), 20, 40)
    assert a != b


def test_skip_to_replays_stream():
    scheme = SamplingScheme(PERMUTED, seed=4)
    full = IndexSampler(scheme, 5)
    head = [full.next_index() for _ in range(13)]
    tail = [full.next_index() for _ in range(10)]

    resumed = IndexSampler(scheme, 5).skip_to(13)
    assert resumed.draws == 13
    assert [resumed.next_index() for _ in range(10)] == tail
    assert head[:13] == draw(scheme, 5, 13)


def test_skip_to_uniform_and_cyclic():
    for scheme in (SamplingScheme(UNIFORM, seed=7), SamplingScheme(CYCLIC)):
        full = IndexSampler(scheme, 4)
        seq = [full.next_index() for _ in range(11)]
        resumed = IndexSampler(scheme, 4).skip_to(7)
        assert [resumed.next_index() for _ in range(4)] == seq[7:]


def test_passes_completed_counts_whole_passes():
    s = IndexSampler(SamplingScheme(CYCLIC), 5)
    for _ in range(4):
        s.next_index()
    assert s.draws // 5 == 0
    s.next_index()
    assert s.draws // 5 == 1
    for _ in range(7):
        s.next_index()
    assert s.draws // 5 == 2


def test_scheme_validation_and_names():
    with pytest.raises(ValueError):
        SamplingScheme("sorted")
    with pytest.raises(ValueError):
        SamplingScheme(UNIFORM, seed=-1)
    with pytest.raises(ValueError):
        SamplingScheme.from_name("bogus")
    for name in SAMPLING_NAMES:
        scheme = SamplingScheme.from_name(name, seed=2)
        assert scheme.kind == name


def test_empty_problem_rejected():
    with pytest.raises(ValueError):
        IndexSampler(SamplingScheme(UNIFORM), 0)


def _numpy_stream(scheme, n, passes):
    """The per-pass blocks straight from numpy's generator."""
    out = []
    for p in range(passes):
        if scheme.kind == CYCLIC:
            block = np.arange(n)
        else:
            frozen = scheme.kind == PERMUTED_FROZEN
            rng = np.random.default_rng([scheme.seed, 0 if frozen else p])
            block = (rng.integers(0, n, size=n) if scheme.kind == UNIFORM
                     else rng.permutation(n))
        out.extend(int(j) for j in block)
    return out


@pytest.mark.parametrize("name", SAMPLING_NAMES)
def test_stream_is_python_ints_from_numpy_blocks(name):
    scheme = SamplingScheme.from_name(name, seed=9)
    for n in (1, 7):
        # enough passes that every start below leaves a tail, at n = 1 too
        expected = _numpy_stream(scheme, n, 8)
        s = IndexSampler(scheme, n)
        got = [s.next_index() for _ in range(8 * n)]
        assert got == expected
        assert all(type(j) is int for j in got)
        for start in (0, 3, n - 1, n, 2 * n + 5, 3 * n):
            resumed = IndexSampler(scheme, n).skip_to(start)
            tail = [resumed.next_index() for _ in range(8 * n - start)]
            assert tail == expected[start:]
            assert all(type(j) is int for j in tail)


def test_draws_counts_consumed_indices():
    s = IndexSampler(SamplingScheme(UNIFORM, seed=1), 5)
    for m in range(1, 13):
        s.next_index()
        assert s.draws == m
    resumed = IndexSampler(SamplingScheme(UNIFORM, seed=1), 5).skip_to(8)
    for m in range(1, 9):
        resumed.next_index()
        assert resumed.draws == 8 + m


def test_scheme_seed_is_an_integer():
    # a bool seed once drew the seed-1 stream and wrote a checkpoint that
    # could not be loaded; a float failed only later, inside numpy
    for bad in (True, False, np.bool_(True), 2.5, "3"):
        with pytest.raises(TypeError):
            SamplingScheme(UNIFORM, bad)
    scheme = SamplingScheme(UNIFORM, np.int64(3))
    assert type(scheme.seed) is int and scheme.seed == 3
    assert draw(scheme, 6, 12) == draw(SamplingScheme(UNIFORM, 3), 6, 12)


def test_sampler_n_is_an_integer():
    # n = 2.5 once ran as n = 2; n is read as the scheme's seed is
    for bad in (2.5, True, np.bool_(True), "3"):
        with pytest.raises(TypeError):
            IndexSampler(SamplingScheme(UNIFORM), bad)
    sampler = IndexSampler(SamplingScheme(UNIFORM, 3), np.int64(6))
    assert type(sampler.n) is int and sampler.n == 6


@pytest.mark.parametrize("name", SAMPLING_NAMES)
def test_sampler_is_freed_without_the_cycle_collector(name):
    # the stream's blocks come from a static function, so the stream holds
    # no reference back to its sampler, and a drawn sampler dies with its
    # last reference
    s = IndexSampler(SamplingScheme(name, seed=3), 5)
    for _ in range(7):  # across the first pass boundary
        s.next_index()
    gone = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert gone() is None
    finally:
        gc.enable()
