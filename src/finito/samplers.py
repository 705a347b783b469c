"""Index-selection schemes that drive the order components are visited in.

Each scheme materializes its indices one pass at a time from a generator
seeded by (seed, pass number), so any position in the stream can be
reconstructed from the scheme and a draw count alone.  That is what makes
checkpointed runs resume bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat

import numpy as np

from .problems import _require_count

UNIFORM = "uniform"
PERMUTED = "permuted"
PERMUTED_FROZEN = "permuted-frozen"
CYCLIC = "cyclic"

SAMPLING_NAMES = (UNIFORM, PERMUTED, PERMUTED_FROZEN, CYCLIC)


@dataclass(frozen=True)
class SamplingScheme:
    """How the next component index is chosen.

    kind: "uniform" (i.i.d. with replacement), "permuted" (a fresh
          permutation each pass), "permuted-frozen" (the first permutation
          replayed every pass, the pre-permuted variant) or "cyclic"
          (k mod n, no randomness).  The kind is also the tag traces and
          checkpoints record.
    seed: nonnegative integer generator seed (a bool or float is a
          TypeError); ignored by cyclic.
    """

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLING_NAMES:
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        object.__setattr__(self, "seed", _require_count("seed", self.seed))

    @staticmethod
    def from_name(name: str, seed: int = 0) -> "SamplingScheme":
        """SamplingScheme(name, seed), kept for the benchmark harness."""
        return SamplingScheme(name, seed)


class IndexSampler:
    """Stateful index stream for one run over a problem with n components."""

    def __init__(self, scheme: SamplingScheme, n: int):
        self.scheme = scheme
        self.n = _require_count("n", n, 1)  # a float is a TypeError, not truncated
        self.skip_to(0)

    @staticmethod
    def _make_block(scheme: SamplingScheme, n: int, pass_index: int) -> list[int]:
        # a list of Python ints, whose iterator is far cheaper than numpy reads;
        # static, so the stream holds no reference back to its sampler
        if scheme.kind == CYCLIC:
            return list(range(n))
        if scheme.kind == PERMUTED_FROZEN:
            pass_index = 0
        rng = np.random.default_rng([scheme.seed, pass_index])
        if scheme.kind == UNIFORM:
            return rng.integers(0, n, size=n).tolist()
        return rng.permutation(n).tolist()

    def next_index(self) -> int:
        j = next(self._stream)
        self.draws += 1
        return j

    def skip_to(self, draws: int) -> "IndexSampler":
        """Jump the stream to an absolute draw count (used on resume)."""
        self.draws = draws = _require_count("draws", draws)
        blocks = map(self._make_block, repeat(self.scheme), repeat(self.n),
                     count(draws // self.n))
        self._stream = islice(chain.from_iterable(blocks), draws % self.n, None)
        return self
