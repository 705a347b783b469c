"""Index-selection schemes that drive the order components are visited in.

Each scheme materializes its indices one pass at a time from a generator
seeded by (seed, pass number), so any position in the stream can be
reconstructed from the scheme and a draw count alone.  That is what makes
checkpointed runs resume bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import _as_index

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
        object.__setattr__(self, "seed", _as_index(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_name(name: str, seed: int = 0) -> "SamplingScheme":
        """Build from a config tag (one of SAMPLING_NAMES)."""
        return SamplingScheme(name, seed)


class IndexSampler:
    """Stateful index stream for one run over a problem with n components."""

    def __init__(self, scheme: SamplingScheme, n: int):
        if n < 1:
            raise ValueError(f"sampler needs n >= 1, got {n}")
        self.scheme = scheme
        self.n = int(n)
        self.draws = 0
        self._pass = 0
        self._pos = 0
        self._block = self._make_block(0)

    def _make_block(self, pass_index: int) -> list[int]:
        # a list of Python ints: indexing it is far cheaper than a numpy read
        kind = self.scheme.kind
        if kind == CYCLIC:
            return list(range(self.n))
        if kind == PERMUTED_FROZEN:
            pass_index = 0
        rng = np.random.default_rng([self.scheme.seed, pass_index])
        if kind == UNIFORM:
            return rng.integers(0, self.n, size=self.n).tolist()
        return rng.permutation(self.n).tolist()

    def next_index(self) -> int:
        if self._pos == self.n:
            self._pass += 1
            self._pos = 0
            self._block = self._make_block(self._pass)
        j = self._block[self._pos]
        self._pos += 1
        self.draws += 1
        return j

    def skip_to(self, draws: int) -> "IndexSampler":
        """Jump the stream to an absolute draw count (used on resume)."""
        if draws < 0:
            raise ValueError(f"draw count must be >= 0, got {draws}")
        self.draws = draws
        self._pass = draws // self.n
        self._pos = draws % self.n
        self._block = self._make_block(self._pass)
        return self
