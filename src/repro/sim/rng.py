"""Deterministic random-number infrastructure for the simulation kernel.

The paper's experiments use JavaSim's stream classes, each drawing from an
independent pseudo-random sequence.  :class:`RandomSource` reproduces that
discipline: a single root seed fans out into *named* substreams, so adding a
new stream to a model never perturbs the draws seen by existing streams.
"""

from __future__ import annotations

import random

# The interpreter's builtin SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before):
# OpenSSL's libcrypto maps ~3.7 MB into the process, more than a whole
# stream's working set, to hash one short string per source.  The digests
# are the same bytes, so every derived seed is unchanged.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without the builtin module
        from hashlib import sha256 as _sha256

__all__ = ["RandomSource"]


class RandomSource:
    """A seeded factory of independent pseudo-random substreams.

    Parameters
    ----------
    seed:
        Root seed.  Two sources built from the same seed produce identical
        substreams for identical names.
    name:
        Label of this source, included when deriving child seeds.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(name))
        self._randbelow = self._random._randbelow
        self._spawned: dict[str, "RandomSource"] = {}

    def _derive(self, name: str) -> int:
        digest = _sha256(f"{self.seed}/{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def random(self) -> random.Random:
        """The underlying :class:`random.Random` generator."""
        return self._random

    def spawn(self, name: str) -> "RandomSource":
        """Return the substream named ``name`` (created on first use).

        Substreams are cached, so repeated calls with the same name return
        the *same* object and therefore continue the same sequence.
        """
        child = self._spawned.get(name)
        if child is None:
            child = RandomSource(self._derive(name), f"{self.name}/{name}")
            self._spawned[name] = child
        return child

    # Convenience draws, mirroring the subset of ``random.Random`` the
    # simulation streams need.

    def uniform(self, low: float, high: float) -> float:
        """Draw a uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Draw an exponential variate with the given ``rate`` (1/mean)."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Draw a normal variate."""
        return self._random.gauss(mu, sigma)

    # ``randint`` and ``choice`` call ``_randbelow`` directly, skipping
    # ``randrange``'s argument coercion: the same single draw, so the same
    # sequence as ``random.Random``'s methods (the GA makes several per
    # child).

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._randbelow(width)

    def choice(self, seq):
        """Pick one element of ``seq`` uniformly."""
        size = len(seq)
        if not size:
            raise IndexError("Cannot choose from an empty sequence")
        return seq[self._randbelow(size)]

    def sample(self, seq, k: int):
        """Pick ``k`` distinct elements of ``seq`` uniformly."""
        return self._random.sample(seq, k)

    def shuffle(self, seq) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomSource(seed={self.seed}, name={self.name!r})"
