"""Seedable RNG with a published state-update rule.

All graph-level randomness (generation, perturbation, random walks) goes
through :class:`SplitMix64` so that seeded examples replay identically on
any platform and can be reproduced by other implementations.

State-update rule (SplitMix64, Steele et al. 2014):

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Derived draws:

    randrange(n) = (next_u64() * n) >> 64          (multiply-shift)
    uniform()    = next_u64() / 2^64
    shuffle      = Fisher-Yates from the top index down, using randrange
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; one instance per sampling task."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        """ValueError for a seed that is not an ``int`` (a bool is not) in
        0..2**64 - 1: a seed outside it would replay another seed's draws."""
        if type(seed) is not int or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an integer in 0..{_MASK64}, got {seed!r}")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / 2.0**64

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
