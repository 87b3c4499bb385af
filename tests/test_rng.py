import pytest

from gedraft.rng import SplitMix64


def test_documented_state_update_rule():
    # hand-evaluated from the published constants for seed 0, first draw
    rng = SplitMix64(0)
    first = rng.next_u64()
    state = (0 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    assert first == z ^ (z >> 31)


def test_deterministic_replay():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_randrange_bounds_and_spread():
    rng = SplitMix64(9)
    draws = [rng.randrange(7) for _ in range(2000)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_uniform_in_unit_interval():
    rng = SplitMix64(3)
    xs = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_shuffle_is_permutation_and_deterministic():
    xs = list(range(10))
    a, b = xs[:], xs[:]
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b
    assert sorted(a) == xs
