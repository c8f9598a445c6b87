"""Tests for deterministic random-source handling."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, choice, coin, spawn_rngs


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=10)
        b = as_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**9)
        b = as_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_numpy_integer_seed(self):
        assert isinstance(as_rng(np.int64(7)), np.random.Generator)

    def test_invalid_source_raises(self):
        with pytest.raises(TypeError):
            as_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_are_independent(self):
        streams = spawn_rngs(0, 3)
        values = [s.integers(0, 10**9) for s in streams]
        assert len(set(values)) == 3

    def test_deterministic_across_calls(self):
        a = [s.integers(0, 10**6) for s in spawn_rngs(9, 4)]
        b = [s.integers(0, 10**6) for s in spawn_rngs(9, 4)]
        assert a == b

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestCoin:
    def test_probability_zero(self):
        rng = as_rng(0)
        assert not any(coin(rng, 0.0) for _ in range(50))

    def test_probability_one(self):
        rng = as_rng(0)
        assert all(coin(rng, 1.0) for _ in range(50))

    def test_probability_half_is_roughly_balanced(self):
        rng = as_rng(0)
        hits = sum(coin(rng, 0.5) for _ in range(2000))
        assert 800 < hits < 1200

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            coin(as_rng(0), 1.5)


class TestChoice:
    def test_single_choice_from_list(self):
        assert choice(as_rng(0), ["a", "b", "c"]) in {"a", "b", "c"}

    def test_choice_preserves_tuples(self):
        items = [(1, 2), (3, 4)]
        assert choice(as_rng(0), items) in items

    def test_choice_with_size(self):
        out = choice(as_rng(0), [1, 2, 3], size=5)
        assert len(out) == 5
        assert all(v in (1, 2, 3) for v in out)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            choice(as_rng(0), [])

