import numpy as np
import pytest

from hyperind.errors import InvalidArguments
from hyperind.rng import spawn_key, stream


def test_same_path_reproduces():
    a = stream(42, "round", 3).integers(0, 1 << 30, size=8)
    b = stream(42, "round", 3).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)


def test_different_labels_diverge():
    a = stream(42, "round", 3).integers(0, 1 << 30, size=8)
    b = stream(42, "round", 4).integers(0, 1 << 30, size=8)
    c = stream(43, "round", 3).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spawn_key_composes():
    assert spawn_key(spawn_key(7, "a"), "b") == spawn_key(7, "a", "b")
    assert spawn_key(spawn_key(7, "a", 3), "b", 1) == spawn_key(7, "a", 3, "b", 1)


def test_spawned_key_usable_as_seed():
    key = spawn_key(9, "trial", 2)
    a = stream(key, "gen").integers(0, 1 << 30, size=4)
    b = stream(9, "trial", 2, "gen").integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)


def test_string_labels_not_confused_with_ints():
    assert spawn_key(0, "1") != spawn_key(0, 1)


@pytest.mark.parametrize("seed", [1.5, True, None, "a", (1, 2.5), (1, False)])
def test_seed_parts_must_be_integers(seed):
    # 1.5 and True once gave the stream of seed 1
    with pytest.raises(InvalidArguments, match="seed must be an integer"):
        spawn_key(seed, "x")


@pytest.mark.parametrize("part", [1.5, True, None, b"a"])
def test_path_parts_must_be_integers_or_labels(part):
    with pytest.raises(InvalidArguments, match="path part must be an integer"):
        spawn_key(1, "x", part)


def test_numpy_integer_seeds_match_plain_ints():
    assert spawn_key(np.int64(7), np.uint8(3)) == spawn_key(7, 3)
    assert spawn_key((np.int32(7), 2), "a") == spawn_key((7, 2), "a")
