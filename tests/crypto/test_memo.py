"""The crypto layer's bounded memo: LRU order, one make per key, no
entry for a make that raises."""

import pytest

from repro.crypto.memo import LruMemo


def _fill(memo, keys):
    for key in keys:
        memo.get(key, str, key)


class TestLruMemo:
    def test_hit_refreshes_its_key(self):
        memo = LruMemo(3)
        _fill(memo, [1, 2, 3])
        assert memo.get(1, pytest.fail, "a hit must not make") == "1"
        _fill(memo, [4])
        # 1 was used after 2, so 2 is the oldest untouched key.
        assert list(memo) == [3, 1, 4]

    def test_make_runs_once_per_kept_key_with_its_arguments(self):
        calls = []

        def make(*args):
            calls.append(args)
            return sum(args)

        memo = LruMemo(4)
        for _ in range(3):
            assert memo.get("a", make, 1, 2) == 3
            assert memo.get("b", make, 10, 20, 30) == 60
        assert calls == [(1, 2), (10, 20, 30)]

    def test_make_that_raises_keeps_nothing(self):
        def fail():
            raise ValueError("no value")

        memo = LruMemo(2)
        _fill(memo, [1])
        with pytest.raises(ValueError):
            memo.get(2, fail)
        assert list(memo) == [1]
        assert memo.get(2, str, 2) == "2"
