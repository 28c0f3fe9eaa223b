import pytest

from selzeta import selberg


@pytest.fixture
def levels(monkeypatch):
    """set_levels(dim, levels) sets selberg._LEVELS[dim] = levels for one test.

    The integral cache is cleared as the levels are set and after the test,
    so no result of other levels answers an integral or is left behind.
    """

    def set_levels(dim, levels):
        selberg._integral.cache_clear()
        monkeypatch.setitem(selberg._LEVELS, dim, levels)

    yield set_levels
    selberg._integral.cache_clear()


@pytest.fixture
def lru_check():
    """check(cache, call): with cache, a functools cache, cleared, call(i) for
    i = 0 .. maxsize - 1 must each add one entry; after call(0) is read again
    and call(maxsize) added, call(0) must be a hit and call(1), the least
    recently used, a miss.  The cache is cleared again after."""

    def check(cache, call):
        size = cache.cache_info().maxsize
        cache.cache_clear()
        try:
            for i in range(size):
                call(i)
            assert cache.cache_info() == (0, size, size, size)
            call(0)
            call(size)
            hits, misses, _, kept = cache.cache_info()
            assert (hits, misses, kept) == (1, size + 1, size)
            call(0)
            assert cache.cache_info()[:2] == (hits + 1, misses)
            call(1)
            assert cache.cache_info()[:2] == (hits + 1, misses + 1)
        finally:
            cache.cache_clear()

    return check


@pytest.fixture
def value_check():
    """check(a, same, other, hashable, frozen): a == same and a != other,
    through == and through !=; hash(a) == hash(same) when hashable, else
    hash(a) raises TypeError; and when frozen, assigning or deleting any
    attribute of a, or adding one, raises AttributeError and leaves a as it
    was.  A class that compares by value passes as same a value built apart;
    one that compares by identity passes a itself, and as other a value built
    from the same arguments."""

    def check(a, same, other, hashable, frozen):
        assert a == same and not a != same
        assert a != other and not a == other
        if hashable:
            assert hash(a) == hash(same)
        else:
            with pytest.raises(TypeError):
                hash(a)
        if frozen:
            before = dict(vars(a))
            for name in [*before, "extra"]:
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
                with pytest.raises(AttributeError):
                    delattr(a, name)
            assert vars(a) == before

    return check
