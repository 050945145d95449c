"""Shared fixtures: a fresh PVM rig per test, and the hypothesis
profiles (``--hypothesis-profile=ci`` runs ten times the default
examples)."""

import pytest
from hypothesis import settings

from repro.cache.provider import ZeroFillProvider
from repro.gmi.types import Protection
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB

settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture
def pvm():
    """A PVM over 4 MB of simulated RAM (8 KB pages)."""
    return PagedVirtualMemory(memory_size=4 * MB)


@pytest.fixture
def ctx(pvm):
    return pvm.context_create("test")


@pytest.fixture
def make_cache(pvm):
    """Factory for anonymous (zero-fill) caches."""
    def factory(name=None):
        return pvm.cache_create(ZeroFillProvider(), name=name)
    return factory


@pytest.fixture
def mapped(pvm, ctx, make_cache):
    """A 64 KB RW region at 0x100000 over a fresh cache."""
    cache = make_cache("mapped")
    region = ctx.region_create(0x100000, 64 * KB, protection=Protection.RW,
                               cache=cache, offset=0)
    return cache, region
