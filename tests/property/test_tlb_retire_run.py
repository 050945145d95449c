"""Property test: ``TLB.retire_run`` is the scalar probe/fill loop.

Twin TLBs start from the same state: fills over three spaces, with
shootdowns and space flushes in between, so some entries are stale
(of an older space generation) when the run comes.  One TLB retires
the run in bulk; the other is the scalar oracle, driven access by
access through ``probe`` plus ``fill`` on a miss, as
``MMU.translate`` does.  Afterwards the miss count, every ``tlb.*``
count, the occupancy, the live entries in LRU order and the per-space
key index must agree, and they must keep agreeing under the same
scalar probes and fills.  Stale entries are invisible to all of those;
``retire_run`` keeps exactly the ones the scalar loop keeps, so the
raw entry lists must agree too.  The prior fills carry a different mapping
from the table walk's, so the check also sees which entries were
refilled and which only hit.
"""

from hypothesis import given, strategies as st

from repro.hardware.mmu import Mapping, Prot
from repro.hardware.tlb import TLB
from tests.property import scaled_settings

SPACES = 3
VPNS = 24

spaces = st.integers(0, SPACES - 1)
vpns = st.integers(0, VPNS - 1)
fills = st.tuples(st.just("fill"), spaces, vpns)
# Mostly fills, so that small TLBs are often full when the run comes.
prior_ops = st.one_of(
    fills, fills, fills, fills,
    st.tuples(st.just("invalidate"), spaces, vpns),
    st.tuples(st.just("invalidate_range"), spaces, vpns,
              st.integers(0, 6)),
    st.tuples(st.just("flush_space"), spaces),
)


def walked(vpn):
    """What a table walk finds for *vpn*."""
    return Mapping(vpn, Prot.RW)


def apply(tlb, op, base):
    name, space, *args = op
    if name == "fill":
        vpn = args[0] + base
        tlb.fill(space, vpn, Mapping(vpn + 1000, Prot.READ))
    elif name == "invalidate":
        tlb.invalidate(space, args[0] + base)
    elif name == "invalidate_range":
        tlb.invalidate_range(space, args[0] + base, args[1])
    else:
        tlb.flush_space(space)


def scalar_access(tlb, space, vpn):
    """One ``MMU.translate`` TLB leg: True on a miss."""
    if tlb.probe(space, vpn) is None:
        tlb.fill(space, vpn, walked(vpn))
        return True
    return False


def observe(tlb):
    live = [(key, mapping)
            for key, (mapping, gen) in tlb._entries.items()
            if gen == tlb._space_gen.get(key[0], 0)]
    return (tlb.stats.snapshot(), tlb.occupancy, live,
            {space: set(keys) for space, keys in tlb._space_keys.items()},
            list(tlb._entries.items()))


@scaled_settings(200, 50)
@given(capacity=st.one_of(st.integers(1, 8), st.integers(9, 64)),
       base=st.sampled_from([0, 7, 1 << 20]),
       prior=st.lists(prior_ops, max_size=120),
       space=spaces,
       run=st.one_of(st.lists(vpns, max_size=8),
                     st.lists(vpns, min_size=64, max_size=300)),
       after=st.lists(st.tuples(spaces, vpns), max_size=40))
def test_retire_run_is_the_scalar_loop(capacity, base, prior, space, run,
                                       after):
    bulk, scalar = TLB(capacity), TLB(capacity)
    for op in prior:
        apply(bulk, op, base)
        apply(scalar, op, base)
    walks = []

    def walk(vpn):
        walks.append(vpn)
        return walked(vpn)

    misses = bulk.retire_run(space, run, walk, base)
    expected = sum(scalar_access(scalar, space, vpn + base) for vpn in run)
    assert misses == expected
    assert observe(bulk) == observe(scalar)
    assert len(walks) <= capacity
    assert len(set(walks)) == len(walks)

    for other, vpn in after:
        assert scalar_access(bulk, other, vpn + base) == \
            scalar_access(scalar, other, vpn + base)
    assert observe(bulk) == observe(scalar)
    for other in range(SPACES):
        for vpn in range(VPNS):
            assert bulk.probe(other, vpn + base) == \
                scalar.probe(other, vpn + base)
    assert observe(bulk) == observe(scalar)
