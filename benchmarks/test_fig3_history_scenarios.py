"""Figure 3 as a benchmark: the four history-tree constructions, with
their mechanism event counts (objects created, pages protected,
pre-images pushed) — the structural cost of each scenario."""

from repro.bench import costmodel
from repro.bench.tables import format_series
from repro.gmi.interface import CopyPolicy
from repro.units import KB

PAGE = 8 * KB


def build_scenario(label):
    """Run one Figure 3 scenario; return (nucleus, event deltas)."""
    nucleus = costmodel.chorus_nucleus()
    vm = nucleus.vm
    sm = nucleus.segment_manager
    src = sm.create_temporary("src")
    for page in range(4):
        vm.cache_write(src, page * PAGE, bytes([page + 1]) * 32)
    before = nucleus.clock.snapshot()

    def copy(source, name):
        dst = sm.create_temporary(name)
        vm.cache_copy(source, 0, dst, 0, 4 * PAGE,
                      policy=CopyPolicy.HISTORY)
        return dst

    if label == "3a":
        cpy1 = copy(src, "cpy1")
        vm.cache_write(src, PAGE, b"2'")
        vm.cache_write(cpy1, 2 * PAGE, b"3'")
    elif label == "3b":
        cpy1 = copy(src, "cpy1")
        vm.cache_write(src, PAGE, b"2'")
        copy(cpy1, "copyOfCpy1")
        vm.cache_write(cpy1, 2 * PAGE, b"3'")
    elif label == "3c":
        cpy1 = copy(src, "cpy1")
        cpy2 = copy(src, "cpy2")
        vm.cache_write(src, 2 * PAGE, b"3s")
        vm.cache_write(cpy1, 2 * PAGE, b"3a")
        vm.cache_write(cpy2, 3 * PAGE, b"4b")
    elif label == "3d":
        copy(src, "cpy1")
        copy(src, "cpy2")
        copy(src, "cpy3")
        vm.cache_write(src, 0, b"1'")
    after = nucleus.clock.snapshot()
    deltas = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    return nucleus, deltas


SCENARIOS = ("3a", "3b", "3c", "3d")


def test_figure3_mechanism_costs(benchmark, report):
    results = {label: build_scenario(label)[1] for label in SCENARIOS}
    benchmark(build_scenario, "3c")

    def row(label):
        deltas = results[label]
        return (
            f"Figure {label}",
            deltas.get("history_tree_setup", 0),
            deltas.get("cache_create", 0),
            deltas.get("page_protect", 0),
            deltas.get("bcopy_page", 0),
            deltas.get("fault_dispatch", 0),
        )

    report(format_series(
        "Figure 3 scenarios: mechanism event counts",
        ("scenario", "tree setups", "caches made", "pages protected",
         "pages copied", "faults"),
        [row(label) for label in SCENARIOS]))

    # 3a: one copy, two private-page materialisations (one per write).
    assert results["3a"]["history_tree_setup"] == 1
    assert results["3a"]["bcopy_page"] == 2
    # 3b: the 4.2.3 complication: the write in cpy1 materialises a
    # private page AND pushes the original to copyOfCpy1, on top of the
    # earlier src pre-image — 3 copies across the scenario's writes.
    assert results["3b"]["bcopy_page"] == 3
    # 3c: a working object is created (one extra cache vs 3a/3b's two).
    assert results["3c"]["cache_create"] == 3
    # 3d: two working objects for three copies of the same source.
    assert results["3d"]["cache_create"] == 5
    # Re-protection: each copy from src re-protects its 4 resident
    # pages: 3 copies -> 12 protects in 3d.
    assert results["3d"]["page_protect"] == 12


def test_figure3_shape_invariant(benchmark):
    """After any scenario the tree is binary with single-descendant
    sources (the 4.2.1 invariant)."""

    def check(label):
        nucleus, _ = build_scenario(label)
        for cache in nucleus.vm.caches():
            if cache.guards:
                targets = {link.cache for link in cache.guards.values()}
                assert len(targets) == 1          # one history object
            assert len(cache.children) <= 2       # binary
        return True

    assert benchmark(lambda: all(check(lbl) for lbl in SCENARIOS))
