"""Self-test of the tracer's accounting.

    python3 perfbench/selftest.py

Checks self-time on nested spans with a fake clock, that a name missing
from the library is reported as absent rather than as zero, and that the
patches reach callers that imported a function by name.
"""

from __future__ import annotations

import sys
import types
import unittest
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


class FakeClock:
    """Returns the next scripted time on every read."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def _fake_library(name="fakelib"):
    """A two-module package: ``inner`` defines functions, ``outer`` imports one."""
    pkg = types.ModuleType(name)
    inner = types.ModuleType(f"{name}.inner")
    outer = types.ModuleType(f"{name}.outer")

    def leaf():
        return "leaf"

    def branch():
        return inner.leaf() + inner.leaf()

    inner.leaf = leaf
    inner.branch = branch
    outer.leaf = leaf  # as after `from .inner import leaf`
    pkg.inner, pkg.outer = inner, outer
    modules = {name: pkg, f"{name}.inner": inner, f"{name}.outer": outer}
    return modules, inner, outer


@contextmanager
def installed(modules):
    """Make ``modules`` importable by name for the duration of the block."""
    saved = {k: sys.modules.get(k) for k in modules}
    sys.modules.update(modules)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
        t = tracing.Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
        outer = t.open(t.name_id("outer"))
        a = t.open(t.name_id("a"))
        t.close(a)
        b = t.open(t.name_id("b"))
        c = t.open(t.name_id("c"))
        t.close(c)
        t.close(b)
        t.close(outer)
        times = t.layer_times()
        self.assertEqual(times["outer"], (10, 4))
        self.assertEqual(times["a"], (2, 2))
        self.assertEqual(times["b"], (4, 3))
        self.assertEqual(times["c"], (1, 1))
        self.assertEqual(t.count_under("c", "outer"), 1)
        self.assertEqual(t.count_under("outer", "c"), 0)

    def test_repeated_name_accumulates(self):
        t = tracing.Tracer(clock=FakeClock(0, 2, 5, 6))
        for _ in range(2):
            i = t.open(t.name_id("x"))
            t.close(i)
        self.assertEqual(t.layer_times()["x"], (3, 3))

    def test_absent_name_is_not_reported(self):
        modules, inner, outer = _fake_library()
        layers = [
            ("fake.leaf", "fakelib.inner", "leaf"),
            ("fake.renamed", "fakelib.inner", "no_longer_here"),
            ("fake.gone", "fakelib.missing_module", "anything"),
        ]
        with installed(modules):
            t = tracing.Tracer()
            t.install(layers)
            inner.branch()
            metrics = t.metrics(layers)
            t.uninstall()
        self.assertEqual(t.absent, ["fake.renamed", "fake.gone"])
        self.assertEqual(metrics["fake.leaf.calls"]["value"], 2)
        self.assertFalse(any(k.startswith(("fake.renamed", "fake.gone")) for k in metrics))

    def test_patch_reaches_importers_and_is_undone(self):
        modules, inner, outer = _fake_library("fakelib2")
        original = inner.leaf
        layers = [("fake.leaf", "fakelib2.inner", "leaf")]
        with installed(modules):
            t = tracing.Tracer()
            t.install(layers)
            self.assertIsNot(outer.leaf, original)
            outer.leaf()
            t.active = False
            outer.leaf()
            t.active = True
            self.assertEqual(t.calls["fake.leaf"], 1)
            t.uninstall()
        self.assertIs(outer.leaf, original)
        self.assertIs(inner.leaf, original)


if __name__ == "__main__":
    unittest.main()
