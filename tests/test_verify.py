"""The built-in check suites as a library surface."""

import pytest

from matspan import SuiteResult, run_suite, run_suites, suite_names


def test_suite_names_levels():
    quick = suite_names("quick")
    full = suite_names("full")
    assert set(quick) <= set(full)
    assert "theorem-exhaustive-gf2" in quick
    assert "commutator-gf2" in full
    with pytest.raises(ValueError):
        suite_names("medium")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_quick_level_passes():
    results = run_suites("quick")
    assert [r.name for r in results] == suite_names("quick")
    for r in results:
        assert isinstance(r, SuiteResult)
        assert r.passed, r.detail
        assert r.elapsed >= 0.0
        assert r.gating


def test_seed_override_still_passes():
    # the randomized suites accept a seed override without losing coverage
    for name in ("cardinality-grid", "squarefree-dimension"):
        r = run_suite(name, seed=12345)
        assert r.passed, (name, r.detail)


def test_crash_is_reported_not_raised(monkeypatch):
    import matspan.verify as verify_module

    def boom(seed=None):
        raise RuntimeError("synthetic crash")

    suites = tuple(
        (name, boom if name == "outer-fibers" else fn, gating)
        for name, fn, gating in verify_module._SUITES
    )
    monkeypatch.setattr(verify_module, "_SUITES", suites)
    r = run_suite("outer-fibers")
    assert not r.passed
    assert "RuntimeError" in r.detail
