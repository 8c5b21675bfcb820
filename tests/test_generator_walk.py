"""The walk kernel on the caller's NumPy generator: bit-exact with the Python loop.

:meth:`AdaptiveSearch.solve` runs its inner loop in the compiled walk kernel
whenever it can, drawing from the run's own :class:`numpy.random.Generator`
through numpy's algorithms (:func:`repro.core.cwalk.run_generator_walk`).
Two layers pin that down:

* the kernel's RNG source against the generator itself, primitive by
  primitive (``integers``, ``random``, ``permutation``, ``shuffle``,
  ``choice(replace=False)``), for PCG64 and Philox, including a PCG64 state
  that sits in the middle of a 32-bit pair;
* whole walks against the Python loop (reached through the private
  ``engine._solve_python``), over families, ablation flags, parameters,
  seeds and start configurations: every :class:`SolveResult` field but
  ``wall_time``/``extra``, the problem's end configuration and cost, and the
  generator's end state must agree.
"""

from __future__ import annotations

import copy
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernels, cwalk
from repro.core.callbacks import IterationCallback
from repro.core.engine import AdaptiveSearch, _solve_python
from repro.core.params import ASParameters
from repro.models import (
    AllIntervalProblem,
    CostasProblem,
    MagicSquareProblem,
    NQueensProblem,
    ReferenceCostasProblem,
)

requires_kernels = pytest.mark.skipif(
    _ckernels.load() is None, reason="C kernels unavailable"
)

BIT_GENERATORS = (np.random.PCG64, np.random.Philox)

_RESULT_FIELDS = (
    "solved",
    "cost",
    "iterations",
    "local_minima",
    "plateau_moves",
    "resets",
    "restarts",
    "swaps",
    "seed",
    "stop_reason",
    "solver",
    "problem",
)


def _generator(kind, seed: int, offset: int) -> np.random.Generator:
    """A generator of bit generator *kind*; ``offset`` draws ``integers(7)``
    first, which leaves PCG64 holding the upper half of a 64-bit draw."""
    rng = np.random.Generator(kind(seed))
    for _ in range(offset):
        rng.integers(7)
    return rng


def _clone(rng: np.random.Generator) -> np.random.Generator:
    return np.random.Generator(copy.deepcopy(rng.bit_generator))


def _state(rng: np.random.Generator) -> str:
    return repr(rng.bit_generator.state)


# --------------------------------------------------------------- RNG source
@requires_kernels
class TestGeneratorSource:
    """Each kernel draw primitive equals the Generator method it mirrors."""

    @pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda k: k.__name__)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        offset=st.integers(min_value=0, max_value=3),
        ks=st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=20_000),
                st.integers(min_value=2**31, max_value=2**32),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_integers_and_random(self, kind, seed, offset, ks):
        lib = _ckernels.load()
        ours = _generator(kind, seed, offset)
        theirs = _clone(ours)
        bounds = np.array(ks, dtype=np.int64)
        ints = np.zeros(bounds.size, dtype=np.int64)
        dbls = np.zeros(bounds.size, dtype=np.float64)
        gen = cwalk._generator_block(ours)
        lib.gen_rng_draws(
            gen.ctypes.data, bounds.ctypes.data, bounds.size,
            ints.ctypes.data, dbls.ctypes.data,
        )
        for t, k in enumerate(ks):
            if k == 0:
                assert dbls[t] == theirs.random()
            else:
                assert ints[t] == theirs.integers(k)
        assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda k: k.__name__)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        offset=st.integers(min_value=0, max_value=3),
        m=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_permutation_and_shuffle(self, kind, seed, offset, m):
        lib = _ckernels.load()
        ours = _generator(kind, seed, offset)
        theirs = _clone(ours)
        gen = cwalk._generator_block(ours)
        # permutation(m): a shuffle of arange(m).
        arr = np.arange(m, dtype=np.int64)
        lib.gen_rng_shuffle(gen.ctypes.data, arr.ctypes.data, m)
        assert np.array_equal(arr, theirs.permutation(m))
        # permutation(array): a shuffle of a copy.
        values = np.arange(m, dtype=np.int64) * 3 + 1
        arr = values.copy()
        lib.gen_rng_shuffle(gen.ctypes.data, arr.ctypes.data, m)
        assert np.array_equal(arr, theirs.permutation(values))
        # shuffle(array) in place.
        expected = values.copy()
        theirs.shuffle(expected)
        arr = values.copy()
        lib.gen_rng_shuffle(gen.ctypes.data, arr.ctypes.data, m)
        assert np.array_equal(arr, expected)
        assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda k: k.__name__)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        offset=st.integers(min_value=0, max_value=3),
        n=st.integers(min_value=1, max_value=cwalk._GENERATOR_MAX_N),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_choice_without_replacement(self, kind, seed, offset, n, data):
        k = data.draw(st.integers(min_value=1, max_value=min(n, 400)))
        lib = _ckernels.load()
        ours = _generator(kind, seed, offset)
        theirs = _clone(ours)
        gen = cwalk._generator_block(ours)
        out = np.zeros(k, dtype=np.int64)
        seen = np.zeros(n, dtype=np.int64)
        lib.gen_rng_choice(gen.ctypes.data, n, k, out.ctypes.data, seen.ctypes.data)
        assert np.array_equal(out, theirs.choice(n, size=k, replace=False))
        assert _state(ours) == _state(theirs)

    def test_pcg64_mid_pair_state_is_honoured(self):
        # After integers(7) PCG64 buffers the upper 32 bits of its draw; the
        # kernel must hand that half out first, exactly like numpy.
        ours = _generator(np.random.PCG64, 5, 1)
        assert ours.bit_generator.state["has_uint32"] == 1
        theirs = _clone(ours)
        bounds = np.array([3, 1000, 0, 5], dtype=np.int64)
        ints = np.zeros(4, dtype=np.int64)
        dbls = np.zeros(4, dtype=np.float64)
        _ckernels.load().gen_rng_draws(
            cwalk._generator_block(ours).ctypes.data, bounds.ctypes.data, 4,
            ints.ctypes.data, dbls.ctypes.data,
        )
        assert [ints[0], ints[1], dbls[2], ints[3]] == [
            theirs.integers(3), theirs.integers(1000), theirs.random(),
            theirs.integers(5),
        ]
        assert _state(ours) == _state(theirs)

    def test_self_check_passes_and_leaves_generator_alone(self):
        rng = np.random.default_rng(3)
        before = _state(rng)
        assert cwalk._self_check(_ckernels.load(), rng)
        assert _state(rng) == before


# ------------------------------------------------------------- whole walks
_FAMILIES = {
    "costas-optimised": (4, 13, lambda n: CostasProblem(n)),
    "costas-basic": (
        4, 12, lambda n: CostasProblem(n, err_weight="constant", use_chang=False)
    ),
    "costas-generic-reset": (4, 13, lambda n: CostasProblem(n, dedicated_reset=False)),
    "queens": (4, 24, NQueensProblem),
    "all-interval": (3, 14, AllIntervalProblem),
}


@st.composite
def _as_parameters(draw):
    restart_limit = draw(st.one_of(st.none(), st.integers(1, 400)))
    return ASParameters(
        tabu_tenure=draw(st.integers(1, 20)),
        reset_limit=draw(st.integers(1, 6)),
        reset_percentage=draw(st.floats(0.01, 1.0)),
        plateau_probability=draw(st.floats(0.0, 1.0)),
        local_min_accept_probability=draw(st.floats(0.0, 1.0)),
        clear_tabu_on_reset=draw(st.booleans()),
        restart_limit=restart_limit,
        max_restarts=draw(st.integers(0, 5)),
        max_iterations=draw(st.integers(1, 800)),
        target_cost=draw(st.sampled_from([0, 0, 0, 1, 3])),
        check_period=draw(st.integers(1, 100)),
    )


def _assert_same_walk(a, b, prob_a, prob_b, rng_a, rng_b):
    for name in _RESULT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.configuration, b.configuration)
    assert np.array_equal(prob_a.configuration(), prob_b.configuration())
    assert prob_a.cost() == prob_b.cost()
    assert _state(rng_a) == _state(rng_b)


@requires_kernels
class TestKernelMatchesPythonLoop:
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        data=st.data(),
        params=_as_parameters(),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        kind=st.sampled_from(BIT_GENERATORS),
        given_start=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_walk(self, family, data, params, seed, kind, given_start):
        lo, hi, make = _FAMILIES[family]
        n = data.draw(st.integers(lo, hi), label="n")
        start = (
            np.array(data.draw(st.permutations(range(n)), label="start"))
            if given_start
            else None
        )
        rng_a = np.random.Generator(kind(seed))
        rng_b = np.random.Generator(kind(seed))
        prob_a, prob_b = make(n), make(n)
        a = AdaptiveSearch(params).solve(prob_a, rng_a, initial_configuration=start)
        b = _solve_python(prob_b, rng_b, params=params, initial_configuration=start)
        assert a.extra == {"engine": "c"}
        assert b.extra == {"engine": "python"}
        _assert_same_walk(a, b, prob_a, prob_b, rng_a, rng_b)

    @pytest.mark.parametrize("n,seed", [(12, 1), (13, 4)])
    def test_paper_walks_to_solution(self, n, seed):
        # The paper-pool workload: unbounded-style Costas walks that solve.
        params = ASParameters.for_costas(n)
        prob_a, prob_b = CostasProblem(n), CostasProblem(n)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        a = AdaptiveSearch(params).solve(prob_a, rng_a)
        b = _solve_python(prob_b, rng_b, params=params)
        assert a.solved and a.extra["engine"] == "c"
        _assert_same_walk(a, b, prob_a, prob_b, rng_a, rng_b)
        assert a.seed is None and b.seed is None

    def test_integer_seed_is_reported(self):
        params = ASParameters.for_costas(10, max_iterations=300)
        a = AdaptiveSearch(params).solve(CostasProblem(10), 42)
        b = _solve_python(CostasProblem(10), 42, params=params)
        assert a.seed == b.seed == 42
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("polls", [1, 2, 4])
    def test_stop_check_honoured_within_one_check_period(self, polls):
        period = 7
        params = ASParameters.for_costas(18, check_period=period, max_iterations=10_000)

        def stopper():
            calls = [0]

            def check():
                calls[0] += 1
                return calls[0] >= polls

            return check

        a = AdaptiveSearch(params).solve(CostasProblem(18), 9, stop_check=stopper())
        b = _solve_python(CostasProblem(18), 9, params=params, stop_check=stopper())
        assert a.extra["engine"] == "c"
        assert a.stop_reason == b.stop_reason == "external_stop"
        # Polled at iterations 0, P, 2P, ...: the k-th poll stops at (k-1)P.
        assert a.iterations == b.iterations == (polls - 1) * period
        assert np.array_equal(a.configuration, b.configuration)

    def test_max_time_polled_at_iteration_zero(self):
        params = ASParameters.for_costas(16)
        a = AdaptiveSearch(params).solve(CostasProblem(16), 2, max_time=0.0)
        b = _solve_python(CostasProblem(16), 2, params=params, max_time=0.0)
        assert a.stop_reason == b.stop_reason == "max_time"
        assert a.iterations == b.iterations == 0
        assert a.extra["engine"] == "c"


# ---------------------------------------------------------------- dispatch
class _Counting(IterationCallback):
    def __init__(self) -> None:
        self.iterations = 0

    def on_iteration(self, iteration, cost):
        self.iterations += 1


class _CostasSubclass(CostasProblem):
    pass


@requires_kernels
class TestDispatch:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: CostasProblem(9, use_ckernels=False),
            lambda: ReferenceCostasProblem(9),
            lambda: _CostasSubclass(9),
            lambda: MagicSquareProblem(3),
        ],
        ids=["costas-numpy-model", "costas-reference", "costas-subclass", "magic-square"],
    )
    def test_python_loop_for_other_models(self, make):
        params = ASParameters(max_iterations=200)
        assert AdaptiveSearch(params).solve(make(), 1).extra == {"engine": "python"}

    def test_observing_callbacks_take_the_python_loop(self):
        counter = _Counting()
        params = ASParameters.for_costas(10, max_iterations=100)
        result = AdaptiveSearch(params, callbacks=counter).solve(CostasProblem(10), 3)
        assert result.extra["engine"] == "python"
        assert counter.iterations == result.iterations

    def test_order_limit(self):
        params = ASParameters()
        big = NQueensProblem(cwalk._GENERATOR_MAX_N + 1)
        assert cwalk._generator_spec(big, params) is None
        assert cwalk._generator_spec(NQueensProblem(64), params) is not None

    @pytest.mark.parametrize("raises", [False, True], ids=["mismatch", "raises"])
    def test_self_check_failure_falls_back_once(self, monkeypatch, caplog, raises):
        monkeypatch.setattr(cwalk, "_generator_verified", {})
        calls = []

        def failing(lib, rng):
            calls.append(1)
            if raises:
                raise AttributeError("no ctypes interface")
            return False

        monkeypatch.setattr(cwalk, "_self_check", failing)
        params = ASParameters.for_costas(10, max_iterations=200)
        with caplog.at_level(logging.WARNING, logger="repro.cwalk"):
            first = AdaptiveSearch(params).solve(CostasProblem(10), 5)
            second = AdaptiveSearch(params).solve(CostasProblem(10), 6)
        assert first.extra["engine"] == second.extra["engine"] == "python"
        assert len(calls) == 1
        warnings = [r for r in caplog.records if r.name == "repro.cwalk"]
        assert len(warnings) == 1
        reference = _solve_python(CostasProblem(10), 5, params=params)
        assert first.iterations == reference.iterations
        assert np.array_equal(first.configuration, reference.configuration)


@requires_kernels
@pytest.mark.parametrize(
    "make",
    [lambda: CostasProblem(11), lambda: NQueensProblem(16), lambda: AllIntervalProblem(9)],
    ids=["costas", "queens", "all-interval"],
)
def test_kernels_disabled_gives_identical_results(monkeypatch, make):
    """Without the C kernels (as under ``REPRO_NO_CKERNELS``) every model
    takes the Python loop, and the seeded results do not change."""
    params = ASParameters.for_costas(11, max_iterations=2_000)
    with_kernels = AdaptiveSearch(params).solve(make(), 8)
    monkeypatch.setattr(_ckernels, "_lib", None)
    monkeypatch.setattr(_ckernels, "_loaded", True)
    problem = make()
    without = AdaptiveSearch(params).solve(problem, 8)
    assert with_kernels.extra["engine"] == "c"
    assert without.extra["engine"] == "python"
    for name in _RESULT_FIELDS:
        assert getattr(with_kernels, name) == getattr(without, name), name
    assert np.array_equal(with_kernels.configuration, without.configuration)
