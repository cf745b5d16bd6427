"""Causal discovery: ICA recovery, ordering, effects, bootstrap, discover."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import pumpcausal.lingam as lingam_mod
import pumpcausal.rng as rng_mod
from oracles import (
    lingam_bootstrap_serial,
    lingam_order_loop,
    max_weight_rows,
    ols_normal_equations,
)
from pumpcausal.errors import InsufficientGroupError, LingamError
from pumpcausal.grouping import Group, GroupDataset, min_members
from pumpcausal.lingam import (
    _BLOCK_ELEMENTS,
    BootstrapResult,
    CausalModel,
    IcaResult,
    LingamConfig,
    _assign,
    _effects_stack,
    _order_stack,
    _stacked,
    bootstrap_cis,
    causal_order,
    discover,
    estimate_effects,
    fast_ica,
    standardize,
    write_adjacency_csv,
    write_effects_csv,
    write_order_json,
)
from pumpcausal.synth import SCENARIO_FEATURES, generate_lingam_scenario, generate_sem_data


def _uniform_sources(rng, n, d):
    # unit-variance uniform sources
    return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, d))


def _ica_from_demixing(w):
    w = np.asarray(w, float)
    return IcaResult(demixing=w, n_iter=1, converged=True)


class TestStandardize:
    def test_columns_centered_and_unit_scale(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        std = standardize(x, ["a", "b", "c", "d"])
        assert np.all(np.abs(std.x.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(std.x.std(axis=0) - 1.0) < 1e-10)

    def test_constant_column_dropped_with_warning(self):
        x = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.warns(UserWarning, match="constant"):
            std = standardize(x, ["flat", "ramp"])
        assert std.names == ("ramp",)
        assert std.dropped == {"flat": "constant"}

    def test_all_constant_errors(self):
        with pytest.raises(LingamError):
            standardize(np.ones((30, 2)), ["a", "b"])

    def test_linear_combination_dropped_by_name(self):
        rng = np.random.default_rng(1)
        a, b, c = rng.normal(size=(3, 60))
        x = np.column_stack([a, b, a - b + 2.0, c])
        with pytest.warns(UserWarning, match="linearly dependent columns.*a_minus_b"):
            std = standardize(x, ["a", "b", "a_minus_b", "c"])
        assert std.names == ("a", "b", "c")
        assert std.dropped == {"a_minus_b": "linear combination of earlier columns"}
        kept = x[:, [0, 1, 3]]
        np.testing.assert_allclose(std.x, (kept - kept.mean(axis=0)) / kept.std(axis=0), atol=1e-12)

    @pytest.mark.parametrize("eps, dropped", [(1e-5, True), (1e-3, False)])
    def test_near_combination_of_several_columns(self, eps, dropped):
        # a - b plus relative noise eps: no single pair is collinear, and
        # the column is dropped when its residual ratio is under DEPENDENT_TOL
        rng = rng_mod.stream(0, 907)
        a, b, c = rng.uniform(-1, 1, size=(3, 60))
        near = (a - b) * (1.0 + eps * rng.uniform(-1, 1, 60))
        x = np.column_stack([a, b, near, c])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            std = standardize(x, ["a", "b", "near", "c"])
        assert ("near" in std.dropped) is dropped
        assert std.names == (("a", "b", "c") if dropped else ("a", "b", "near", "c"))

    def test_independent_columns_all_kept(self):
        x = np.random.default_rng(2).normal(size=(30, 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            std = standardize(x, [f"v{j}" for j in range(20)])
        assert std.x.shape[1] == 20 and std.dropped == {}


class TestFastIca:
    def test_identity_mixing_recovers_signed_permutation(self):
        rng = rng_mod.stream(0, 900)
        x = _uniform_sources(rng, 5000, 3)
        std = standardize(x, ["a", "b", "c"])
        result = fast_ica(std, LingamConfig(seed=1))
        w_abs = np.abs(result.demixing)
        # each row dominated by a single column, jointly a permutation
        cols = w_abs.argmax(axis=1)
        assert sorted(cols.tolist()) == [0, 1, 2]
        for i, j in enumerate(cols):
            off = np.delete(w_abs[i], j)
            assert np.all(off < 0.1)
            assert w_abs[i, j] > 0.9

    def test_known_mixture_recovered(self):
        rng = rng_mod.stream(0, 901)
        sources = _uniform_sources(rng, 5000, 2)
        mixing = np.array([[1.0, 0.4], [0.3, 1.0]])
        x = sources @ mixing.T
        std = standardize(x, ["x0", "x1"])
        result = fast_ica(std, LingamConfig(seed=2))
        assert result.converged
        # expected mixing in standardized coordinates, unit-variance sources
        expected = (mixing * sources.std(axis=0)[None, :]) / x.std(axis=0)[:, None]
        got = np.linalg.inv(result.demixing)
        best = np.inf
        for perm in ([0, 1], [1, 0]):
            for s0 in (1.0, -1.0):
                for s1 in (1.0, -1.0):
                    candidate = got[:, perm] * np.array([s0, s1])[None, :]
                    best = min(best, np.max(np.abs(candidate - expected)))
        assert best < 0.05

    def test_recovered_sources_are_white(self):
        rng = rng_mod.stream(0, 902)
        x = _uniform_sources(rng, 2000, 4)
        std = standardize(x, list("abcd"))
        sources = std.x @ fast_ica(std, LingamConfig(seed=3)).demixing.T
        cov = sources.T @ sources / len(sources)
        assert np.max(np.abs(cov - np.eye(4))) < 1e-6

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(lingam_mod, "ICA_MAX_ITER", 2)
        rng = rng_mod.stream(0, 903)
        x = _uniform_sources(rng, 1000, 3)
        with pytest.warns(UserWarning, match="did not converge in 2 iterations"):
            result = fast_ica(standardize(x, list("abc")), LingamConfig(seed=4))
        assert result.converged is False
        assert result.n_iter == 2

    def test_gaussian_data_runs_and_flags(self):
        rng = rng_mod.stream(0, 904)
        x = rng.standard_normal((1500, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fast_ica(standardize(x, list("abc")), LingamConfig(seed=5))
        assert isinstance(result.converged, bool)
        assert np.all(np.isfinite(result.demixing))

    def test_near_multiple_dropped_before_the_fit(self):
        # nearly, not exactly, a multiple: standardize drops it with its
        # reason, so no kept pair is collinear and FastICA runs
        rng = rng_mod.stream(0, 905)
        base = rng.uniform(-1, 1, 500)
        near = 2.0 * base + 1e-5 * rng.uniform(-1, 1, 500)
        x = np.column_stack([base, near, rng.uniform(-1, 1, 500)])
        with pytest.warns(UserWarning, match="linearly dependent columns.*near"):
            std = standardize(x, ["base", "near", "other"])
        assert std.dropped == {"near": "linear combination of earlier columns"}
        assert std.names == ("base", "other")
        assert np.all(np.isfinite(fast_ica(std).demixing))

    def test_too_few_rows(self):
        std = standardize(rng_mod.stream(0, 914).normal(size=(4, 3)), list("abc"))
        with pytest.raises(LingamError, match="need more than d\\+1 = 4 rows, got 4"):
            fast_ica(std)


class TestCausalOrder:
    def test_identity_demixing_gives_input_order(self):
        assert causal_order(_ica_from_demixing(np.eye(4))) == (0, 1, 2, 3)

    def test_pure_permutation_gives_index_order(self):
        w = np.zeros((3, 3))
        w[0, 2] = 1.0
        w[1, 0] = 1.0
        w[2, 1] = 1.0
        assert causal_order(_ica_from_demixing(w)) == (0, 1, 2)

    def test_sign_flips_do_not_matter(self):
        w = np.diag([-1.0, 1.0, -1.0])
        assert causal_order(_ica_from_demixing(w)) == (0, 1, 2)

    def test_true_demixing_of_chain(self):
        # x0 -> x1 -> x2 with unit noise scales
        b = np.array([[0, 0, 0], [0.8, 0, 0], [0, 0.8, 0]], float)
        w = np.eye(3) - b
        assert causal_order(_ica_from_demixing(w)) == (0, 1, 2)

    def test_matches_loop_oracle_on_random_demixing(self):
        rng = rng_mod.stream(0, 913)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            w = np.eye(d) + rng.normal(scale=0.5, size=(d, d))
            assert causal_order(_ica_from_demixing(w)) == lingam_order_loop(w)

    def test_ties_match_loop_oracle(self):
        permutation = np.zeros((3, 3))
        permutation[[0, 1, 2], [2, 0, 1]] = 1.0
        for w in (np.eye(4), permutation, np.diag([-1.0, 1.0, -1.0])):
            assert causal_order(_ica_from_demixing(w)) == lingam_order_loop(w)

    def test_stacked_matching_equals_scipy(self):
        rng = rng_mod.stream(0, 918)
        d, size = 21, 130
        for _ in range(4):
            gaussian = rng.standard_normal((size, d, d))
            scaled = gaussian * 10.0 ** rng.uniform(-3.0, 3.0, size=(size, d, 1))
            dominant = rng.standard_normal((size, d, d))
            dominant[:, :, rng.integers(d)] += 20.0  # every row's best column
            near_permutation = 0.05 * rng.standard_normal((size, d, d))
            for k in range(size):
                near_permutation[k, rng.permutation(d), np.arange(d)] += 1.0
            for stack in (gaussian, scaled, dominant, near_permutation):
                weight = np.abs(stack)
                expected = np.stack([max_weight_rows(w) for w in weight])
                np.testing.assert_array_equal(_assign(weight), expected)

    def test_matching_on_ties_has_the_optimal_total(self):
        rng = rng_mod.stream(0, 919)
        permutation = np.zeros((6, 6))
        permutation[np.arange(6), [3, 0, 5, 1, 4, 2]] = 1.0
        stacks = (
            np.ones((2, 5, 5)),
            np.zeros((1, 4, 4)),
            permutation[None],
            np.abs(np.round(rng.standard_normal((300, 6, 6)))),
        )
        for weight in stacks:
            d = weight.shape[1]
            rows = _assign(weight)
            for w, r in zip(weight, rows):
                assert sorted(r) == list(range(d))
                total = w[r, np.arange(d)].sum()
                assert total == w[max_weight_rows(w), np.arange(d)].sum()

    def test_stacked_orders_match_loop_oracle(self):
        rng = rng_mod.stream(0, 920)
        for d in (2, 5, 12, 21):
            stack = np.eye(d) + rng.normal(scale=0.5, size=(40, d, d))
            order, ok = _order_stack(stack)
            assert ok.all()
            for w, o in zip(stack, order):
                assert tuple(o.tolist()) == lingam_order_loop(w)

    def test_zero_diagonal_flags_only_that_matrix(self):
        zero_row = np.eye(3)
        zero_row[1] = 0.0  # whichever column row 1 takes, its entry is zero
        order, ok = _order_stack(np.stack([np.eye(3), zero_row, 2.0 * np.eye(3)]))
        assert ok.tolist() == [True, False, True]
        assert order[[0, 2]].tolist() == [[0, 1, 2], [0, 1, 2]]
        with pytest.raises(LingamError, match="zero diagonal"):
            causal_order(_ica_from_demixing(zero_row))

    def test_chain_recovered_from_data(self):
        hits = 0
        for seed in range(20):
            rng = rng_mod.stream(seed, 906)
            n = 5000
            e = rng.uniform(-1, 1, size=(n, 3))
            x = np.empty_like(e)
            x[:, 0] = e[:, 0]
            x[:, 1] = 0.8 * x[:, 0] + e[:, 1]
            x[:, 2] = 0.8 * x[:, 1] + e[:, 2]
            std = standardize(x, ["x0", "x1", "x2"])
            order = causal_order(fast_ica(std, LingamConfig(seed=seed)))
            hits += order == (0, 1, 2)
        assert hits >= 18


class TestEstimateEffects:
    def test_pairwise_consistency(self):
        rng = rng_mod.stream(0, 907)
        n = 2000
        x0 = rng.uniform(-1, 1, n)
        x1 = 0.8 * x0 + rng.uniform(-1, 1, n)
        x = np.column_stack([x0, x1])
        std = standardize(x, ["x0", "x1"])
        b_std = estimate_effects(std, (0, 1))
        raw = b_std[0, 1] * std.sd[1] / std.sd[0]
        assert raw == pytest.approx(0.8, abs=0.03)

    def test_independent_variables_near_zero(self):
        rng = rng_mod.stream(0, 908)
        x = rng.uniform(-1, 1, size=(5000, 4))
        std = standardize(x, list("abcd"))
        b = estimate_effects(std, (0, 1, 2, 3))
        assert np.max(np.abs(b)) < 0.05

    def test_first_in_order_has_zero_incoming_column(self):
        rng = rng_mod.stream(0, 909)
        x = rng.uniform(-1, 1, size=(500, 3))
        b = estimate_effects(x, (2, 0, 1))
        assert np.all(b[:, 2] == 0.0)

    def test_matches_normal_equations_oracle(self):
        sem = generate_sem_data(5, 3000, seed=5)
        std = standardize(sem.x, [f"v{i}" for i in range(5)])
        order = (0, 1, 2, 3, 4)
        b = estimate_effects(std, order)
        for pos in range(1, 5):
            child = order[pos]
            parents = list(order[:pos])
            oracle = ols_normal_equations(std.x[:, parents], std.x[:, child])
            np.testing.assert_allclose(b[parents, child], oracle, atol=1e-8)

    def test_structural_zeros_exact(self):
        sem = generate_sem_data(6, 4000, seed=7)
        std = standardize(sem.x, [f"v{i}" for i in range(6)])
        order = causal_order(fast_ica(std, LingamConfig(seed=7)))
        b = estimate_effects(std, order)
        position = {v: k for k, v in enumerate(order)}
        for i in range(6):
            for j in range(6):
                if position[i] >= position[j]:
                    assert b[i, j] == 0.0

    def test_rank_deficient_raises(self):
        rng = rng_mod.stream(0, 910)
        col = rng.uniform(-1, 1, 100)
        x = np.column_stack([col, col, rng.uniform(-1, 1, 100)])
        with pytest.raises(LingamError, match="rank-deficient.*variable 1 "):
            estimate_effects(x, (0, 1, 2))

    def test_stack_flags_only_the_deficient_matrix(self):
        rng = rng_mod.stream(0, 921)
        x = rng.uniform(-1, 1, size=(3, 100, 3))
        x[1, :, 2] = x[1, :, 0]
        order = np.array([[0, 1, 2], [0, 1, 2], [2, 0, 1]])
        b, deficient = _effects_stack(x, order)
        assert deficient.tolist() == [[False] * 3, [False, False, True], [False] * 3]
        for k in (0, 2):
            np.testing.assert_array_equal(b[k], estimate_effects(x[k], tuple(order[k])))

    def test_order_invariant_to_column_scaling(self):
        for seed in range(5):
            sem = generate_sem_data(4, 3000, seed=seed)
            names = [f"v{i}" for i in range(4)]
            base = causal_order(fast_ica(standardize(sem.x, names), LingamConfig(seed=seed)))
            scaled = sem.x.copy()
            scaled[:, 1] *= 2.0  # power of two keeps standardization bit-identical
            scaled[:, 3] *= 0.5
            again = causal_order(fast_ica(standardize(scaled, names), LingamConfig(seed=seed)))
            assert base == again


class TestBootstrap:
    def _pair_data(self, seed, n=2000, effect=0.8):
        rng = rng_mod.stream(seed, 911)
        x0 = rng.uniform(-1, 1, n)
        x1 = effect * x0 + rng.uniform(-1, 1, n)
        return np.column_stack([x0, x1])

    # the intervals do not depend on the point estimate; only the sign
    # stability, which these tests do not read, compares against it
    _POINT = np.zeros((2, 2))

    def test_single_resample_degenerate_ci(self):
        x = self._pair_data(0)
        boot = bootstrap_cis(x, self._POINT, n_resamples=1, config=LingamConfig(seed=0))
        np.testing.assert_array_equal(boot.ci_low_raw, boot.ci_high_raw)

    def test_strong_effect_ci_excludes_zero(self):
        x = self._pair_data(1)
        boot = bootstrap_cis(x, self._POINT, n_resamples=100, config=LingamConfig(seed=1))
        assert boot.ci_low_raw[0, 1] > 0.0

    def test_null_effect_ci_contains_zero(self):
        contains = 0
        for seed in range(10):
            rng = rng_mod.stream(seed, 912)
            x = rng.uniform(-1, 1, size=(1500, 2))
            boot = bootstrap_cis(x, self._POINT, n_resamples=60, config=LingamConfig(seed=seed))
            contains += boot.ci_low_raw[0, 1] <= 0.0 <= boot.ci_high_raw[0, 1]
        assert contains >= 9

    def test_flagged_resamples_left_out_of_cis(self):
        # a column that is 1 in two rows is constant in the resamples that
        # miss both; those resamples fail and must not pull the CI to zero
        x = self._pair_data(1)
        rare = np.zeros(len(x))
        rare[:2] = 1.0
        boot = bootstrap_cis(
            np.column_stack([x, rare]), np.zeros((3, 3)), n_resamples=100,
            config=LingamConfig(seed=1, threads=1),
        )
        assert boot.n_flagged > 0
        assert boot.ci_low_raw[0, 1] > 0.0

    def test_all_resamples_flagged_raises(self):
        x = self._pair_data(1, n=200)
        collinear = np.column_stack([x[:, 0], 2.0 * x[:, 0]])
        with pytest.raises(LingamError, match="all 5 bootstrap resamples"):
            bootstrap_cis(collinear, self._POINT, n_resamples=5, config=LingamConfig())

    def test_zero_resamples_rejected(self):
        with pytest.raises(LingamError, match="n_resamples >= 1"):
            bootstrap_cis(
                self._pair_data(0, n=50), self._POINT, n_resamples=0, config=LingamConfig()
            )

    @pytest.mark.parametrize("case", ["sem", "rare_column", "iteration_cap"])
    def test_matches_serial_oracle(self, case, monkeypatch):
        if case == "rare_column":
            x = self._pair_data(1)
            rare = np.zeros(len(x))
            rare[:2] = 1.0
            x, n_resamples, seed = np.column_stack([x, rare]), 100, 1
        else:
            x, n_resamples, seed = generate_sem_data(8, 60, seed=12).x, 60, 3
            if case == "iteration_cap":
                monkeypatch.setattr(lingam_mod, "ICA_MAX_ITER", 5)
        point = np.zeros((x.shape[1], x.shape[1]))
        boot = bootstrap_cis(
            x, point, n_resamples=n_resamples, config=LingamConfig(seed=seed, threads=1)
        )
        oracle = lingam_bootstrap_serial(
            x, n_resamples, seed, point, lingam_mod.ICA_TOL, lingam_mod.ICA_MAX_ITER
        )
        for name in ("ci_low_raw", "ci_high_raw", "sign_stability"):
            np.testing.assert_allclose(getattr(boot, name), oracle[name], rtol=0, atol=1e-9)
        assert (boot.n_flagged, boot.n_unconverged) == (
            oracle["n_flagged"], oracle["n_unconverged"]
        )
        if case == "rare_column":
            assert boot.n_flagged > 0
        if case == "iteration_cap":
            assert boot.n_unconverged == n_resamples - boot.n_flagged > 0

    @pytest.mark.parametrize("shape", [(4, 40, 1), (8, 60, 12), (12, 200, 3)])
    def test_block_size_changes_nothing(self, shape, monkeypatch):
        # one resample per block, the documented size, and every resample in
        # one block; these fleets leave 6, 20 and 3 resamples unconverged
        x = generate_sem_data(*shape).x
        point = np.zeros((x.shape[1], x.shape[1]))
        results = []
        for elements in (2**6, 2**15, 2**22):
            monkeypatch.setattr(lingam_mod, "_BLOCK_ELEMENTS", elements)
            results.append(bootstrap_cis(
                x, point, n_resamples=40, config=LingamConfig(seed=3, threads=1)
            ))
        assert results[0].n_unconverged > 0
        for other in results[1:]:
            for field in dataclasses.fields(BootstrapResult):
                np.testing.assert_array_equal(
                    getattr(other, field.name), getattr(results[0], field.name)
                )

    def test_memory_is_one_block_and_the_estimates(self):
        # 1000 resamples of 16 variables leave 2 MB of raw-unit estimates
        # in about 20 blocks of 51; the peak may hold those twice over plus
        # what one block alone peaks at.  A bootstrap that gathers every
        # resample's demixing matrix for one ordering pass, or keeps the
        # estimates in several copies, peaks near 8 times the estimates
        x = generate_sem_data(16, 40, seed=1).x
        point = np.zeros((16, 16))
        config = LingamConfig(seed=2, threads=1)

        def traced_peak(n_resamples):
            tracemalloc.start()
            try:
                bootstrap_cis(x, point, n_resamples=n_resamples, config=config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = traced_peak(_BLOCK_ELEMENTS // x.size)
        assert traced_peak(1000) < 2 * (1000 * 16 * 16 * 8) + one_block

    def test_stacked_failure_flags_only_the_failing_matrix(self):
        stack = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
        inverses, ok = _stacked(np.linalg.inv, stack)
        assert ok.tolist() == [True, False, True]
        np.testing.assert_array_equal(inverses[[0, 2]], [np.eye(3), 0.5 * np.eye(3)])

    def test_needs_ten_rows(self):
        with pytest.raises(LingamError, match="n >= 10"):
            bootstrap_cis(np.zeros((5, 2)), self._POINT, n_resamples=10, config=LingamConfig())

    def test_parallel_matches_serial(self):
        x = self._pair_data(2, n=600)
        assert 40 > _BLOCK_ELEMENTS // x.size  # the resamples span two blocks
        serial = bootstrap_cis(
            x, self._POINT, n_resamples=40, config=LingamConfig(seed=4, threads=1)
        )
        forked = bootstrap_cis(
            x, self._POINT, n_resamples=40, config=LingamConfig(seed=4, threads=2)
        )
        np.testing.assert_array_equal(serial.ci_low_raw, forked.ci_low_raw)
        np.testing.assert_array_equal(serial.ci_high_raw, forked.ci_high_raw)
        np.testing.assert_array_equal(serial.sign_stability, forked.sign_stability)


def _group_from_scenario(scenario, group=Group.NEGATIVE):
    return GroupDataset(
        group=group,
        features=scenario.features.values,
        target=scenario.target,
        feature_names=scenario.features.feature_names,
    )


class TestDiscover:
    def test_planted_effect_recovered(self):
        scenario = generate_lingam_scenario(5, {"std": 1.5}, noise_scale=0.5)
        model = discover(_group_from_scenario(scenario), LingamConfig(n_bootstrap=30, seed=5))
        effects = {r["from"]: r["effect"] for r in model.target_edge_table()}
        assert effects["std"] == pytest.approx(1.5, abs=0.2)
        others = [abs(v) for k, v in effects.items() if k != "std"]
        assert max(others) < 0.1

    def test_null_scenario_all_small(self):
        scenario = generate_lingam_scenario(6, {}, noise_scale=1.0)
        model = discover(_group_from_scenario(scenario), LingamConfig(n_bootstrap=20, seed=6))
        assert max(abs(r["effect"]) for r in model.target_edge_table()) < 0.05

    def test_single_feature_direction(self):
        hits = 0
        for seed in range(20):
            scenario = generate_lingam_scenario(seed, {"std": 1.0}, features=("std",))
            model = discover(
                _group_from_scenario(scenario), LingamConfig(n_bootstrap=1, seed=seed)
            )
            ordered = [model.variable_names[i] for i in model.causal_order]
            hits += ordered == ["std", "u"]
        assert hits >= 18

    def test_gate_admits_the_smallest_group_the_fit_accepts(self):
        # the point fit needs more rows than variables plus one, the
        # bootstrap ten; a group the gate lets through must get both
        assert len(SCENARIO_FEATURES) == 5
        rows = min_members(len(SCENARIO_FEATURES))
        group = _group_from_scenario(generate_lingam_scenario(7, rows=rows))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = discover(group, LingamConfig(n_bootstrap=50, seed=7))
        assert model.bootstrap.n_flagged < 50
        small = GroupDataset(
            group=group.group,
            features=group.features[:-1],
            target=group.target[:-1],
            feature_names=group.feature_names,
        )
        with pytest.raises(InsufficientGroupError, match="9 members < 10 required for 5"):
            discover(small, LingamConfig(n_bootstrap=5))

    def test_group_at_the_gate_can_have_no_usable_resample(self):
        # a resample of n rows holds about 0.63 n distinct rows, fewer than
        # 20 features plus the target need, so at the gate every resample
        # of 20 independent uniform features can be singular
        rows = min_members(20)
        assert rows == 23
        data = np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 21))
        group = GroupDataset(
            group=Group.POSITIVE,
            features=data[:, :20],
            target=data[:, 20],
            feature_names=tuple(f"f{j}" for j in range(20)),
        )
        with pytest.raises(InsufficientGroupError, match="all 50 bootstrap resamples degenerate"):
            discover(group, LingamConfig(n_bootstrap=50, seed=1, threads=1))

    def test_constant_feature_dropped(self):
        scenario = generate_lingam_scenario(8, rows=500)
        group = _group_from_scenario(scenario)
        doctored = GroupDataset(
            group=group.group,
            features=np.column_stack([group.features, np.ones(group.count)]),
            target=group.target,
            feature_names=(*group.feature_names, "flatline"),
        )
        with pytest.warns(UserWarning, match="flatline"):
            model = discover(doctored, LingamConfig(n_bootstrap=5, seed=8))
        assert model.dropped_columns == {"flatline": "constant"}
        assert "flatline" not in model.variable_names

    @pytest.mark.parametrize("eps, dropped", [(1e-5, True), (1e-4, True), (1e-3, False)])
    def test_near_copy_of_a_feature(self, eps, dropped):
        # a copy of feature 'a' with relative noise eps is dropped or kept,
        # and discovery runs either way
        rng = rng_mod.stream(0, 906)
        x = rng.uniform(-1, 1, size=(60, 4))
        near = x[:, 0] * (1.0 + eps * rng.uniform(-1, 1, 60))
        group = GroupDataset(
            group=Group.NEGATIVE,
            features=np.column_stack([x, near]),
            target=rng.uniform(-1, 1, 60),
            feature_names=("a", "b", "c", "d", "near"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = discover(group, LingamConfig(n_bootstrap=5, seed=2, threads=1))
        assert ("near" in model.dropped_columns) is dropped
        assert ("near" in model.variable_names) is not dropped

    def test_target_near_combination_of_features_errors(self):
        # a target within relative noise 1e-5 of a + b is dependent on the
        # features, so the group is rejected rather than fitted
        rng = rng_mod.stream(0, 908)
        x = rng.uniform(-1, 1, size=(60, 4))
        target = (x[:, 0] + x[:, 1]) * (1.0 + 1e-5 * rng.uniform(-1, 1, 60))
        group = GroupDataset(
            group=Group.NEGATIVE,
            features=x,
            target=target,
            feature_names=("a", "b", "c", "d"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(LingamError, match="target variable is constant or a linear"):
                discover(group, LingamConfig(n_bootstrap=5, seed=2, threads=1))

    def test_constant_target_errors(self):
        scenario = generate_lingam_scenario(9, rows=200)
        group = _group_from_scenario(scenario)
        flat = GroupDataset(
            group=group.group,
            features=group.features,
            target=np.zeros(group.count),
            feature_names=group.feature_names,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(LingamError, match="target"):
                discover(flat, LingamConfig(n_bootstrap=5))

    def test_target_combination_of_features_errors(self):
        scenario = generate_lingam_scenario(9, rows=200)
        group = _group_from_scenario(scenario)
        derived = GroupDataset(
            group=group.group,
            features=group.features,
            target=group.features @ np.arange(1.0, group.features.shape[1] + 1),
            feature_names=group.feature_names,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(LingamError, match="linear combination"):
                discover(derived, LingamConfig(n_bootstrap=5))


@pytest.fixture(scope="module")
def model() -> CausalModel:
    scenario = generate_lingam_scenario(10, {"std": 1.0}, rows=800)
    return discover(_group_from_scenario(scenario), LingamConfig(n_bootstrap=10, seed=10))


class TestExports:
    def test_adjacency_rows(self, model, tmp_path):
        path = tmp_path / "adjacency.csv"
        write_adjacency_csv(model, path)
        lines = path.read_text().splitlines()
        d = len(model.variable_names)
        assert len(lines) == 1 + d * d
        assert lines[0] == "from,to,effect,ci_low,ci_high,sign_stability"

    def test_order_json(self, model, tmp_path):
        path = tmp_path / "order.json"
        write_order_json(model, path)
        ordered = json.loads(path.read_text())
        assert sorted(ordered) == sorted(model.variable_names)

    def test_effects_sorted_descending(self, model, tmp_path):
        path = tmp_path / "effects.csv"
        write_effects_csv(model, path)
        rows = path.read_text().splitlines()[1:]
        magnitudes = [abs(float(r.split(",")[1])) for r in rows]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert len(rows) == len(model.variable_names) - 1
