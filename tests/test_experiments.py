"""Tests for the Monte Carlo harnesses and their acceptance-sampling recipe."""

import hashlib
import json

import numpy as np
import pytest

from smaup import (
    ContiguityError,
    CorruptPartitionError,
    EffectsConfig,
    ExperimentStallError,
    InvalidKError,
    NullDistribution,
    build_lattice_rook,
    critical_value,
    effects_experiment,
    from_adjacency_text,
    generate_null,
    generate_sar,
    lattice_for_area_count,
    m_statistic,
    power_experiment,
    size_experiment,
)
from smaup import experiments
from smaup.experiments import (
    _accepted_instance,
    _partitions,
)
from smaup.regionalize import aggregate_mean, random_regions
from smaup.sar import SarSpec
from smaup.seeding import derive_seed
from smaup.stats import levene_test


@pytest.fixture(scope="module")
def w100():
    return build_lattice_rook(10, 10)


class TestNullDistribution:
    def test_single_replicate(self):
        nd = generate_null(100, 0.0, replicates=1, master_seed=1)
        assert nd.values.shape == (1,)
        assert 0.0 < nd.values[0] < 1.0

    def test_values_sorted_and_percentiles_ordered(self):
        nd = generate_null(100, 0.0, replicates=25, master_seed=2)
        assert np.all(np.diff(nd.values) >= 0)
        p90, p95, p99 = (nd.percentile(q) for q in (90, 95, 99))
        assert p90 <= p95 <= p99

    def test_json_round_trip(self):
        nd = generate_null(100, 0.0, replicates=5, master_seed=3)
        back = NullDistribution.from_json(nd.to_json())
        assert back == nd

    def test_json_schema_fields(self):
        nd = generate_null(100, 0.3, replicates=4, master_seed=4, r=10)
        doc = json.loads(nd.to_json())
        assert doc["n"] == 100
        assert doc["rho"] == 0.3
        assert doc["replicates"] == 4
        assert doc["r_aggregations"] == 10
        assert doc["seed"] == 4
        assert doc["values"] == sorted(doc["values"])

    def test_accepts_weights_object(self, w100):
        a = generate_null(w100, 0.0, replicates=3, master_seed=5)
        b = generate_null(100, 0.0, replicates=3, master_seed=5)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        a = generate_null(100, 0.0, replicates=8, master_seed=6, workers=1)
        b = generate_null(100, 0.0, replicates=8, master_seed=6, workers=3)
        assert a.to_json() == b.to_json()

    def test_non_square_area_count_rejected(self):
        from smaup import InvalidDimensionError
        with pytest.raises(InvalidDimensionError, match="square"):
            lattice_for_area_count(150)


class TestAcceptanceRecipe:
    def test_filters_mutually_exclusive(self, w100):
        hits = 0
        for seed in range(40):
            y = generate_sar(w100, SarSpec(rho=0.0, seed=seed))
            k = 11 + seed % 88
            # repeat seeds derive_seed(seed, rep), rep < 5
            rejections = [levene_test(y.values, np.bincount(labels, y.values) / sizes).rejects(0.05)
                          for labels, sizes in _partitions(w100, k, (seed,), 5)]
            assert len(rejections) == 5
            null_pass = not any(rejections)
            power_pass = all(rejections)
            assert not (null_pass and power_pass)
            hits += null_pass or power_pass
        assert hits > 0  # the sweep exercised both outcomes

    def test_kernel_pins_region_stream(self, w100):
        y = generate_sar(w100, SarSpec(rho=0.3, seed=11))
        path = (11, 0, 3, experiments._ROLE_REGIONS, 2, 7)
        got = list(_partitions(w100, 23, path, 6))
        assert len(got) == 6
        for rep, (labels, sizes) in enumerate(got):
            regions = random_regions(w100, 23, seed=derive_seed(*path, rep))
            eager = aggregate_mean(y, regions)
            assert np.array_equal(labels, regions.assignment)
            assert np.array_equal(sizes, eager.region_sizes)
            assert np.array_equal(np.bincount(labels, y.values) / sizes, eager.region_means)

    def test_kernel_derives_seeds_on_demand(self, w100, monkeypatch):
        derived = []

        def counting(*path):
            derived.append(path)
            return derive_seed(*path)

        monkeypatch.setattr(experiments, "derive_seed", counting)
        kernel = _partitions(w100, 20, (1, 2), 30)
        next(kernel)
        next(kernel)
        assert derived == [(1, 2, 0), (1, 2, 1)]

    def test_kernel_guards_the_partition(self, w100, monkeypatch):
        # a grower that leaves a label unused must not reach Levene or Welch
        monkeypatch.setattr(experiments, "_grow", lambda neighbors, n, k, seed: [0] * (n - 1) + [2])
        with pytest.raises(CorruptPartitionError):
            next(_partitions(w100, 3, (1,), 1))

    def test_kernel_checks_k_and_connectivity(self, w100):
        for k in (0, 101):
            with pytest.raises(InvalidKError):
                next(_partitions(w100, k, (1,), 1))
        split = from_adjacency_text("0: 1\n1: 0\n2: 3\n3: 2\n")
        with pytest.raises(ContiguityError):
            next(_partitions(split, 2, (1,), 1))

    @pytest.mark.parametrize("prefix, mode, k, trials, rho_hat", [
        ((0, 0), "never_reject", 61, 6, -0.13540828322856058),
        ((1, 0), "always_reject", 14, 8, -0.0964718841671182),
    ])
    def test_accepted_instance_pinned(self, w100, prefix, mode, k, trials, rho_hat):
        # pinned figures: they move only if a seed path or random stream changes
        res = _accepted_instance(w100, 0.0, master_seed=7, path_prefix=prefix, mode=mode, r=10)
        assert (res["k"], res["trials"], res["attempts"]) == (k, trials, 1)
        assert res["rho_hat"] == pytest.approx(rho_hat, abs=1e-12)

    def test_accepted_instance_fields(self, w100):
        res = _accepted_instance(w100, 0.0, master_seed=7, path_prefix=(0, 0),
                                 mode="never_reject", r=10)
        assert 10 < res["k"] < 100
        assert -1 < res["rho_hat"] < 1
        assert res["trials"] >= 1

    def test_k_bounds_are_strict(self, w100):
        # every accepted k across a spread of replicates obeys 0.1N < k < N
        for j in range(10):
            res = _accepted_instance(w100, 0.0, master_seed=8, path_prefix=(0, j),
                                     mode="never_reject", r=5)
            assert 10 < res["k"] < 100

    def test_stall_detection(self, monkeypatch):
        monkeypatch.setattr(experiments, "_STALL_TRIALS", 3)
        w25 = build_lattice_rook(5, 5)
        # all-30-reject at N=25 is essentially impossible: tiny aggregated samples
        with pytest.raises(ExperimentStallError) as excinfo:
            _accepted_instance(w25, 0.9, master_seed=9, path_prefix=(0, 0),
                               mode="always_reject", r=30)
        assert excinfo.value.rate is not None
        assert excinfo.value.rate <= 1e-4 or excinfo.value.rate == pytest.approx(1 / 4)

    def test_too_small_lattice_fails_at_estimation(self):
        from smaup import InsufficientDataError
        w4 = build_lattice_rook(2, 2)
        with pytest.raises(InsufficientDataError, match="n >= 10"):
            _accepted_instance(w4, 0.0, master_seed=0, path_prefix=(0, 0),
                               mode="never_reject", r=2)


class TestFanOut:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_list_per_cell_in_instance_order(self, workers):
        # ``tuple`` echoes each (*cell, j) task back
        got = experiments._fan_out(tuple, [("a", 0), ("b", 1), ("c", 2)], 4, workers)
        assert got == [[(name, ci, j) for j in range(4)] for name, ci in [("a", 0), ("b", 1), ("c", 2)]]

    @pytest.mark.parametrize("run", [
        lambda: generate_null(100, 0.0, replicates=0),
        lambda: power_experiment([100], [0.0], instances=0),
        lambda: size_experiment([100], [0.0], instances=-1),
        lambda: effects_experiment(EffectsConfig(k_lists={100: (12,)}, instances=0)),
    ], ids=["null", "power", "size", "effects"])
    def test_every_harness_needs_an_instance(self, run):
        with pytest.raises(ValueError, match="at least 1 instance"):
            run()

    @pytest.mark.parametrize("run", [
        lambda: generate_null(100, 0.0, replicates=3, r=0),
        lambda: power_experiment([100], [0.0], instances=2, r=0),
        lambda: size_experiment([100], [0.0], instances=2, r=-1),
    ], ids=["null", "power", "size"])
    def test_filters_need_an_aggregation(self, run):
        # with r < 1 no Levene test would run and every instance would pass
        with pytest.raises(ValueError, match="r must be >= 1"):
            run()


class TestPowerAndSize:
    def test_power_high_at_small_n_zero_rho(self):
        report = power_experiment([100], [0.0], instances=20, master_seed=10)
        assert report.proportion(100, 0.0) >= 0.9

    def test_size_low_at_small_n_zero_rho(self):
        report = size_experiment([100], [0.0], instances=20, master_seed=11)
        assert report.proportion(100, 0.0) <= 0.25

    def test_degenerate_tiny_critical_values_give_power_one(self, monkeypatch):
        monkeypatch.setattr(experiments, "critical_value", lambda n, rho, alpha: 1e-9)
        report = power_experiment([100], [0.0], instances=5, master_seed=12)
        assert report.proportion(100, 0.0) == 1.0

    def test_degenerate_huge_critical_values_give_size_zero(self, monkeypatch):
        monkeypatch.setattr(experiments, "critical_value", lambda n, rho, alpha: 0.999999)
        report = size_experiment([100], [0.0], instances=5, master_seed=13)
        assert report.proportion(100, 0.0) == 0.0

    def test_proportion_is_the_share_of_instances_above_the_table(self, w100):
        # each accepted instance is priced at its own estimated rho
        for runner, mode, seed in ((power_experiment, "always_reject", 12),
                                   (size_experiment, "never_reject", 13)):
            report = runner([100], [0.0], instances=5, master_seed=seed)
            cell = (w100, 0.0, seed, mode, 30, 1)
            (records,) = experiments._fan_out(experiments._instance_task, [cell], 5, 1)
            rejections = sum(
                m_statistic(rec["rho_hat"], rec["k"] / 100) > critical_value(100, rec["rho_hat"], 0.05)
                for rec in records
            )
            assert report.proportion(100, 0.0) == rejections / 5, mode

    def test_report_json_and_csv(self):
        report = power_experiment([100], [0.0], instances=3, master_seed=14)
        doc = json.loads(report.to_json())
        assert doc["kind"] == "power"
        assert doc["alpha"] == 0.05
        assert doc["instances"] == 3
        csv = report.to_csv()
        assert csv.splitlines()[0] == "rho,k_or_N,metric,value"
        assert ",100,power," in csv.splitlines()[1]

    def test_worker_independence(self):
        a = power_experiment([100], [0.0], instances=6, master_seed=15, workers=1)
        b = power_experiment([100], [0.0], instances=6, master_seed=15, workers=4)
        assert a.to_json() == b.to_json()


class TestEffects:
    def test_small_run_shape_and_trends(self):
        config = EffectsConfig(
            k_lists={100: (12, 90)}, rho_values=(-0.9, 0.9),
            instances=3, r=10, master_seed=17,
        )
        summary = effects_experiment(config, workers=1)
        assert len(summary.cells) == 4
        for cell in summary.cells:
            assert len(cell.rcm_bars) == 3
            assert len(cell.rcv_bars) == 3
            assert 0.0 <= cell.t_rejection_proportion <= 1.0
            assert 0.0 <= cell.levene_rejection_proportion <= 1.0
        strong = summary.cell(100, 0.9, 90)
        weak = summary.cell(100, -0.9, 12)
        assert np.mean(strong.rcv_bars) < np.mean(weak.rcv_bars)

    def test_value_multisets_shared_across_rho_in_isolation_mode(self):
        # rho isolation: every rho level of an instance is a permutation of the base
        config = EffectsConfig(
            k_lists={100: (90,)}, rho_values=(0.0, 0.9),
            instances=1, r=2, master_seed=18,
        )
        summary = effects_experiment(config)
        assert summary.rho_isolation
        assert summary.metadata["rcm_divisor"] == "abs(mean)"

    def test_infeasible_k_skipped_with_warning(self):
        config = EffectsConfig(
            k_lists={100: (90, 150)}, rho_values=(0.9,),
            instances=1, r=2, master_seed=19,
        )
        with pytest.warns(UserWarning, match="infeasible"):
            summary = effects_experiment(config)
        assert {c.k for c in summary.cells} == {90}

    def test_no_feasible_cell_raises(self):
        config = EffectsConfig(
            k_lists={25: (30, 40), 100: (200,)}, rho_values=(0.0,),
            instances=4, r=2, master_seed=1,
        )
        with pytest.warns(UserWarning, match="infeasible"), \
                pytest.raises(InvalidKError, match="no feasible"):
            effects_experiment(config)

    def test_infeasible_lattice_dropped_without_moving_seed_paths(self):
        def cells(k_lists):
            config = EffectsConfig(k_lists=k_lists, rho_values=(0.0, 0.9),
                                   instances=2, r=3, master_seed=21)
            return effects_experiment(config).cells

        with pytest.warns(UserWarning, match=r"\[500\] at N=400"):
            assert cells({100: (12, 53), 400: (500,)}) == cells({100: (12, 53)})
        # N=100 is second in the sorted list either way, so its seeds do not move
        with pytest.warns(UserWarning, match=r"\[30\] at N=25"):
            partly = cells({25: (30,), 100: (12, 53)})
        assert partly == tuple(c for c in cells({25: (3,), 100: (12, 53)}) if c.n == 100)

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidKError):
            EffectsConfig(k_lists={100: (1,)}, rho_values=(0.0,), instances=1)

    def test_csv_long_format(self):
        config = EffectsConfig(
            k_lists={100: (90,)}, rho_values=(0.9,),
            instances=2, r=2, master_seed=20,
        )
        summary = effects_experiment(config)
        lines = summary.to_csv().splitlines()
        assert lines[0] == "rho,k_or_N,metric,value"
        metrics = {ln.split(",")[2] for ln in lines[1:]}
        assert {"rcm_bar_000", "rcm_bar_001", "rcv_bar_mean",
                "t_reject_prop", "levene_reject_prop"} <= metrics

    def test_independent_draws_mode(self):
        config = EffectsConfig(
            k_lists={100: (90,)}, rho_values=(0.0,),
            instances=2, r=2, rho_isolation=False, master_seed=21,
        )
        summary = effects_experiment(config)
        assert not summary.rho_isolation
        assert len(summary.cells) == 1

    def test_cell_independent_of_other_rho_and_k(self):
        # a cell's partitions are keyed on (instance, k) only, and at the base
        # rho its field is the base field, so the other cells do not move it
        def cell(rho_values, ks):
            config = EffectsConfig(k_lists={100: ks}, rho_values=rho_values,
                                   instances=2, r=4, master_seed=23)
            return effects_experiment(config).cell(100, 0.9, 53)

        assert cell((-0.9, 0.0, 0.9), (12, 53, 90)) == cell((0.9,), (53,))

    @pytest.mark.parametrize("rho_values", [(0.9,), (-0.9, 0.0, 0.9)])
    def test_partitions_grown_once_per_instance_and_k(self, monkeypatch, rho_values):
        # instances x |ks| x r growths, whatever the number of rho levels
        grow, grown = experiments._grow, []

        def counting(neighbors, n, k, seed):
            grown.append(k)
            return grow(neighbors, n, k, seed)

        monkeypatch.setattr(experiments, "_grow", counting)
        config = EffectsConfig(k_lists={100: (12, 53, 90)}, rho_values=rho_values,
                               instances=2, r=3, master_seed=24)
        summary = effects_experiment(config)
        assert sorted(grown) == [12] * 6 + [53] * 6 + [90] * 6
        assert summary.metadata["stream_version"] == 2

    def test_worker_independence(self):
        config = EffectsConfig(
            k_lists={100: (12, 90)}, rho_values=(0.0, 0.9),
            instances=2, r=5, master_seed=22,
        )
        a = effects_experiment(config, workers=1)
        b = effects_experiment(config, workers=2)
        assert a.to_json() == b.to_json()


def payload_sha256(result) -> str:
    doc = result.to_dict()
    del doc["toolkit_version"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, run, sha256", [
    ("null", lambda: generate_null(100, 0.0, replicates=20, master_seed=1),
     "b3f8818190bf7c992435c35a7f80493f2d96ba2c6a138a895ac039b4320dcbe2"),
    ("power", lambda: power_experiment([100], [0.0], instances=15, master_seed=1),
     "5ac4b8d5a701475ebb7bc8b3c3e5d5a6f9cb0e3a6cbc869e75f1b55e9e071b6a"),
    ("size", lambda: size_experiment([100], [0.0], instances=20, master_seed=1),
     "849a6220006cd0c5b7caebda8a2fc608d8f3480140b526ba5c58a94a8cbd6bae"),
    ("effects", lambda: effects_experiment(EffectsConfig(
        k_lists={100: (12, 53, 90)}, rho_values=(-0.9, 0.0, 0.9), instances=3, r=20,
        master_seed=1)),
     "49672ca31dfe831758a2b0c1e2b867a0c50e6d6fb43e77850298810fd63df43b"),
])
def test_payload_bytes_pinned(name, run, sha256):
    # any change of a random stream or of a reported figure moves these digests
    assert payload_sha256(run()) == sha256, name
