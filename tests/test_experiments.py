"""Tests for the Monte Carlo harnesses and their acceptance-sampling recipe."""

import hashlib
import json
import math
import pickle

import numpy as np
import pytest
import scipy.stats

from smaup import (
    ContiguityError,
    CorruptPartitionError,
    DegenerateSampleError,
    EffectsConfig,
    EffectsSummary,
    ExperimentStallError,
    InvalidAlphaError,
    InvalidDimensionError,
    InvalidKError,
    NullDistribution,
    PowerSizeReport,
    RepeatedValueError,
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
from smaup import experiments, sar
from smaup.experiments import (
    _accepted_instance,
    _effects_rows,
    _partition_block,
    _partitions,
)
from smaup.regionalize import Regionalization, _grow, aggregate_mean, random_regions, regionalization_to_csv
from smaup.sar import SarSpec
from smaup.seeding import derive_rng
from smaup.stats import levene_test, rcm, rcv, welch_t_test


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
        assert doc["stream_version"] == 4
        assert doc["values"] == sorted(doc["values"])

    def test_loads_a_file_without_stream_version(self):
        # null files written before the key was added still load
        nd = generate_null(100, 0.0, replicates=3, master_seed=3)
        doc = nd.to_dict()
        del doc["stream_version"]
        assert NullDistribution.from_dict(doc) == nd

    def test_accepts_weights_object(self, w100):
        a = generate_null(w100, 0.0, replicates=3, master_seed=5)
        b = generate_null(100, 0.0, replicates=3, master_seed=5)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        a = generate_null(100, 0.0, replicates=8, master_seed=6, workers=1)
        b = generate_null(100, 0.0, replicates=8, master_seed=6, workers=3)
        assert a.to_json() == b.to_json()

    def test_values_must_match_replicates(self):
        with pytest.raises(ValueError, match="2 values but replicates=3"):
            NullDistribution(n=100, rho=0.0, values=[0.1, 0.2], replicates=3)

    def test_non_square_area_count_rejected(self):
        for _ in range(2):  # on every call, not only on the first
            with pytest.raises(InvalidDimensionError, match="square"):
                lattice_for_area_count(150)


class TestCountsAreIntegers:
    """An area count, an r or an effects k that is not an integer is refused
    before anything runs, never truncated."""

    @pytest.mark.parametrize("run", [
        lambda: lattice_for_area_count(100.0),
        lambda: lattice_for_area_count(True),
        lambda: lattice_for_area_count(0),
        lambda: lattice_for_area_count(-4),
        lambda: generate_null(100.7, 0.0, 2),
        lambda: size_experiment([100.9], [0.0], 2),
        lambda: power_experiment([np.float64(100)], [0.0], 2),
        lambda: effects_experiment(EffectsConfig(k_lists={100.0: (12,)}, instances=1, r=2)),
    ], ids=["lattice-float", "lattice-bool", "lattice-zero", "lattice-negative", "null-fraction",
            "size-fraction", "power-numpy-float", "effects-float"])
    def test_area_count_must_be_an_integer(self, run):
        with pytest.raises(InvalidDimensionError, match="area count must be an integer >= 1"):
            run()

    def test_numpy_integer_area_count_accepted(self):
        assert lattice_for_area_count(np.int64(100)) is lattice_for_area_count(100)
        report = size_experiment([np.int64(100)], [0.0], 1, r=2, master_seed=3)
        assert report.to_json() == size_experiment([100], [0.0], 1, r=2, master_seed=3).to_json()

    @pytest.mark.parametrize("run", [
        lambda: generate_null(100, 0.0, 2, r=2.5),
        lambda: generate_null(100, 0.0, 2, r=True),
        lambda: power_experiment([100], [0.0], 2, r=2.5),
        lambda: size_experiment([100], [0.0], 2, r=np.float64(2)),
        lambda: EffectsConfig(k_lists={100: (12,)}, instances=1, r=2.5),
    ], ids=["null-fraction", "null-bool", "power-fraction", "size-numpy-float", "effects-fraction"])
    def test_r_must_be_an_integer(self, run):
        with pytest.raises(ValueError, match="r must be >= 1 and an integer"):
            run()

    @pytest.mark.parametrize("k", [12.5, 12.0, np.float64(53)])
    def test_effects_k_must_be_an_integer(self, k):
        with pytest.raises(InvalidKError, match=r"must lie in \[2, N\] and be an integer"):
            EffectsConfig(k_lists={100: (k,)}, instances=1)

    @pytest.mark.parametrize("run", [
        lambda i: regionalization_to_csv(random_regions(build_lattice_rook(5, 5), i(5), seed=3)),
        lambda i: generate_null(25, 0.0, i(3), r=i(4), master_seed=i(2)).to_json(),
        lambda i: size_experiment([25], [0.0], i(2), r=i(3), master_seed=i(5)).to_json(),
        lambda i: effects_experiment(EffectsConfig(k_lists={25: (i(5),)}, rho_values=(0.0, 0.9),
                                                   instances=i(2), r=i(3), master_seed=i(7))).to_json(),
    ], ids=["regions", "null", "size", "effects"])
    def test_numpy_integer_counts_give_the_bytes_of_ints(self, run):
        assert run(np.int64) == run(int)

    @pytest.mark.parametrize("run, message", [
        (lambda: generate_null(25, 0.0, 2.5), "at least 1 instance"),
        (lambda: generate_null(25, 0.0, True), "at least 1 instance"),
        (lambda: size_experiment([25], [0.0], 2.0), "at least 1 instance"),
        (lambda: EffectsConfig(k_lists={25: (5,)}, instances=0), "at least 1 instance"),
        (lambda: EffectsConfig(k_lists={25: (5,)}, instances=1.5), "at least 1 instance"),
        (lambda: generate_null(25, 0.0, 1, r=2, master_seed=1.5), "non-negative integer"),
    ], ids=["null-replicates-fraction", "null-replicates-bool", "size-instances-float",
            "effects-instances-zero", "effects-instances-fraction", "null-seed-fraction"])
    def test_instance_counts_and_seed_must_be_integers(self, run, message):
        with pytest.raises(ValueError, match=message):
            run()


class TestAcceptanceRecipe:
    def test_filters_mutually_exclusive(self, w100):
        hits = 0
        for seed in range(40):
            y = generate_sar(w100, SarSpec(rho=0.0, seed=seed))
            k = 11 + seed % 88
            # repeats 0-4 of the stream of seed path (seed,)
            rejections = [levene_test(y.values, np.bincount(labels, y.values) / sizes).rejects(0.05)
                          for labels, sizes in _partitions(w100, k, (seed,), 5)]
            assert len(rejections) == 5
            null_pass = not any(rejections)
            power_pass = all(rejections)
            assert not (null_pass and power_pass)
            hits += null_pass or power_pass
        assert hits > 0  # the sweep exercised both outcomes

    def test_kernel_pins_region_stream(self, w100):
        # repeat rep grows from the path's PCG64 jumped rep times, on its own
        y = generate_sar(w100, SarSpec(rho=0.3, seed=11))
        path = (11, 0, 3, experiments._ROLE_REGIONS, 2, 7)
        got = list(_partitions(w100, 23, path, 6))
        assert len(got) == 6
        for rep, (labels, sizes) in enumerate(got):
            bitgen = derive_rng(*path).bit_generator.jumped(rep)
            regions = Regionalization(_grow(w100, 23, bitgen, 1)[0], 23)
            eager = aggregate_mean(y, regions)
            assert np.array_equal(labels, regions.assignment)
            assert np.array_equal(sizes, eager.region_sizes)
            assert np.array_equal(np.bincount(labels, y.values) / sizes, eager.region_means)

    def test_kernel_draws_only_the_repeats_read(self, w100, monkeypatch):
        # one bit generator per call; reading repeat 0 leaves it where repeat
        # 1 starts, so a filter that stops there draws nothing more, and
        # reading repeat 1 grows the block of repeats 1 and 2
        built = []

        def recording(*path):
            built.append((path, derive_rng(*path)))
            return built[-1][1]

        monkeypatch.setattr(experiments, "derive_rng", recording)
        kernel = _partitions(w100, 20, (1, 2), 30)
        next(kernel)
        ((path, rng),) = built
        assert path == (1, 2)
        assert rng.bit_generator.state == derive_rng(1, 2).bit_generator.jumped(1).state
        next(kernel)
        assert rng.bit_generator.state == derive_rng(1, 2).bit_generator.jumped(3).state

    @pytest.mark.parametrize("stop", [0, 1, 2, 3, 6, 7, 13, 14, 15, 28, 29])
    def test_kernel_grows_at_most_one_block_past_the_stop(self, w100, monkeypatch, stop):
        # blocks of 1, 2, 4, 8 and 15 repeats: a consumer that stops after
        # repeat j has grown min(30, 2**(floor(log2(j + 1)) + 1) - 1) of them
        grow, rows = experiments._grow, []

        def counting(w, k, bitgen, r):
            rows.append(r)
            return grow(w, k, bitgen, r)

        monkeypatch.setattr(experiments, "_grow", counting)
        kernel = _partitions(w100, 20, (1, 2), 30)
        for _ in range(stop + 1):
            next(kernel)
        assert sum(rows) == min(30, 2 ** (math.floor(math.log2(stop + 1)) + 1) - 1)
        assert len(list(kernel)) == 29 - stop
        assert rows == [1, 2, 4, 8, 15]

    def test_kernel_guards_the_partition(self, w100, monkeypatch):
        # a grower that leaves a label unused must not reach Levene or Welch
        monkeypatch.setattr(experiments, "_grow",
                            lambda w, k, bitgen, r: np.array([[0] * (w.n - 1) + [2]] * r))
        with pytest.raises(CorruptPartitionError):
            next(_partitions(w100, 3, (1,), 1))

    def test_kernel_checks_k_and_connectivity(self, w100):
        for k in (0, 101):
            with pytest.raises(InvalidKError):
                next(_partitions(w100, k, (1,), 1))
        split = from_adjacency_text("0: 1\n1: 0\n2: 3\n3: 2\n")
        with pytest.raises(ContiguityError):
            next(_partitions(split, 2, (1,), 1))

    @pytest.mark.parametrize("k", [1, 3, 23, 99, 100])
    def test_block_equals_stacked_kernel(self, w100, k):
        path = (5, 1, experiments._ROLE_REGIONS, k)
        labels, sizes = _partition_block(w100, k, derive_rng(*path).bit_generator, 7)
        stacked = list(_partitions(w100, k, path, 7))
        assert labels.shape == (7, 100) and sizes.shape == (7, k)
        assert np.array_equal(labels, np.stack([row for row, _ in stacked]))
        assert np.array_equal(sizes, np.stack([row for _, row in stacked]))

    @pytest.mark.parametrize("bad_row", [[0] * 99 + [2], [-1] + [0] * 49 + [1] * 49 + [2],
                                         [0] * 49 + [1] * 49 + [2, 3]],
                             ids=["unused-label", "unassigned-area", "label-out-of-range"])
    def test_block_guards_every_partition(self, w100, monkeypatch, bad_row):
        # one bad row of the block must not reach Levene or Welch; offset
        # bincount alone would count the unassigned area in the row before,
        # and a label of k in the row after
        def growing(w, k, bitgen, r):
            labels = np.tile(np.arange(w.n) % k, (r, 1))
            labels[r - 1] = bad_row
            return labels

        monkeypatch.setattr(experiments, "_grow", growing)
        with pytest.raises(CorruptPartitionError, match="one of its 3 regions empty"):
            _partition_block(w100, 3, np.random.PCG64(1), 4)

    def test_block_checks_k_and_connectivity(self, w100):
        for k in (0, 101):
            with pytest.raises(InvalidKError):
                _partition_block(w100, k, np.random.PCG64(1), 1)
        split = from_adjacency_text("0: 1\n1: 0\n2: 3\n3: 2\n")
        with pytest.raises(ContiguityError):
            _partition_block(split, 2, np.random.PCG64(1), 1)

    @pytest.mark.parametrize("want_rejection, k, trials, rho_hat", [
        (False, 79, 7, -0.13540828322856058),
        (True, 20, 11, -0.0964718841671182),
    ], ids=["never-reject", "always-reject"])
    def test_accepted_instance_pinned(self, w100, want_rejection, k, trials, rho_hat):
        # pinned figures: they move only if a seed path or random stream changes
        res = _accepted_instance(w100, 0.0, master_seed=7, want_rejection=want_rejection, r=10, j=0)
        assert (res["k"], res["trials"], res["attempts"]) == (k, trials, 1)
        assert res["rho_hat"] == pytest.approx(rho_hat, abs=1e-12)

    @pytest.mark.parametrize("want_rejection, sha256", [
        (False, "857f27b692096cd986443eeef225cc17a3341108388426f4850c092e7a91e888"),
        (True, "84bf415f72c498da0360259743ff98f16292e60032ba0ae3304835cbdc422dc2"),
    ], ids=["never-reject", "always-reject"])
    def test_accepted_records_pinned(self, w100, want_rejection, sha256):
        # at the power and size pins' scale power is 1.0 and size 0.0 on any
        # stream; the per-instance (M, rho_hat) records move with every stream
        (records,) = experiments._accepted_records([(w100, 0.0)], want_rejection, 5, 30, 1, 1)
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == sha256

    def test_accepted_instance_fields(self, w100):
        res = _accepted_instance(w100, 0.0, master_seed=7, want_rejection=False, r=10, j=0)
        assert 10 < res["k"] < 100
        assert -1 < res["rho_hat"] < 1
        assert res["trials"] >= 1

    def test_k_bounds_are_strict(self, w100):
        # every accepted k across a spread of replicates obeys 0.1N < k < N
        for j in range(10):
            res = _accepted_instance(w100, 0.0, master_seed=8, want_rejection=False, r=5, j=j)
            assert 10 < res["k"] < 100

    def test_stall_detection(self, monkeypatch):
        monkeypatch.setattr(experiments, "_STALL_TRIALS", 3)
        w25 = build_lattice_rook(5, 5)
        # all-30-reject at N=25 is essentially impossible: tiny aggregated samples
        with pytest.raises(ExperimentStallError) as excinfo:
            _accepted_instance(w25, 0.9, master_seed=9, want_rejection=True, r=30, j=0)
        assert excinfo.value.rate is not None
        assert excinfo.value.rate <= 1e-4 or excinfo.value.rate == pytest.approx(1 / 4)

    def test_too_small_lattice_fails_at_estimation(self):
        from smaup import InsufficientDataError
        w4 = build_lattice_rook(2, 2)
        with pytest.raises(InsufficientDataError, match="n >= 10"):
            _accepted_instance(w4, 0.0, master_seed=0, want_rejection=False, r=2, j=0)


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

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
    @pytest.mark.parametrize("run", [
        lambda workers: generate_null(100, 0.0, replicates=2, r=2, master_seed=1, workers=workers),
        lambda workers: power_experiment([100], [0.0], instances=2, r=2, workers=workers),
        lambda workers: size_experiment([100], [0.0], instances=2, r=2, workers=workers),
        lambda workers: effects_experiment(EffectsConfig(k_lists={100: (12,)}, instances=2, r=2),
                                           workers=workers),
    ], ids=["null", "power", "size", "effects"])
    def test_every_harness_needs_a_worker(self, run, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run(workers)

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
        for runner, want_rejection, seed in ((power_experiment, True, 12),
                                             (size_experiment, False, 13)):
            report = runner([100], [0.0], instances=5, master_seed=seed)
            cell = (w100, 0.0, seed, want_rejection, 30)
            (records,) = experiments._fan_out(experiments._instance_task, [cell], 5, 1)
            rejections = sum(
                m_statistic(rec["rho_hat"], rec["k"] / 100) > critical_value(100, rec["rho_hat"], 0.05)
                for rec in records
            )
            assert report.proportion(100, 0.0) == rejections / 5, want_rejection

    def test_missing_cell_raises(self):
        report = PowerSizeReport(kind="size", alpha=0.05, instances=1,
                                 cells=({"n": 100, "rho": 0.0, "proportion": 0.0},))
        with pytest.raises(KeyError, match=r"no cell \(N=100, rho=0.3\)"):
            report.proportion(100, 0.3)

    @pytest.mark.parametrize("runner", [power_experiment, size_experiment], ids=["power", "size"])
    def test_cell_records_independent_of_other_cells(self, monkeypatch, runner):
        # instance j of every cell has the seed path prefix (int(want_rejection), j)
        accepted, records = experiments._accepted_instance, []

        def recording(w, rho, *args):
            res = accepted(w, rho, *args)
            records.append((rho, res))
            return res

        monkeypatch.setattr(experiments, "_accepted_instance", recording)

        def cell_records(rho_values):
            records.clear()
            runner([100], rho_values, instances=3, master_seed=25, r=10)
            return [res for rho, res in records if rho == 0.3]

        assert cell_records([0.0, 0.3]) == cell_records([0.3])

    def test_size_prices_the_nulls_own_instances(self, monkeypatch):
        # size draws the null's instances, so against any critical value it
        # is the share of the null's values above it
        null = generate_null(100, 0.0, replicates=20, r=10, master_seed=26)
        for q in (25, 50, 75):
            cut = null.percentile(q)
            monkeypatch.setattr(experiments, "critical_value", lambda n, rho, alpha: cut)
            report = size_experiment([100], [0.0], instances=20, master_seed=26, r=10)
            assert report.proportion(100, 0.0) == np.mean(null.values > cut), q

    def test_one_records_run_gives_the_null_and_its_size(self, monkeypatch, w100):
        # one run of accepted (M, estimated rho) records is both the null and,
        # each M priced at its own estimated rho, the size of the cell
        (records,) = experiments._accepted_records([(w100, 0.0)], False, 12, 10, 27, 1)
        null = generate_null(100, 0.0, replicates=12, r=10, master_seed=27)
        assert sorted(m for m, _ in records) == null.values.tolist()
        cut = null.percentile(50)
        monkeypatch.setattr(experiments, "critical_value", lambda n, rho, alpha: cut + 0.1 * rho)
        priced = sum(m > cut + 0.1 * rho_hat for m, rho_hat in records) / 12
        assert 0 < priced < 1
        size = size_experiment([100], [0.0], instances=12, master_seed=27, r=10)
        assert size.proportion(100, 0.0) == priced

    @pytest.mark.parametrize("runner", [power_experiment, size_experiment])
    def test_repeated_n_or_rho_rejected(self, monkeypatch, runner):
        def no_run(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_fan_out", no_run)
        with pytest.raises(RepeatedValueError, match="N=100 given twice"):
            runner([100, 25, 100], [0.0], instances=1, r=1)
        with pytest.raises(RepeatedValueError, match="rho=0.0 given twice"):
            runner([100], [0, 0.0], instances=1, r=1)

    @pytest.mark.parametrize("runner", [power_experiment, size_experiment])
    def test_untabulated_alpha_rejected_before_any_instance(self, monkeypatch, runner):
        def no_run(*args):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(experiments, "_fan_out", no_run)
        with pytest.raises(InvalidAlphaError, match="got 0.025"):
            runner([100], [0.0], instances=40, alpha=0.025, master_seed=1)

    def test_report_json_and_csv(self):
        report = power_experiment([100], [0.0], instances=3, master_seed=14)
        doc = json.loads(report.to_json())
        assert doc["kind"] == "power"
        assert doc["alpha"] == 0.05
        assert doc["instances"] == 3
        assert doc["stream_version"] == 4
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
        assert summary.to_dict()["metadata"]["rcm_divisor"] == "abs(mean)"

    def test_missing_cell_raises(self):
        summary = EffectsSummary(cells=(), instances=1, r=1, master_seed=0, rho_isolation=True)
        with pytest.raises(KeyError, match=r"no cell \(N=100, rho=0.0, k=12\)"):
            summary.cell(100, 0.0, 12)

    def test_no_feasible_cell_raises(self):
        for k_lists in ({25: (30, 40), 100: (200,)}, {100: ()}, {}):
            with pytest.raises(InvalidKError):
                EffectsConfig(k_lists=k_lists, rho_values=(0.0,), instances=4, r=2, master_seed=1)

    def test_k_below_two_rejected(self):
        # and k > N: the config is refused before any cell runs
        for k_lists in ({100: (1,)}, {100: (90, 150)}):
            with pytest.raises(InvalidKError, match=r"\[2, N\]"):
                EffectsConfig(k_lists=k_lists, rho_values=(0.0,), instances=1)

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
        # no seed path names an N, rho or k position, so in either mode the
        # other cells of a run, other lattices included, do not move a cell
        def run(k_lists, rho_values, isolation):
            config = EffectsConfig(k_lists=k_lists, rho_values=rho_values, instances=2, r=4,
                                   rho_isolation=isolation, master_seed=23)
            return effects_experiment(config)

        for isolation in (True, False):
            full = run({100: (12, 53, 90)}, (-0.9, 0.0, 0.9), isolation)
            for rho, k in ((0.9, 53), (0.0, 53), (0.9, 12)):
                alone = run({100: (k,)}, (rho,), isolation).cell(100, rho, k)
                assert full.cell(100, rho, k) == alone, (isolation, rho, k)
            with_25 = run({25: (3,), 100: (12, 53, 90)}, (-0.9, 0.0, 0.9), isolation)
            assert tuple(c for c in with_25.cells if c.n == 100) == full.cells, isolation

    @pytest.mark.parametrize("rho_values", [(0.9,), (-0.9, 0.0, 0.9)])
    def test_partitions_grown_once_per_instance_and_k(self, monkeypatch, rho_values):
        # instances x |ks| x r growths, whatever the number of rho levels
        grow, grown = experiments._grow, []

        def counting(w, k, bitgen, r):
            grown.extend([k] * r)
            return grow(w, k, bitgen, r)

        monkeypatch.setattr(experiments, "_grow", counting)
        config = EffectsConfig(k_lists={100: (12, 53, 90)}, rho_values=rho_values,
                               instances=2, r=3, master_seed=24)
        summary = effects_experiment(config)
        assert sorted(grown) == [12] * 6 + [53] * 6 + [90] * 6
        assert summary.to_dict()["metadata"]["stream_version"] == 4

    def test_repeated_rho_or_k_rejected(self):
        # a copy would be simulated again as a cell of its own, and
        # EffectsSummary.cell would only ever return the first
        for k_lists, rho_values, named in (({100: (12, 53, 12)}, (0.0,), "k=12 given twice for N=100"),
                                           ({100: (12,)}, (0.0, 0.9, 0.0), "rho=0.0 given twice")):
            with pytest.raises(RepeatedValueError, match=named):
                EffectsConfig(k_lists=k_lists, rho_values=rho_values, instances=1)

    def test_worker_independence(self):
        config = EffectsConfig(
            k_lists={100: (12, 90)}, rho_values=(0.0, 0.9),
            instances=2, r=5, master_seed=22,
        )
        a = effects_experiment(config, workers=1)
        b = effects_experiment(config, workers=2)
        assert a.to_json() == b.to_json()


class TestEffectsRows:
    """The effects harness scores all (field, repeat) rows of an (instance, k)
    in one array pass; each row is what the per-pair path gives."""

    @pytest.fixture(scope="class")
    def passes(self):
        # the inputs and results of every array pass of one effects instance
        seen = []

        def recording(values, labels, sizes):
            seen.append(((values, labels, sizes), _effects_rows(values, labels, sizes)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_effects_rows", recording)
            effects_experiment(EffectsConfig(k_lists={100: (12, 53, 90)}, rho_values=(-0.9, 0.0, 0.9),
                                             instances=1, r=5, master_seed=3))
        return seen

    def test_rows_equal_the_public_tests_bit_for_bit(self, passes):
        assert [sizes.shape for (_, _, sizes), _ in passes] == [(5, 12), (5, 53), (5, 90)]
        for (values, labels, sizes), (rcm_rows, rcv_rows, welch, levene) in passes:
            for (f, i), _ in np.ndenumerate(rcm_rows):
                y, means = values[f], np.bincount(labels[i], values[f]) / sizes[i]
                assert rcm_rows[f, i] == rcm(y, means)
                assert rcv_rows[f, i] == rcv(y, means)
                for batched, test in ((welch, welch_t_test), (levene, levene_test)):
                    out = test(y, means)
                    assert (batched.statistic[f, i], batched.p_value[f, i]) == (out.statistic, out.p_value)

    def test_rows_match_scipy(self, passes):
        for (values, labels, sizes), (_, _, welch, levene) in passes:
            for (f, i), _ in np.ndenumerate(welch.p_value):
                y, means = values[f], np.bincount(labels[i], values[f]) / sizes[i]
                for batched, ref in ((welch, scipy.stats.ttest_ind(y, means, equal_var=False)),
                                     (levene, scipy.stats.levene(y, means, center="mean"))):
                    assert batched.statistic[f, i] == pytest.approx(ref.statistic, rel=1e-10, abs=0.0)
                    assert batched.p_value[f, i] == pytest.approx(ref.pvalue, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("field", ["constant", "constant scores"])
    def test_a_degenerate_row_raises(self, passes, field):
        # a constant field has no spread against constant means (Welch); a
        # checkerboard of -1 and 1 on one-area regions has scores that are
        # all 1 in both groups (Levene)
        (values, labels, sizes), _ = passes[0]
        if field == "constant":
            values = np.vstack([values, np.full(values.shape[1], 2.5)])
        else:
            side = 10
            values = np.vstack([values, np.indices((side, side)).sum(axis=0).ravel() % 2 * 2.0 - 1.0])
            labels = np.tile(np.arange(side * side), (2, 1))
            sizes = np.ones((2, side * side), dtype=np.int64)
        public, message = (welch_t_test, "zero variance") if field == "constant" else (levene_test, "identical")
        with pytest.raises(DegenerateSampleError, match=message):
            _effects_rows(values, labels, sizes)
        y = values[-1]
        with pytest.raises(DegenerateSampleError, match=message):
            public(y, np.bincount(labels[0], y) / sizes[0])


def payload_sha256(result) -> str:
    doc = result.to_dict()
    del doc["toolkit_version"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


PINNED = {
    "null": (lambda: generate_null(100, 0.0, replicates=20, master_seed=1),
             "dd33855d0bc684a961b800bd23236e7895e99c50c1de9fdac19386db30d0257e"),
    "power": (lambda: power_experiment([100], [0.0], instances=15, master_seed=1),
              "99737556bf77b699e9d5f7f0847f47a3348a050221ab12eedd78e22f33da6dca"),
    "size": (lambda: size_experiment([100], [0.0], instances=20, master_seed=1),
             "3a7da43a0cf6c9346568dd3ddb4e966bd03496a03703f95f281035b596fc7964"),
    "effects": (lambda: effects_experiment(EffectsConfig(
        k_lists={100: (12, 53, 90)}, rho_values=(-0.9, 0.0, 0.9), instances=3, r=20,
        master_seed=1)),
        "3651e098ba799c2f657c19d1c3e39b8433d397f4481ccf790d961e9dddb48163"),
    # the null at rho != 0 solves its fields (a rho = 0 field is its raw innovations)
    "null-solved-100": (lambda: generate_null(100, 0.5, replicates=20, master_seed=1),
                        "c0599fbfe3daf0d9ccddf651f549f6ebd422cb19595f5631f77ffa8ecd268546"),
    "null-solved-400": (lambda: generate_null(400, 0.5, replicates=5, master_seed=1),
                        "c1b0444cbf091a4bf739d09b43cdccdf2a13bf27de01228aa717089688c492a1"),
}


@pytest.mark.parametrize("name, run, sha256", [(name, *PINNED[name]) for name in PINNED],
                         ids=list(PINNED))
def test_payload_bytes_pinned(name, run, sha256):
    # any change of a random stream or of a reported figure moves these digests
    assert payload_sha256(run()) == sha256, name


class TestProcessCaches:
    """One lattice per N and one (I - rho W) solver per (W, rho) per process."""

    def test_one_lattice_per_area_count(self):
        assert lattice_for_area_count(100) is lattice_for_area_count(100)
        assert lattice_for_area_count(400).n == 400

    def test_warm_caches_give_the_cold_bytes(self, monkeypatch):
        monkeypatch.setattr(sar, "_solvers", type(sar._solvers)())
        experiments._square_lattice.cache_clear()
        for name in ("null-solved-100", "effects"):
            run, sha256 = PINNED[name]
            assert payload_sha256(run()) == sha256, f"{name}, cold"
            assert payload_sha256(run()) == sha256, f"{name}, warm"
        assert len(sar._solvers) == 3  # rho 0.5, 0.9 and -0.9 on the one N = 100 lattice
        assert experiments._square_lattice.cache_info().currsize == 1
        # worker processes start from a copy of this one, caches included
        two_workers = (
            ("null-solved-100", generate_null(100, 0.5, replicates=20, master_seed=1, workers=2)),
            ("effects", effects_experiment(EffectsConfig(
                k_lists={100: (12, 53, 90)}, rho_values=(-0.9, 0.0, 0.9), instances=3, r=20,
                master_seed=1), workers=2)),
        )
        for name, result in two_workers:
            assert payload_sha256(result) == PINNED[name][1], f"{name}, 2 workers"

    def test_a_pickled_lattice_carries_no_solver(self):
        w = lattice_for_area_count(100)
        generate_null(100, 0.5, replicates=2, r=3, master_seed=1)
        blob = pickle.dumps(w)
        assert len(blob) < 8 * w.n * w.n  # one dense factor alone takes 8 n^2 bytes
        restored = pickle.loads(blob)
        assert restored == w
        assert not any(isinstance(v, np.ndarray) and v.ndim > 1 for v in restored.__dict__.values())
