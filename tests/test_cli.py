"""End-to-end tests of the command-line surface."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from smaup import NullDistribution, SpatialWeights, build_lattice_rook, smaup_test
from smaup.cli import main
from smaup.sar import area_variable_from_csv


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def weights_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(build_lattice_rook(10, 10).to_json())
    return str(path)


@pytest.fixture()
def values_file(tmp_path, weights_file, capsys):
    path = tmp_path / "y.csv"
    code = main(["simulate", "--weights", weights_file, "--rho", "0.0",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return str(path)


class TestWeightsCommand:
    def test_lattice_summary_and_file(self, tmp_path, capsys):
        out_file = tmp_path / "w.json"
        code, out, err = run(["weights", "--lattice", "3", "3", "--out", str(out_file)], capsys)
        assert code == 0
        assert "n=9" in out
        assert "edges=12" in out
        assert "connected=True" in out
        w = SpatialWeights.from_dict(json.loads(out_file.read_text()))
        assert w == build_lattice_rook(3, 3)

    def test_adjacency_self_loop_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.txt"
        bad.write_text("0: 1\n1: 0 1\n")
        code, out, err = run(["weights", "--adjacency", str(bad)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_geojson_2x2_block(self, tmp_path, capsys):
        squares = []
        for r in range(2):
            for c in range(2):
                squares.append({
                    "type": "Feature",
                    "geometry": {"type": "Polygon", "coordinates": [[
                        [c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r],
                    ]]},
                })
        path = tmp_path / "sq.json"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": squares}))
        out_file = tmp_path / "w.json"
        code, out, err = run(["weights", "--geojson", str(path), "--out", str(out_file)], capsys)
        assert code == 0
        assert "n=4" in out
        assert "edges=4" in out

    def test_requires_exactly_one_source(self, capsys):
        code, out, err = run(["weights"], capsys)
        assert code == 2


class TestSimulateCommand:
    def test_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(["simulate", "--lattice", "10", "10", "--rho", "0.9",
                              "--seed", "7", "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_parses_back(self, tmp_path, weights_file, capsys):
        path = tmp_path / "y.csv"
        run(["simulate", "--weights", weights_file, "--rho", "0.5", "--seed", "1",
             "--out", str(path)], capsys)
        w = SpatialWeights.from_json(open(weights_file).read())
        y = area_variable_from_csv(path.read_text(), w)
        assert y.n == 100

    def test_metadata_embedded(self, tmp_path, weights_file, capsys):
        path = tmp_path / "y.csv"
        run(["simulate", "--weights", weights_file, "--rho", "0.5", "--seed", "9",
             "--out", str(path)], capsys)
        head = path.read_text().splitlines()[0]
        assert head.startswith("#")
        assert "master_seed=9" in head
        assert "config_hash=" in head

    def test_without_weights_exit_2(self, capsys):
        code, out, err = run(["simulate", "--rho", "0.5", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "--weights FILE or --lattice R C" in err


class TestAreaSources:
    """weights, simulate and null each take exactly one of their area sources."""

    @pytest.mark.parametrize("args", [
        ["null", "--n", "100", "--lattice", "5", "5", "--rho", "0", "--replicates", "2", "--r", "3",
         "--seed", "1", "--workers", "1"],
        ["simulate", "--weights", "W16", "--lattice", "10", "10", "--rho", "0", "--seed", "1"],
        ["null", "--lattice", "10", "10", "--weights", "W16", "--rho", "0", "--replicates", "2",
         "--r", "3", "--seed", "1", "--workers", "1"],
    ], ids=["null-n-lattice", "simulate-weights-lattice", "null-lattice-weights"])
    def test_two_sources_exit_2(self, tmp_path, capsys, args):
        w16 = tmp_path / "w16.json"
        w16.write_text(build_lattice_rook(4, 4).to_json())
        out = tmp_path / "out"
        code, stdout, err = run([str(w16) if a == "W16" else a for a in args] + ["--out", str(out)],
                                capsys)
        assert code == 2
        assert stdout == ""
        assert "pass exactly one of" in err
        assert not out.exists()

    def test_message_names_the_commands_own_sources(self, capsys):
        code, _, err = run(["null", "--rho", "0", "--replicates", "2", "--seed", "1",
                            "--workers", "1"], capsys)
        assert code == 2
        assert "pass exactly one of --n N, --weights FILE or --lattice R C" in err


class TestPermuteAndAggregate:
    def test_permute_rho_preserves_multiset(self, tmp_path, weights_file, values_file, capsys):
        out = tmp_path / "p.csv"
        code, _, _ = run(["permute-rho", "--values", values_file, "--weights", weights_file,
                          "--target", "0.0", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        w = SpatialWeights.from_json(open(weights_file).read())
        orig = area_variable_from_csv(open(values_file).read(), w)
        perm = area_variable_from_csv(out.read_text(), w)
        assert np.array_equal(np.sort(perm.values), np.sort(orig.values))

    def test_aggregate_outputs(self, tmp_path, weights_file, values_file, capsys):
        regions_out = tmp_path / "r.csv"
        means_out = tmp_path / "m.csv"
        code, _, _ = run(["aggregate", "--values", values_file, "--weights", weights_file,
                          "--k", "7", "--seed", "2", "--regions-out", str(regions_out),
                          "--out", str(means_out)], capsys)
        assert code == 0
        region_rows = [ln for ln in regions_out.read_text().splitlines()
                       if ln and not ln.startswith("#")]
        assert region_rows[0] == "area_id,region_id"
        assert len(region_rows) == 101
        mean_rows = [ln for ln in means_out.read_text().splitlines()
                     if ln and not ln.startswith("#")]
        assert mean_rows[0] == "region_id,mean,size"
        assert len(mean_rows) == 8


class TestTestCommand:
    def test_k_equals_n_not_rejected(self, weights_file, values_file, capsys):
        code, out, err = run(["test", "--values", values_file, "--weights", weights_file,
                              "--k", "100"], capsys)
        assert code == 0
        assert "not rejected" in out

    def test_small_k_compares_against_published_value(self, weights_file, values_file, capsys):
        code, out, err = run(["test", "--values", values_file, "--weights", weights_file,
                              "--k", "10", "--rho", "0.0"], capsys)
        assert code == 0
        assert "0.15746" in out
        assert "rejected" in out

    def test_null_file_gives_pseudo_p(self, tmp_path, weights_file, values_file, capsys):
        null_path = tmp_path / "null.json"
        nd = NullDistribution(n=100, rho=0.0, values=np.array([0.1, 0.2, 0.3, 0.4]),
                              replicates=4)
        null_path.write_text(nd.to_json())
        code, out, err = run(["test", "--values", values_file, "--weights", weights_file,
                              "--k", "50", "--null", str(null_path), "--json",
                              str(tmp_path / "res.json")], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "res.json").read_text())
        assert 0.0 <= doc["pseudo_p"] <= 1.0

    def test_rejects_follows_null_like_the_verdict(self, tmp_path, weights_file, values_file,
                                                   capsys):
        # M clears the tabulated 5% critical value but sits mid-null (pseudo-p 0.55)
        nd = NullDistribution(n=100, rho=0.0, values=np.linspace(0.2, 0.9, 20), replicates=20)
        null_path = tmp_path / "null.json"
        null_path.write_text(nd.to_json())
        code, out, err = run(["test", "--values", values_file, "--weights", weights_file,
                              "--k", "30", "--null", str(null_path)], capsys)
        assert code == 0
        assert "not rejected at alpha=0.05" in out
        w = build_lattice_rook(10, 10)
        y = area_variable_from_csv(open(values_file).read(), w)
        result = smaup_test(y, w, k=30, null=nd)
        assert result.decision[0.05] is True
        assert result.pseudo_p == pytest.approx(0.55)
        assert result.rejects(0.05) is False
        assert smaup_test(y, w, k=30).rejects(0.05) is True

    def test_stars_follow_the_verdict(self, tmp_path, weights_file, values_file, capsys):
        # same reproduction: M clears every tabulated critical value, pseudo-p is 0.55
        nd = NullDistribution(n=100, rho=0.0, values=np.linspace(0.2, 0.9, 20), replicates=20)
        null_path = tmp_path / "null.json"
        null_path.write_text(nd.to_json())
        common = ["--values", values_file, "--weights", weights_file]
        code, out, _ = run(["test", *common, "--k", "30", "--null", str(null_path)], capsys)
        assert code == 0
        assert "not rejected" in out and "*" not in out
        code, out, _ = run(["test", *common, "--k", "30"], capsys)
        assert code == 0
        assert "***" in out and "not rejected" not in out
        scan = ["scan", *common, "--k-min", "28", "--k-max", "32"]
        code, out, _ = run([*scan, "--null", str(null_path)], capsys)
        assert code == 0
        rows = out.splitlines()[1:6]
        assert all("not-reject" in row and "*" not in row for row in rows)
        code, out, _ = run(scan, capsys)
        assert code == 0
        rows = out.splitlines()[1:6]
        assert all(row.split()[-2:] == ["reject", "***"] for row in rows)

    def test_shape_mismatch_exit_2(self, tmp_path, weights_file, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("value\n1.0\n2.0\n")
        code, out, err = run(["test", "--values", str(bad), "--weights", weights_file,
                              "--k", "10"], capsys)
        assert code == 2

    def test_degenerate_values_exit_3(self, tmp_path, weights_file, capsys):
        constant = tmp_path / "flat.csv"
        constant.write_text("value\n" + "1.0\n" * 100)
        code, out, err = run(["test", "--values", str(constant), "--weights", weights_file,
                              "--k", "10"], capsys)
        assert code == 3
        assert "constant" in err

    def test_non_finite_values_exit_2(self, tmp_path, weights_file, values_file, capsys):
        lines = open(values_file).read().splitlines()
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines[:-1] + ["nan"]) + "\n")
        code, out, err = run(["test", "--values", str(bad), "--weights", weights_file,
                              "--k", "10"], capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("command", [["test", "--k", "30"], ["scan", "--k-min", "28"]],
                             ids=["test", "scan"])
    @pytest.mark.parametrize("rho", ["nan", "inf", "1.0", "-3"])
    def test_rho_outside_the_unit_interval_exit_3(self, tmp_path, weights_file, values_file,
                                                  capsys, command, rho):
        # a rho SarSpec refuses is refused here too, before any table or verdict
        nd = NullDistribution(n=100, rho=0.0, values=np.linspace(0.01, 0.4, 20), replicates=20)
        null_path = tmp_path / "null.json"
        null_path.write_text(nd.to_json())
        code, out, err = run([*command, "--values", values_file, "--weights", weights_file,
                              "--null", str(null_path), f"--rho={rho}"], capsys)
        assert code == 3
        assert out == ""
        assert "|rho| must be < 1" in err

    def test_null_for_another_n_exit_2(self, tmp_path, weights_file, values_file, capsys):
        null_path = tmp_path / "null25.json"
        nd = NullDistribution(n=25, rho=0.0, values=np.array([0.1, 0.2, 0.3, 0.4]),
                              replicates=4)
        null_path.write_text(nd.to_json())
        code, out, err = run(["test", "--values", values_file, "--weights", weights_file,
                              "--k", "50", "--null", str(null_path)], capsys)
        assert code == 2
        assert "N=25" in err

    def test_null_for_another_rho_warns(self, tmp_path, weights_file, values_file, capsys):
        # the values field estimates rho at -0.28, in the table's -0.3 cell
        null_path = tmp_path / "null09.json"
        nd = NullDistribution(n=100, rho=0.9, values=np.linspace(0.2, 0.9, 20), replicates=20)
        null_path.write_text(nd.to_json())
        common = ["--values", values_file, "--weights", weights_file, "--null", str(null_path)]
        for args in (["test", *common, "--k", "30"], ["scan", *common, "--k-min", "28"]):
            with pytest.warns(UserWarning, match=r"rho=0\.9 .*-0\.28"):
                code, out, _ = run(args, capsys)
            assert code == 0


class TestScanCommand:
    def test_verdict_matches_brute_force(self, weights_file, values_file, capsys):
        from smaup import estimate_rho, smaup_test
        code, out, err = run(["scan", "--values", values_file, "--weights", weights_file,
                              "--k-min", "40", "--k-max", "100"], capsys)
        assert code == 0
        w = SpatialWeights.from_json(open(weights_file).read())
        y = area_variable_from_csv(open(values_file).read(), w)
        rho_hat = estimate_rho(w, y)
        oracle = None
        for k in range(100, 39, -1):
            if smaup_test(y, w, k, rho=rho_hat).decision[0.05]:
                break
            oracle = k
        if oracle is None:
            assert "no safe k" in out
        else:
            assert f"minimum safe k: {oracle}" in out

    def test_all_rejecting_range_reports_no_safe_k(self, weights_file, values_file, capsys):
        code, out, err = run(["scan", "--values", values_file, "--weights", weights_file,
                              "--k-min", "11", "--k-max", "30"], capsys)
        assert code == 0
        assert "no safe k" in out

    def test_scan_with_null_shows_pseudo_p_column(self, tmp_path, weights_file, values_file, capsys):
        null_path = tmp_path / "null.json"
        nd = NullDistribution(n=100, rho=0.0, values=np.array([0.05, 0.1, 0.2, 0.4]),
                              replicates=4)
        null_path.write_text(nd.to_json())
        code, out, err = run(["scan", "--values", values_file, "--weights", weights_file,
                              "--k-min", "90", "--k-max", "100", "--null", str(null_path)],
                             capsys)
        assert code == 0
        assert "pseudo-p" in out
        assert "minimum safe k" in out or "no safe k" in out


class TestExperimentsCommands:
    def test_null_command_sorted_values(self, tmp_path, capsys):
        out = tmp_path / "null.json"
        code, _, _ = run(["null", "--n", "100", "--rho", "0", "--replicates", "10",
                          "--seed", "1", "--workers", "1", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["values"]) == 10
        assert doc["values"] == sorted(doc["values"])
        assert doc["master_seed"] == 1

    def test_power_worker_independence(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "3"):
            path = tmp_path / f"p{workers}.json"
            code, _, _ = run(["power", "--n", "100", "--rhos", "0", "--instances", "8",
                              "--alpha", "0.05", "--seed", "4", "--workers", workers,
                              "--out", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_size_csv_format(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        code, _, _ = run(["size", "--n", "100", "--rhos", "0", "--instances", "4",
                          "--seed", "5", "--workers", "1", "--format", "csv",
                          "--out", str(path)], capsys)
        assert code == 0
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "rho,k_or_N,metric,value"
        assert lines[1].startswith("0.0,100,size,")

    def test_effects_command(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        code, _, _ = run(["effects", "--cell", "100:12,90", "--rhos=-0.9,0.9",
                          "--instances", "2", "--r", "5", "--seed", "6",
                          "--workers", "1", "--out", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["cells"]) == 4

    def test_effects_without_feasible_cell_exit_2(self, capsys):
        code, out, err = run(["effects", "--cell", "100:200", "--instances", "4",
                              "--seed", "1", "--workers", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "k must lie in [2, N]" in err

    def test_effects_partly_infeasible_exit_2(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code, _, err = run(["effects", "--cell", "100:12,53,90", "--cell", "400:500",
                            "--instances", "2", "--r", "3", "--seed", "1", "--workers", "1",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "(N=400, k=500)" in err
        assert not out.exists()

    def test_effects_repeated_cell_exit_2(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        code, _, err = run(["effects", "--cell", "100:12", "--cell", "100:90", "--rhos=0",
                            "--instances", "1", "--r", "3", "--seed", "1", "--workers", "1",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "N=100 given twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["size", "--n", "100,100", "--rhos=0"], "N=100 given twice"),
        (["power", "--n", "100", "--rhos=0,0.5,0"], "rho=0.0 given twice"),
        (["effects", "--cell", "100:12,12", "--rhos=0"], "k=12 given twice for N=100"),
        (["effects", "--cell", "100:12", "--rhos=0,-0.0"], "rho=-0.0 given twice"),
    ], ids=["size-n", "power-rho", "effects-k", "effects-rho"])
    def test_repeated_value_exit_2(self, monkeypatch, tmp_path, capsys, args, named):
        # a repeated N, rho or k used to be simulated once per copy
        from smaup import experiments

        def no_run(*_):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_fan_out", no_run)
        out = tmp_path / "o.json"
        code, _, err = run([*args, "--instances", "1", "--r", "1", "--seed", "1",
                            "--workers", "1", "--out", str(out)], capsys)
        assert code == 2
        assert named in err
        assert not out.exists()

    def test_stall_exit_4(self, monkeypatch, capsys):
        from smaup import experiments

        monkeypatch.setattr(experiments, "_STALL_TRIALS", 0)
        code, out, err = run(["null", "--n", "100", "--rho", "0", "--replicates", "1",
                              "--seed", "1", "--workers", "1"], capsys)
        assert code == 4
        assert out == ""
        assert "acceptance rate below 1e-4" in err

    def test_null_on_lattice_or_weights_equals_area_count(self, tmp_path, weights_file, capsys):
        def values(*source):
            path = tmp_path / "null.json"
            code, _, _ = run(["null", *source, "--rho", "0", "--replicates", "3", "--r", "5",
                              "--seed", "1", "--workers", "1", "--out", str(path)], capsys)
            assert code == 0
            return json.loads(path.read_text())["values"]

        expected = values("--n", "100")
        assert values("--lattice", "10", "10") == expected
        assert values("--weights", weights_file) == expected

    def test_effects_bad_cell_spec_exit_2(self, capsys):
        code, out, err = run(["effects", "--cell", "100", "--instances", "1",
                              "--seed", "1", "--workers", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args, message", [
        (["null", "--n", "100", "--rho", "0", "--replicates", "3", "--r", "0"], "r must be >= 1"),
        (["size", "--n", "100", "--rhos=0", "--instances", "2", "--r", "-1"], "r must be >= 1"),
        (["power", "--n", "100", "--rhos=0", "--instances", "0"], "at least 1 instance"),
        (["effects", "--cell", "100:12", "--instances", "1", "--r", "0"], "r must be >= 1"),
    ], ids=["null-r-0", "size-r-negative", "power-instances-0", "effects-r-0"])
    def test_empty_run_is_usage_error(self, tmp_path, capsys, args, message):
        # zero aggregations would accept every instance unfiltered, zero
        # instances would divide by zero: both are input faults
        out = tmp_path / "out.json"
        code, _, err = run(args + ["--seed", "1", "--workers", "1", "--out", str(out)], capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_bad_workers_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SMAUP_WORKERS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        args = ["null", "--n", "100", "--rho", "0", "--replicates", "1", "--seed", "1",
                "--out", str(tmp_path / "null.json")]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert "SMAUP_WORKERS" in capsys.readouterr().err
        # an explicit --workers overrides the environment
        assert main(args + ["--workers", "1"]) == 0


class TestExportCommand:
    def test_export_162_rows_with_published_digits(self, tmp_path, capsys):
        path = tmp_path / "cv.csv"
        code, _, _ = run(["export-critical-values", "--out", str(path)], capsys)
        assert code == 0
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 163  # header + 162 entries
        body = "\n".join(lines)
        assert "0.0,100,0.05,0.15746" in body
        assert "-0.9,25,0.01,0.83702" in body


INPUTS = ["--values", "y.csv", "--weights", "w.json"]
RUN = ["--seed", "1", "--workers", "1"]
SMALL_CELLS = ["--n", "100", "--rhos=0", "--instances", "2", "--r", "5", *RUN]
EFFECTS = ["effects", "--cell", "100:12,90", "--rhos=-0.9,0.9", "--instances", "1", "--r", "3",
           *RUN]
# the inputs every case reads, made by the commands under test
SETUP = [
    ["weights", "--lattice", "10", "10", "--out", "w.json"],
    ["simulate", "--weights", "w.json", "--rho", "0.5", "--seed", "3", "--out", "y.csv"],
    ["null", "--n", "100", "--rho", "0", "--replicates", "4", "--r", "5", *RUN,
     "--out", "null.json"],
]
# SHA-256 of every artifact each command writes
ARTIFACTS = {
    "weights": (SETUP[0], {
        "w.json": "e9673ab8040a8a23f42a8c5a317414e97ba1e57d09a22bbf39987cdd8254151e"}),
    "weights-adjacency-raw": (["weights", "--adjacency", "adj.txt", "--raw", "--out", "a.json"], {
        "a.json": "5641a6f6f6c9e443fed75bf81ba6091243171b00f8c42819af670f4040dcb48f"}),
    "simulate": (SETUP[1], {
        "y.csv": "97452ce34f169fa6078954daf6f5a419baecbf241ed8b74285c6881ce4cb8a1e"}),
    "permute-rho": (["permute-rho", *INPUTS, "--target", "0.0", "--seed", "5", "--out", "p.csv"], {
        "p.csv": "e32e65cab509aab383ea690883997ab54fa210e90d0e0e385cb2ac925f6cecca"}),
    "aggregate": (["aggregate", *INPUTS, "--k", "7", "--seed", "2", "--regions-out", "r.csv",
                   "--out", "m.csv"], {
        "r.csv": "b7086f0e065099b22fd9f4f44222c8b890f588764b9bea271e925eeb1d9c23cc",
        "m.csv": "77c2e5165a96b6a0c2506ee193ebbf3768f677ce3d937afb90c0bf2692fc9427"}),
    "test-json": (["test", *INPUTS, "--k", "30", "--json", "t.json"], {
        "t.json": "d7fe717ec06aef79fd53f3910c68e4545bf777f6a3c2f426be1ad481ecd38a48"}),
    "test-null-json": (["test", *INPUTS, "--k", "30", "--rho", "0", "--null", "null.json",
                        "--json", "t.json"], {
        "t.json": "f6d48a7714f9587aeaaa35197094ad035afbfe94ef0c51df694a70a54e3a7c07"}),
    "scan-json": (["scan", *INPUTS, "--k-min", "28", "--k-max", "32", "--json", "s.json"], {
        "s.json": "77bf2424c501b8c5e50a2cf9c03bc35c2050879c2fa73b95d380736bdd7520b1"}),
    "null": (SETUP[2], {
        "null.json": "0d7cd8c832842cc74713e4077ca93cf6c1170a539e4c8169de98f0393772ca5f"}),
    "power-json": (["power", *SMALL_CELLS, "--out", "o.json"], {
        "o.json": "d07fa1cc4cf6e9921869823ceeada4752a3a2f37db0889cf66ad8e01f30d6973"}),
    "power-csv": (["power", *SMALL_CELLS, "--format", "csv", "--out", "o.csv"], {
        "o.csv": "855e6b17e027a0c62a3739e3a7054cff3ecce1186044742c7cb92f229e10cf39"}),
    "size-json": (["size", *SMALL_CELLS, "--out", "o.json"], {
        "o.json": "66119a964d849e6b60bac9e1680c276d3a85df733597d971d02325a6d8fca2f5"}),
    "size-csv": (["size", *SMALL_CELLS, "--format", "csv", "--out", "o.csv"], {
        "o.csv": "50e650ae52600f9583ec526d0c5a7558b314664b77ec0bb0b75a9daf5a95fe28"}),
    "effects-json": ([*EFFECTS, "--out", "o.json"], {
        "o.json": "cc35803906afe1bf387feb137c77b6b009f5034bd4f36749ade30944b6a95284"}),
    "effects-csv": ([*EFFECTS, "--format", "csv", "--out", "o.csv"], {
        "o.csv": "a1dfeffaa75724e8723b0a97f7b695e179f8c8c5cfc9fbc00bd488f35bba959e"}),
    "export-critical-values": (["export-critical-values", "--out", "cv.csv"], {
        "cv.csv": "4a8d87cbd1dd59bf3a02ba75ccf3a3a99efb77e8fa362cc48f9610df24d189e5"}),
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    # every case runs in a directory of its own, on inputs made by the
    # commands under test; config_hash reads the input files by content
    monkeypatch.chdir(tmp_path)
    Path("adj.txt").write_text("0: 1 2\n1: 0 3\n2: 0 3\n3: 1 2\n")
    for args in SETUP:
        assert main(args) == 0
    capsys.readouterr()
    return tmp_path


class TestArtifacts:
    @pytest.mark.parametrize("case", list(ARTIFACTS))
    def test_bytes_pinned(self, workdir, case):
        args, expected = ARTIFACTS[case]
        assert main(args) == 0
        written = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in expected}
        assert written == expected

    def test_config_hash_reads_inputs_by_content(self, workdir):
        def stamp(values, weights):
            assert main(["test", "--values", values, "--weights", weights,
                         "--k", "30", "--json", "t.json"]) == 0
            return json.loads(Path("t.json").read_text())["config_hash"]

        plain = stamp("y.csv", "w.json")
        assert stamp("./y.csv", str(workdir / "w.json")) == plain
        data = bytearray(Path("y.csv").read_bytes())
        last_digit = max(data.rfind(digit) for digit in b"0123456789")
        data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
        Path("y.csv").write_bytes(bytes(data))
        assert stamp("y.csv", "w.json") != plain

    @pytest.mark.parametrize("args", [
        ["weights", "--lattice", "3", "3", "--out"],
        ["simulate", "--lattice", "3", "3", "--rho", "0.5", "--seed", "1", "--out"],
        ["test", *INPUTS, "--k", "30", "--json"],
        ["scan", *INPUTS, "--k-min", "28", "--k-max", "32", "--json"],
    ], ids=["weights", "simulate", "test", "scan"])
    def test_dash_means_stdout(self, workdir, capsys, args):
        assert main([*args, "artifact"]) == 0
        to_file = capsys.readouterr()
        assert main([*args, "-"]) == 0
        to_stdout = capsys.readouterr()
        artifact = Path("artifact").read_text()
        assert not Path("-").exists()
        # tables print before the artifact; the weights summary moves to stderr
        printed = "" if args[0] == "weights" else to_file.out
        assert to_stdout.out == printed + artifact
        assert ("connected=True" in to_stdout.err) == (args[0] == "weights")
