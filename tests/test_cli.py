import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lpw
from lpw import cli, verify
from lpw.cli import _read_sequence, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExponentsCommand:
    def test_ns_worked_values(self, capsys):
        code, out = run_cli(capsys, "exponents", "--n", "4", "--alpha", "2",
                            "--beta", "0", "--gamma", "1", "--s", "1", "--p", "2")
        assert code == 0
        data = json.loads(out)
        assert data["q"] == 4.0
        assert data["epsilon"] == 0.5
        assert data["theta"] == 0.45
        assert data["hypotheses"]["ok"] is True

    def test_violation_exits_2(self, capsys):
        code, out = run_cli(capsys, "exponents", "--n", "4", "--alpha", "2",
                            "--beta", "1", "--gamma", "1", "--s", "1.2", "--p", "2")
        assert code == 2
        data = json.loads(out)
        assert "order-gap" in data["hypotheses"]["violations"]

    def test_explicit_lifted_pair(self, capsys):
        code, out = run_cli(capsys, "exponents", "--n", "4", "--alpha", "2",
                            "--beta", "0", "--gamma", "1", "--s", "1", "--p", "2",
                            "--sigma", "1.5", "--r", "1.6")
        assert code == 0
        data = json.loads(out)
        assert data["sigma"] == 1.5 and data["r"] == 1.6
        assert data["epsilon"] == 0.5 and data["theta"] == 0.45

    @pytest.mark.parametrize("lift, flag", [
        (("--sigma", "1.2"), "--r"), (("--r", "3"), "--sigma"),
        (("--sigma", "nan", "--r", "nan"), "--sigma"), (("--sigma", "inf", "--r", "2"), "--sigma"),
        (("--sigma", "1.5", "--r", "nan"), "--r"), (("--sigma", "1.5", "--r", "inf"), "--r"),
        (("--sigma", "1.5", "--r", "1"), "--r"), (("--sigma", "1.5", "--r", "-2"), "--r")],
        ids=["sigma-alone", "r-alone", "both-nan", "sigma-inf", "r-nan", "r-inf", "r-one",
             "r-negative"])
    def test_bad_lift_flags_exit_2(self, capsys, lift, flag):
        code, out = run_cli(capsys, "exponents", "--n", "4", "--alpha", "2", "--beta", "0",
                            "--gamma", "1", "--s", "1", "--p", "2", *lift)
        assert code == 2
        assert flag in json.loads(out)["error"]


class TestIterateCommand:
    def test_holds_and_bound(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        lines = ["j,value"] + [f"{k},{0.5 ** k}" for k in range(32)]
        path.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.2")
        assert code == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["M"] == 1.0
        assert data["M_from_S"] == 1.0

    def test_violation_exits_1(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(str(1.0) for _ in range(48)) + "\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.01")
        assert code == 1
        data = json.loads(out)
        assert data["holds"] is False
        assert isinstance(data["first_violation"], int)

    def test_bad_delta_exits_2(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("1.0\n0.5\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.4")
        assert code == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_eps_exits_2_naming_eps(self, capsys, tmp_path, eps):
        path = tmp_path / "seq.csv"
        path.write_text("1.0\n0.5\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", eps, "--delta", "0.1")
        assert code == 2
        assert json.loads(out)["error"] == f"eps must be finite and positive, got {eps}"

    @pytest.mark.parametrize("bad", ["-1.0", "nan", "inf"])
    def test_invalid_value_exits_2_naming_path_and_line(self, capsys, tmp_path, bad):
        path = tmp_path / "seq.csv"
        path.write_text(f"k,a_k\n0,1.0\n1,{bad}\n2,0.1\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.2")
        assert code == 2
        assert f"{path} line 3: '{bad}'" in json.loads(out)["error"]

    @pytest.mark.parametrize("text", ["k,a_k\n", "", "\n\n"])
    def test_no_values_exits_2_naming_path(self, capsys, tmp_path, text):
        path = tmp_path / "seq.csv"
        path.write_text(text)
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.2")
        assert code == 2
        assert json.loads(out)["error"] == f"{path} holds no values"

    def test_non_numeric_row_after_header_exits_2(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("0,1.0\n1,0.4\n2,oops\n3,0.05\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.2")
        assert code == 2
        assert "line 3" in json.loads(out)["error"]

    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=20), st.booleans(),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_read_sequence_round_trips(self, values, header, data):
        lines = ["k,a_k"] * header + [f"{k},{v!r}" for k, v in enumerate(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.csv"
            path.write_text("\n".join(lines) + "\n")
            assert _read_sequence(str(path)).values.tolist() == values
            if len(lines) > 1:
                # a word no float() reads, on any line after the first, is named by its line
                bad = data.draw(st.integers(1, len(lines) - 1))
                lines[bad] = "0," + data.draw(st.text("abcdxyz", min_size=1))
                path.write_text("\n".join(lines) + "\n")
                with pytest.raises(ValueError, match=f"line {bad + 1}:"):
                    _read_sequence(str(path))

    def test_S_beyond_K_exits_2(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("k,a\n0,1.0\n1,0.4\n2,0.1\n3,0.05\n")
        code, out = run_cli(capsys, "iterate", "--csv", str(path),
                            "--eps", "1.0", "--delta", "0.2", "--S", "9")
        assert code == 2
        err = json.loads(out)["error"]
        assert "S=9" in err and "K=3" in err


class TestPaths:
    """A path that cannot be read or written exits 2, naming the path."""

    def _error(self, capsys, *argv) -> str:
        code, out = run_cli(capsys, *argv)
        assert code == 2
        return json.loads(out)["error"]

    def test_missing_csv(self, capsys, tmp_path):
        path = str(tmp_path / "missing.csv")
        assert path in self._error(capsys, "iterate", "--csv", path, "--eps", "1", "--delta", "0.2")

    def test_csv_is_a_directory(self, capsys, tmp_path):
        assert str(tmp_path) in self._error(capsys, "iterate", "--csv", str(tmp_path),
                                            "--eps", "1", "--delta", "0.2")

    def test_out_in_missing_directory(self, capsys, tmp_path, monkeypatch):
        seq = tmp_path / "seq.csv"
        seq.write_text("1.0\n0.5\n")
        out = str(tmp_path / "nosuch" / "out.json")
        assert out in self._error(capsys, "iterate", "--csv", str(seq), "--eps", "1",
                                  "--delta", "0.2", "--out", out)

        def unreachable(n=2, N=512, seed=1):
            raise AssertionError("the bundle ran before the path was checked")

        monkeypatch.setitem(cli.VERIFIERS, "partition", unreachable)
        assert out in self._error(capsys, "verify", "partition", "--n", "1", "--N", "64",
                                  "--out", out)

    def test_probe_csv_in_missing_directory(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the probe ran before the path was checked")

        monkeypatch.setattr(cli, "run_probe", unreachable)
        out = str(tmp_path / "nosuch" / "a_k.csv")
        for flag in ("--csv", "--out"):
            assert out in self._error(capsys, "probe", "--equation", "biharmonic",
                                      "--grid", "2,256", "--seed", "9", flag, out)


class TestVerifyCommand:
    def test_partition_small_grid(self, capsys):
        code, out = run_cli(capsys, "verify", "partition", "--n", "2", "--N", "128")
        assert code == 0
        data = json.loads(out)
        assert data["max_deviation"] <= 1e-14
        assert data["passed"] is True

    def test_unknown_verifier_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sharpness"])
        assert exc.value.code == 2

    def test_apbound_small_grid_override(self, capsys):
        code, out = run_cli(capsys, "verify", "apbound", "--N", "2048")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True

    def test_commutator_needs_enough_shells(self, capsys):
        code, out = run_cli(capsys, "verify", "commutator", "--N", "4096")
        assert code == 2
        assert "shells" in json.loads(out)["error"]

    def test_commutator_rejects_n_before_the_partition(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the partition was built for too few shells")

        monkeypatch.setattr(verify, "build_partition", unreachable)
        with pytest.raises(ValueError, match="N=4096 leaves only 1 shells above k=10"):
            verify.verify_commutator(N=4096)

    @pytest.mark.parametrize("name", sorted(cli.VERIFIERS))
    def test_seed_is_passed_only_when_given(self, capsys, monkeypatch, name):
        # without --seed each bundle runs at its own default seed
        calls = []

        def stub(**kwargs):
            calls.append(kwargs)
            return {"passed": True}

        stub.__signature__ = inspect.signature(cli.VERIFIERS[name])
        monkeypatch.setitem(cli.VERIFIERS, name, stub)
        assert run_cli(capsys, "verify", name)[0] == 0
        assert run_cli(capsys, "verify", name, "--seed", "3")[0] == 0
        assert calls == [{}, {"seed": 3}]

    @pytest.mark.parametrize("N", ["16", "32"])
    def test_apbound_needs_enough_shells(self, capsys, N):
        # N = 16 leaves the one shell k = 2, whose spread is 1 by construction
        code, out = run_cli(capsys, "verify", "apbound", "--N", N)
        assert code == 2
        assert f"N={N}" in json.loads(out)["error"]

    @pytest.mark.parametrize("N", ["64", "128"])
    def test_bernstein_needs_shell_7(self, capsys, N):
        code, out = run_cli(capsys, "verify", "bernstein", "--N", N)
        assert code == 2
        error = json.loads(out)["error"]
        assert f"N={N}" in error and "N >= 256" in error

    def test_bernstein_runs_at_512(self, capsys):
        code, out = run_cli(capsys, "verify", "bernstein", "--N", "512")
        assert code == 0
        assert json.loads(out)["N"] == 512

    def test_mapping_verifier(self, capsys):
        code, out = run_cli(capsys, "verify", "mapping", "--N", "2048")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all(v["spread"] <= 10.0 for v in data["symbols"].values())

    @pytest.mark.parametrize("what, flag, value", [("paraproduct", "--N", "64"),
                                                     ("apbound", "--n", "3")])
    def test_flag_the_bundle_does_not_take_exits_2(self, capsys, what, flag, value):
        code, out = run_cli(capsys, "verify", what, flag, value)
        assert code == 2
        assert flag in json.loads(out)["error"]

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "verify", "partition", "--n", "1", "--N", "64",
                          "--seed", "5")
        _, out2 = run_cli(capsys, "verify", "partition", "--n", "1", "--N", "64",
                          "--seed", "5")
        assert out1 == out2


class TestProbeCommand:
    def test_violating_inputs_exit_2(self, capsys):
        code, out = run_cli(capsys, "probe", "--equation", "ns",
                            "--grid", "2,256", "--s", "0.5", "--p", "2")
        assert code == 2
        assert "smoothness-lower" in out

    def test_full_run_writes_artifacts(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "a_k.csv"
        code, out = run_cli(capsys, "probe", "--equation", "biharmonic",
                            "--grid", "2,256", "--seed", "7",
                            "--out", str(out_json), "--csv", str(out_csv))
        assert code == 0
        data = json.loads(out_json.read_text())
        for key in ("params", "gains", "a_k", "fit", "pass"):
            assert key in data
        assert data["pass"] is True
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "k,a_k"
        assert len(rows) == len(data["a_k"]) + 1

    def test_csv_feeds_iterate(self, capsys, tmp_path):
        # the probe's a_k column is what `iterate` reads: a verdict, never a usage error
        out_csv = tmp_path / "p.csv"
        code, _ = run_cli(capsys, "probe", "--equation", "biharmonic", "--grid", "2,256",
                          "--seed", "9", "--csv", str(out_csv))
        assert code in (0, 1)
        code, out = run_cli(capsys, "iterate", "--csv", str(out_csv),
                            "--eps", "0.1", "--delta", "0.01")
        assert code in (0, 1)
        assert json.loads(out)["K"] == len(out_csv.read_text().splitlines()) - 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("probe", "--equation", "biharmonic", "--grid", "2,256",
                "--seed", "3")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == 0 and code2 == 0
        assert out1 == out2

    def test_unknown_equation_exits_2(self, capsys):
        code, out = run_cli(capsys, "probe", "--equation", "nosuch", "--grid", "2,256")
        assert code == 2
        assert out == json.dumps({"error": str(KeyError("unknown equation kind 'nosuch'"))}) \
            + "\n"

    @pytest.mark.parametrize("flag, spec", [
        ("--Q", "grad:-1"), ("--Q", "grad:7"), ("--Q", "sep:cos:-1*pow:1"),
        ("--P", "sep:cos:1.5*one"), ("--P", "sep:bump:-0.5*one"),
        ("--L", "fractional_laplacian:nan"), ("--L", "fractional_laplacian:inf"),
        ("--P", "sep:one*abspow:nan"), ("--P", "sep:one*abspow:-1"),
        ("--Q", "fractional_laplacian:-0.5")])
    def test_malformed_symbol_spec_exits_2(self, capsys, monkeypatch, flag, spec):
        def no_field_work(*args, **kwargs):
            raise AssertionError("the probe started on a malformed symbol spec")

        monkeypatch.setattr(cli, "run_probe", no_field_work)
        argv = ["probe", "--equation", "custom", "--grid", "2,256", "--L", "bilaplacian",
                "--P", "sep:one*pow:2", "--Q", "grad:0", "--s", "2", "--p", "1.5"]
        argv[argv.index(flag) + 1] = spec
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert repr(spec) in json.loads(out)["error"]

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # numpy's MemoryError names the shape it could not allocate
        message = ("Unable to allocate 6.75 GiB for an array with shape (1, 768, 768, 768) "
                   "and data type complex128")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_probe", out_of_memory)
        code, out = run_cli(capsys, "probe", "--equation", "gjms", "--grid", "3,512")
        assert code == 2
        assert out == json.dumps({"error": message}, sort_keys=True) + "\n"

    def test_non_elliptic_L_exits_2_before_manufacture(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("manufacture ran on a non-elliptic L")

        monkeypatch.setattr("lpw.probe.manufactured_solution", unreachable)
        # orders (1, 0, 0) pass every hypothesis, so the run reaches the ellipticity check
        code, out = run_cli(capsys, "probe", "--equation", "custom", "--grid", "2,256",
                            "--L", "grad:0", "--P", "sep:one*one", "--Q", "sep:one*one",
                            "--s", "0.5", "--p", "2", "--seed", "9")
        assert code == 2
        assert "non-elliptic" in json.loads(out)["error"]

    def test_non_multiplier_L_exits_2_before_split(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("split_elliptic ran on an L the manufacture cannot invert")

        monkeypatch.setattr("lpw.probe.split_elliptic", unreachable)
        code, out = run_cli(capsys, "probe", "--equation", "custom", "--grid", "2,256",
                            "--L", "sep:twoplussin:0*pow:2", "--P", "sep:one*one",
                            "--Q", "grad:0", "--s", "1.5", "--p", "2")
        assert code == 2
        assert "pure-multiplier" in json.loads(out)["error"]

    def test_orders_read_from_the_symbols(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("manufacture ran on orders that fail the hypotheses")

        monkeypatch.setattr("lpw.probe.manufactured_solution", unreachable)
        # L, P, Q of orders (2, 2, 1): no gap between alpha and beta + gamma
        code, out = run_cli(capsys, "probe", "--equation", "custom", "--grid", "2,256",
                            "--L", "laplacian", "--P", "sep:one*pow:2", "--Q", "grad:0",
                            "--s", "2", "--p", "1.5", "--seed", "9")
        assert code == 2
        assert "order-gap" in json.loads(out)["error"]

    @staticmethod
    def _short_window_error(capsys, monkeypatch, equation, grid):
        """The exit code and error of a probe whose grid is too coarse, with
        the partition made unreachable."""
        def unreachable(*args, **kwargs):
            raise AssertionError("the partition was built for a window that is too short")

        monkeypatch.setattr("lpw.probe.build_partition", unreachable)
        code, out = run_cli(capsys, "probe", "--equation", equation, "--grid", grid,
                            "--seed", "9")
        return code, json.loads(out)["error"]

    def test_short_window_exits_2_before_the_partition(self, capsys, monkeypatch):
        # at 4,64 the partition alone took 1.0 GB before the window was checked
        assert self._short_window_error(capsys, monkeypatch, "ns", "4,64") == (2, (
            "grid 4,64 gives the decay window (2, 3), shorter than 4 shells; the smallest "
            "grid whose window (2, jmax - 2) spans 4 shells has 256 points per axis"))

    @pytest.mark.parametrize("grid, window", [("3,64", (2, 3)), ("3,128", (2, 4))])
    def test_gjms_short_window_names_the_grid(self, capsys, monkeypatch, grid, window):
        assert self._short_window_error(capsys, monkeypatch, "gjms", grid) == (2, (
            f"grid {grid} gives the decay window {window}, shorter than 4 shells; the "
            "smallest grid whose window (2, jmax - 2) spans 4 shells has 256 points per axis"))

    @pytest.mark.parametrize("flag, value", [
        ("--amplitude", "0"), ("--amplitude", "-0.01"), ("--amplitude", "nan"),
        ("--rho", "0.8")])
    def test_unusable_amplitude_or_rho_exits_2_before_manufacture(
            self, capsys, monkeypatch, flag, value):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"the partition or the manufacture ran with {flag} {value}")

        monkeypatch.setattr("lpw.probe.build_partition", unreachable)
        monkeypatch.setattr("lpw.probe.manufactured_solution", unreachable)
        code, out = run_cli(capsys, "probe", "--equation", "ns", "--grid", "2,256",
                            "--seed", "9", flag, value)
        assert code == 2
        error = json.loads(out)["error"]
        assert flag[2:] in error and str(float(value)) in error

    def test_diverging_manufacture_exits_2(self, capsys):
        code, out = run_cli(capsys, "probe", "--equation", "ns", "--grid", "2,256",
                            "--amplitude", "50", "--seed", "9")
        assert code == 2
        assert "diverging" in json.loads(out)["error"]

    def test_bad_grid_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--equation", "ns", "--grid", "2x256"])
        assert exc.value.code == 2


def test_python_m_lpw_runs_from_a_checkout():
    # `python -m lpw` needs nothing installed beyond the package on the path
    src = str(Path(lpw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "lpw", "verify", "partition", "--N", "16"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_output_does_not_depend_on_blas_threads():
    # BLAS's dot splits its sum by thread count, which moved the last digits
    # of every L^2 norm read from coefficients
    src = str(Path(lpw.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "lpw", "verify", "bernstein", "--seed", "3"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["verify", "partition", "--N", "16"],
                                     ["probe", "--equation", "ns", "--grid", "2,256"]],
                         ids=["verify", "probe"])
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_outside_64_bits_exits_2(capsys, command, seed):
    # the generator reads seeds modulo 2^64: 2^64 + 1 printed what 1 did
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", seed])
    assert exc.value.code == 2
    assert f"--seed: must lie in [0, 2^64 - 1], got {seed}" in capsys.readouterr().err


def test_package_keeps_one_helper_thread():
    # every hand-off of a transform goes to grid's one helper thread
    src = str(Path(lpw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = """if True:
        import threading
        from lpw.exponents import RegularityParams
        from lpw.grid import GridSpec, random_field
        from lpw.lp import build_partition, flat_dyadic_field
        from lpw.paraproduct import all_pairs_shells, split, zone_estimate_reports
        from lpw.probe import equation_spec, run_probe
        from lpw.psido import commutator_shell
        from lpw.symbols import multiplier, resolve_symbol
        from lpw.verify import verify_bernstein
        counts = []
        part = build_partition(GridSpec(2, 128))
        V, w = random_field(part.grid, 1), random_field(part.grid, 2)
        split(V, w, 5, part)
        counts.append(threading.active_count())
        all_pairs_shells(V, w, [5], part)
        counts.append(threading.active_count())
        part = build_partition(GridSpec(1, 1 << 16))
        Q = multiplier(1.0, lambda xi: (1.0 + xi * xi) ** 0.5)
        params = RegularityParams(n=1, alpha=2.0, beta=0.5, gamma=1.0, s=1.1, p=2.0,
                                  sigma=1.25, r=1.0 / 0.65)
        zone_estimate_reports(flat_dyadic_field(part, 3), flat_dyadic_field(part, 4), Q,
                              [10], params, part)
        counts.append(threading.active_count())
        commutator_shell(resolve_symbol("sep:cos:0*pow:1"), part, flat_dyadic_field(part, 5),
                         [10, 11, 12])
        counts.append(threading.active_count())
        u = random_field(GridSpec(2, 256), 6, ncomp=2)
        equation_spec("ns", n=2).nonlinearity(u, u)
        counts.append(threading.active_count())
        run_probe(equation_spec("ns", n=2), GridSpec(2, 256), seed=9)
        counts.append(threading.active_count())
        verify_bernstein()
        counts.append(threading.active_count())
        print(*counts)
    """
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [int(n) for n in proc.stdout.split()] == [2] * 7


def test_import_starts_no_thread():
    # the helper thread of the shell split starts on first use: an executor
    # made at import slowed every process's start-up
    src = str(Path(lpw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, threading, lpw; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
