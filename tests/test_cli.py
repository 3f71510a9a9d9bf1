"""End-to-end CLI tests, run through ``python -m betatrust`` (``fuse``'s table through ``main``)."""
import errno
import hashlib
import os
import subprocess
import sys

import pytest

from betatrust import parse_matrices
from betatrust.cli import main


def run_cli(*args):
    # -W error: a numpy overflow or invalid-value warning fails the test, as in-process
    cmd = [sys.executable, "-W", "error", "-m", "betatrust", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_report(stdout):
    values = {}
    for line in stdout.strip().splitlines():
        key, _, raw = line.partition(" ")
        values[key] = raw
    return values


class TestFuse:
    def test_symmetric_case(self):
        cp = run_cli("fuse", "--a", "0.5", "--b", "0.5", "--var", "0.05")
        assert cp.returncode == 0, cp.stderr
        report = parse_report(cp.stdout)
        assert float(report["alpha_a"]) == pytest.approx(2.0, abs=1e-6)
        assert float(report["k"]) == pytest.approx(6.0, abs=1e-6)
        assert float(report["w_a"]) == pytest.approx(2 / 3, abs=1e-6)
        assert float(report["w_b"]) == pytest.approx(1 / 3, abs=1e-6)
        assert float(report["combined"]) == pytest.approx(0.5, abs=1e-6)

    def test_reference_edge(self):
        cp = run_cli("fuse", "--a", "0.6844", "--b", "0.0445", "--var", "0.01")
        assert cp.returncode == 0, cp.stderr
        report = parse_report(cp.stdout)
        assert float(report["alpha_a"]) == pytest.approx(14.098410, abs=1e-6)
        assert float(report["beta_a"]) == pytest.approx(6.501254, abs=1e-6)
        assert float(report["alpha_b"]) == pytest.approx(0.144713, abs=1e-6)
        assert float(report["beta_b"]) == pytest.approx(3.107262, abs=1e-6)
        assert float(report["k"]) == pytest.approx(21.851639, abs=1e-6)
        assert float(report["w_b"]) == pytest.approx(-0.879565, abs=1e-6)
        assert float(report["combined"]) == pytest.approx(0.606047, abs=1e-6)

    def test_invalid_variance_fails_with_diagnostic(self):
        cp = run_cli("fuse", "--a", "0.5", "--b", "0.5", "--var", "0.3")
        assert cp.returncode == 1
        assert "moment inversion" in cp.stderr
        assert "variance" in cp.stderr

    def test_overflowing_variance_fails_with_diagnostic(self):
        cp = run_cli("fuse", "--a", "0.5", "--b", "0.3", "--var", "1e-320")
        assert cp.returncode == 1
        assert cp.stdout == ""
        assert "moment inversion" in cp.stderr
        assert "overflow" in cp.stderr

    def test_tiny_variance_gives_finite_weights(self):
        # the shapes are about 1.25e299, so aB * k overflowed in the weight w_b
        cp = run_cli("fuse", "--a", "0.5", "--b", "0.5", "--var", "1e-300")
        assert cp.returncode == 0, cp.stderr
        report = parse_report(cp.stdout)
        assert report["w_a"] == "0.500000"
        assert report["w_b"] == "0.500000"
        assert report["combined"] == "0.500000"

    def test_separate_variances(self):
        cp = run_cli("fuse", "--a", "0.5", "--b", "0.5",
                     "--var-a", "0.05", "--var-b", "0.05")
        assert cp.returncode == 0, cp.stderr
        assert float(parse_report(cp.stdout)["combined"]) == pytest.approx(0.5, abs=1e-6)

    def test_deterministic_output(self):
        args = ("fuse", "--a", "0.37", "--b", "0.81", "--var", "0.02")
        assert run_cli(*args).stdout == run_cli(*args).stdout


FUSE_FIELDS = ("alpha_a", "beta_a", "alpha_b", "beta_b", "k", "w_a", "w_b", "combined")
# the shapes and k at --var 1e-300, about 1.25e299 and 5e299, printed with every digit
SHAPE_1E_300 = f"{1.2499999999999999e+299:.6f}"
K_1E_300 = f"{4.9999999999999995e+299:.6f}"
NO_BETA = ": no Beta distribution has these moments"
# `fuse` byte for byte, as recorded from the implementation that printed through public
# shape and weight records: arguments -> (exit code, the eight printed values, or the
# diagnostic after "betatrust fuse: ")
FUSE_OUTPUTS = {
    "--a 0.5 --b 0.5 --var 0.05": (
        0, "2.000000 2.000000 2.000000 2.000000 6.000000 0.666667 0.333333 0.500000"),
    "--a 0.6844 --b 0.0445 --var 0.01": (
        0, "14.098410 6.501254 0.144713 3.107262 21.851639 0.942706 -0.879565 0.606047"),
    "--a 0.37 --b 0.81 --var 0.02": (
        0, "3.942350 6.712650 5.422950 1.272050 15.350000 0.694137 0.355728 0.544971"),
    "--a 0.5 --b 0.5 --var-a 0.05 --var-b 0.05": (
        0, "2.000000 2.000000 2.000000 2.000000 6.000000 0.666667 0.333333 0.500000"),
    "--a 0.5 --b 0.5 --var 1e-300": (
        0, " ".join([SHAPE_1E_300] * 4 + [K_1E_300] + ["0.500000"] * 3)),
    "--a 0.5 --b 0.5 --var 0.3": (
        1, "moment inversion of the direct estimate failed: "
           "variance 0.3 >= mean*(1-mean) = 0.25" + NO_BETA),
    "--a 0.5 --b 0.5 --var-b 0.3": (
        1, "moment inversion of the indirect estimate failed: "
           "variance 0.3 >= mean*(1-mean) = 0.25" + NO_BETA),
    "--a 0.5 --b 0.3 --var 1e-320": (
        1, "moment inversion of the direct estimate failed: "
           "variance 1e-320 < mean*(1-mean)*2**-1022: the Beta shapes would overflow"),
    "--a 1 --b 0.5 --var 1e-320": (
        1, "moment inversion of the direct estimate failed: "
           "variance 1e-320 < mean*(1-mean)*2**-1022 of the mean 1.0 clamped to 0.999999: "
           "the Beta shapes would overflow"),
    "--a 1e-320 --b 0.5": (
        1, "moment inversion of the direct estimate failed: "
           "variance 0.01 >= mean*(1-mean) = 9.99999e-07 of the mean 1e-320 clamped to 1e-06"
           + NO_BETA),
    "--a 0 --b 1": (
        1, "moment inversion of the direct estimate failed: "
           "variance 0.01 >= mean*(1-mean) = 9.99999e-07 of the mean 0.0 clamped to 1e-06"
           + NO_BETA),
    "--a 1 --b 1": (
        1, "moment inversion of the direct estimate failed: "
           "variance 0.01 >= mean*(1-mean) = 9.999990000287556e-07 "
           "of the mean 1.0 clamped to 0.999999" + NO_BETA),
    "--a 0.05 --b 0.05 --var 0.04": (
        1, "posterior shapes (-0.98125, -0.64375) are not both positive"),
    "--a 0.01 --b 0.02 --var 0.0098": (
        1, "posterior shapes (-0.9798979591836735, -0.009897959183673422) "
           "are not both positive"),
    "--a 0.9 --b 0.1 --var 0.0899": (
        1, "posterior shapes (-0.9988876529477198, -0.9988876529477195) are not both positive"),
    "--a 0.2 --b 0.3 --var 0.159": (
        1, "posterior shapes (-0.9025157232704403, -0.770440251572327) are not both positive"),
    "--a 0.99 --b 0.99 --var 0.0098": (
        1, "posterior shapes (-0.9797959183673449, -0.9997959183673469) are not both positive"),
    "--a 0.1 --b 0.5 --var-a 0.01 --var-b 0.2": (
        1, "posterior shapes (-0.07499999999999996, 6.325) are not both positive"),
    "--a 0.9 --b 0.5 --var-a 0.01 --var-b 0.2": (
        1, "posterior shapes (6.324999999999998, -0.0750000000000004) are not both positive"),
}


@pytest.mark.parametrize("args", list(FUSE_OUTPUTS))
def test_fuse_output_byte_for_byte(capsys, args):
    # in process: the suite turns every warning into an error, as -W error does
    code, expected = FUSE_OUTPUTS[args]
    assert main(["fuse", *args.split()]) == code
    if code == 0:
        stdout = "".join(f"{name} {value}\n" for name, value in zip(FUSE_FIELDS, expected.split()))
        assert capsys.readouterr() == (stdout, "")
    else:
        assert capsys.readouterr() == ("", f"betatrust fuse: {expected}\n")


class TestDecide:
    def test_accept_direct_row(self):
        cp = run_cli("decide", "--t", "0.4546", "--a", "0.5133", "--b", "0.7578")
        assert cp.returncode == 0, cp.stderr
        report = parse_report(cp.stdout)
        assert report["decision"] == "AcceptDirect"
        assert report["combined"] == "-"
        assert float(report["risk"]) == 0.0

    def test_accept_indirect_row(self):
        cp = run_cli("decide", "--t", "0.5383", "--a", "0.1610", "--b", "0.5953")
        assert cp.returncode == 0, cp.stderr
        assert parse_report(cp.stdout)["decision"] == "AcceptIndirect"

    def test_decline_exits_two(self):
        cp = run_cli("decide", "--t", "0.9", "--a", "0.1", "--b", "0.1",
                     "--var", "0.01", "--appetite", "0")
        assert cp.returncode == 2
        report = parse_report(cp.stdout)
        assert report["decision"] == "Decline"
        # combined is Beta(0.6, 13.4) mean 3/70; risk = 0.9 - 3/70
        assert float(report["combined"]) == pytest.approx(3 / 70, abs=1e-6)
        assert float(report["risk"]) == pytest.approx(0.9 - 3 / 70, abs=1e-6)

    def test_appetite_turns_decline_into_accept(self):
        cp = run_cli("decide", "--t", "0.9", "--a", "0.1", "--b", "0.1",
                     "--var", "0.01", "--appetite", "0.9")
        assert cp.returncode == 0, cp.stderr
        assert parse_report(cp.stdout)["decision"] == "AcceptWithRisk"

    def test_math_error_exits_one(self):
        cp = run_cli("decide", "--t", "0.9", "--a", "0.1", "--b", "0.1", "--var", "0.5")
        assert cp.returncode == 1
        assert "variance" in cp.stderr


    @pytest.mark.parametrize(
        "args, field",
        [
            (("--t", "1.5", "--a", "0.1", "--b", "0.1"), "required"),
            (("--t", "0.9", "--a", "0.1", "--b", "0.1", "--appetite", "2"),
             "max_acceptable_risk"),
        ],
    )
    def test_out_of_range_value_exits_one(self, args, field):
        cp = run_cli("decide", *args)
        assert cp.returncode == 1
        assert cp.stderr.startswith(f"betatrust decide: {field} must lie in [0, 1]")
        assert "Traceback" not in cp.stderr


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        out = tmp_path / "run"
        args = ("simulate", "--nodes", "15", "--seed", "42", "--edge-prob", "0.3",
                "--out", str(out))
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        matrices_first = (out / "matrices.csv").read_bytes()
        series_first = (out / "risk_series.csv").read_bytes()
        second = run_cli(*args)
        assert second.returncode == 0
        assert (out / "matrices.csv").read_bytes() == matrices_first
        assert (out / "risk_series.csv").read_bytes() == series_first
        assert first.stdout == second.stdout

    def test_summary_reports_edges_and_tallies(self, tmp_path):
        cp = run_cli("simulate", "--nodes", "6", "--seed", "9", "--edge-prob", "1.0",
                     "--out", str(tmp_path / "s"))
        assert cp.returncode == 0, cp.stderr
        report = parse_report(cp.stdout)
        assert report["nodes"] == "6"
        assert report["edges"] == "30"
        tallies = sum(
            int(report[name])
            for name in ("AcceptDirect", "AcceptIndirect", "AcceptCombined",
                         "AcceptWithRisk", "Decline")
        )
        assert tallies + int(report["errors"]) == 30

    def test_single_node_is_a_configuration_error(self, tmp_path):
        cp = run_cli("simulate", "--nodes", "1", "--out", str(tmp_path / "x"))
        assert cp.returncode == 1
        assert "node_count" in cp.stderr

    def test_out_of_range_appetite_exits_one(self, tmp_path):
        cp = run_cli("simulate", "--nodes", "4", "--appetite", "2", "--out", str(tmp_path / "x"))
        assert cp.returncode == 1
        assert cp.stderr.startswith("betatrust simulate: max_acceptable_risk must lie in [0, 1]")
        assert "Traceback" not in cp.stderr

    def test_invalid_variance_names_the_config_field(self, tmp_path):
        cp = run_cli("simulate", "--nodes", "3", "--var", "nan", "--out", str(tmp_path / "x"))
        assert cp.returncode == 1
        assert cp.stderr == "betatrust simulate: variance_direct must be positive, got nan\n"
        assert cp.stdout == "" and not (tmp_path / "x").exists()

    def test_unusable_out_fails_before_any_work(self, tmp_path):
        # a dense network whose failed edges would otherwise be reported first
        taken = tmp_path / "taken"
        taken.write_text("")
        cp = run_cli("simulate", "--nodes", "300", "--edge-prob", "1.0", "--seed", "501",
                     "--out", str(taken))
        error = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(taken))
        assert (cp.returncode, cp.stdout, cp.stderr) == (1, "", f"betatrust simulate: {error}\n")

    def test_run_too_large_to_allocate_exits_one_without_a_traceback(self, tmp_path):
        # 10**7 nodes need 1.42 PiB of edge rows, over ten times the 128 TiB that a process
        # maps on x86-64 Linux, so the first allocation fails at once and touches no memory
        out = tmp_path / "big"
        cp = run_cli("simulate", "--nodes", "10000000", "--edge-prob", "1.0", "--out", str(out))
        assert (cp.returncode, cp.stdout) == (1, "")
        # numpy's own message, on one line: "Unable to allocate 1.42 PiB for an array ..."
        assert cp.stderr.startswith("betatrust simulate: Unable to allocate ")
        assert cp.stderr.count("\n") == 1 and cp.stderr.endswith("\n")
        assert not out.exists()  # the run removes the directory it made

    def test_failed_run_removes_every_directory_it_made(self, tmp_path):
        out = tmp_path / "made" / "here" / "big"
        cp = run_cli("simulate", "--nodes", "10000000", "--edge-prob", "1.0", "--out", str(out))
        assert cp.returncode == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_out_that_existed(self, tmp_path):
        out = tmp_path / "kept"
        out.mkdir()
        cp = run_cli("simulate", "--nodes", "10000000", "--edge-prob", "1.0", "--out", str(out))
        assert cp.returncode == 1
        assert out.is_dir() and not any(out.iterdir())

    def test_unwritable_file_exits_one_after_making_out(self, tmp_path):
        # the seed-196 scenario has no edge errors, so the write's is the only stderr line
        blocked = tmp_path / "matrices.csv"
        blocked.mkdir()
        cp = run_cli(*SEED_196, "--out", str(tmp_path))
        error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked))
        assert (cp.returncode, cp.stdout, cp.stderr) == (1, "", f"betatrust simulate: {error}\n")
        assert list(tmp_path.iterdir()) == [blocked] and not any(blocked.iterdir())

    def test_nodes_required(self, tmp_path):
        cp = run_cli("simulate", "--out", str(tmp_path / "x"))
        assert cp.returncode == 1
        assert "--nodes" in cp.stderr

    def test_most_fused_edges_failing_exits_one(self, tmp_path):
        out = tmp_path / "fail"
        cp = run_cli("simulate", "--nodes", "20", "--seed", "3", "--var", "1e308",
                     "--out", str(out))
        assert cp.returncode == 1
        report = parse_report(cp.stdout)
        assert report["errors"] == "39"
        assert [report[name] for name in ("AcceptCombined", "AcceptWithRisk", "Decline")] == [
            "0", "0", "0"]
        lines = cp.stderr.splitlines()
        assert len(lines) == 40
        assert all(line.startswith("edge ") for line in lines[:-1])
        assert lines[-1] == "betatrust simulate: 39 of 39 edges that reached C failed"
        # the files are still written
        labels, _ = parse_matrices((out / "matrices.csv").read_text())
        assert labels == list(range(1, 21))
        assert (out / "risk_series.csv").read_text().startswith("node,1,2,")


# SHA-256 of each output, and the stdout tally, for fixed command lines.  "beta" and
# "average" run simulate --nodes 60 --edge-prob 0.5 --seed 11 --var 0.05 --appetite 0.1
# (p < 1, all five decisions and both fusion error kinds); their hashes were recorded
# from the per-edge object implementation.  "dense-501" is the benchmark's
# simulate-dense scenario: its 300-row sections span several render blocks.  The
# others pin the two fixed reference gates: the seed-196 scenario and the bundled
# three-node network, which reaches reproduce-table1 through the document loader.
EMPTY = hashlib.sha256(b"").hexdigest()
SCENARIO_60 = ("simulate", "--nodes", "60", "--edge-prob", "0.5", "--seed", "11",
               "--var", "0.05", "--appetite", "0.1")
SEED_196 = ("simulate", "--nodes", "15", "--seed", "196", "--edge-prob", "0.3")
GOLDEN = {
    "beta": (
        (*SCENARIO_60, "--method", "beta"),
        {"matrices.csv": "4e9e17f468fa430fb412b87cb1f4fa03055de32cfb392f1672419da5bb6f3cbd",
         "risk_series.csv": "901a301fb18e415b3340cf96b384ae5f76c3b8f332943af55e068c6864a65371",
         "stderr": "df60a7919c9777b5063d87680f6d079812336a9f3550b969a5a1f5c132c58508"},
        {"edges": "1774", "AcceptDirect": "897", "AcceptIndirect": "284",
         "AcceptCombined": "10", "AcceptWithRisk": "21", "Decline": "378", "errors": "184"},
    ),
    "average": (
        (*SCENARIO_60, "--method", "average"),
        {"matrices.csv": "eabc0159bb6bed0a03002522787e5b56adbf56722816fa79a1bd8c7317073f37",
         "risk_series.csv": "e9cdeaf2562e1dca953afc471e3101a8de830925966ebf28e6beaa060cfd0813",
         "stderr": EMPTY},
        {"edges": "1774", "AcceptDirect": "897", "AcceptIndirect": "284",
         "AcceptCombined": "0", "AcceptWithRisk": "27", "Decline": "566", "errors": "0"},
    ),
    "dense-501": (
        ("simulate", "--nodes", "300", "--edge-prob", "1.0", "--seed", "501"),
        {"matrices.csv": "d74e58d799da8edb385de2877376a8055bb15612c62a4a70a4b9df217a674192",
         "risk_series.csv": "af462368cb3a8c657e51b85fab636ec640a7af00e5091b8d770b238020a519f9",
         "stderr": "c3598e207a46724bb4cbb1b464372924f2176250a3dae89c9d4be2c98cc36a42"},
        {"edges": "89700", "AcceptDirect": "44872", "AcceptIndirect": "15050",
         "AcceptCombined": "51", "AcceptWithRisk": "0", "Decline": "28111", "errors": "1616"},
    ),
    "seed196-beta": (
        (*SEED_196, "--method", "beta"),
        {"matrices.csv": "e8b8e29430767b2a5a8f292a152404a2b4b0e9aca88a94f3eeef0819efbe8cda",
         "risk_series.csv": "b76211c1606087474dd88e6126791cb950314238eda75717e0f28c5831f626f5",
         "stderr": EMPTY},
        {"edges": "61", "errors": "0"},
    ),
    "seed196-average": (
        (*SEED_196, "--method", "average"),
        {"matrices.csv": "9acfcf4a2d3c752e301e7175e0ed9bcde2cdb4e1a9c990b57f2869856641753b",
         "risk_series.csv": "7615d721fa93b89ad2943482c5132f2a67a9bf8b67dbb1051d305ec01268c2de",
         "stderr": EMPTY},
        {"edges": "61", "errors": "0"},
    ),
    "table1-beta": (
        ("reproduce-table1", "--method", "beta"),
        {"stdout": "bb79292d82b1f5d38b436efc2de069af5b14cab22e5522098fdda0b1adfc244f",
         "stderr": EMPTY},
        {},
    ),
    "table1-average": (
        ("reproduce-table1", "--method", "average"),
        {"stdout": "635e643b4f44d245aafdffc7967d040eab99e6ce57afa6b93e60ea5f59ba1cc4",
         "stderr": EMPTY},
        {},
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_outputs(tmp_path, case):
    args, digests, tally = GOLDEN[case]
    if args[0] == "simulate":
        args = (*args, "--out", str(tmp_path))
    cp = run_cli(*args)
    assert cp.returncode == 0, cp.stderr
    outputs = {"stdout": cp.stdout.encode(), "stderr": cp.stderr.encode()}
    outputs.update((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    assert {name: hashlib.sha256(outputs[name]).hexdigest() for name in digests} == digests
    report = parse_report(cp.stdout)
    assert {key: report[key] for key in tally} == tally


class TestReproduceTable1:
    def test_beta_method(self):
        cp = run_cli("reproduce-table1", "--method", "beta")
        assert cp.returncode == 0, cp.stderr
        assert "variance assumption" in cp.stdout
        labels, matrices = parse_matrices(cp.stdout)
        assert labels == [1, 2, 3]
        assert matrices["T"][0].tolist() == [0.0, 0.4546, 0.7148]
        assert matrices["A"][1].tolist() == [0.5141, 1.0, 0.1610]
        assert matrices["B"][2].tolist() == [0.4558, 0.0777, 1.0]
        assert (matrices["R"] != 0).tolist() == [
            [False, False, True],
            [False, False, False],
            [True, False, False],
        ]
        assert matrices["C"][0][2] == pytest.approx(0.6060, abs=5e-5)
        assert matrices["R"][0][2] == pytest.approx(0.1088, abs=5e-5)

    def test_average_method(self):
        cp = run_cli("reproduce-table1", "--method", "average")
        assert cp.returncode == 0, cp.stderr
        _, matrices = parse_matrices(cp.stdout)
        assert matrices["C"][0][2] == pytest.approx((0.6844 + 0.0445) / 2, abs=5e-5)

    def test_methods_share_the_zero_pattern(self):
        _, beta = parse_matrices(run_cli("reproduce-table1", "--method", "beta").stdout)
        _, avg = parse_matrices(run_cli("reproduce-table1", "--method", "average").stdout)
        assert (beta["C"] != 0).tolist() == (avg["C"] != 0).tolist()
        assert (beta["R"] != 0).tolist() == (avg["R"] != 0).tolist()


def test_usage_error_exits_one():
    cp = run_cli("fuse", "--a", "0.5")  # missing --b
    assert cp.returncode == 1


def test_help_exits_zero():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "fuse" in cp.stdout and "reproduce-table1" in cp.stdout


# numpy.random costs about 6 MB of RSS and 18 ms at import; only generate_network needs it
NUMPY_RANDOM_PROBE = """
import contextlib, io, sys
import betatrust.cli
loaded = ["numpy.random" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["fuse", "--a", "0.5", "--b", "0.5"],
                 ["decide", "--t", "0.9", "--a", "0.1", "--b", "0.1"],
                 ["reproduce-table1"]):
        betatrust.cli.main(argv)
        loaded.append("numpy.random" in sys.modules)
from betatrust import ScenarioConfig, generate_network
generate_network(ScenarioConfig(seed=0, node_count=3, edge_probability=0.5))
loaded.append("numpy.random" in sys.modules)
print(loaded)
"""


def test_scalar_commands_never_import_numpy_random():
    cp = subprocess.run([sys.executable, "-W", "error", "-c", NUMPY_RANDOM_PROBE],
                        capture_output=True, text=True)
    assert cp.stdout == "[False, False, False, False, True]\n", cp.stderr
