import importlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import immaculate
from immaculate._kernels import BACKEND, BACKEND_REASON
from immaculate.cli import main
from immaculate.composition import count_formula, parse_composition
from immaculate.enumeration import VerificationReport
from immaculate.errors import FORMULA_GUARD, InternalCheckError

PAIR_TEXT = "1 2\n3\n4 5\n\n3 1\n2\n1 1\n"
FILLING_TEXT = "3 2\n4\n1 5\n"

WIDE_PAIR_TEXT = (
    "1 5 8 9\n2\n3 4 11 12\n6 10\n7\n"
    "\n"
    "8 2 1 1\n3\n6 3 1 1\n1 1\n1\n"
)
WIDE_FILLING_TEXT = "11 8 5 9\n3\n10 12 2 4\n1 6\n7\n"


class TestHooks:
    def test_text_exact(self, capsys):
        assert main(["hooks", "2,1,2"]) == 0
        assert capsys.readouterr().out == "5 1\n3\n2 1\n"

    def test_json(self, capsys):
        assert main(["hooks", "2,1,2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"shape": [2, 1, 2], "hook_lengths": [[5, 1], [3], [2, 1]]}

    def test_parenthesized_shape(self, capsys):
        assert main(["hooks", "(2,1,2)"]) == 0
        assert capsys.readouterr().out == "5 1\n3\n2 1\n"

    def test_bad_shape_exits_2(self, capsys):
        assert main(["hooks", "2,,1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCount:
    @pytest.mark.parametrize("method", ["formula", "recursive", "brute"])
    def test_methods_agree(self, capsys, method):
        assert main(["count", "3,2", "--method", method]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_json(self, capsys):
        assert main(["count", "2,1,2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"shape": [2, 1, 2], "method": "formula", "count": 4}

    def test_brute_guard_exits_3(self, capsys):
        assert main(["count", "12", "--method", "brute"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_guard_override(self, capsys):
        # one cell past the default guard, as TestBruteForce::test_guard does
        assert main(["count", "11", "--method", "brute", "--guard", "11"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_formula_guard_exits_3_and_can_be_raised(self, capsys):
        # the formula's default guard is FORMULA_GUARD, not brute's 10
        assert main(["count", "12"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert main(["count", str(FORMULA_GUARD + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"needs n <= {FORMULA_GUARD} " in captured.err
        assert main(["count", "1,3", "--guard", "3"]) == 3
        assert main(["count", "1,3", "--guard", "4"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_recursive_guard_exits_3_and_can_be_raised(self, capsys):
        assert main(["count", str(FORMULA_GUARD + 1), "--method", "recursive"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"the first-row recursion needs n <= {FORMULA_GUARD} " in captured.err
        assert main(["count", "1,3", "--method", "recursive", "--guard", "3"]) == 3
        assert main(["count", "1,3", "--method", "recursive", "--guard", "4"]) == 0
        assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("args", [
    ("verify", "9"),
    ("verify", "4,4", "--mode", "sampled", "--samples", "1", "--guard", "7"),
    ("count", "11", "--method", "brute"),
    ("count", "1,3", "--method", "recursive", "--guard", "3"),
    ("count", "1,3", "--guard", "3"),
])
def test_guard_error_names_the_flag(capsys, args):
    # a guard refusal from the library names the CLI flag beside guard=
    assert main(list(args)) == 3
    assert "guard= (--guard)" in capsys.readouterr().err


class TestEnumerate:
    def test_text(self, capsys):
        assert main(["enumerate", "2,1,2"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "1 5\n2\n3 4\n\n"
            "1 4\n2\n3 5\n\n"
            "1 3\n2\n4 5\n\n"
            "1 2\n3\n4 5\n\n"
            "count: 4\n"
        )

    def test_limit(self, capsys):
        assert main(["enumerate", "2,1,2", "--limit", "2"]) == 0
        assert capsys.readouterr().out.endswith("count: 2\n")

    def test_limit_zero(self, capsys):
        assert main(["enumerate", "2,1,2", "--limit", "0"]) == 0
        assert capsys.readouterr().out == "count: 0\n"

    def test_json(self, capsys):
        assert main(["enumerate", "2,1,2", "--limit", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["shape"] == [2, 1, 2]
        assert obj["total"] == 4
        assert obj["count"] == 2
        assert obj["tableaux"] == [[[1, 5], [2], [3, 4]], [[1, 4], [2], [3, 5]]]

    ALL_212 = [[[1, 5], [2], [3, 4]], [[1, 4], [2], [3, 5]], [[1, 3], [2], [4, 5]],
               [[1, 2], [3], [4, 5]]]

    @pytest.mark.parametrize("limit", [None, 2, 0])
    def test_json_streamed_byte_for_byte(self, capsys, limit):
        # the array is written one tableau at a time, as json.dumps would
        argv = ["enumerate", "2,1,2", "--format", "json"]
        assert main(argv + ([] if limit is None else ["--limit", str(limit)])) == 0
        tableaux = self.ALL_212[:limit]
        obj = {"shape": [2, 1, 2], "total": 4, "count": len(tableaux), "tableaux": tableaux}
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"

    def test_json_holds_one_tableau_at_a_time(self, monkeypatch):
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            # 10,395 tableaux; collecting them first peaked at about 23 MiB
            assert main(["enumerate", "2,2,2,2,2,2", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak} bytes"

    def test_limit_past_the_total(self, capsys):
        # a limit past the total means none, even one past sys.maxsize
        huge = str(10**30)
        assert main(["enumerate", "2,1", "--limit", huge]) == 0
        assert capsys.readouterr().out == "1 3\n2\n\n1 2\n3\n\ncount: 2\n"
        assert main(["enumerate", "2,1", "--limit", huge, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["count"], obj["tableaux"]) == (2, [[[1, 3], [2]], [[1, 2], [3]]])


class TestPsi:
    def test_text(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(PAIR_TEXT)
        assert main(["psi", str(f)]) == 0
        assert capsys.readouterr().out == FILLING_TEXT

    def test_check_flag(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(PAIR_TEXT)
        assert main(["psi", str(f), "--check"]) == 0
        assert capsys.readouterr().out == FILLING_TEXT

    def test_json_with_trace(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(PAIR_TEXT)
        assert main(["psi", str(f), "--format", "json", "--trace"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["shape"] == [2, 1, 2]
        assert obj["result"] == [[3, 2], [4], [1, 5]]
        assert len(obj["trace"]["states"]) == 5
        assert len(obj["trace"]["paths"]) == 4

    def test_trace_text_state_blocks(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text(WIDE_PAIR_TEXT)
        assert main(["psi", str(f), "--trace", "--check"]) == 0
        out = capsys.readouterr().out
        states = [line for line in out.splitlines() if line.startswith("state ")]
        assert states == [f"state {k}" for k in range(1, 13)]
        paths = [line for line in out.splitlines() if line.startswith("path ")]
        assert len(paths) == 11
        assert out.endswith("result:\n" + WIDE_FILLING_TEXT)

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(PAIR_TEXT))
        assert main(["psi", "-"]) == 0
        assert capsys.readouterr().out == FILLING_TEXT

    def test_json_pair_input(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({
            "P": {"rows": [[1, 2], [3], [4, 5]]},
            "J": {"rows": [[3, 1], [2], [1, 1]]},
        }))
        assert main(["psi", str(f)]) == 0
        assert capsys.readouterr().out == FILLING_TEXT

    def test_hook_value_out_of_range_exits_4(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("1 2\n3\n4 5\n\n9 1\n2\n1 1\n")
        assert main(["psi", str(f)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_missing_blank_line_exits_2(self, capsys, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("1 2\n3\n4 5\n")
        assert main(["psi", str(f)]) == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["psi", str(tmp_path / "nope.txt")]) == 2


class TestPhi:
    def test_text(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text(FILLING_TEXT)
        assert main(["phi", str(f)]) == 0
        assert capsys.readouterr().out == PAIR_TEXT

    def test_json(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text(FILLING_TEXT)
        assert main(["phi", str(f), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "P": {"shape": [2, 1, 2], "rows": [[1, 2], [3], [4, 5]]},
            "J": {"shape": [2, 1, 2], "rows": [[3, 1], [2], [1, 1]]},
        }

    def test_standard_immaculate_maps_to_all_ones(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("1 2\n3\n4 5\n")
        assert main(["phi", str(f)]) == 0
        assert capsys.readouterr().out == "1 2\n3\n4 5\n\n1 1\n1\n1 1\n"

    def test_roundtrip_byte_for_byte(self, capsys, tmp_path):
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(WIDE_PAIR_TEXT)
        assert main(["psi", str(pair_file), "--check"]) == 0
        filling = capsys.readouterr().out
        filling_file = tmp_path / "t.txt"
        filling_file.write_text(filling)
        assert main(["phi", str(filling_file), "--check"]) == 0
        assert capsys.readouterr().out == WIDE_PAIR_TEXT

    def test_trace_mirrors_psi(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text(FILLING_TEXT)
        assert main(["phi", str(f), "--format", "json", "--trace"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["trace"]["states"]) == 5
        assert obj["trace"]["states"][-1]["tableau"] == [[1, 2], [3], [4, 5]]

    def test_non_standard_input_exits_4(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("1 1\n2\n3 3\n")
        assert main(["phi", str(f)]) == 4

    def test_zero_entry_exits_2(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("0 2\n3\n4 5\n")
        assert main(["phi", str(f)]) == 2

    def test_internal_check_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        def broken_straighten(t, check=False):
            raise InternalCheckError("injected")

        monkeypatch.setattr("immaculate.bijection.straighten", broken_straighten)
        f = tmp_path / "t.txt"
        f.write_text(FILLING_TEXT)
        assert main(["phi", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal check failed: injected\n"


@pytest.mark.parametrize("command", ["psi", "phi"])
class TestUndecodableInput:
    DATA = b"\xff\xfe1 2\n"

    def test_file_exits_2(self, capsys, tmp_path, command):
        f = tmp_path / "input.txt"
        f.write_bytes(self.DATA)
        assert main([command, str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stdin_exits_2(self, capsys, monkeypatch, command):
        stdin = io.TextIOWrapper(io.BytesIO(self.DATA), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main([command, "-"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


GOLDEN = Path(__file__).parent / "golden"


class TestTraceGolden:
    # expected output captured from the eager-trace implementation; the
    # replayed trace must print byte for byte the same
    @pytest.mark.parametrize("command, text", [
        ("psi", WIDE_PAIR_TEXT), ("phi", WIDE_FILLING_TEXT),
    ])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_worked_example(self, capsys, tmp_path, command, text, fmt, suffix):
        f = tmp_path / "input.txt"
        f.write_text(text)
        assert main([command, str(f), "--trace", "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{command}_trace.{suffix}").read_text()


class TestMalformedJson:
    @pytest.mark.parametrize("command, payload", [
        ("psi", {"P": {"rows": [[1]]}, "J": {"rows": [[]]}}),
        ("psi", {"P": {"rows": [[1]]}, "J": {"rows": 5}}),
        ("psi", {"P": {"rows": [[1]]}, "J": {"rows": [[1]], "shape": 7}}),
        ("phi", {"rows": [[1]], "shape": 7}),
        ("psi", {"P": {"rows": [[1]]}, "J": {"rows": [["x"]]}}),
    ])
    def test_exits_2_without_traceback(self, capsys, tmp_path, command, payload):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(payload))
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, template", [
        ("phi", '{"rows": %s}'),
        ("psi", '{"P": {"rows": [[1]]}, "J": {"rows": %s}}'),
    ])
    def test_deeply_nested_exits_2(self, capsys, tmp_path, command, template):
        # json.dumps cannot build input this deep, so it is written as raw text
        depth = 100_000
        f = tmp_path / "input.json"
        f.write_text(template % ("[" * depth + "]" * depth))
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad JSON: ") and "Traceback" not in err


class TestVerify:
    def test_one_shape_text(self, capsys):
        assert main(["verify", "2,1,2"]) == 0
        out = capsys.readouterr().out
        assert "1/1 shapes ok" in out
        assert "count=4" in out

    def test_all_shapes_of_n(self, capsys):
        assert main(["verify", "--n", "4"]) == 0
        assert "8/8 shapes ok" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["verify", "2,1,2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert len(obj["reports"]) == 1
        assert obj["reports"][0]["shape"] == [2, 1, 2]

    def test_sampled(self, capsys):
        assert main([
            "verify", "4,1,4,2,1", "--mode", "sampled", "--samples", "20",
            "--seed", "1",
        ]) == 0
        assert "1/1 shapes ok" in capsys.readouterr().out

    def test_jobs(self, capsys):
        assert main(["verify", "3,1", "--jobs", "2"]) == 0
        assert "1/1 shapes ok" in capsys.readouterr().out

    def test_guard_exits_3(self, capsys):
        assert main(["verify", "9"]) == 3

    def test_guard_bounds_sampled_n(self, capsys):
        args = ["verify", "--n", "3", "--mode", "sampled", "--samples", "1"]
        assert main(args + ["--guard", "2"]) == 3
        assert main(args + ["--guard", "3"]) == 0
        # one sampled shape is bounded by FORMULA_GUARD, not by the guard
        # of sampled --n
        assert main(["verify", "20", "--mode", "sampled", "--samples", "1"]) == 0

    def test_guard_bounds_one_sampled_shape(self, capsys):
        args = ["verify", "4,4", "--mode", "sampled", "--samples", "1"]
        assert main(args + ["--guard", "7"]) == 3
        assert "--guard" in capsys.readouterr().err
        assert main(args + ["--guard", "8"]) == 0

    def test_shape_and_n_together_exits_2(self, capsys):
        assert main(["verify", "2,1", "--n", "3"]) == 2

    def test_neither_shape_nor_n_exits_2(self, capsys):
        assert main(["verify"]) == 2

    def test_nonpositive_n_exits_2(self, capsys):
        assert main(["verify", "--n", "0"]) == 2

    def test_failures_out_not_written_on_success(self, capsys, tmp_path):
        out = tmp_path / "failures.json"
        assert main(["verify", "2,1,2", "--failures-out", str(out)]) == 0
        assert not out.exists()

    @pytest.fixture
    def fake_verify(self, monkeypatch):
        def fake_verify(shapes, **kwargs):
            return [VerificationReport(
                shape=alpha.parts, mode="exhaustive", count_formula=4,
                count_recursive=4, count_bruteforce=4, x_size=120, y_size=120,
                x_checked=120, y_checked=120,
                roundtrip_failures=[{
                    "side": "x", "index": 7, "stage": "roundtrip",
                    "message": "mismatch", "tableau": [[1, 2], [3], [4, 5]],
                }],
                assertion_failures=[], seed=None, sample_size=None, jobs=1,
                backend="pure", elapsed_s=0.01,
            ) for alpha in shapes]

        monkeypatch.setattr("immaculate.enumeration.verify_shapes", fake_verify)

    def test_failure_exits_1_and_writes_failures(self, capsys, tmp_path, fake_verify):
        out = tmp_path / "failures.json"
        assert main(["verify", "2,1,2", "--failures-out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "FAILED" in stdout and "0/1 shapes ok" in stdout
        payload = json.loads(out.read_text())
        assert payload == [{
            "shape": [2, 1, 2],
            "roundtrip_failures": [{
                "side": "x", "index": 7, "stage": "roundtrip",
                "message": "mismatch", "tableau": [[1, 2], [3], [4, 5]],
            }],
            "assertion_failures": [],
        }]

    def test_unwritable_failures_out_exits_2(self, capsys, tmp_path, fake_verify):
        out = tmp_path / "missing" / "failures.json"
        assert main(["verify", "2,1,2", "--failures-out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_cli(*args, preexec_fn=None, timeout=60):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "immaculate.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path), preexec_fn=preexec_fn,
    )


def _cap_address_space():
    cap = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


class TestLargeInputs:
    # shapes far past any recursion limit or memo budget end in a documented
    # exit code, never a traceback
    def test_count_long_row(self):
        out = _run_cli("count", "2000", "--method", "recursive")
        assert (out.returncode, out.stdout, out.stderr) == (0, "1\n", "")

    def test_enumerate_long_row(self):
        out = _run_cli("enumerate", "1500")
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.endswith("count: 1\n")

    def test_verify_all_shapes_of_1500_hits_guard(self):
        out = _run_cli("verify", "--n", "1500")
        assert out.returncode == 3
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    def test_sampled_verify_of_all_shapes_of_40_hits_guard_at_once(self):
        # 2**39 shapes, every report built before the first prints
        out = _run_cli("verify", "--n", "40", "--mode", "sampled", "--samples", "1",
                       preexec_fn=_cap_address_space, timeout=5)
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert "--guard" in out.stderr

    def test_sampled_verify_of_one_shape_past_the_formula_guard_exits_3_at_once(self):
        # its counts would take (FORMULA_GUARD + 1)! twice before the first draw
        out = _run_cli("verify", str(FORMULA_GUARD + 1), "--mode", "sampled", "--samples", "1",
                       preexec_fn=_cap_address_space, timeout=5)
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert "--guard" in out.stderr

    def test_sampled_verify_of_all_shapes_of_9_within_guard(self):
        out = _run_cli("verify", "--n", "9", "--mode", "sampled", "--samples", "1")
        assert out.returncode == 0, out.stderr
        assert out.stdout.endswith("256/256 shapes ok\n")

    def test_sampled_verify_10x10_in_bounded_memory(self):
        shape = ",".join(["10"] * 10)
        out = _run_cli("verify", shape, "--mode", "sampled", "--samples", "200",
                       preexec_fn=_cap_address_space)
        assert out.returncode == 0, out.stderr
        assert "1/1 shapes ok" in out.stdout


def _python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    return out


def _imported_by(*args):
    """The modules a fresh interpreter imports to run args, from -X importtime."""
    out = _python("-X", "importtime", *args)
    names = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
             if line.startswith("import time:") and "|" in line}
    return out.stdout, names


class TestStartup:
    # a cold start loads what it runs: no submodule on import immaculate,
    # the process pool only for a pooled verify, logging only when the
    # caller brought it, and no dataclasses
    POOL = ("concurrent.futures", "multiprocessing")
    UNWANTED = {*POOL, "logging", "dataclasses", "inspect", "json"}

    def test_import_loads_no_pool_logging_dataclasses_or_json(self):
        code = ("import sys; before = set(sys.modules); import immaculate; "
                "print(*sorted(set(sys.modules) - before))")
        added = set(_python("-c", code).stdout.split())
        assert added == {"immaculate"}

    def test_first_read_loads_the_defining_module(self):
        code = ("import sys; import immaculate; before = set(sys.modules); "
                "immaculate.verify_shapes; print(*sorted(set(sys.modules) - before))")
        added = set(_python("-c", code).stdout.split())
        assert "immaculate.enumeration" in added
        assert not added & self.UNWANTED, sorted(added & self.UNWANTED)

    def test_every_public_name_is_its_defining_modules_object(self):
        for name in immaculate.__all__:
            value = getattr(immaculate, name)
            owner = getattr(value, "__module__", None)
            if isinstance(value, type) or callable(value):
                assert owner.startswith("immaculate."), name
                assert getattr(importlib.import_module(owner), name) is value, name
            assert vars(immaculate)[name] is value, name

    def test_dir_and_star_import_cover_all(self):
        assert set(immaculate.__all__) <= set(dir(immaculate))
        code = ("import immaculate; from immaculate import *; "
                "print(*[n for n in immaculate.__all__ if globals().get(n) is not "
                "getattr(immaculate, n)])")
        assert _python("-c", code).stdout.split() == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            immaculate.no_such_name
        assert not hasattr(immaculate, "verify")
        with pytest.raises(ImportError):
            exec("from immaculate import no_such_name", {})

    def test_cli_without_a_pool_loads_no_pool_modules(self):
        stdout, names = _imported_by("-m", "immaculate.cli", "hooks", "2,1,2")
        assert stdout == "5 1\n3\n2 1\n" and not names & set(self.POOL)
        # no kernel either; -m runs immaculate.cli as __main__, so it is not listed
        package = {name for name in names if name.startswith("immaculate")}
        assert package == {"immaculate", "immaculate.composition", "immaculate.errors",
                           "immaculate.tableau"}
        # json loads only where JSON is written
        assert "json" not in names
        stdout, names = _imported_by("-m", "immaculate.cli", "hooks", "2,1,2", "--format", "json")
        assert '"hook_lengths"' in stdout and "json" in names
        if (os.cpu_count() or 1) > 1:
            # a pooled verify loads them when it starts its pool
            stdout, names = _imported_by("-m", "immaculate.cli", "verify", "--n", "3",
                                         "--jobs", "2")
            assert stdout.endswith("4/4 shapes ok\n")
            assert set(self.POOL) <= names

    @pytest.mark.parametrize("command, text, result", [
        ("psi", PAIR_TEXT, FILLING_TEXT),
        ("phi", FILLING_TEXT, PAIR_TEXT),
    ])
    def test_psi_and_phi_load_no_enumeration(self, tmp_path, command, text, result):
        f = tmp_path / "in.txt"
        f.write_text(text)
        stdout, names = _imported_by("-m", "immaculate.cli", command, str(f), "--check")
        assert stdout == result
        assert "immaculate.bijection" in names and "immaculate.enumeration" not in names

    def test_help_loads_no_enumeration_and_names_every_default(self):
        stdout, names = _imported_by("-m", "immaculate.cli", "count", "--help")
        assert "immaculate.enumeration" not in names
        assert "brute (default 10)" in stdout and "formula (default 100000)" in stdout
        stdout, names = _imported_by("-m", "immaculate.cli", "verify", "--help")
        assert "immaculate.enumeration" not in names
        assert "(default 8)" in stdout and "(default 16)" in stdout
        assert "(default 100000)" in stdout

    @pytest.mark.parametrize("pure", ["0", "1"])
    @pytest.mark.parametrize("module", [
        "errors", "composition", "tableau", "_kernels", "_kernels._pure", "bijection",
        "enumeration", "cli",
    ])
    def test_each_module_imports_alone(self, monkeypatch, module, pure):
        # lazy loading must not hide an import cycle between the modules
        monkeypatch.setenv("IMMACULATE_PURE", pure)
        _python("-c", f"import immaculate.{module}")


class TestClosedStdout:
    def test_reader_closing_early_exits_0_quietly(self):
        # about 0.3 MB of output, far past the pipe's 64 KiB buffer
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "immaculate.cli", "enumerate", "2,2,2,2,2,2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout.readline() == b"1 12\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (0, b"")

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_reader_closing_after_100_bytes_exits_0_quietly(self, fmt):
        # main's BrokenPipeError branch, in text and in the streamed JSON:
        # 200,000 tableaux are megabytes, far past the pipe's buffer
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "immaculate.cli", "enumerate", "7,7,7", "--limit", "200000",
             *fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (0, b"")


class TestWalkLimits:
    # shapes past what a kernel walk reaches exit 3 with one stderr line
    def test_verify_past_the_recursion_limit(self):
        out = _run_cli("verify", "1000", "--guard", "1000")
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "1000 cells" in out.stderr

    def test_pure_brute_count_past_the_recursion_limit(self, monkeypatch):
        monkeypatch.setenv("IMMACULATE_PURE", "1")
        out = _run_cli("count", ",".join(["2"] * 1000), "--method", "brute", "--guard", "2000")
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "2000 cells" in out.stderr


class TestPastMachineSizes:
    # a size that overflows a machine integer or memory exits 3 with one
    # stderr line, as a guard does, and no traceback
    @pytest.mark.parametrize("args", [
        ("hooks", "99999999999999999999"),  # the range of a row
        ("count", "99999999999999999999"),  # math.factorial
        ("enumerate", "99999999999999999999", "--limit", "1"),
        ("hooks", "9223372036854775807"),  # MemoryError
        # the kernel refuses a shape past a C int before building its lists
        ("verify", "9223372036854775807", "--mode", "sampled", "--samples", "1"),
        # the count formula's guard refuses it before taking n!
        ("count", "9223372036854775807"),
        ("enumerate", "9223372036854775807", "--limit", "1"),
        # and the recursion's before its first binomial
        ("count", "4611686018427387904,4611686018427387903", "--method", "recursive"),
    ])
    def test_exits_3(self, args):
        out = _run_cli(*args, preexec_fn=_cap_address_space)
        assert (out.returncode, out.stdout) == (3, ""), out.stderr
        assert out.stderr.startswith("error: too large to compute: ")
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


class TestHugeCounts:
    # 60 rows of 60 cells: f has over 4,300 digits, past Python's default cap
    SHAPE = ",".join(["60"] * 60)

    @pytest.fixture
    def digits(self):
        # the expected text needs the cap lifted too (0 means no cap, or none
        # before Python 3.11); the CLI must leave the cap as it found it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        text = str(count_formula(parse_composition(self.SHAPE)))
        if limit:
            sys.set_int_max_str_digits(limit)
        yield text
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_count(self, capsys, digits):
        assert len(digits) > 4300
        assert main(["count", self.SHAPE]) == 0
        assert capsys.readouterr().out == digits + "\n"
        assert main(["count", self.SHAPE, "--format", "json"]) == 0
        assert f'"count": {digits}\n' in capsys.readouterr().out

    def test_enumerate_total(self, capsys, digits):
        assert main(["enumerate", self.SHAPE, "--limit", "0", "--format", "json"]) == 0
        assert f'"total": {digits},' in capsys.readouterr().out

    def test_sampled_verify(self, capsys, digits):
        argv = ["verify", self.SHAPE, "--mode", "sampled", "--samples", "1"]
        assert main(argv) == 0
        assert f" count={digits} recursive={digits} " in capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert f'"count_formula": {digits},' in out and f'"count_recursive": {digits},' in out


class TestInfo:
    def test_text(self, capsys):
        assert main(["info"]) == 0
        assert capsys.readouterr().out == (
            f"version: {immaculate.__version__}\n"
            f"backend: {BACKEND}\n"
            f"backend_reason: {BACKEND_REASON}\n")

    def test_json(self, capsys):
        assert main(["info", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "version": immaculate.__version__, "backend": BACKEND,
            "backend_reason": BACKEND_REASON}


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hooks", "2,1", "--fast"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--n", "-2"], "--n"),
        (["verify", "2,1", "--jobs", "0"], "--jobs"),
        (["verify", "2,1", "--jobs", "-3"], "--jobs"),
        (["verify", "2,1", "--mode", "sampled", "--samples", "-5"], "--samples"),
        (["enumerate", "2,1", "--limit", "-1"], "--limit"),
        (["verify", "3", "--mode", "sampled", "--guard", "0"], "--guard"),
        (["count", "3", "--method", "brute", "--guard", "-1"], "--guard"),
    ])
    def test_count_flag_below_range_exits_2(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must ")
