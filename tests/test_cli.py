"""Command line behavior: output formats and the exit-code contract."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ternwords
from ternwords import builtin_pair, make_triple_pair, pair_text, parse_word, verify
from ternwords import cli
from ternwords.cli import main

DATA = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Resolve an entry-point target the way an installer's console-script
# wrapper does: load ``module:function`` and exit with its return value.
ENTRY_POINT_RUNNER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="ternwords", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["ternwords"] + sys.argv[2:]
sys.exit(main())
"""

TINY_PAIR_TEXT = "01\n02\n10\n12\n20\n21\n"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pair_file(tmp_path, builtin):
    path = tmp_path / "pair.txt"
    path.write_text(pair_text(builtin))
    return str(path)


@pytest.fixture()
def failing_pair_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_PAIR_TEXT)
    return str(path)


class TestCount:
    def test_known_value(self, capsys):
        assert run(["count", "6"], capsys) == (0, "42\n", "")

    def test_empty_length(self, capsys):
        assert run(["count", "0"], capsys) == (0, "1\n", "")

    def test_negative_is_usage_error(self, capsys):
        code, out, err = run(["count", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_non_integer_is_usage_error(self, capsys):
        assert run(["count", "six"], capsys)[0] == 2

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(["count", "6", "--nodes", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_budget_exits_three(self):
        # without the budget, a(5000) would never finish
        proc = subprocess.run(
            [sys.executable, "-m", "ternwords", "count", "5000", "--nodes", "1000"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=10,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: node budget of 1000")

    def test_budget_large_enough(self, capsys):
        assert run(["count", "20", "--nodes", "1241"], capsys) == (0, "2388\n", "")

    def test_default_budget_stops_a_long_count(self, capsys, monkeypatch):
        # a(100) needs more than 1000 prefixes, but Brinkhuis' bound does
        # not show it, so the walk itself runs out
        monkeypatch.setattr(cli, "DEFAULT_COUNT_BUDGET", 1000)
        code, out, err = run(["count", "100"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: node budget of 1000")

    def test_default_budget_fails_a500_before_walking(self, capsys):
        # Brinkhuis' bound puts more than 10^7 prefixes below a(500), so
        # the count exits 3 at once instead of walking 10^7 of them
        assert run(["count", "500"], capsys) == (
            3,
            "",
            "error: node budget of 10000000 prefixes exhausted before a(500) was counted\n",
        )

    def test_default_budget_fails_a400_before_walking(self, capsys):
        # the built-in pair's a(18j) >= 2^j * a(j) puts more than 10^7
        # prefixes below a(400), where Brinkhuis' bound does not
        assert run(["count", "400"], capsys) == (
            3,
            "",
            "error: node budget of 10000000 prefixes exhausted before a(400) was counted\n",
        )

    def test_default_budget_reaches_a42(self, capsys):
        # a(42) visits 452767 prefixes
        assert run(["count", "42"], capsys) == (0, "821154\n", "")


class TestCheck:
    def test_square_free_word(self, capsys):
        assert run(["check", "0102"], capsys) == (0, "SQUAREFREE\n", "")

    def test_square_with_witness(self, capsys):
        code, out, err = run(["check", "0101"], capsys)
        assert code == 1
        assert out == "SQUARE start=0 period=2\n"
        assert err == ""

    def test_empty_word_is_square_free(self, capsys):
        assert run(["check", ""], capsys)[0] == 0

    def test_bad_letter(self, capsys):
        code, out, err = run(["check", "03"], capsys)
        assert code == 2
        assert "position 1" in err


class TestBound:
    @pytest.mark.parametrize(
        "k,line",
        [
            ("18", "2^(1/17) = 1.041616011"),
            ("25", "2^(1/24) = 1.029302237"),
            ("23", "2^(1/22) = 1.03200828"),
        ],
    )
    def test_ten_significant_digits(self, capsys, k, line):
        assert run(["bound", k], capsys) == (0, line + "\n", "")

    def test_degenerate_k(self, capsys):
        assert run(["bound", "1"], capsys)[0] == 2


class TestPairVerify:
    def test_file_path(self, capsys, pair_file):
        code, out, err = run(["pair", "verify", pair_file], capsys)
        assert code == 0
        assert err == ""
        assert out == (DATA / "builtin_certificate.txt").read_text()

    def test_stdin_dash(self, capsys, monkeypatch, builtin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(pair_text(builtin)))
        code, out, _ = run(["pair", "verify", "-"], capsys)
        assert code == 0
        assert out.endswith("VERDICT PASS\n")

    def test_failing_pair(self, capsys, failing_pair_file):
        code, out, _ = run(["pair", "verify", failing_pair_file], capsys)
        assert code == 1
        assert out.endswith("VERDICT FAIL\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(["pair", "verify", str(tmp_path / "nope.txt")], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("01\n02\n")
        code, _, err = run(["pair", "verify", str(bad)], capsys)
        assert code == 2
        assert "expected 6 words" in err


class TestPairShowBuiltin:
    def test_prints_pair_file_format(self, capsys, builtin):
        assert run(["pair", "show-builtin"], capsys) == (0, pair_text(builtin), "")

    def test_round_trips_through_verify(self, capsys, monkeypatch):
        code, out, _ = run(["pair", "show-builtin"], capsys)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run(["pair", "verify", "-"], capsys)
        assert code == 0
        assert out.endswith("VERDICT PASS\n")


class TestPairSearch:
    def test_empty_space_exits_one(self, capsys):
        code, out, err = run(["pair", "search", "--k", "4"], capsys)
        assert code == 1
        assert err == ""
        assert out.splitlines()[-1].startswith("nodes=")
        assert "found=0 exhausted=true" in out

    def test_first_hit_at_18(self, capsys):
        code, out, err = run(
            ["pair", "search", "--k", "18", "--limit", "1"], capsys
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "# pair 1"
        assert lines[-1].endswith("found=1 exhausted=false")
        found = make_triple_pair([parse_word(t) for t in lines[1:7]])
        assert verify(found).verdict

    def test_budget_without_result_exits_three(self, capsys):
        code, out, _ = run(
            ["pair", "search", "--k", "18", "--nodes", "100"], capsys
        )
        assert code == 3
        assert "found=0 exhausted=false" in out

    def test_flag_combinations(self, capsys):
        code, out, _ = run(
            ["pair", "search", "--k", "6", "--first-letter", "none", "--raw"],
            capsys,
        )
        assert code == 1
        assert "found=0 exhausted=true" in out

    def test_palindrome_regime(self, capsys):
        code, out, _ = run(
            ["pair", "search", "--k", "25", "--palindrome", "--limit", "1"],
            capsys,
        )
        assert code == 0
        assert "found=1" in out.splitlines()[-1]

    def test_sharded_run(self, capsys):
        code, out, _ = run(
            ["pair", "search", "--k", "18", "--shards", "2", "--limit", "1"],
            capsys,
        )
        assert code == 0
        assert "found=1" in out.splitlines()[-1]

    def test_bad_config_exits_two(self, capsys):
        code, _, err = run(["pair", "search", "--k", "1"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_no_shift_flag_parses(self, capsys):
        code, out, _ = run(
            ["pair", "search", "--k", "2", "--no-shift", "--first-letter", "none"],
            capsys,
        )
        assert code == 1
        assert "exhausted=true" in out


class TestExpand:
    def test_single_letter(self, capsys, pair_file, builtin):
        code, out, err = run(
            ["expand", pair_file, "--word", "0", "--choices", "U"], capsys
        )
        assert code == 0
        assert err == ""
        assert out == str(builtin.u[0]) + "\n"

    def test_three_letters(self, capsys, pair_file, builtin):
        code, out, _ = run(
            ["expand", pair_file, "--word", "012", "--choices", "UVU"], capsys
        )
        assert code == 0
        assert out.strip() == str(builtin.u[0] + builtin.v[1] + builtin.u[2])

    def test_length_mismatch(self, capsys, pair_file):
        code, _, err = run(
            ["expand", pair_file, "--word", "01", "--choices", "U"], capsys
        )
        assert code == 2
        assert "does not match" in err

    def test_bad_word(self, capsys, pair_file):
        assert run(
            ["expand", pair_file, "--word", "0a", "--choices", "UU"], capsys
        )[0] == 2

    def test_bad_choices(self, capsys, pair_file):
        assert run(
            ["expand", pair_file, "--word", "01", "--choices", "UX"], capsys
        )[0] == 2


class TestExpandVerify:
    def test_blow_up_confirmed(self, capsys, pair_file):
        code, out, err = run(["expand-verify", pair_file, "--n", "2"], capsys)
        assert code == 0
        assert err == ""
        assert out == "total=24 squarefree=true distinct=true\n"

    def test_unsound_pair_names_its_first_square(self, capsys):
        # the pair's certificate passes, but an image at n=3 has a square
        pair = str(DATA / "unsound_k23_pair.txt")
        code, out, err = run(["expand-verify", pair, "--n", "3"], capsys)
        assert (code, err) == (1, "")
        assert out == (
            "total=96 squarefree=false distinct=true\n"
            "first_square word=010 choices=UUU start=14 period=18\n"
        )

    def test_pair_is_verified_once(self, capsys, monkeypatch, pair_file):
        calls = []

        def counted(tp):
            calls.append(tp)
            return verify(tp)

        monkeypatch.setattr(cli, "verify", counted)
        monkeypatch.setattr(ternwords.morphism, "verify", counted)
        code, out, _ = run(["expand-verify", pair_file, "--n", "2"], capsys)
        assert (code, out) == (0, "total=24 squarefree=true distinct=true\n")
        assert len(calls) == 1

    def test_failing_pair_exits_one(self, capsys, failing_pair_file):
        code, _, err = run(["expand-verify", failing_pair_file, "--n", "1"], capsys)
        assert code == 1
        assert "fails verification" in err

    def test_budget_exits_three(self, capsys, pair_file):
        code, _, err = run(
            ["expand-verify", pair_file, "--n", "3", "--budget", "10"], capsys
        )
        assert code == 3
        assert "exceeds budget" in err

    def test_negative_n(self, capsys, pair_file):
        assert run(["expand-verify", pair_file, "--n", "-1"], capsys)[0] == 2

    def test_huge_n_is_rejected_before_counting(self, pair_file):
        # a(60) alone would take hours to count; 2^60 already exceeds the budget
        proc = subprocess.run(
            [sys.executable, "-m", "ternwords", "expand-verify", pair_file, "--n", "60"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=10,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "exceeds budget" in proc.stderr


def _child_env():
    """Environment in which a child process imports the ternwords under test."""
    env = dict(os.environ)
    import_root = str(Path(ternwords.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [import_root, env.get("PYTHONPATH")])
    )
    return env


def _declared_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    return scripts[name]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ternwords", "count", "6"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "42\n"

    def test_console_script(self):
        """The declared console script runs; so does an installed one, if any."""
        target = _declared_script("ternwords")
        commands = [[sys.executable, "-c", ENTRY_POINT_RUNNER, target]]
        installed = shutil.which("ternwords")
        if installed:
            commands.append([installed])
        for command in commands:
            proc = subprocess.run(
                command + ["bound", "18"],
                capture_output=True,
                text=True,
                env=_child_env(),
            )
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout == "2^(1/17) = 1.041616011\n"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
