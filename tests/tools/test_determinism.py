"""``repro.tools.determinism``: run a reporter twice, byte-compare."""

import sys

import pytest

from repro.tools.determinism import main

# A stand-in reporter: ``python -c SCRIPT --out PATH`` (argv[2] is PATH).
_STABLE = "import sys; open(sys.argv[2], 'w').write('{\"ok\": true}')"
_DRIFTING = "import sys; open(sys.argv[2], 'w').write(sys.argv[2])"
_FAILING = "import sys; open(sys.argv[2], 'w').write('x'); sys.exit(3)"


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_identical_reports_pass_and_both_files_stay(in_tmp):
    assert main(["same", "--", sys.executable, "-c", _STABLE]) == 0
    assert (in_tmp / "same.json").read_bytes() == (in_tmp / "same_2.json").read_bytes()


def test_any_difference_is_exit_1(capsys):
    assert main(["drift", "--", sys.executable, "-c", _DRIFTING]) == 1
    assert "differ" in capsys.readouterr().err


def test_the_commands_own_failure_wins_and_stops_the_second_run(in_tmp):
    assert main(["bad", "--", sys.executable, "-c", _FAILING]) == 3
    assert not (in_tmp / "bad_2.json").exists()


@pytest.mark.parametrize("argv", [[], ["name"], ["name", "--"], ["name", "cmd", "x"]])
def test_bad_usage_is_exit_2(argv):
    assert main(argv) == 2
