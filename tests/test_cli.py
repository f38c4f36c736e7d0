import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringcc

from ringcc.cli import _config_from, build_parser, main
from ringcc.model import Arrival
from ringcc.ring import Ring, RingConfig, Violation
from ringcc.streams import gen_repeat_block, gen_rmat, gen_uniform, render_items


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_stream_file(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nE 2 3\nQ 1 3\nQ 1 9\nCOUNT\n")
    rc = main(["run", stream, "-p", "3", "-s", "10", "-k", "3", "--validate"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert any(line.endswith("OUT q0 true") for line in out)
    assert any(line.endswith("OUT q1 false") for line in out)
    assert any(line.endswith("OUT q2 2") for line in out)


def test_run_emits_metrics_csv(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nE 3 4\nAGE 1\n")
    metrics = tmp_path / "m.csv"
    rc = main(["run", stream, "-p", "2", "-s", "5", "-k", "3",
               "--metrics", str(metrics), "--quiet"])
    assert rc == 0
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["tick", "mode", "stored_total"]
    assert len(rows) > 3
    stored = [int(r[2]) for r in rows[1:]]
    assert stored[-1] == 1  # only the edge newer than the threshold survives


def test_run_reports_failure(tmp_path, capsys):
    stream = write(tmp_path, "s.txt",
                   "".join(f"E {i} {i + 100}\n" for i in range(20)))
    rc = main(["run", stream, "-p", "2", "-s", "2", "-k", "2", "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "FAILED at tick" in err


def test_run_parse_error(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nBOGUS\n")
    rc = main(["run", stream])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_gen_round_trips_through_run(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    rc = main(["gen", "--kind", "repeat", "-n", "200", "--block", "10",
               "-o", str(out)])
    assert rc == 0
    rc = main(["run", str(out), "-p", "3", "-s", "20", "-k", "3",
               "--validate", "--quiet"])
    assert rc == 0


def test_reference_subcommand(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nE 2 3\nE 7 8\n")
    rc = main(["reference", stream, "-s", "2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    labels = {int(l.split()[0]): int(l.split()[1]) for l in out}
    assert labels[1] == labels[2] == labels[3]
    assert labels[7] == labels[8] != labels[1]


@pytest.mark.parametrize("capacity", ["0", "-3"])
def test_reference_refuses_a_capacity_below_one(tmp_path, capsys, capacity):
    # no pass unions anything at a capacity below 1, so none would finish
    stream = write(tmp_path, "s.txt", "E 1 2\nE 2 3\nE 7 8\n")
    rc = main(["reference", stream, "-s", capacity])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"reference: capacity={capacity} must be >= 1\n"


def test_pipelined_engine_flag(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nQ 1 2\n" + ".\n" * 10)
    rc = main(["run", stream, "-p", "3", "-s", "5", "-k", "3",
               "--engine", "pipelined"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OUT q0 true" in out


def test_pipelined_engine_refuses_lockstep_only_flags(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nQ 1 2\n" + ".\n" * 4)
    rc = main(["run", stream, "-p", "3", "-s", "5", "-k", "3",
               "--engine", "pipelined", "--validate"])
    err = capsys.readouterr().err
    assert rc != 0
    assert "--validate" in err


def test_pipelined_metrics_match_lockstep(tmp_path, capsys):
    lines = [f"E {i % 11} {(3 * i + 1) % 17}" for i in range(60)]
    lines[20:20] = ["Q 1 4", "COUNT"]
    lines[45:45] = ["AGE 30", "Q 2 5"]
    stream = write(tmp_path, "s.txt", "\n".join(lines) + "\nQ 0 3\n")
    outputs = {}
    for engine in ("lockstep", "pipelined"):
        metrics = tmp_path / f"{engine}.csv"
        rc = main(["run", stream, "-p", "3", "-s", "25", "-k", "3",
                   "--engine", engine, "--metrics", str(metrics)])
        assert rc == 0
        outputs[engine] = (capsys.readouterr().out, metrics.read_bytes())
    assert "aging complete" in outputs["lockstep"][0]
    assert outputs["pipelined"] == outputs["lockstep"]


def test_experiment_2_uses_the_given_bundle_size(capsys):
    rc = main(["experiment", "2", "-p", "3", "-s", "100", "-k", "3"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [cell["k"] for cell in report["cells"]] == [3]


def test_experiment_3_uses_the_given_unique_fraction(capsys):
    rc = main(["experiment", "3", "-n", "2000", "-p", "2", "-s", "300", "--u", "0.5"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["u"] == 0.5


@pytest.mark.parametrize("argv, flag", [
    (["1", "--validate"], "--validate"),
    (["1", "--downtime", "0.3"], "--downtime"),
    (["3", "--downtime", "0.3"], "--downtime"),
    (["3", "--survivor", "0.5", "0.6"], "--survivor"),
])
def test_experiment_refuses_flags_it_would_ignore(argv, flag, capsys):
    rc = main(["experiment"] + argv + ["-n", "100"])
    err = capsys.readouterr().err
    assert rc == 1
    assert flag in err


def test_experiment_refuses_an_unused_flag_given_as_zero(capsys):
    # 0 == False, yet a flag given as 0 was given
    rc = main(["experiment", "2", "-p", "2", "-s", "100", "--count", "0"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "experiment 2 does not use --count\n"


@pytest.mark.parametrize("flags, field", [
    (["-k", "1"], "bundles need"),
    (["--auto-age-c", "1.5"], "auto_age_c"),
    (["--auto-age-c", "0.5", "--auto-age-margin", "-1"], "auto_age_margin"),
    (["--auto-age-c", "0.5", "--reservoir", "0"], "reservoir"),
])
def test_run_refuses_config_values_out_of_range(tmp_path, capsys, flags, field):
    stream = write(tmp_path, "s.txt", "E 1 2\nQ 1 2\n")
    rc = main(["run", stream, "-p", "4", "-s", "40"] + flags)
    captured = capsys.readouterr()
    assert rc == 1
    assert field in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_run_refuses_an_autoage_line_outside_the_unit_interval(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nAUTOAGE 2.0\n")
    rc = main(["run", stream, "-p", "4", "-s", "40"])
    assert rc == 1
    assert "line 2: AUTOAGE c must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["1", "-n", "100", "-k", "1"], "bundles need"),
    (["2", "--survivor", "1.5"], "c=1.5"),
    (["2", "-k", "3", "--survivor", "1.5"], "c=1.5"),
    (["3", "-n", "100", "--survivor", "1.5"], "auto_age_c"),
])
def test_experiment_refuses_values_out_of_range(argv, field, capsys):
    rc = main(["experiment"] + argv + ["-p", "2", "-s", "50"])
    captured = capsys.readouterr()
    assert rc == 1
    assert field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--reservoir", "50"],
                                   ["--auto-age-margin", "2"],
                                   ["--reservoir", "50", "--auto-age-margin", "2"],
                                   ["--seed", "3"],
                                   ["--seed", "0"]])
def test_run_refuses_policy_flags_nothing_arms(tmp_path, capsys, flags):
    stream = write(tmp_path, "s.txt", "E 1 2\nQ 1 2\n")
    rc = main(["run", stream, "-p", "2", "-s", "50", "-k", "3"] + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert all(flag in err for flag in flags if flag.startswith("--"))


def test_unset_policy_flags_take_the_config_defaults():
    config = _config_from(build_parser().parse_args(["run", "s.txt"]))
    assert (config.reservoir, config.auto_age_margin) == (
        RingConfig.reservoir, RingConfig.auto_age_margin) == (100, 1.25)


def test_unset_seed_takes_the_config_default():
    config = _config_from(build_parser().parse_args(["run", "s.txt"]))
    assert config.seed == RingConfig.seed == 0


def test_run_accepts_seed_when_the_policy_is_armed(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "AUTOAGE 0.5\nE 1 2\nQ 1 2\n")
    rc = main(["run", stream, "-p", "2", "-s", "50", "-k", "3", "--seed", "3"])
    assert rc == 0
    assert "OUT q0 true" in capsys.readouterr().out
    args = build_parser().parse_args(["run", stream, "--auto-age-c", "0.5", "--seed", "3"])
    assert _config_from(args).seed == 3


@pytest.mark.parametrize("kind, flag, value", [
    ("repeat", "--u-target", "0.5"),
    ("rmat", "--u-target", "0.5"),
    ("uniform", "--block", "10"),
    ("rmat", "--block", "10"),
    ("uniform", "--scale", "5"),
    ("repeat", "--scale", "5"),
    ("repeat", "--seed", "4"),
    ("repeat", "--seed", "0"),
])
def test_gen_refuses_flags_its_kind_would_ignore(kind, flag, value, capsys):
    rc = main(["gen", "--kind", kind, "-n", "10", flag, value])
    out, err = capsys.readouterr()
    assert rc == 1
    assert flag in err and out == ""


@pytest.mark.parametrize("kind, flags, edges", [
    ("uniform", ["--seed", "4"], gen_uniform(300, 0.67, 4)),
    ("uniform", ["--seed", "4", "--u-target", "0.5"], gen_uniform(300, 0.5, 4)),
    ("repeat", [], gen_repeat_block(300, 100)),
    ("repeat", ["--block", "7"], gen_repeat_block(300, 7)),
    ("rmat", ["--seed", "4"], gen_rmat(300, 12, seed=4)),
    ("rmat", ["--seed", "4", "--scale", "6"], gen_rmat(300, 6, seed=4)),
])
def test_gen_writes_the_stream_of_its_kind(kind, flags, edges, capsys):
    rc = main(["gen", "--kind", kind, "-n", "300"] + flags)
    assert rc == 0
    assert capsys.readouterr().out == render_items([Arrival(u, v) for u, v in edges])


def test_gen_seeds_uniform_and_rmat_with_zero_by_default(capsys):
    for kind, edges in (("uniform", gen_uniform(50, 0.67, 0)), ("rmat", gen_rmat(50, 12))):
        assert main(["gen", "--kind", kind, "-n", "50"]) == 0
        assert capsys.readouterr().out == render_items([Arrival(u, v) for u, v in edges])


@pytest.mark.parametrize("block", ["0", "-1"])
def test_gen_refuses_a_block_below_one(block):
    # a block below one once added no edge and looped forever; a separate
    # interpreter turns a hang into a timeout, not a stuck suite
    src = str(Path(ringcc.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "ringcc.cli", "gen", "--kind", "repeat",
         "--block", block, "-n", "5"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"gen: block={block} must be >= 1\n"


@pytest.mark.parametrize("flags", [["--u-target", "0"], ["--u-target", "1.5"]])
def test_gen_prints_a_value_the_generator_refuses(flags, capsys):
    rc = main(["gen", "-n", "5"] + flags)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "gen: u_target must be in (0, 1]\n"


@pytest.mark.parametrize("kind, flags, message", [
    ("uniform", ["-n", "-5"], "n=-5 must be >= 0"),
    ("repeat", ["-n", "-3"], "n=-3 must be >= 0"),
    ("rmat", ["-n", "-3"], "n=-3 must be >= 0"),
    ("rmat", ["--scale", "0"], "scale=0 must be >= 1"),
    ("rmat", ["--scale", "-2"], "scale=-2 must be >= 1"),
])
def test_gen_refuses_a_size_it_cannot_honour(kind, flags, message, capsys):
    rc = main(["gen", "--kind", kind] + flags)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"gen: {message}\n"


def test_run_accepts_policy_flags_with_auto_age_c(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "E 1 2\nQ 1 2\n")
    rc = main(["run", stream, "-p", "2", "-s", "50", "-k", "3", "--auto-age-c", "0.5",
               "--reservoir", "50", "--auto-age-margin", "2"])
    assert rc == 0
    assert "OUT q0 true" in capsys.readouterr().out


def test_run_accepts_policy_flags_with_an_autoage_line(tmp_path, capsys):
    stream = write(tmp_path, "s.txt", "AUTOAGE 0.5\nE 1 2\nQ 1 2\n")
    rc = main(["run", stream, "-p", "2", "-s", "50", "-k", "3",
               "--reservoir", "50", "--auto-age-margin", "2"])
    assert rc == 0
    assert "OUT q0 true" in capsys.readouterr().out


def test_run_reports_failure_and_violations(tmp_path, capsys, monkeypatch):
    planted = [Violation(0, "tree-prefix", 0, "planted")]

    def audit(ring):
        found = planted[:]
        planted.clear()
        return found

    monkeypatch.setattr(Ring, "audit_invariants", audit)
    stream = write(tmp_path, "s.txt",
                   "".join(f"E {i} {i + 100}\n" for i in range(20)))
    rc = main(["run", stream, "-p", "2", "-s", "2", "-k", "2", "--validate", "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert "violation tick=0 tree-prefix p0: planted" in err
    assert any(line.startswith("FAILED at tick") for line in err)


def test_run_counts_the_violations_it_does_not_print(tmp_path, capsys, monkeypatch):
    planted = [Violation(0, "tree-prefix", 0, f"planted {i}") for i in range(60)]

    def audit(ring):
        found = planted[:]
        planted.clear()
        return found

    monkeypatch.setattr(Ring, "audit_invariants", audit)
    stream = write(tmp_path, "s.txt", "E 1 2\nE 2 3\n")
    rc = main(["run", stream, "-p", "2", "-s", "4", "-k", "2", "--validate", "--quiet"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert [line for line in err if line.startswith("violation")] == [
        f"violation tick=0 tree-prefix p0: planted {i}" for i in range(50)]
    assert err[-1] == "10 more violations not shown"
