import csv
import json

import pytest

from ringcc.cli import main
from ringcc.ring import Ring, Violation


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
