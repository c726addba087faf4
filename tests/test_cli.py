import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pellprime import cli, search
from pellprime.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def test_test_exit_codes_follow_verdicts(capsys):
    code, out, _ = run_cli(capsys, "test", "323", "--method", "lucas", "--selfridge")
    record = jsonl(out)[0]
    assert code == 0
    assert record["schema"] == "v1"
    assert record["outcome"] == "probable-prime"

    code, out, _ = run_cli(capsys, "test", "323", "--method", "double-lucas",
                           "--selfridge")
    assert code == 1
    assert jsonl(out)[0]["outcome"] == "composite"

    code, out, _ = run_cli(capsys, "test", "4", "--method", "lucas",
                           "-P", "4", "-Q", "1")
    assert code == 2
    assert jsonl(out)[0]["outcome"] == "params-invalid"


def test_negative_parameter_flags(capsys):
    # both "-P -3" and "-P=-3" must parse
    code, out, _ = run_cli(capsys, "test", "1891", "--method", "lucas",
                           "-P", "-3", "-Q", "-1")
    assert code in (0, 1)
    code2, out2, _ = run_cli(capsys, "test", "1891", "--method", "lucas",
                             "-P=-3", "-Q=-1")
    assert code2 == code
    assert jsonl(out2)[0] == jsonl(out)[0]


def test_selfridge_conflicts_with_explicit_params(capsys):
    code, _, err = run_cli(capsys, "test", "323", "--method", "lucas",
                           "--selfridge", "-P", "1")
    assert code == 2
    assert "mutually exclusive" in err


def test_parameters_a_method_ignores_are_rejected(capsys):
    for argv in (("test", "7", "--method", "pell-variant", "--selfridge"),
                 ("test", "7", "--method", "lucas", "-P", "4", "-Q", "1",
                  "--variant", "v-companion"),
                 ("test", "7", "--method", "strong-pell", "-D", "3", "-a",
                  "3", "-x", "2", "-y", "1"),
                 ("scan", "--method", "gen-pell", "--selfridge", "--variant",
                  "u-companion", "--to", "100"),
                 ("grid", "--method", "lucas", "--p-range", "1",
                  "--q-range", "2", "--limit", "500", "--variant",
                  "v-companion")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert "does not use" in err, argv


def test_jobs_below_one_is_rejected(capsys):
    code, out, err = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                             "-Q", "1", "--to", "1000", "--jobs", "-3")
    assert code == 2
    assert out == ""
    assert "jobs" in err
    code, _, err = run_cli(capsys, "grid", "--method", "lucas",
                           "--p-range", "1", "--q-range", "2",
                           "--limit", "500", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_rejected_csv_scan_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                             "-Q", "1", "--to", "1000", "--jobs", "-3",
                             "--format", "csv")
    assert code == 2
    assert out == ""
    assert "jobs" in err
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--from", "500", "--to", "100",
                           "--format", "csv")
    assert code == 2
    assert out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["test", "notanumber", "--method", "lucas"])
    assert exc.value.code == 2


def test_scan_jsonl_records(capsys):
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "5000")
    assert code == 0
    records = jsonl(out)
    finds = [r for r in records if r["type"] == "pseudoprime"]
    summary = [r for r in records if r["type"] == "scan_summary"]
    assert [r["n"] for r in finds] == [65, 209, 629, 679, 901, 989, 1241,
                                       1769, 1961, 1991, 2509, 2701, 2911,
                                       3007, 3439, 3869]
    assert len(summary) == 1 and summary[0]["count"] == 16
    assert summary[0]["params"] == "P=4,Q=1"


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "1000", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "record"
    finds = [r for r in rows[1:] if r[0] == "pseudoprime"]
    summary = [r for r in rows[1:] if r[0] == "summary"]
    assert [int(r[1]) for r in finds] == [65, 209, 629, 679, 901, 989]
    assert len(summary) == 1
    assert int(summary[0][6]) == 6


def test_scan_selfridge_flag(capsys):
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "--selfridge",
                           "--from", "3", "--to", "4000")
    assert code == 0
    finds = [r["n"] for r in jsonl(out) if r["type"] == "pseudoprime"]
    assert finds == [323, 377, 1159, 1829, 3827]


def test_scan_checkpoint_roundtrip(tmp_path, capsys):
    ckpt = str(tmp_path / "scan.ckpt")
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "2500", "--checkpoint", ckpt)
    assert code == 0
    first = [r["n"] for r in jsonl(out) if r["type"] == "pseudoprime"]
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "5000", "--checkpoint", ckpt)
    assert code == 0
    rest = [r["n"] for r in jsonl(out) if r["type"] == "pseudoprime"]
    assert first + rest == [65, 209, 629, 679, 901, 989, 1241, 1769, 1961,
                            1991, 2509, 2701, 2911, 3007, 3439, 3869]
    # a different scan must refuse the same checkpoint file
    code, _, err = run_cli(capsys, "scan", "--method", "lucas", "-P", "5",
                           "-Q", "1", "--to", "5000", "--checkpoint", ckpt)
    assert code == 2
    assert "different scan" in err


def test_scan_refuses_a_checkpoint_past_its_end(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    args = ("scan", "--method", "lucas", "--selfridge", "--checkpoint",
            str(ckpt))
    code, _, _ = run_cli(capsys, *args, "--to", "100000")
    assert code == 0
    assert ckpt.read_text().startswith("cursor=100001 ")
    # a finished scan may be run again: it resumes at hi + 1 and scans nothing
    code, out, _ = run_cli(capsys, *args, "--to", "100000")
    assert code == 0 and jsonl(out)[-1]["count"] == 0
    # a shorter scan must not silently cover nothing
    code, out, err = run_cli(capsys, *args, "--to", "50000")
    assert code == 2 and out == ""
    assert "past the end" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_scan_with_an_unusable_checkpoint_path_exits_2_silently(
        tmp_path, capsys, where):
    # A path in a missing directory cannot be written, and a directory
    # cannot be read: either is an error before the scan streams any find.
    ckpt = tmp_path / "no" / "ck" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "scan", "--method", "lucas",
                             "--selfridge", "--to", "1000", "--checkpoint",
                             str(ckpt))
    assert code == 2 and out == ""
    assert err.startswith("pellprime: error: ")


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_scan_exits_130_and_names_its_checkpoint(
        tmp_path, capsys, monkeypatch, jobs):
    # Ctrl-C lands as KeyboardInterrupt in the third checkpoint write: after
    # the starting cursor and the cursor after the first chunk of 2**16 odd
    # n, while the scan's pool (jobs=2) still holds the other stripes.
    search._close_pool()
    ckpt = tmp_path / "scan.ckpt"
    cursors = []
    write = search.write_checkpoint

    def interrupted(path, cursor, method, canonical):
        cursors.append(cursor)
        if len(cursors) == 3:
            raise KeyboardInterrupt
        write(path, cursor, method, canonical)

    monkeypatch.setattr(search, "write_checkpoint", interrupted)
    code, _, err = run_cli(capsys, "scan", "--method", "lucas", "--selfridge",
                           "--to", "400000", "--jobs", str(jobs),
                           "--checkpoint", str(ckpt))
    assert code == 130
    assert err == f"pellprime: interrupted; resume from checkpoint {ckpt}\n"
    assert "Traceback" not in err
    assert search._pools == {}
    assert cursors[:2] == [3, 3 + 2**17]
    assert ckpt.read_text().startswith(f"cursor={cursors[1]} ")


def test_interrupt_without_a_checkpoint_exits_130(capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(search, "_scan_stripe", interrupted)
    code, out, err = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                             "-Q", "1", "--to", "5000")
    assert (code, out, err) == (130, "", "pellprime: interrupted\n")


def _cursor(path) -> int:
    """The cursor a checkpoint file holds, 0 before the first write."""
    try:
        return int(path.read_text().split()[0].partition("=")[2])
    except FileNotFoundError:
        return 0


def _group_gone(pgid: int) -> bool:
    """Whether process group pgid is empty within 10 s; any member left
    then is killed, so that a failure leaves no process behind."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return False


@pytest.mark.parametrize("jobs, target", [(1, "group"), (2, "group"),
                                          (2, "cli")])
def test_sigterm_ends_a_scan_as_ctrl_c_does_and_leaves_no_worker(
        tmp_path, jobs, target):
    # The scan of odd n to 10**9 runs for minutes; it is stopped once it
    # has written the cursor after its first chunk, while --jobs 2 has a
    # live pool.  Whether SIGTERM reaches the workers too (the process
    # group) or not, the CLI shuts them down, and no traceback is printed.
    ckpt = tmp_path / "scan.ckpt"
    src = Path(search.__file__).resolve().parents[1]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pellprime.cli", "scan", "--method", "lucas",
         "--selfridge", "--to", str(10**9), "--jobs", str(jobs),
         "--checkpoint", str(ckpt)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while (_cursor(ckpt) <= 3 and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if target == "group":
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            os.kill(proc.pid, signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        left = not _group_gone(proc.pid)
        proc.kill()
        proc.wait()
    assert proc.returncode == 143
    assert err == f"pellprime: interrupted; resume from checkpoint {ckpt}\n"
    assert not left
    assert _cursor(ckpt) > 3


def test_a_forked_worker_leaves_sigterm_to_the_cli():
    previous = signal.signal(signal.SIGTERM, cli._terminate)
    try:
        pid = os.fork()
        if pid == 0:
            os._exit(signal.getsignal(signal.SIGTERM) is not signal.SIG_IGN)
        _, status = os.waitpid(pid, 0)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert os.waitstatus_to_exitcode(status) == 0


def test_main_puts_the_sigterm_handler_back(capsys):
    before = signal.getsignal(signal.SIGTERM)
    code, _, _ = run_cli(capsys, "test", "323", "--method", "lucas",
                         "--selfridge")
    assert code == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_grid_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "grid", "--method", "lucas",
                           "--p-range=-3:-2", "--q-range=-1,1",
                           "--limit", "2000")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["P\\Q", "-1", "1"]
    assert rows[1][0] == "-3" and rows[2][0] == "-2"
    assert all(len(r) == 3 for r in rows)


def test_grid_jsonl_cells(capsys):
    code, out, _ = run_cli(capsys, "grid", "--method", "matrix",
                           "--p-range", "1", "--q-range", "2",
                           "--r-set=-1,0", "--limit", "500",
                           "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    cells = [r for r in records if r["type"] == "grid_cell"]
    assert {(c["R"], c["skipped"]) for c in cells} == {(-1, False), (0, True)}


def test_format_changes_serialization_not_content(capsys):
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "2000")
    json_finds = [r["n"] for r in jsonl(out) if r["type"] == "pseudoprime"]
    json_count = [r for r in jsonl(out) if r["type"] == "scan_summary"][0]["count"]
    code, out, _ = run_cli(capsys, "scan", "--method", "lucas", "-P", "4",
                           "-Q", "1", "--to", "2000", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    csv_finds = [int(r[1]) for r in rows[1:] if r[0] == "pseudoprime"]
    csv_count = int([r for r in rows[1:] if r[0] == "summary"][0][6])
    assert json_finds == csv_finds
    assert json_count == csv_count


def test_grid_rejects_r_values_the_method_does_not_use(capsys):
    for method in ("lucas", "double-lucas"):
        code, out, err = run_cli(capsys, "grid", "--method", method,
                                 "--p-range", "1", "--q-range=-1",
                                 "--r-set", "5", "--limit", "500")
        assert code == 2, method
        assert out == "", method
        assert "does not use R" in err, method


def test_grid_meta_records_the_matrix_variant(capsys):
    argv = ("grid", "--method", "matrix", "--p-range", "1", "--q-range=-2",
            "--r-set=-1", "--limit", "500", "--format", "jsonl")
    metas = []
    for extra in ((), ("--variant", "v-companion")):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        metas.append([r for r in jsonl(out) if r["type"] == "grid_meta"][0])
    default, v_companion = metas
    assert (default["variant"], v_companion["variant"]) == ("u-companion",
                                                            "v-companion")
    differ = {k for k in default.keys() | v_companion.keys()
              if default.get(k) != v_companion.get(k)}
    assert differ <= {"variant", "elapsed_s"} and "variant" in differ


def test_grid_matrix_needs_r_set(capsys):
    code, _, err = run_cli(capsys, "grid", "--method", "matrix",
                           "--p-range", "1", "--q-range", "2",
                           "--limit", "500")
    assert code == 2
    assert "r-set" in err
