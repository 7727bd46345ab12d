import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ubern.bernoulli as bernoulli
import ubern.cli as cli
from ubern.bernoulli import divided_ubern, format_rational
from ubern.cli import _monomial, main
from ubern.congruences import FAMILIES, verify_theorem_4_8
from ubern.errors import CeilingExceeded
from ubern.lemmas import run_sweep

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--n", "2", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0]) == {"n": 2, "count": 2}
    coeffs = [json.loads(line)["c"] for line in lines[1:]]
    assert coeffs == ["1/3", "-1/4"]


@pytest.mark.parametrize("argv, message", [
    (("compute", "--n", "0"), "n must be >= 1, got 0"),
    (("classical", "--n-max", "0"), "n_max must be >= 1, got 0"),
    (("compute", "--n", "5", "--n-ceiling", "0"), "n_ceiling must be >= 1, got 0"),
], ids=["n", "n_max", "n_ceiling"])
def test_compute_rejects_nonpositive(capsys, argv, message):
    # each integer parameter is refused by errors._require_ints, by name
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_compute_respects_ceiling(capsys):
    code, _, err = run(capsys, "compute", "--n", "61")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--n", "10", "--n-ceiling", "9")
    assert code == 2


def test_compute_text_elision(capsys):
    code, out, _ = run(capsys, "compute", "--n", "12")
    assert code == 0
    assert "77 terms" in out
    assert "57 more terms" in out


def test_compute_cache_hit_identical_bytes(capsys, tmp_path: Path):
    args = ("compute", "--n", "12", "--cache-dir", str(tmp_path), "--format", "json")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, err2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache write" in err1
    assert "cache hit" in err2
    # the hit prints exactly the bytes it has checked
    assert out2.encode() == (tmp_path / "ubern_12.jsonl").read_bytes()


def _reference_text(n):
    # the text route as it read the SparsePoly: count, first 20 terms, elision
    items = divided_ubern(n).items()
    out = [f"divided universal Bernoulli number, weight {n}: {len(items)} terms"]
    out += [f"  {format_rational(c)} * {_monomial(u)}" for u, c in items[:20]]
    if len(items) > 20:
        out.append(f"  ... ({len(items) - 20} more terms)")
    return "\n".join(out) + "\n"


def test_compute_text_same_on_hit_miss_and_no_cache(capsys, tmp_path: Path):
    for n in (2, 12, 30):
        args = ("compute", "--n", str(n))
        cached = (*args, "--cache-dir", str(tmp_path))
        runs = [run(capsys, *args), run(capsys, *cached), run(capsys, *cached)]
        assert "cache write" in runs[1][2] and "cache hit" in runs[2][2]
        for code, out, _ in runs:
            assert code == 0
            assert out == _reference_text(n), n


def test_compute_ceiling_applies_to_cache_hits(capsys, monkeypatch, tmp_path: Path):
    args = ("compute", "--n", "20", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    assert (tmp_path / "ubern_20.jsonl").exists()
    code, out, err = run(capsys, *args, "--n-ceiling", "10")
    assert (code, out) == (2, "") and "ceiling" in err
    monkeypatch.setenv("UBERN_N_CEILING", "10")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "") and "ceiling" in err


def test_compute_unwritable_cache_dir_exits_3(capsys, tmp_path: Path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    for cache_dir in (blocker / "sub", blocker):
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "compute", "--n", "6", "--cache-dir", str(cache_dir), "--format", fmt
            )
            assert (code, out) == (3, ""), cache_dir
            assert "cache error" in err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory\n"


def test_compute_cache_corruption_exits_3(capsys, tmp_path: Path):
    run(capsys, "compute", "--n", "6", "--cache-dir", str(tmp_path))
    path = tmp_path / "ubern_6.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    code, _, err = run(capsys, "compute", "--n", "6", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "cache error" in err


def test_compute_cache_reordered_exits_3(capsys, tmp_path: Path):
    run(capsys, "compute", "--n", "6", "--cache-dir", str(tmp_path))
    path = tmp_path / "ubern_6.jsonl"
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "compute", "--n", "6", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "cache error" in err


def test_compute_cache_wrong_value_exits_3(capsys, tmp_path: Path):
    # a wrong coefficient in canonical form does not load
    run(capsys, "compute", "--n", "7", "--cache-dir", str(tmp_path))
    path = tmp_path / "ubern_7.jsonl"
    text = path.read_text()
    assert '"c":"90/1"' in text
    for wrong in ('"c":"91/1"', '"c":"-90/1"'):
        path.write_text(text.replace('"c":"90/1"', wrong, 1))
        for fmt in ("json", "text"):
            code, out, err = run(
                capsys, "compute", "--n", "7", "--cache-dir", str(tmp_path), "--format", fmt
            )
            assert (code, out) == (3, ""), (wrong, fmt)
            assert "cache error" in err and "term line 1 " in err


def _flip_sign(line):
    # the same line with the sign of its coefficient flipped
    return line.replace('"c":"-', '"c":"') if '"c":"-' in line else line.replace('"c":"', '"c":"-')


@pytest.mark.parametrize("u, at, size", [
    ([[1, 12]], 6, 7),  # the last term line, the last of the empty prefix's 7
    ([[1, 5], [2, 2], [3, 1]], 2, 5),  # the middle of the 5 lines of prefix 3
])
def test_compute_cache_names_the_changed_line_of_a_block(capsys, tmp_path: Path, u, at, size):
    # the reader compares blocks, yet names the changed term line and its u
    run(capsys, "compute", "--n", "12", "--cache-dir", str(tmp_path))
    path = tmp_path / "ubern_12.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if i and json.loads(line)["u"] == u)
    block = next(b for b in bernoulli.cache_blocks(12) if lines[index] in b)
    block = block.splitlines(keepends=True)
    assert (block.index(lines[index]), len(block)) == (at, size)
    path.write_text("".join(lines[:index] + [_flip_sign(lines[index])] + lines[index + 1:]))
    for fmt in ("json", "text"):
        code, out, err = run(
            capsys, "compute", "--n", "12", "--cache-dir", str(tmp_path), "--format", fmt
        )
        assert (code, out) == (3, ""), fmt
        name = json.dumps(u, separators=(",", ":"))
        assert f"term line {index} is not the line of u = {name}:" in err, err


def test_compute_cache_bad_header_exits_3(capsys, tmp_path: Path):
    (tmp_path / "ubern_6.jsonl").write_text("[1,2]\n")
    code, _, err = run(capsys, "compute", "--n", "6", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "cache error" in err


def test_compute_cache_byte_that_is_not_utf8_exits_3(capsys, tmp_path: Path):
    run(capsys, "compute", "--n", "30", "--cache-dir", str(tmp_path))
    path = tmp_path / "ubern_30.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:300_000] + b"\xff" + data[300_001:])
    code, out, err = run(capsys, "compute", "--n", "30", "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert "cache error" in err and "term line 3802 " in err, err


def test_compute_fails_closed_in_the_middle_of_a_write(capsys, monkeypatch, tmp_path: Path):
    # the spool keeps the blocks made before the failure from stdout, and
    # it leaves no file behind, nor does the cache write
    real_blocks = bernoulli.cache_blocks

    def failing_blocks(n):
        blocks = real_blocks(n)
        yield next(blocks)
        yield next(blocks)
        raise OSError("disk full")

    cache_dir, spool_dir = tmp_path / "cache", tmp_path / "spool"
    cache_dir.mkdir()
    spool_dir.mkdir()
    monkeypatch.setattr(bernoulli, "cache_blocks", failing_blocks)
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "compute", "--n", "9", "--cache-dir", str(cache_dir), "--format", fmt
        )
        assert (code, out) == (3, ""), fmt
        assert "cache error" in err and "disk full" in err
        assert list(cache_dir.iterdir()) == [] and list(spool_dir.iterdir()) == []
    # a spool that cannot be opened fails closed the same way (JSON: text
    # keeps its lines in memory)
    monkeypatch.setattr(bernoulli, "cache_blocks", real_blocks)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    code, out, err = run(
        capsys, "compute", "--n", "9", "--cache-dir", str(cache_dir), "--format", "json"
    )
    assert (code, out) == (3, "") and "cannot open a spool file" in err
    assert list(cache_dir.iterdir()) == []


class _FullSpool(io.StringIO):
    # a spool on a full file system: every write raises ENOSPC
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_compute_names_a_full_spool(capsys, monkeypatch, tmp_path: Path):
    # a spool that cannot take the file is blamed, not the cache file: a
    # JSON miss and hit exit 3, print nothing and leave the cache as it was
    path = tmp_path / bernoulli.cache_file_name(9)
    argv = ("compute", "--n", "9", "--cache-dir", str(tmp_path), "--format", "json")
    for step in ("miss", "hit"):
        if step == "hit":
            assert run(capsys, *argv)[0] == 0
            before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: _FullSpool())
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), step
        assert f"cache error: cannot copy {path} to its output: " in err, (step, err)
        assert list(tmp_path.iterdir()) == ([] if step == "miss" else [path]), step
    assert path.read_bytes() == before


# sha256 of the text of compute --n 30, without a cache
TEXT_30_SHA256 = "7d9ce77ef6c577d730f25244d7f377f33482548ca37540018b00f4ebd6729778"


def test_compute_text_keeps_its_lines_without_a_spool(capsys, monkeypatch, tmp_path: Path):
    # text shows the header and 20 terms: a miss and a hit keep those lines,
    # open no spool file and print the bytes of the run without a cache; a
    # cache error past the lines shown still prints nothing and exits 3
    def no_spool(*args, **kwargs):
        raise AssertionError("text compute opened a spool file")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    argv = ("compute", "--n", "30", "--cache-dir", str(tmp_path))
    for step in ("cache write", "cache hit"):
        code, out, err = run(capsys, *argv)
        assert code == 0 and step in err, (step, err)
        assert hashlib.sha256(out.encode()).hexdigest() == TEXT_30_SHA256, step
    path = tmp_path / bernoulli.cache_file_name(30)
    lines = path.read_text().splitlines(keepends=True)
    lines[1000] = _flip_sign(lines[1000])
    path.write_text("".join(lines))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, ""), err
    assert "cache error" in err and "term line 1000 " in err, err


def _subprocess_env(tmp_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    env.pop("UBERN_CACHE_DIR", None)
    return env


RSS_SCRIPT = """
import contextlib, os, resource, sys
import ubern.cli
floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
argv = ["compute", "--n", "46", "--format", "json", "--cache-dir", sys.argv[1]]
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    codes = [ubern.cli.main(argv), ubern.cli.main(argv)]
print(*codes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - floor)
"""

# A process takes the peak of the memory it was started from as its first
# ru_maxrss, which from pytest would hide the rise; a bare interpreter in
# between starts the measured one from less than the import floor.
SPAWN = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def test_compute_cache_peak_stays_at_the_import_floor(tmp_path: Path):
    # a miss and a hit of the 12 MB weight-46 file copy it through a spool
    # file block by block: the peak resident memory stays within 2 MB of
    # what importing ubern.cli takes, where holding the file added 13 MB
    cache_dir = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN, sys.executable, "-c", RSS_SCRIPT, str(cache_dir)],
        env=_subprocess_env(tmp_path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    miss, hit, rise_kb = map(int, proc.stdout.split())
    assert (miss, hit) == (0, 0) and "cache write" in proc.stderr and "cache hit" in proc.stderr
    assert rise_kb < 2 * 1024, rise_kb
    assert (cache_dir / "ubern_46.jsonl").stat().st_size > 12_000_000


def test_closed_stdout_exits_141_without_a_traceback(tmp_path: Path):
    # a reader that stops early (| head -1) is not a counterexample: exit
    # 141, as a shell reports SIGPIPE, and no traceback on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "ubern", "compute", "--n", "40", "--format", "json"],
        env=_subprocess_env(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline()) == {"n": 40, "count": 37338}
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 141, (code, err)
    assert "Traceback" not in err, err


def test_verify_grid_examples(capsys):
    assert run(capsys, "verify", "--theorem", "3.5", "--p", "5", "--s", "1", "--l", "5")[0] == 0
    assert run(capsys, "verify", "--theorem", "4.9", "--m", "7", "--k", "1", "--N", "3")[0] == 0
    code, _, err = run(capsys, "verify", "--theorem", "4.8", "--n", "7")
    assert code == 2 and "even" in err


def test_verify_missing_parameters(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "3.5", "--p", "5")
    assert code == 2
    assert "--s" in err and "--l" in err


@pytest.mark.parametrize("argv, why", [
    (("3.5", "--p", "5", "--s", "1", "--l", "5", "--n", "40", "--m", "3"), "3.5 does not take --n, --m"),
    (("4.8", "--n", "12", "--l", "5", "--p", "7"), "4.8 does not take --p, --l"),
    (("4.9", "--m", "7", "--k", "1", "--N", "3", "--s", "2", "--backend", "both"),
     "4.9 does not take --s"),
])
def test_verify_refuses_flags_of_other_families(capsys, argv, why):
    # a flag the theorem never reads is refused, not silently dropped
    code, out, err = run(capsys, "verify", "--theorem", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: theorem {why}\n"


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "4.8", "--n", "12", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["prime"] == 2 and doc["mod_exp"] == 3
    assert doc["context"]["case"] == "ii"


def test_verify_perturb_exits_1_with_one_failure(capsys):
    for argv in (
        ("verify", "--theorem", "3.5", "--p", "3", "--s", "3", "--l", "3"),
        ("verify", "--theorem", "4.8", "--n", "12"),
        ("verify", "--theorem", "4.9", "--m", "7", "--k", "1", "--N", "3"),
    ):
        code, out, _ = run(capsys, *argv, "--perturb", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert len(doc["failures"]) == 1


def test_verify_backend_both(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "3.5", "--p", "3", "--s", "4", "--l", "3",
        "--backend", "both", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["context"]["backend"] == "both"


def test_verify_json_deterministic(capsys):
    argv = ("verify", "--theorem", "4.9", "--m", "8", "--k", "1", "--N", "3",
            "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_lemma_examples(capsys):
    code, out, _ = run(capsys, "lemma", "--name", "4.1", "--k-max", "199")
    assert code == 0
    assert "i: 100" in out
    assert run(capsys, "lemma", "--name", "4.3", "--a-max", "20", "--i-max", "8")[0] == 0
    code, _, err = run(capsys, "lemma", "--name", "9.9")
    assert code == 2 and "unknown lemma" in err
    code, _, err = run(capsys, "lemma", "--name", "4.1", "--a-max", "5")
    assert code == 2


@pytest.mark.parametrize("name", ["4.6", "4.7"])
def test_lemma_weight_sweeps_respect_ceiling(capsys, monkeypatch, name):
    # these sweeps enumerate every partition of each weight up to --n-max
    code, out, err = run(capsys, "lemma", "--name", name, "--n-max", "70")
    assert (code, out) == (2, "") and "ceiling" in err
    monkeypatch.setenv("UBERN_N_CEILING", "12")
    code, out, err = run(capsys, "lemma", "--name", name)  # default --n-max 24
    assert (code, out) == (2, "") and "ceiling" in err
    assert run(capsys, "lemma", "--name", name, "--n-max", "12")[0] == 0
    monkeypatch.setenv("UBERN_N_CEILING", "abc")
    assert run(capsys, "lemma", "--name", name, "--n-max", "12")[0] == 2
    # sweeps whose --n-max is not a weight are not capped by it
    assert run(capsys, "lemma", "--name", "4.1", "--n-max", "5", "--k-max", "3")[0] == 0


@pytest.mark.parametrize("name", ["4.1", "4.2"])
def test_lemma_exponent_sweeps_are_capped(capsys, monkeypatch, name):
    # --n-max is the exponent N of k 2**N there, capped at 10 whatever the
    # weight ceiling
    code, out, err = run(capsys, "lemma", "--name", name, "--n-max", "11")
    assert (code, out) == (2, "") and "ceiling 10" in err
    monkeypatch.setenv("UBERN_N_CEILING", "200")
    code, out, err = run(capsys, "lemma", "--name", name, "--n-max", "11")
    assert (code, out) == (2, "") and "ceiling 10" in err
    monkeypatch.setenv("UBERN_N_CEILING", "5")
    small = ("--k-max", "1") + (("--a-max", "3") if name == "4.2" else ())
    assert run(capsys, "lemma", "--name", name, "--n-max", "10", *small)[0] == 0


@pytest.mark.parametrize("name, flag, value, message", [
    ("2.1", "--a-max", "-5", "a_max must be >= 0"),
    ("4.3", "--a-max", "-1", "a_max must be >= 0"),
    ("2.6", "--q-max", "-1", "q_max must be >= 0"),
    ("4.4", "--q-max", "-1", "q_max must be >= 0"),
    ("3.2", "--s-max", "0", "checks no instance"),
    ("2.2", "--l-max", "0", "checks no instance"),
    ("4.5", "--k-max", "0", "checks no instance"),
    # 4.6 and 4.7 walk the weights 1..n_max: one floor for every bad value
    ("4.6", "--n-max", "-3", "n_max must be >= 1"),
    ("4.6", "--n-max", "0", "n_max must be >= 1"),
    ("4.7", "--n-max", "-3", "n_max must be >= 1"),
    ("4.7", "--n-max", "0", "n_max must be >= 1"),
])
def test_lemma_bad_bounds_are_usage_errors(capsys, name, flag, value, message):
    # a negative bound, or one under which the sweep checks nothing, is a
    # usage error (exit 2, nothing on stdout), never a counterexample (exit 1)
    # nor a "holds" over zero instances
    code, out, err = run(capsys, "lemma", "--name", name, flag, value)
    assert (code, out) == (2, "") and message in err


def test_backends_agree_at_the_ceiling(capsys):
    # n = 60: the exact oracle sweeps all 966,467 partitions, the padic walk
    # a handful; --backend both exits 1 unless the two reports agree
    code, out, err = run(
        capsys, "verify", "--theorem", "4.8", "--n", "60", "--backend", "both",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["holds"] and doc["context"]["backend"] == "both"


def test_backends_agree_past_the_ceiling(capsys):
    # 4.9 at (61, 1, 3), n = 69: the exact oracle sweeps every partition of
    # 69 and of 61, and agrees with the padic walk where the grid never went
    code, out, err = run(
        capsys, "verify", "--theorem", "4.9", "--m", "61", "--k", "1", "--N", "3",
        "--backend", "both", "--n-ceiling", "69", "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["holds"] and doc["context"]["backend"] == "both"


def test_classical_examples(capsys):
    code, out, _ = run(capsys, "classical", "--n-max", "6")
    assert code == 0
    assert "1/6" in out and "-1/30" in out and "1/42" in out
    code, out, _ = run(capsys, "classical", "--n-max", "1")
    assert code == 0 and "-1/2" in out
    assert run(capsys, "classical", "--n-max", "100")[0] == 2


def test_classical_reports_a_mismatch(capsys, monkeypatch):
    # mutation control: (2n-2)! one too large at n = 3 must fail there
    tables = bernoulli._tau_tables

    def off_by_one(n):
        fact, run = tables(n)
        if n == 3:
            fact[2 * n - 2] += 1
        return fact, run

    monkeypatch.setattr(bernoulli, "_tau_tables", off_by_one)
    code, out, err = run(capsys, "classical", "--n-max", "6", "--format", "json")
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["holds"] is False and doc["n"] == 3 and doc["recurrence"] == "0/1"
    assert doc["specialized"] != "0/1"
    code, out, _ = run(capsys, "classical", "--n-max", "6")
    assert code == 1 and out.startswith("mismatch at n=3:")


def test_classical_builds_no_polynomial(capsys, monkeypatch):
    # classical sums tau in integers: neither a partition nor a polynomial
    def refuse(*args, **kwargs):
        raise AssertionError("classical took the materialized path")

    monkeypatch.setattr(bernoulli, "enumerate_partitions", refuse)
    monkeypatch.setattr(cli, "divided_ubern", refuse)
    monkeypatch.setattr(cli, "specialize", refuse)
    code, out, err = run(capsys, "classical", "--n-max", "30", "--format", "json")
    assert (code, err) == (0, "")
    # the classical/30 sha256 pinned in perfbench/reference.json
    digest = "33fe51c948747dae20808105aed2619fdb1cf5da2e4fc5d40e9fa0f7f0beef60"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of sweep --theorem all --format json on each backend: every verdict
# and every failure record of the shipped grid
SWEEP_ALL_SHA256 = {
    "exact": "5bdb181cdbdd2724c4ec4cea299c4542c642308e1b414f52b291eb7077fde5dc",
    "padic": "46b70426584156279252ffce5608b6043dff50466875a5be99741e0b9bd1a4a4",
}


@pytest.mark.parametrize("backend", sorted(SWEEP_ALL_SHA256))
def test_sweep_all_json_bytes_are_pinned(capsys, backend):
    argv = ("sweep", "--theorem", "all", "--backend", backend, "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_ALL_SHA256[backend]


# sha256 of verify ... --perturb --backend both --format json, each exit 1:
# the mutation controls on both backends, and at 4.9 (8, 1, 3) the order of
# its omitted_terms, backend and perturbed keys
PERTURBED_SHA256 = {
    "4.9-8-1-3": (("4.9", "--m", "8", "--k", "1", "--N", "3"),
                  "497d5c9414f26765fb5cbae76ca24e1288229fe8efe8791d5667e0cfff3f5cd7"),
    "3.5-5-1-5": (("3.5", "--p", "5", "--s", "1", "--l", "5"),
                  "8bc884a7acb21857af24f4e7aaba80d726e70fc36a80e5a3c692405ec91d7255"),
    "4.8-12": (("4.8", "--n", "12"),
               "903357305f1adb1fe50130b424859f7ccf956fb714ff1379c341b29a580201d3"),
    "4.9-7-1-3": (("4.9", "--m", "7", "--k", "1", "--N", "3"),
                  "7b7a8432adb20d30864029dc4feaa7821140a39b7dfd20728c2d0e40b2fff593"),
}


@pytest.mark.parametrize("case", list(PERTURBED_SHA256))
def test_perturbed_verify_json_bytes_are_pinned(capsys, case):
    (theorem, *flags), digest = PERTURBED_SHA256[case]
    argv = ("verify", "--theorem", theorem, *flags, "--perturb", "--backend", "both",
            "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_family_table_drives_verify_and_sweep(capsys):
    # verify --theorem takes the families of congruences.FAMILIES and no
    # other, each with its own flags, and refuses a flag of another family;
    # sweep --theorem runs each family's shipped grid
    names = tuple(FAMILIES)
    assert names == ("3.5", "4.8", "4.9")
    code, out, err = run(capsys, "verify", "--theorem", "4.7", "--n", "12")
    assert (code, out) == (2, "")
    assert "(choose from " + ", ".join(f"'{name}'" for name in names) + ")" in err
    flags = dict.fromkeys(flag for params, _ in FAMILIES.values() for flag in params)
    assert tuple(flags) == ("p", "s", "l", "n", "m", "k", "N")
    for name, (params, grid) in FAMILIES.items():
        argv = ["verify", "--theorem", name]
        for flag, value in zip(params, grid[0], strict=True):
            argv += [f"--{flag}", str(value)]
        assert run(capsys, *argv)[0] == 0, argv
        foreign = next(flag for flag in flags if flag not in params)
        code, out, err = run(capsys, *argv, f"--{foreign}", "7")
        assert (code, out, err) == (2, "", f"error: theorem {name} does not take --{foreign}\n")
    code, _, err = run(capsys, "verify", "--theorem", "4.8", "--n", "12", "--q", "3")
    assert code == 2 and "unrecognized arguments: --q 3" in err
    for name, count in zip(names, (8, 15, 24), strict=True):
        assert len(FAMILIES[name][1]) == count
        code, out, _ = run(capsys, "sweep", "--theorem", name)
        assert (code, out.splitlines()[-1]) == (0, f"sweep: {count} cases, all hold"), name
    code, out, _ = run(capsys, "sweep", "--n-min", "20", "--n-max", "24")
    assert (code, out.splitlines()[-1]) == (0, "sweep: 35 cases, all hold")
    # the --n-min/--n-max rules, word for word, "all" included
    for argv, message in (
        (("--theorem", "3.5", "--n-min", "12"), "--n-min and --n-max select 4.8 cases, not 3.5"),
        (("--theorem", "4.9", "--n-max", "40"), "--n-min and --n-max select 4.8 cases, not 4.9"),
        (("--n-min", "13", "--n-max", "13"), "no even n in 13..13: the sweep would check nothing"),
    ):
        assert run(capsys, "sweep", *argv) == (2, "", f"error: {message}\n"), argv


def test_sweep_subcommand(capsys):
    code, out, _ = run(capsys, "sweep", "--theorem", "4.8", "--n-min", "12", "--n-max", "16")
    assert code == 0
    assert "all hold" in out


@pytest.mark.parametrize("argv, why", [
    (("--theorem", "4.8", "--n-min", "50", "--n-max", "40"), "no even n in 50..40"),
    (("--theorem", "4.8", "--n-min", "13", "--n-max", "13"), "no even n in 13..13"),
    (("--theorem", "3.5", "--n-max", "20"), "not 3.5"),
    (("--theorem", "4.9", "--n-min", "12"), "not 4.9"),
])
def test_sweep_rejects_empty_or_ignored_range(capsys, argv, why):
    # a sweep over no case is no verdict, and a bound the grid never reads
    # is not silently dropped
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert why in err


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "compute", "--n", "2", "--bogus")[0] == 2


def test_env_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("UBERN_N_CEILING", "5")
    assert run(capsys, "compute", "--n", "6")[0] == 2
    assert run(capsys, "compute", "--n", "5")[0] == 0
    monkeypatch.setenv("UBERN_N_CEILING", "abc")
    code, _, err = run(capsys, "compute", "--n", "5")
    assert code == 2
    assert "UBERN_N_CEILING" in err


def test_verify_exact_respects_ceiling(capsys, monkeypatch):
    args = ("verify", "--theorem", "4.8", "--n", "40", "--backend", "exact")
    code, _, err = run(capsys, *args, "--n-ceiling", "39")
    assert code == 2
    assert "ceiling" in err
    monkeypatch.setenv("UBERN_N_CEILING", "39")
    assert run(capsys, *args)[0] == 2


def test_env_cache_dir(capsys, monkeypatch, tmp_path: Path):
    monkeypatch.setenv("UBERN_CACHE_DIR", str(tmp_path))
    assert run(capsys, "compute", "--n", "4")[0] == 0
    assert (tmp_path / "ubern_4.jsonl").exists()


def test_main_builds_one_parser(capsys, monkeypatch):
    # successive main() calls parse with one parser, and nothing of one
    # call's arguments or environment reaches the next
    import argparse

    import ubern.cli as cli

    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    argv = ("verify", "--theorem", "4.8", "--n", "12", "--backend", "padic")
    assert run(capsys, *argv, "--perturb")[0] == 1
    assert run(capsys, *argv)[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1] is cli.build_parser()
    monkeypatch.setenv("UBERN_N_CEILING", "11")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "n=12 exceeds the ceiling 11" in err


@pytest.mark.parametrize("backend", ["exact", "padic"])
@pytest.mark.parametrize("argv, n", [
    (("--theorem", "3.5", "--p", "3", "--s", "31", "--l", "3"), 68),
    (("--theorem", "4.9", "--m", "61", "--k", "1", "--N", "3"), 69),
    (("--theorem", "4.8", "--n", "62"), 62),
])
def test_verify_ceiling_names_n(capsys, monkeypatch, backend, argv, n):
    # the weight checked is n, not the m of the right-hand side, and it is
    # checked before any right-hand side is built or any sweep runs, on
    # either backend
    import ubern.congruences as congruences

    def refuse(*args, **kwargs):
        raise AssertionError("right-hand side built or swept above the ceiling")

    for name in ("divided_ubern", "tau_valuations_below", "_exact_sweep"):
        monkeypatch.setattr(congruences, name, refuse)
    code, out, err = run(capsys, "verify", *argv, "--backend", backend)
    assert (code, out) == (2, "")
    assert err == f"error: n={n} exceeds the ceiling 60\n"


# every cap of every command, each over-cap input with the one message of
# its cap; lemma takes no --n-ceiling, and the exponent cap of lemmas 4.1
# and 4.2 is 10 whatever the weight ceiling
_OVER_CAP = [
    (("compute", "--n", "13"), "n=13 exceeds the ceiling 12"),
    (("verify", "--theorem", "4.8", "--n", "14", "--backend", "exact"), "n=14 exceeds the ceiling 12"),
    (("verify", "--theorem", "4.8", "--n", "14", "--backend", "padic"), "n=14 exceeds the ceiling 12"),
    (("sweep", "--theorem", "4.8", "--n-max", "14", "--backend", "padic"), "n=14 exceeds the ceiling 12"),
    (("classical", "--n-max", "13"), "n_max=13 exceeds the ceiling 12"),
    (("lemma", "--name", "4.6", "--n-max", "13"), "n_max=13 exceeds the ceiling 12"),
    (("lemma", "--name", "4.7", "--n-max", "13"), "n_max=13 exceeds the ceiling 12"),
    (("lemma", "--name", "4.1", "--n-max", "11"), "n_max=11 exceeds the ceiling 10"),
    (("lemma", "--name", "4.2", "--n-max", "11"), "n_max=11 exceeds the ceiling 10"),
]

_CAP_RUNS = [
    (via, argv, message)
    for argv, message in _OVER_CAP
    for via in ("flag", "env")
    if via == "env" or argv[0] != "lemma"
]


@pytest.mark.parametrize(
    "via, argv, message", _CAP_RUNS, ids=[f"{via}-{' '.join(argv)}" for via, argv, _ in _CAP_RUNS]
)
def test_every_cap_raises_ceiling_exceeded_with_one_message(capsys, monkeypatch, via, argv, message):
    if via == "flag":
        argv += ("--n-ceiling", "12")
    else:
        monkeypatch.setenv("UBERN_N_CEILING", "12")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_library_caps_raise_ceiling_exceeded():
    with pytest.raises(CeilingExceeded, match="^n=13 exceeds the ceiling 12$"):
        divided_ubern(13, n_ceiling=12)
    for backend in ("exact", "padic"):
        with pytest.raises(CeilingExceeded, match="^n=14 exceeds the ceiling 12$"):
            verify_theorem_4_8(14, backend=backend, n_ceiling=12)
    for name in ("4.1", "4.2"):
        with pytest.raises(CeilingExceeded, match="^n_max=11 exceeds the ceiling 10$"):
            run_sweep(name, n_max=11)
