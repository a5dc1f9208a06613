import ast
import contextlib
import csv
import errno
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import coronagrid
from coronagrid import graph
from coronagrid.cli import run
from coronagrid.multigrid import CAP_ENV, frontier_neighbor_keys


def test_charpoly_artifacts(tmp_path):
    assert run(["charpoly", "--dfold", "5", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "charpoly.csv").open()))
    radii = {float(r["radius"]) for r in rows if r["side"] == "multigrid"}
    assert any(abs(r - 0.324920) < 1e-6 for r in radii)
    radii_t = {float(r["radius"]) for r in rows if r["side"] == "tiling"}
    assert any(abs(r - 0.812299) < 1e-6 for r in radii_t)
    assert (tmp_path / "charpoly.svg").exists()


def test_converge_csv(tmp_path):
    code = run(["converge", "--dfold", "5", "--offsets", "0.5",
                "--n", "5,10,20", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "convergence.csv").open()))
    hs = [float(r["h_n"]) for r in rows]
    assert len(hs) == 3 and all(h > 0 for h in hs)
    assert hs[-1] < hs[0]


def test_gen_and_corona_and_endpoints(tmp_path):
    assert run(["gen", "--dfold", "5", "--radius", "4",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tiles.csv").exists()
    assert (tmp_path / "tiling.svg").exists()
    assert run(["corona", "--dfold", "5", "--n", "8",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "corona.svg").exists()
    assert run(["endpoints", "--dfold", "5", "--n", "0,10",
                "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "endpoints.csv").open()))
    assert [r["n"] for r in rows] == ["0", "10"]


def test_seed_tile_flag(tmp_path):
    code = run(["converge", "--angles", "0,90", "--offsets", "0,0",
                "--tile", "0,1,0,0", "--n", "5,10", "--side", "multigrid",
                "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "convergence.csv").open()))
    assert all(float(r["n_times_h_n"]) <= 2.0 for r in rows)


def test_sandpile_report(tmp_path):
    code = run(["sandpile", "--dfold", "5", "--radius", "10",
                "--rounds", "5", "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "sandpile_report.txt").read_text()
    assert "equivalence: exact" in report


@pytest.mark.filterwarnings("error")
def test_validation_exits_2(tmp_path, capsys):
    """Exit 2 with one error line (no traceback, no warning) and no artifacts."""
    out = tmp_path / "out"
    run_params = tmp_path / "run.cfg"
    run_params.write_text("dfold: 5\nradius: 3\n")
    pentagrid_cfg = tmp_path / "pentagrid.cfg"
    pentagrid_cfg.write_text("dfold: 5\n")
    bad_configs = []
    for k, text in enumerate(["normals: [(a, b), (0, 1)]", "angles: [0, x]",
                              "angles: [(0, 1)]", "angles: 7", "normals: 0.57",
                              "dfold: 5\noffsets: [0.5 x 99999999999]",
                              "dfold: 5\noffsets: nan", "dfold: 90757"]):
        bad_configs.append(tmp_path / f"bad{k}.cfg")
        bad_configs[-1].write_text(text + "\n")
    assert run(["gen", "--angles", "0,0", "--out", str(out)]) == 2
    assert "parallel" in capsys.readouterr().err
    for argv in (["gen"],
                 ["gen", "--dfold", "5", "--angles", "0,90"],
                 ["corona", "--dfold", "5", "--n", "abc"],
                 ["corona", "--dfold", "5", "--n", "4", "--tile", "x"],
                 ["corona", "--dfold", "5", "--n", "4", "--tile", "0,7,0,0"],
                 ["gen", "--dfold", "5", "--offsets", "nan"],
                 ["gen", "--angles", "0,90", "--offsets", "0.5,inf"],
                 ["converge", "--dfold", "5", "--n", "0"],
                 ["endpoints", "--dfold", "5", "--n", "-1"],
                 # a negative radius is refused before any window is listed
                 ["gen", "--dfold", "5", "--radius", "-3"],
                 ["sandpile", "--dfold", "5", "--radius", "-3"],
                 ["gen", "--dfold", "5", "--radius", "nan"],
                 ["sandpile", "--dfold", "5", "--radius", "inf"],
                 # more crossings than the cap, refused before enumerating
                 ["gen", "--dfold", "5", "--radius", "1e300"],
                 ["sandpile", "--dfold", "5", "--radius", "1e300"],
                 ["sandpile", "--dfold", "5", "--rounds", "0"],
                 ["sandpile", "--dfold", "5", "--rounds", "-2"],
                 ["corona", "--dfold", "5", "--n", "4", "--ball", "-3"],
                 ["gen", "--config", str(tmp_path / "missing.cfg")],
                 ["gen", "--config", str(tmp_path)],
                 ["gen", "--config", str(run_params)],
                 ["gen", "--config", str(pentagrid_cfg), "--offsets", "0.1"],
                 ["gen", "--dfold", "99999999999"],
                 *(["gen", "--config", str(path)] for path in bad_configs),
                 ["gen", "--dfold", "5", "--offsets", "0.5,nan"],
                 ["gen", "--angles", "0,90", "--offsets", "0.5,nan"]):
        assert run(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv


@pytest.mark.parametrize("ns", ["0", "0,10", "-1"])
def test_converge_refuses_n_below_1_naming_the_flag(tmp_path, capsys, ns):
    """A convergence row divides by n, so converge takes --n >= 1; corona
    and endpoints take n = 0.  The message names the flag."""
    assert run(["converge", "--dfold", "5", "--n", ns, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --n takes integers >= 1, got {ns!r}\n"
    for command in ("corona", "endpoints"):
        assert run([command, "--dfold", "5", "--n", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, ns, least", [
    ("corona", "-1", 0), ("converge", "0", 1), ("endpoints", "-1", 0)])
def test_bad_n_is_refused_before_the_ball_grows(tmp_path, capsys, monkeypatch,
                                                command, ns, least):
    """--n is read before the --ball patch is grown, so a bad --n exits 2
    at once, however large the ball."""
    def no_growth(*args):
        raise AssertionError("the ball grew before --n was read")

    monkeypatch.setattr(graph, "corona_layers", no_growth)
    argv = [command, "--dfold", "5", "--ball", "150", "--n", ns, "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: --n takes integers >= {least}, got {ns!r}\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An --out that names a file, or an artifact name taken by a directory,
    exits 2 with one error line and no traceback."""
    afile = tmp_path / "afile"
    afile.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "coronagrid.cli", "corona", "--dfold", "5", "--n", "2",
         "--out", str(afile)],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    taken = tmp_path / "taken"
    (taken / "charpoly.csv").mkdir(parents=True)
    assert run(["charpoly", "--dfold", "5", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# every command that writes, at a small size, with its number of artifacts
WRITING_RUNS = [(["gen", "--dfold", "5", "--radius", "3"], 2),
                (["corona", "--dfold", "5", "--n", "2"], 2),
                (["charpoly", "--dfold", "5"], 2),
                (["converge", "--dfold", "5", "--n", "2"], 1),
                (["endpoints", "--dfold", "5", "--n", "2"], 1),
                (["sandpile", "--dfold", "5", "--radius", "4", "--rounds", "2"], 1)]


def test_failed_write_leaves_the_output_directory_unchanged(tmp_path, capsys, monkeypatch):
    """Artifacts are written all or none: a later artifact's name taken by a
    directory is refused before the first write, and a failure of the k-th
    write, for every command that writes and every k, removes the
    temporaries already written."""
    out = tmp_path / "d"
    (out / "charpoly.svg").mkdir(parents=True)
    assert run(["charpoly", "--dfold", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "charpoly.svg" in err, err
    assert [p.name for p in out.iterdir()] == ["charpoly.svg"]

    (out / "charpoly.svg").rmdir()
    real_open = Path.open
    for argv, writes in WRITING_RUNS:
        for k in range(1, writes + 1):
            opened = []

            def full_disk_on_kth(self, mode="r", *args, **kwargs):
                if mode == "x":
                    opened.append(self.name)
                    if len(opened) == k:
                        raise OSError(errno.ENOSPC, "No space left on device", str(self))
                return real_open(self, mode, *args, **kwargs)

            monkeypatch.setattr(Path, "open", full_disk_on_kth)
            assert run(argv + ["--out", str(out)]) == 2, (argv, k)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, k, err)
            assert len(opened) == k and list(out.iterdir()) == [], (argv, k)


@pytest.mark.parametrize("command", ["converge", "corona", "endpoints"])
def test_tile_level_beyond_float_range_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    tile = f"0,1,{10**400},0"
    assert run([command, "--dfold", "5", "--n", "3", "--tile", tile, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tile ") and err.count("\n") == 1, err
    assert not out.exists()


def test_tile_level_beyond_64_bits_exits_2(tmp_path, capsys):
    """--tile takes line indices in (-2^63, 2^63): 2^63 or more, of either
    sign, is refused by one range check, with one line and no files."""
    out = tmp_path / "out"
    for command in ("converge", "corona", "endpoints"):
        for tile in (f"0,1,{2**63},0", f"0,1,{-2**63},0", f"0,1,0,{10**20}"):
            assert run([command, "--dfold", "5", "--n", "1", "--tile", tile,
                        "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == "error: --tile line indices ki, kj must lie in (-2^63, 2^63)\n", err
            assert not out.exists()


def test_empty_tile_exits_2(tmp_path, capsys):
    """An empty --tile is refused like an empty --n, not read as no --tile."""
    out = tmp_path / "out"
    for command in ("converge", "corona", "endpoints"):
        assert run([command, "--dfold", "5", "--tile", "", "--n", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --tile needs at least one number\n", err
        assert not out.exists()


def test_offsets_outside_the_unit_interval_fold_with_a_warning(tmp_path):
    """A single --offsets value folds mod 1 with a warning, as a list does."""
    for offsets in ("1.5", "1.5,0.5,0.5,-0.5,0.5"):
        with pytest.warns(UserWarning, match="normalized to 0.5"):
            assert run(["charpoly", "--dfold", "5", "--offsets", offsets,
                        "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("value", ["abc", "1.5", "-5"])
def test_crossing_cap_must_be_a_nonnegative_integer(tmp_path, capsys, monkeypatch, value):
    out = tmp_path / "out"
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", value)
    assert run(["converge", "--dfold", "5", "--n", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "CORONAGRID_MAX_CROSSINGS" in err and repr(value) in err
    assert not out.exists()


def test_window_over_the_crossing_cap_exits_2(tmp_path, capsys, monkeypatch):
    """A finite window above the cap (about 1184 crossings at radius 7) is
    refused with one line and no files."""
    out = tmp_path / "out"
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", "1000")
    assert run(["gen", "--dfold", "5", "--radius", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "more than 1000 crossings" in err and "CORONAGRID_MAX_CROSSINGS" in err
    assert not out.exists()


def test_ball_over_the_crossing_cap_exits_2(tmp_path, capsys, monkeypatch):
    """--ball grows under the crossing cap: the pentagrid ball passes 100
    crossings at about layer 7, so a ball of 400 layers expands a handful,
    then exits 2 with one line and no files."""
    expanded = []

    def counting(spec, layer):
        expanded.append(len(layer))
        return frontier_neighbor_keys(spec, layer)

    monkeypatch.setattr(graph, "frontier_neighbor_keys", counting)
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", "100")
    out = tmp_path / "out"
    assert run(["corona", "--dfold", "5", "--ball", "400", "--n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "exceeded 100 crossings" in err and "CORONAGRID_MAX_CROSSINGS" in err
    assert not out.exists()
    assert 0 < len(expanded) <= 10 and sum(expanded) <= 100


def test_endpoint_growth_over_the_crossing_cap_exits_2(tmp_path, capsys, monkeypatch):
    """endpoints grows its patch under the crossing cap: the pentagrid's
    nearest crossing meets every grid after two steps, 12 crossings, so a
    cap of 10 exits 2 with one line and no files."""
    monkeypatch.setenv("CORONAGRID_MAX_CROSSINGS", "10")
    out = tmp_path / "out"
    assert run(["endpoints", "--dfold", "5", "--n", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: corona growth exceeded 10 crossings (set $CORONAGRID_MAX_CROSSINGS)\n"
    assert not out.exists()


# --radius, --rounds, --offsets and $CORONAGRID_MAX_CROSSINGS each draw a
# workable value two times in three, else a bad one: negative, zero, nan,
# inf, huge, non-numeric or empty
BAD = ["-2", "-0.5", "0", "nan", "inf", "-inf", "1e300", "99999999999999999999", "abc", ""]
BAD_CAPS = ["0", "60", "-1", "abc", "1.5", ""]
SPECS = [("--dfold", "5"), ("--dfold", "3"), ("--angles", "0,90"), ("--angles", "0,45,90,135")]


def drawn(good, bad=BAD):
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(bad))


# config text is workable, or has one malformed line
CONFIGS = ["dfold: 5\n", "angles: [0, 90]\noffsets: [0, 0]\n", "dfold: 5\nradius 3\n",
           "dfold: 5\noffsets: [0.5, x]\n", "angles: [0, 90]\n: 2\n", "dfold: 3\ndfold: 3\n"]


@st.composite
def gen_and_sandpile_runs(draw):
    """argv for gen or sandpile, a $CORONAGRID_MAX_CROSSINGS value (None:
    unset) and the config text (None: the spec is given by flags).  The
    radius is always drawn, so no run lists a default-radius window."""
    command = draw(st.sampled_from(["gen", "sandpile"]))
    config = draw(st.one_of(st.none(), st.sampled_from(CONFIGS)))
    argv = [command, "--radius", draw(drawn(["0.3", "3", "6"]))]
    if command == "sandpile":
        argv += ["--rounds", draw(drawn(["1", "3"]))]
    if config is None:
        form, value = draw(st.sampled_from(SPECS))
        argv += [form, value]
        if draw(st.booleans()):
            d = int(value) if form == "--dfold" else value.count(",") + 1
            count = draw(st.sampled_from([1, d, 2]))
            offsets = st.lists(drawn(["0.1", "0.25", "0.5"]), min_size=count, max_size=count)
            argv += ["--offsets", ",".join(draw(offsets))]
    return argv, draw(drawn([None, "3000"], BAD_CAPS)), config


def tree(root: Path) -> list:
    return sorted((str(p.relative_to(root)), p.is_dir() or p.read_bytes())
                  for p in root.rglob("*"))


def keeps_the_exit_contract(argv, cap, config=None):
    """Run argv in-process, with $CORONAGRID_MAX_CROSSINGS = cap (None:
    unset) and, unless None, `config` as a --config file: exit 0, or exit 2
    with exactly one stderr line, starting with `error:`, no traceback, and
    the --out tree as it was."""
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ):
        os.environ.pop(CAP_ENV, None)
        if cap is not None:
            os.environ[CAP_ENV] = cap
        if config is not None:
            (Path(root) / "run.cfg").write_text(config)
            argv = argv + ["--config", str(Path(root) / "run.cfg")]
        out = Path(root) / "out"
        out.mkdir()
        (out / "kept.txt").write_text("an earlier artifact\n")
        before = tree(Path(root))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")   # offset folding warns; not part of the contract
            code = run(argv + ["--out", str(out)])
        assert code in (0, 2), (argv, cap, config, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                (argv, cap, config, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert tree(Path(root)) == before, (argv, cap, config)


@given(case=gen_and_sandpile_runs())
def test_gen_and_sandpile_keep_the_exit_contract(case):
    keeps_the_exit_contract(*case)


# --tile draws grids in and out of range and line indices from 0 to past
# 64 bits and float range
TILE_GRIDS = ["0", "1", "2", "0", "1", "2", "-1", "7", "x"]
TILE_LEVELS = ["0", "-3", "1.5", "x", *(str(s * k) for k in (10**12, 2**53, 2**63 - 1, 2**63)
                                     for s in (1, -1)), str(10**20), str(10**400)]


@st.composite
def growth_runs(draw):
    """argv for corona, converge, endpoints or charpoly, a small or bad
    $CORONAGRID_MAX_CROSSINGS value and the config text (None: the spec is
    given by flags).  Every cap is set, so a huge --n or --ball stops at it."""
    command = draw(st.sampled_from(["corona", "converge", "endpoints", "charpoly"]))
    config = draw(st.one_of(st.none(), st.sampled_from(CONFIGS)))
    argv = [command] + ([] if config else list(draw(st.sampled_from(SPECS))))
    if command != "charpoly":
        if draw(st.booleans()):
            levels = draw(st.sampled_from([2, 2, 1]))   # one in three tiles lacks kj
            tile = [draw(st.sampled_from(TILE_GRIDS)) for _ in range(2)]
            tile += [draw(st.sampled_from(TILE_LEVELS)) for _ in range(levels)]
            argv += ["--tile", ",".join(tile)]
        argv += ["--ball", draw(drawn(["0", "1", "2"], ["-1", "99999999999999999999", "abc", ""])),
                 "--n", draw(drawn(["0", "3", "0,2,5"],
                                   ["", "-1", "3,-2", "99999999999999999999", "abc", "1.5"]))]
    if command == "converge":
        argv += ["--side", draw(st.sampled_from(["multigrid", "tiling", "hull"]))]
    return argv, draw(drawn(["300", "3000"], BAD_CAPS)), config


# 200 examples per tier-1 run, or the profile's count when it is larger
@settings(max_examples=max(200, settings.default.max_examples))
@given(case=growth_runs())
# found by this test: an endpoint walk past sys.maxsize steps raised from
# islice, and one from about 2^62 out on the square grid never ended
@example(case=(["endpoints", "--dfold", "5", "--n", "99999999999999999999"], "3000", None))
@example(case=(["endpoints", "--tile", f"0,1,{2**62},0", "--n", "1"], "3000", CONFIGS[1]))
def test_growth_and_charpoly_keep_the_exit_contract(case):
    keeps_the_exit_contract(*case)


def test_corona_past_195_layers(tmp_path):
    """The palette is quantized, not capped: 196 frontiers, 196 greys."""
    assert run(["corona", "--angles", "0,90", "--n", "195", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "corona.svg").read_text()
    fills = re.findall(r'<path d="[^"]*" fill="(#[0-9a-f]{6})"/>', svg)
    assert len(set(fills)) == 196


def test_bad_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_config_file_input(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("dfold: 5\noffsets: [0.5 x 5]\n")
    assert run(["charpoly", "--config", str(cfg), "--out", str(tmp_path)]) == 0


# sha256 of default artifacts.  Refactors keep them byte for byte; a change
# meant to alter an artifact updates its digest and says why.
PINNED_ARTIFACTS = [
    (["corona", "--dfold", "5", "--n", "12"], {
        "corona.svg": "77cfb2a9c2264a4f5c8baf40a7a917b93e71d9bf3974e9952ae374fe7167fe7f",
        "frontiers.csv": "e4087bf4f74a942c1a53309f797e532774d4ab17f09269194f6a53c8c76698aa",
    }),
    (["gen", "--dfold", "5", "--radius", "6"], {
        "tiles.csv": "815e7ea503a055e5e49afb258b91158395759e4accabb7f95068b88fe49ff802",
        "tiling.svg": "f0e9c7a2d2d7de8ad26d514f440f61eece57baaf63f2d7030c74453391acc5b9",
    }),
    (["converge", "--dfold", "5", "--n", "5,10"], {
        "convergence.csv": "f91b3ce9d407027ffa0cef45df41c030735acef7726ca110c0868fe159ab93c7",
    }),
    (["endpoints", "--dfold", "5", "--n", "0,10"], {
        "endpoints.csv": "c47edb1dd0439cba5e7c9f050aeb9df0dd05fbcbf326c54d10d8d78ca9baf000",
    }),
    (["sandpile", "--dfold", "5", "--radius", "10", "--rounds", "5"], {
        "sandpile_report.txt":
            "488e7943c6efd2b0ab0695ff4c57338252192e287ce723019af56615fe8d7a8a",
    }),
    # a seed grown by --ball: the Patch is rebuilt from the ball's keys
    (["corona", "--dfold", "5", "--n", "6", "--ball", "2"], {
        "corona.svg": "0cae3cdf04038c77f626760ab853d41c9fe23709b581f14489cfc2e8f9e9b3af",
        "frontiers.csv": "bdc13bc7f3e82d446fac931b6f8287786830ae8e9713e3e2feb800d36d1e5a3d",
    }),
    (["converge", "--dfold", "5", "--tile", "0,1,0,0", "--ball", "3", "--n", "5,10",
      "--side", "multigrid"], {
        "convergence.csv": "47798ac8c5b67736d3c2557d0f8293100d24cca54859f1c42977bd7b35acf24d",
    }),
]


def test_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["corona", "--dfold", "5", "--n", "6",
                    "--out", str(out)]) == 0
    assert (a / "corona.svg").read_bytes() == (b / "corona.svg").read_bytes()
    assert (a / "frontiers.csv").read_bytes() == (b / "frontiers.csv").read_bytes()
    for k, (argv, digests) in enumerate(PINNED_ARTIFACTS):
        out = tmp_path / f"pinned{k}"
        assert run(argv + ["--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == digests, argv


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "coronagrid.cli", "charpoly", "--dfold", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "charpoly.csv" in proc.stdout


def test_cli_imports_only_the_standard_library():
    """Importing the command line loads no module outside the standard
    library and coronagrid itself."""
    code = ("import sys; before = set(sys.modules); import coronagrid.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "coronagrid" in loaded
    assert loaded - {"coronagrid"} <= sys.stdlib_module_names, sorted(loaded)


def test_every_imported_name_is_used():
    """Every name a coronagrid module imports (bar __init__.py and
    __future__) is read in that module; no linter is installed, so this is
    the check for imports left behind by a deletion."""
    unused = []
    for path in sorted(Path(coronagrid.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def defined_names(top: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def or class, or the
    names an assignment binds, such as constants and type aliases."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_every_top_level_function_and_class_has_a_caller():
    """Every top-level def, class and assigned name (a constant or a type
    alias) of a coronagrid module (bar __init__.py) is read by library code
    outside its own statement, or named by the benchmark in perfbench/,
    which looks names up at run time.  This is the check for functions
    and constants that only the tests use."""
    package = Path(coronagrid.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    bench = "\n".join(path.read_text()
                      for path in sorted((package.parents[1] / "perfbench").glob("*.py")))
    read = {(module, n): {node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(top)
                          if isinstance(node, (ast.Name, ast.Attribute))}
            for module, tree in trees.items() for n, top in enumerate(tree.body)}
    uncalled = []
    for module, tree in trees.items():
        for n, top in enumerate(tree.body):
            for name in defined_names(top):
                if (not any(name in names for at, names in read.items() if at != (module, n))
                        and not re.search(rf"\b{name}\b", bench)):
                    uncalled.append(f"{module}:{top.lineno} {name}")
    assert uncalled == [], f"only the tests use {uncalled}"


def test_every_walk_of_the_crossing_graph_reads_corona_layers():
    """In library code, frontier_neighbor_keys is read only inside
    graph.corona_layers, and bfs_layers only there and in
    sandpile._boundary_halo (a walk over window tiles), so the crossing cap
    bounds every walk of the crossing graph, and a per-layer check placed
    in corona_layers sees them all."""
    allowed = {"frontier_neighbor_keys": {"graph.corona_layers"},
               "bfs_layers": {"graph.corona_layers", "sandpile._boundary_halo"}}
    offending = []
    for path in sorted(Path(coronagrid.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (isinstance(getattr(node, "ctx", None), ast.Load) and name in allowed
                        and where not in allowed[name]):
                    offending.append(f"{where} reads {name}; read graph.corona_layers instead")
    assert offending == []


def test_only_corner_keys_decides_tile_vertices():
    """In library code, only dual.corner_keys raises the "a grid-{l} line
    passes through crossing" refusal, so the third-line test that turns a
    crossing into its tile's vertex keys is made in one place."""
    raisers = []
    for path in sorted(Path(coronagrid.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Raise) and node.exc is not None
                        and "line passes through crossing" in ast.unparse(node.exc)):
                    raisers.append(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert raisers == ["dual.corner_keys"]


def test_only_corner_keys_reads_the_spec_tables():
    """Outside multigrid.py, library code reads MultigridSpec's private
    tables only in dual.corner_keys, so every other step from keys to
    geometry or adjacency goes through multigrid's public functions or the
    window's exact tables."""
    private = {"_dots", "_crosses", "_levels", "_rows", "_signs", "_pairs", "_kernel_tables"}
    readers = []
    for path in sorted(Path(coronagrid.__file__).parent.glob("*.py")):
        if path.name == "multigrid.py":
            continue
        for top in ast.parse(path.read_text()).body:
            readers += [f"{path.stem}.{getattr(top, 'name', top.lineno)} reads {node.attr}"
                        for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and node.attr in private]
    assert sorted(set(readers)) == ["dual.corner_keys reads _kernel_tables"]
