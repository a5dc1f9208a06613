import csv
import hashlib
import subprocess
import sys

import pytest

from coronagrid.cli import run


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
                 # the window renders, then the viewport radius is refused
                 ["gen", "--dfold", "5", "--radius", "-3"],
                 # growth succeeds, then the 196-entry palette is refused
                 ["corona", "--angles", "0,90", "--n", "195"],
                 ["gen", "--dfold", "5", "--radius", "nan"],
                 ["sandpile", "--dfold", "5", "--radius", "inf"],
                 ["gen", "--config", str(tmp_path / "missing.cfg")],
                 ["gen", "--config", str(tmp_path)]):
        assert run(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not out.exists(), argv


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
]


def test_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["corona", "--dfold", "5", "--n", "6",
                    "--out", str(out)]) == 0
    assert (a / "corona.svg").read_bytes() == (b / "corona.svg").read_bytes()
    assert (a / "frontiers.csv").read_bytes() == (b / "frontiers.csv").read_bytes()
    for argv, digests in PINNED_ARTIFACTS:
        out = tmp_path / argv[0]
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
