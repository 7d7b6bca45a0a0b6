"""Command-line interface: dispatch, exit codes, file outputs, reproducibility."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from limitcone import cli

from .conftest import FORGE_RAY_1, FORGE_RAY_2


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


def write_matrix(path: Path, entries) -> Path:
    entries = np.asarray(entries, dtype=float)
    path.write_text(
        json.dumps({"n": entries.shape[0], "entries": entries.tolist()})
    )
    return path


def write_system(path: Path, generators, kind="semigroup", epsilons=None) -> Path:
    doc = {
        "generators": [np.asarray(g, dtype=float).tolist() for g in generators],
        "kind": kind,
    }
    if epsilons is not None:
        doc["epsilons"] = epsilons
    path.write_text(json.dumps(doc))
    return path


def sl2_pair_entries():
    g1 = np.diag([10.0, 0.1])
    c = s = np.sqrt(0.5)
    r = np.array([[c, -s], [s, c]])
    return g1, r @ g1 @ r.T


@pytest.fixture()
def rays_file(tmp_path):
    path = tmp_path / "rays.json"
    path.write_text(
        json.dumps({"rays": [FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()]})
    )
    return path


class TestProject:
    def test_rows(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", np.diag([4.0, 2.0, 1.0 / 8.0]))
        code, text = run_cli(["project", "--matrix", str(m)])
        assert code == 0
        rows = dict(
            (line.split(",")[0], [float(x) for x in line.split(",")[1:]])
            for line in text.strip().splitlines()
        )
        assert set(rows) == {"mu", "lambda", "iota_lambda", "gaps"}
        assert rows["mu"] == pytest.approx(
            [np.log(4.0), np.log(2.0), -np.log(8.0)], abs=1e-9
        )
        assert rows["lambda"] == pytest.approx(rows["mu"], abs=1e-9)
        assert rows["iota_lambda"] == pytest.approx(
            [np.log(8.0), -np.log(2.0), -np.log(4.0)], abs=1e-9
        )
        assert rows["gaps"] == pytest.approx([np.log(2.0), np.log(16.0)], abs=1e-9)

    def test_iterate(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", [[2.0, 1.0], [0.0, 0.5]])
        code, text = run_cli(["project", "--matrix", str(m), "--iterate", "64"])
        assert code == 0
        lam = [
            float(x)
            for x in next(
                line for line in text.splitlines() if line.startswith("lambda,")
            ).split(",")[1:]
        ]
        assert lam[0] == pytest.approx(np.log(2.0), abs=0.05)


class TestCertify:
    def test_certified(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", np.diag([100.0, 1.0, 0.01]))
        code, text = run_cli(
            ["certify", "--matrix", str(m), "--degree", "1", "--epsilon", "0.1"]
        )
        assert code == 0
        assert text.startswith("certified:")
        assert "gap 1" in text

    def test_not_proximal_is_refuted(self, tmp_path):
        c = s = np.sqrt(0.5)
        m = write_matrix(tmp_path / "g.json", [[c, -s], [s, c]])
        code, text = run_cli(
            ["certify", "--matrix", str(m), "--degree", "1", "--epsilon", "0.1"]
        )
        assert code == 1
        assert text.startswith("refuted:")

    def test_sampled_refutation(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", np.diag([8.0, 2.0, 1.0 / 16.0]))
        code, text = run_cli(
            ["certify", "--matrix", str(m), "--degree", "1", "--epsilon", "0.1"]
        )
        assert code == 1
        assert text.startswith("refuted:")

    def test_analytic_inconclusive(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", np.diag([4.0, 1.0, 0.25]))
        code, text = run_cli(
            [
                "certify",
                "--matrix",
                str(m),
                "--degree",
                "1",
                "--epsilon",
                "0.1",
                "--mode",
                "analytic",
            ]
        )
        assert code == 2
        assert text.startswith("inconclusive:")


class TestCertifySchottky:
    def test_certified(self, tmp_path):
        sys_file = write_system(tmp_path / "sys.json", sl2_pair_entries())
        code, text = run_cli(["certify-schottky", "--system", str(sys_file)])
        assert code == 0
        assert text.startswith("certified: semigroup with 2 generators")

    def test_group_override(self, tmp_path):
        sys_file = write_system(tmp_path / "sys.json", sl2_pair_entries())
        code, text = run_cli(
            ["certify-schottky", "--system", str(sys_file), "--kind", "group"]
        )
        assert code == 0
        assert "group" in text

    def test_refuted(self, tmp_path):
        g1 = np.diag([10.0, 0.1])
        g2 = np.diag([0.1, 10.0])
        sys_file = write_system(tmp_path / "sys.json", [g1, g2])
        code, text = run_cli(["certify-schottky", "--system", str(sys_file)])
        assert code == 1
        assert text.startswith("refuted:")


class TestForgePipeline:
    def test_forge_then_estimate(self, tmp_path, monkeypatch, rays_file):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(
            [
                "forge",
                "--n",
                "3",
                "--rays",
                str(rays_file),
                "--epsilon",
                "0.05",
                "--seed",
                "7",
                "--out",
                "system.json",
            ]
        )
        assert code == 0
        assert "wrote system.json" in text
        assert Path("system.json").exists()
        assert Path("system.summary.txt").exists()
        assert Path("system.json.manifest.json").exists()
        manifest = json.loads(Path("system.json.manifest.json").read_text())
        assert manifest["command"] == "forge"
        assert manifest["seed"] == 7
        doc = json.loads(Path("system.json").read_text())
        assert len(doc["generators"]) == 2
        assert doc["forge_report"]["powers"] == [16, 16]

        code, text = run_cli(
            ["estimate-cone", "--system", "system.json", "--depth", "4"]
        )
        assert code == 0
        assert "hull_dim 2" in text
        summary = json.loads(Path("cone.summary.json").read_text())
        assert summary["hull_dim"] == 2
        rays = np.loadtxt("cone.rays.csv", delimiter=",")
        assert rays.shape == (2, 3)
        for ray in rays:
            dots = [abs(float(ray @ r)) for r in (FORGE_RAY_1, FORGE_RAY_2)]
            assert max(dots) >= np.cos(np.deg2rad(2.0))

    def test_limit_set_and_compare(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_system(Path("sys.json"), sl2_pair_entries(), kind="group")
        code, text = run_cli(
            ["limit-set", "--system", "sys.json", "--depth", "4", "--side", "fwd"]
        )
        assert code == 0
        assert "forward limit set" in text
        pts = np.loadtxt("limitset.deg1.csv", delimiter=",")
        assert pts.shape[1] == 2
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

        code, text = run_cli(["compare", "--system", "sys.json", "--depth", "4"])
        assert code == 0
        lines = text.strip().splitlines()
        assert [l.split(",")[0] for l in lines] == [
            "length_1",
            "length_2",
            "length_3",
            "length_4",
        ]


class TestLongAndMixedSystems:
    def test_compare_past_the_recursion_limit(self, tmp_path):
        sys_path = write_system(tmp_path / "one.json", [np.diag([2.0, 0.5])])
        code, text = run_cli(["compare", "--system", str(sys_path), "--depth", "1500"])
        assert code == 0
        assert len(text.strip().splitlines()) == 1500

    @pytest.mark.parametrize("command", ["estimate-cone", "limit-set", "compare"])
    def test_generators_of_two_dimensions(self, tmp_path, command):
        sys_path = write_system(
            tmp_path / "mixed.json", [np.diag([2.0, 0.5]), np.diag([4.0, 1.0, 0.25])]
        )
        argv = [command, "--system", str(sys_path), "--depth", "2"]
        if command == "limit-set":
            argv += ["--side", "fwd"]
        code, _ = run_cli(argv)
        assert code == 3


class TestUsageErrors:
    def test_no_command(self):
        code, _ = run_cli([])
        assert code == 3

    def test_unknown_flag(self, tmp_path):
        code, _ = run_cli(["project", "--matrix", "x.json", "--bogus"])
        assert code == 3

    def test_missing_file(self):
        code, _ = run_cli(["project", "--matrix", "no-such-file.json"])
        assert code == 3

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _ = run_cli(["project", "--matrix", str(p)])
        assert code == 3

    def test_mismatched_n(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]}))
        code, _ = run_cli(["project", "--matrix", str(p)])
        assert code == 3

    def test_invalid_matrix(self, tmp_path):
        m = write_matrix(tmp_path / "g.json", np.diag([2.0, 1.0]))
        code, _ = run_cli(["project", "--matrix", str(m)])
        assert code == 3

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0
        assert "limitcone" in capsys.readouterr().out


class TestReproducibility:
    @staticmethod
    def _run_forge_in(tmp_path, name, rays_file):
        d = tmp_path / name
        d.mkdir()
        import os

        prev = os.getcwd()
        os.chdir(d)
        try:
            code, _ = run_cli(
                [
                    "forge",
                    "--n",
                    "3",
                    "--rays",
                    str(rays_file),
                    "--epsilon",
                    "0.05",
                    "--seed",
                    "7",
                    "--out",
                    "system.json",
                ]
            )
            assert code == 0
            code, _ = run_cli(
                [
                    "estimate-cone",
                    "--system",
                    "system.json",
                    "--depth",
                    "4",
                ]
            )
            assert code == 0
            code, _ = run_cli(
                [
                    "limit-set",
                    "--system",
                    "system.json",
                    "--depth",
                    "4",
                    "--side",
                    "fwd",
                ]
            )
            assert code == 0
        finally:
            os.chdir(prev)
        return d

    def test_reruns_are_byte_identical(self, tmp_path, rays_file):
        d1 = self._run_forge_in(tmp_path, "run1", rays_file)
        d2 = self._run_forge_in(tmp_path, "run2", rays_file)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2
        assert len(files1) >= 8  # system + summary + cone + limit set + manifests
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
