"""Command-line interface: dispatch, exit codes, file outputs, reproducibility."""

import argparse
import io
import json
from pathlib import Path

import numpy as np
import pytest

import limitcone as lc
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

    def test_verdict_lines_say_what_each_mode_checked(self, tmp_path, monkeypatch):
        # sampled mode leaves the Lipschitz condition unchecked; the analytic
        # bound and the exact plane stretch print as they always have
        def certify(matrix, *flags):
            path = write_matrix(tmp_path / "g.json", matrix)
            return run_cli(["certify", "--matrix", str(path), "--epsilon", "0.1", *flags])

        assert certify(np.diag([100.0, 1.0, 0.01]), "--degree", "1") == (
            0, "certified: degree 1 epsilon 0.1 gap 1 lipschitz unchecked mode sampled\n"
        )
        assert certify(np.diag([1e4, 1.0, 1e-4]), "--degree", "1", "--mode", "analytic") == (
            0, "certified: degree 1 epsilon 0.1 gap 1 lipschitz 0.0141988743255 mode analytic\n"
        )
        # a matrix file carries no factors: the exact line, as a factored letter prints it
        letter = lc.GroupElement.from_factors(np.eye(3), FORGE_RAY_1, 30)
        monkeypatch.setattr(cli, "load_matrix", lambda path: letter)
        assert certify(np.eye(3), "--degree", "2") == (
            0, "certified: degree 2 epsilon 0.1 gap 1 lipschitz 0.000775658720057 mode exact\n"
        )


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

    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    def test_verdict_names_the_mode_of_a_raw_matrix_file(self, tmp_path, mode):
        g1 = np.diag([1000.0, 0.001])
        c = s = np.sqrt(0.5)
        r = np.array([[c, -s], [s, c]])
        sys_file = write_system(tmp_path / "sys.json", [g1, r @ g1 @ r.T])
        code, text = run_cli(["certify-schottky", "--system", str(sys_file), "--mode", mode])
        assert code == 0
        assert text.startswith("certified: semigroup with 2 generators")
        assert text.rstrip().endswith(f", mode {mode}")

    def test_refuted(self, tmp_path):
        g1 = np.diag([10.0, 0.1])
        g2 = np.diag([0.1, 10.0])
        sys_file = write_system(tmp_path / "sys.json", [g1, g2])
        code, text = run_cli(["certify-schottky", "--system", str(sys_file)])
        assert code == 1
        assert text.startswith("refuted:")

    def test_epsilon_flag_overrides_the_file(self, tmp_path):
        sys_file = write_system(tmp_path / "sys.json", sl2_pair_entries(), epsilons=[0.1, 0.1])
        argv = ["certify-schottky", "--system", str(sys_file)]
        assert run_cli(argv)[0] == 0
        # 6 * 0.12 exceeds the pair's gap sqrt(1/2)
        assert run_cli(argv + ["--epsilon", "0.12"]) == (
            1, "refuted: gap(x+_0, X<_1) = 0.7071067811865476 < 0.72\n"
        )

    def test_min_separation_is_over_the_required_pairs(self, tmp_path, monkeypatch):
        # on the forged SL(2) half-line group, g's attracting point lies on
        # g^-1's repelling hyperplane; that (g, g^-1) gap is exempt, so the
        # printed minimum is the smallest gap the Schottky condition bounds
        monkeypatch.chdir(tmp_path)
        Path("rays.json").write_text(json.dumps({"rays": [[1.0, -1.0]]}))
        argv = ["forge", "--n", "2", "--rays", "rays.json", "--epsilon", "0.1", "--group"]
        assert run_cli(argv + ["--out", "system.json"])[0] == 0
        code, text = run_cli(["certify-schottky", "--system", "system.json"])
        assert code == 0
        printed = text.split("min separation ")[1].split(",")[0]
        gens, kind, eps = cli.load_system("system.json")
        system = lc.verify_schottky(gens, kind=kind, epsilons=eps)
        a, m = system.alphabet, len(system.alphabet.letters)
        pairs = [(i, j) for i in range(m) for j in range(m) if j != a.inverse_index(i)]
        required = min(float(system.separation[i, j].min()) for i, j in pairs)
        assert printed == cli.fmt(required)
        assert float(printed) >= 6 * 0.1
        assert float(system.separation.min()) <= 1e-12  # an exempt pair


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


    def test_a_group_limit_set_is_the_same_both_ways(self, tmp_path, monkeypatch, rays_file):
        # Gamma = Gamma^-1 at equal depth and x-(w) = x+(w^-1), so the
        # backward points are the forward ones, within MERGE_TOL both ways
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(["forge", "--n", "3", "--rays", str(rays_file), "--epsilon", "0.05",
                           "--seed", "2", "--group", "--out", "system.json"])
        assert code == 0
        clouds = {}
        for side in ("fwd", "bwd"):
            code, _ = run_cli(["limit-set", "--system", "system.json", "--depth", "5",
                               "--side", side, "--out", side])
            assert code == 0
            clouds[side] = [np.loadtxt(f"{side}.deg{k}.csv", delimiter=",", ndmin=2) for k in (1, 2)]
        for f, b in zip(clouds["fwd"], clouds["bwd"]):
            assert len(f) > 10
            # pairwise chordal distances min(|u - v|, |u + v|) of the unit rows
            d = np.minimum(*(np.linalg.norm(f[:, None] - c * b[None], axis=2) for c in (1, -1)))
            assert d.min(axis=1).max() <= lc.limits.MERGE_TOL
            assert d.min(axis=0).max() <= lc.limits.MERGE_TOL


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


class TestForgedGroupOfSingularInverses:
    def test_singular_inverse_exits_3(self, tmp_path, monkeypatch):
        # these generators are too wide in dynamic range for float64 to invert
        # from their entries; their factors invert them exactly
        monkeypatch.chdir(tmp_path)
        rays = [[3, 1, -1, -3], [3, -0.5, -1, -1.5], [2, 1.5, -1.5, -2]]
        Path("rays.json").write_text(json.dumps({"rays": rays}))
        code, _ = run_cli(
            ["forge", "--n", "4", "--rays", "rays.json", "--epsilon", "0.03",
             "--seed", "0", "--out", "system.json"]
        )
        assert code == 0
        doc = json.loads(Path("system.json").read_text())
        doc["kind"] = "group"
        Path("factored.json").write_text(json.dumps(doc))
        code, _ = run_cli(["estimate-cone", "--system", "factored.json", "--depth", "2"])
        assert code == 0
        del doc["factors"]
        Path("group.json").write_text(json.dumps(doc))
        code, _ = run_cli(["estimate-cone", "--system", "group.json", "--depth", "2"])
        assert code == 3
        code, _ = run_cli(["certify-schottky", "--system", "group.json"])
        assert code == 3


class TestUsageErrors:
    def test_no_command(self):
        code, _ = run_cli([])
        assert code == 3

    def test_the_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        m = write_matrix(tmp_path / "g.json", [[2.0, 1.0], [0.0, 0.5]])
        valid = ["project", "--matrix", str(m)]
        alone = run_cli(valid)
        assert run_cli(valid + ["--iterate", "64"])[0] == 0
        assert run_cli(valid + ["--bogus"])[0] == 3
        assert run_cli(["certify", "--matrix", str(m), "--degree", "1"])[0] == 3
        assert run_cli(valid) == alone

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

    def test_forge_epsilon_out_of_range(self, rays_file, capsys):
        code, _ = run_cli(
            ["forge", "--n", "3", "--rays", str(rays_file), "--epsilon", "0"]
        )
        assert code == 3
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix",
        [np.diag([100.0, 1.0, 0.01]), np.array([[0.0, -1.0], [1.0, 0.0]])],
        ids=["proximal", "rotation"],
    )
    def test_zero_samples(self, tmp_path, matrix):
        m = write_matrix(tmp_path / "g.json", matrix)
        code, _ = run_cli(
            ["certify", "--matrix", str(m), "--degree", "1", "--epsilon", "0.1",
             "--samples", "0"]
        )
        assert code == 3

    @pytest.mark.parametrize("n", ["4", "2", "1"])
    def test_forge_dimension_differs_from_the_rays(self, rays_file, n, capsys):
        code, _ = run_cli(["forge", "--n", n, "--rays", str(rays_file), "--epsilon", "0.05"])
        assert code == 3
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rays", [[], [[2.0, -0.5, -1.5], [3.0, 1.0, -1.0, -3.0]]], ids=["empty", "mixed"]
    )
    def test_forge_rays_without_one_dimension(self, tmp_path, rays):
        path = tmp_path / "rays.json"
        path.write_text(json.dumps({"rays": rays}))
        code, _ = run_cli(["forge", "--n", "3", "--rays", str(path), "--epsilon", "0.05"])
        assert code == 3

    def test_forge_refuses_a_ray_outside_the_chamber(self, tmp_path, capsys):
        path = tmp_path / "rays.json"
        path.write_text(json.dumps({"rays": [[-3.0, -1.0, 1.0, 3.0], [5.0, 1.0, -2.0, -4.0]]}))
        out = tmp_path / "sys.json"
        code, _ = run_cli(["forge", "--n", "4", "--rays", str(path), "--epsilon", "0.03", "--out", str(out)])
        assert code == 3
        assert "not in the chamber" in capsys.readouterr().err
        assert not out.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0
        assert "limitcone" in capsys.readouterr().out


# every subcommand's options as (type, or "switch" for a flag that takes no
# value, default, choices, required); the options that commands share come
# from parent parsers, and this table pins what each command ends up with
OPTIONS = {
    "project": {
        "--matrix": (None, None, None, True),
        "--iterate": (int, 0, None, False),
    },
    "certify": {
        "--matrix": (None, None, None, True),
        "--degree": (int, None, None, True),
        "--epsilon": (float, None, None, True),
        "--mode": (None, "sampled", ("analytic", "sampled"), False),
        "--samples": (int, 10_000, None, False),
        "--seed": (int, 0, None, False),
    },
    "certify-schottky": {
        "--system": (None, None, None, True),
        "--kind": (None, None, ["semigroup", "group"], False),
        "--epsilon": (float, None, None, False),
        "--mode": (None, "sampled", ("analytic", "sampled"), False),
        "--samples": (int, 10_000, None, False),
        "--seed": (int, 0, None, False),
    },
    "forge": {
        "--n": (int, None, None, True),
        "--rays": (None, None, None, True),
        "--epsilon": (float, None, None, True),
        "--seed": (int, 0, None, False),
        "--group": ("switch", False, None, False),
        "--out": (None, "system.json", None, False),
    },
    "estimate-cone": {
        "--system": (None, None, None, True),
        "--depth": (int, None, None, True),
        "--random": (int, 0, None, False),
        "--seed": (int, 0, None, False),
        "--out": (None, "cone", None, False),
    },
    "limit-set": {
        "--system": (None, None, None, True),
        "--depth": (int, None, None, True),
        "--side": (None, None, ["fwd", "bwd"], True),
        "--seed": (int, 0, None, False),
        "--out": (None, "limitset", None, False),
    },
    "compare": {
        "--system": (None, None, None, True),
        "--depth": (int, None, None, True),
        "--seed": (int, 0, None, False),
    },
}


def _subcommand_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {
            a.option_strings[-1]: (
                "switch" if isinstance(a, argparse._StoreTrueAction) else a.type,
                a.default,
                a.choices,
                a.required,
            )
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sp in sub.choices.items()
    }


class TestNegativeSeed:
    """Every seeded command refuses a negative --seed as a usage error, before
    any work; the same command line with --seed 0 runs."""

    @staticmethod
    def _argv(command, tmp_path, rays_file):
        # strong enough for the analytic bounds to certify
        matrix = write_matrix(tmp_path / "g.json", np.diag([1e4, 1.0, 1e-4]))
        system = write_system(tmp_path / "sys.json", sl2_pair_entries(), kind="group")
        return {
            "forge": ["forge", "--n", "3", "--rays", str(rays_file), "--epsilon", "0.05",
                      "--out", str(tmp_path / "out.json")],
            "certify": ["certify", "--matrix", str(matrix), "--degree", "1",
                        "--epsilon", "0.1"],
            "certify-analytic": ["certify", "--matrix", str(matrix), "--degree", "1",
                                 "--epsilon", "0.1", "--mode", "analytic"],
            "certify-schottky": ["certify-schottky", "--system", str(system)],
            "estimate-cone": ["estimate-cone", "--system", str(system), "--depth", "3",
                              "--random", "5", "--out", str(tmp_path / "out")],
            "limit-set": ["limit-set", "--system", str(system), "--depth", "2", "--side", "fwd",
                          "--out", str(tmp_path / "out")],
            "compare": ["compare", "--system", str(system), "--depth", "2"],
        }[command]

    @pytest.mark.parametrize(
        "command",
        ["forge", "certify", "certify-analytic", "certify-schottky", "estimate-cone",
         "limit-set", "compare"],
    )
    def test_negative_seed_exits_3(self, tmp_path, rays_file, capsys, command):
        argv = self._argv(command, tmp_path, rays_file)
        code, text = run_cli(argv + ["--seed", "-1"])
        assert code == 3 and text == ""
        assert "--seed" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))
        assert run_cli(argv + ["--seed", "0"])[0] == 0


class TestOptions:
    def test_every_subcommand_keeps_its_options(self):
        assert _subcommand_options() == OPTIONS

    @pytest.mark.parametrize("command", ["estimate-cone", "limit-set", "compare"])
    def test_word_commands_share_one_sampler(self, tmp_path, monkeypatch, command):
        # each word command reads the system file and hands its words to the
        # estimator through the one sampler builder
        write_system(tmp_path / "sys.json", sl2_pair_entries(), kind="group")
        argv = [command, "--system", str(tmp_path / "sys.json"), "--depth", "3", "--seed", "4"]
        if command == "limit-set":
            argv += ["--side", "bwd", "--out", str(tmp_path / "ls")]
        if command == "estimate-cone":
            argv += ["--random", "9", "--out", str(tmp_path / "cone")]
        built = []
        make = cli._sampler

        def spy(args):
            built.append(make(args))
            return built[-1]

        monkeypatch.setattr(cli, "_sampler", spy)
        assert run_cli(argv)[0] == 0
        (sampler,) = built
        assert (sampler.kind, sampler.max_length, sampler.seed) == ("group", 3, 4)
        assert sampler.count == (9 if command == "estimate-cone" else 0)


class TestMalformedContents:
    """File contents that numpy or float() cannot read exit 3, not a traceback."""

    RAGGED = [[1.0, 0.0], [0.0]]

    @pytest.mark.parametrize("command", ["project", "certify"])
    def test_ragged_entries(self, tmp_path, command):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"entries": self.RAGGED}))
        argv = [command, "--matrix", str(path)]
        if command == "certify":
            argv += ["--degree", "1", "--epsilon", "0.1"]
        assert run_cli(argv)[0] == 3

    @pytest.mark.parametrize(
        "command", ["estimate-cone", "limit-set", "compare", "certify-schottky"]
    )
    def test_ragged_generators(self, tmp_path, command):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"generators": [np.eye(2).tolist(), self.RAGGED]}))
        argv = [command, "--system", str(path)]
        if command != "certify-schottky":
            argv += ["--depth", "2"]
        if command == "limit-set":
            argv += ["--side", "fwd"]
        assert run_cli(argv)[0] == 3

    def test_non_numeric_epsilons(self, tmp_path):
        path = write_system(tmp_path / "sys.json", sl2_pair_entries(), epsilons=["a", "b"])
        assert run_cli(["certify-schottky", "--system", str(path)])[0] == 3

    SYSTEM = {"generators": [np.eye(2).tolist(), np.eye(2).tolist()]}

    @pytest.mark.parametrize(
        "command, doc, refusal",
        [
            ("project", [[2.0, 0.0], [0.0, 0.5]], "expected a JSON object"),
            ("project", {"n": [2], "entries": [[2.0, 0.0], [0.0, 0.5]]}, "expected a number"),
            ("certify-schottky", {**SYSTEM, "epsilons": 0.1}, "expected a list of numbers"),
            ("certify-schottky", {**SYSTEM, "factors": [1.0, 2.0]}, "factors must be an object"),
            ("certify-schottky", {"generators": {"a": [[1.0]]}}, "generators must be a list"),
            ("certify-schottky", {**SYSTEM, "factors": []}, "one entry per generator"),
            ("forge", {"rays": {"a": [2.0, -0.5, -1.5]}}, "rays must be a list"),
            # json writes and reads Infinity; it is refused without a RuntimeWarning
            ("forge", {"rays": [[float("inf"), 0.0, -1.0]]}, "coordinates must be finite"),
        ],
        ids=[
            "array-document", "list-for-number", "number-for-list", "non-object-factors",
            "generators-not-a-list", "factors-of-the-wrong-length", "rays-not-a-list",
            "infinite-ray",
        ],
    )
    def test_malformed_file_is_refused_with_nothing_on_stdout(
        self, tmp_path, capsys, command, doc, refusal
    ):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        flag = {"project": "--matrix", "certify-schottky": "--system", "forge": "--rays"}[command]
        argv = [command, flag, str(path)]
        if command == "forge":
            argv += ["--n", "3", "--epsilon", "0.05"]
        assert run_cli(argv) == (3, "")
        out, err = capsys.readouterr()
        assert out == ""
        assert refusal in err

    def test_non_numeric_margin(self, tmp_path):
        path = tmp_path / "rays.json"
        path.write_text(
            json.dumps({"rays": [FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], "margin": "x"})
        )
        code, _ = run_cli(["forge", "--n", "3", "--rays", str(path), "--epsilon", "0.05"])
        assert code == 3

    @pytest.mark.parametrize("margin", [0.0, -0.1, float("inf")])
    def test_a_margin_that_is_not_positive_and_finite_is_refused(self, tmp_path, capsys, margin):
        path = tmp_path / "rays.json"
        path.write_text(
            json.dumps({"rays": [FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], "margin": margin})
        )
        code, _ = run_cli(["forge", "--n", "3", "--rays", str(path), "--epsilon", "0.05"])
        assert code == 3
        assert "margin must be positive and finite" in capsys.readouterr().err

SL4_RAYS = [[3.0, 1.0, -1.0, -3.0], [5.0, 1.0, -2.0, -4.0], [4.0, 2.0, -2.0, -4.0]]
REPRODUCER_RAYS = [[3.0, 1.0, -1.0, -3.0], [3.0, -0.5, -1.0, -1.5], [2.0, 1.5, -1.5, -2.0]]


def _forge_file(rays, epsilon, seed, out="system.json"):
    Path("rays.json").write_text(json.dumps({"rays": rays}))
    code, _ = run_cli(["forge", "--n", str(len(rays[0])), "--rays", "rays.json",
                       "--epsilon", str(epsilon), "--seed", str(seed), "--out", out])
    assert code == 0
    return json.loads(Path(out).read_text())


class TestSystemFileFactors:
    """A forged system file carries each generator's factors; loading it gives
    back the exact letters."""

    def test_round_trip_limit_set_reads_the_exact_letters(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = _forge_file(REPRODUCER_RAYS, 0.02, 1)
        assert [f["power"] for f in doc["factors"]] == doc["forge_report"]["powers"]
        code, text = run_cli(
            ["limit-set", "--system", "system.json", "--depth", "8", "--side", "fwd"]
        )
        assert code == 0
        # the rounded entries alone give 15, 222 and 5,793 points
        assert "deg 1: 15 points, deg 2: 15 points, deg 3: 27 points" in text

    @pytest.mark.parametrize("seed", [20, 30, 38])
    def test_certify_schottky_reproduces_the_forge(self, tmp_path, monkeypatch, seed):
        monkeypatch.chdir(tmp_path)
        _forge_file(SL4_RAYS, 0.03, seed)
        code, _ = run_cli(["certify-schottky", "--system", "system.json", "--seed", str(seed)])
        assert code == 0
        forged = lc.forge_semigroup(4, lc.TargetCone.from_rays(SL4_RAYS), 0.03, seed=seed)
        gens, kind, eps = cli.load_system("system.json")
        again = lc.verify_schottky(gens, kind=kind, epsilons=eps, seed=seed)
        assert again.eigendata.keys() == forged.eigendata.keys()
        for key, cert in forged.eigendata.items():
            assert again.eigendata[key] == cert, key
        assert np.array_equal(again.separation, forged.separation)

    def test_certify_schottky_names_the_exact_mode(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _forge_file(SL4_RAYS, 0.03, 20)
        code, text = run_cli(["certify-schottky", "--system", "system.json", "--seed", "20"])
        assert code == 0
        assert text.startswith("certified: semigroup with 3 generators")
        assert text.rstrip().endswith(", mode exact")

    def test_certify_schottky_mode_flags_apply_to_factored_letters(
        self, tmp_path, monkeypatch, capsys
    ):
        # sampled mode certifies factored letters exactly but still checks its
        # sample count; analytic mode keeps its Lipschitz gate, which the forged
        # letters' plane stretch (a lower bound on their constant) exceeds
        monkeypatch.chdir(tmp_path)
        _forge_file(SL4_RAYS, 0.03, 5)
        code, text = run_cli(["certify-schottky", "--system", "system.json", "--mode", "analytic"])
        assert code == 2
        assert text.startswith("inconclusive:")
        capsys.readouterr()
        code, _ = run_cli(["certify-schottky", "--system", "system.json", "--samples", "0"])
        assert code == 3
        assert "sample_count" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["entry", "rotation", "power", "nan", "shape"])
    def test_entries_that_disagree_with_the_factors_exit_3(self, tmp_path, monkeypatch, edit):
        monkeypatch.chdir(tmp_path)
        doc = _forge_file([FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], 0.05, 7)
        f = doc["factors"][1]
        if edit == "entry":
            doc["generators"][1][0][0] += 1e-6 * np.abs(doc["generators"][1]).max()
        elif edit == "rotation":
            f["rotation"][0][0] += 1e-6
        elif edit == "power":
            f["power"] += 1.0
        elif edit == "nan":
            f["ray"][0] = float("nan")
        else:
            f["ray"] = f["ray"][:2]
        Path("bad.json").write_text(json.dumps(doc))
        code, _ = run_cli(["estimate-cone", "--system", "bad.json", "--depth", "2"])
        assert code == 3

    def test_consistent_factors_of_a_non_unimodular_element_exit_3(self, tmp_path, monkeypatch):
        # entries and factors agree, but the ray sums to 3: det e^3, not 1
        monkeypatch.chdir(tmp_path)
        e = float(np.e)
        doc = {
            "generators": [[[e * e, 0.0], [0.0, e]]],
            "factors": [{"rotation": [[1.0, 0.0], [0.0, 1.0]], "ray": [2.0, 1.0], "power": 1.0}],
        }
        Path("det.json").write_text(json.dumps(doc))
        for argv in (["estimate-cone", "--depth", "2"], ["limit-set", "--depth", "2"]):
            code, _ = run_cli(argv + ["--system", "det.json"])
            assert code == 3
        del doc["factors"]
        Path("plain.json").write_text(json.dumps(doc))
        code, _ = run_cli(["estimate-cone", "--depth", "2", "--system", "plain.json"])
        assert code == 3

    def test_entries_within_the_tolerance_load_from_the_factors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = _forge_file([FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], 0.05, 7)
        exact = cli.load_system("system.json")[0][0].entries
        doc["generators"][0][0][0] += 0.1 * cli.FACTOR_TOL * np.abs(exact).max()
        Path("near.json").write_text(json.dumps(doc))
        gens, _, _ = cli.load_system("near.json")
        assert np.array_equal(gens[0].entries, exact)

    def test_file_without_factors_loads_from_its_entries(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = _forge_file([FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], 0.05, 7)
        del doc["factors"]
        Path("plain.json").write_text(json.dumps(doc))
        gens, _, _ = cli.load_system("plain.json")
        assert all(g.factors is None for g in gens)
        assert [g.entries.tolist() for g in gens] == doc["generators"]


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
