"""Module boundaries and test tooling."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from .conftest import FORGE_RAY_1, FORGE_RAY_2
from .test_cli import SL4_RAYS, run_cli, sl2_pair_entries, write_matrix, write_system

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "limitcone").glob("*.py"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_benchmark_records_parse_with_their_keys(path):
    # a committed benchmark record names the change, the machine and the
    # end-to-end numbers
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = {"change", "environment", "end_to_end"} - record.keys()
    assert not missing, missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")  # dunders are public
    ]
    assert not private, private


def _imported(name):
    """The names a module of the package imports with `from ... import`."""
    return {
        a.name
        for node in ast.walk(ast.parse((ROOT / "src" / "limitcone" / name).read_text()))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


@pytest.mark.parametrize("name", ["limits.py", "projections.py"])
def test_letter_powers_come_from_the_element(name):
    # a letter's exterior powers come only from projgeom.exterior_power
    assert "compound_matrix" not in _imported(name)


def test_the_forge_asks_the_certificates_for_attracting_points():
    # where a factored letter's x+ sits in its rotation compound is read in
    # proximality alone; the forge's separation test is verify_schottky's
    assert "rotation_compound" not in _imported("schottky.py")


def _attributes(name):
    tree = ast.parse((ROOT / "src" / "limitcone" / name).read_text())
    return [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_one_readout_per_quantity():
    # mu and lambda come from projections' accumulator, which reads exterior
    # powers and never an element's entries; attracting flags come from
    # proximality's eigen-splitting
    decompositions = [a for a in _attributes("limits.py") if a[1] in ("eig", "eigvals", "svd")]
    assert not decompositions, decompositions
    entries = [a for a in _attributes("projections.py") if a[1] == "entries"]
    assert not entries, entries


def _module_level_imports(tree):
    """The modules a module imports at its top level, not inside a function."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_by_the_function_that_calls_it(path):
    # `import limitcone` loads numpy only; NNLS, ConvexHull and null_space
    # load their part of scipy on first use
    eager = [
        m for m in _module_level_imports(ast.parse(path.read_text()))
        if m == "scipy" or m.startswith("scipy.")
    ]
    assert not eager, eager


# Run in a fresh interpreter: prints, per step, the exit code, the standard
# output and the scipy modules loaded by then.  The test process itself
# cannot tell, because conftest imports scipy.linalg.
COLD_RUN = """
import io, json, sys
from limitcone import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [{"scipy": scipy_modules()}]
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    steps.append({"code": code, "out": buf.getvalue(), "scipy": scipy_modules()})
print(json.dumps(steps))
"""


def _cold_run(cwd, *argvs):
    """[after the import, after each argv]: {"code", "out", "scipy"} of a fresh
    interpreter that runs the CLI commands `argvs` in turn in `cwd`."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_numpy_commands_load_no_scipy(tmp_path):
    write_system(tmp_path / "sys.json", sl2_pair_entries(), kind="group")
    write_matrix(tmp_path / "g.json", np.diag([100.0, 1.0, 0.01]))
    words = ["--system", "sys.json", "--depth", "4"]
    steps = _cold_run(
        tmp_path,
        ["limit-set", *words, "--side", "fwd"],
        ["compare", *words],
        ["estimate-cone", *words],  # a 1-d chamber: no hull
        ["certify", "--matrix", "g.json", "--degree", "1", "--epsilon", "0.1", "--mode", "sampled"],
    )
    assert [step["code"] for step in steps[1:]] == [0] * 4
    assert steps[-1]["out"].startswith("certified:")
    assert [step["scipy"] for step in steps] == [[]] * 5


@pytest.mark.parametrize(
    "n, rays, epsilon",
    [(3, [FORGE_RAY_1.tolist(), FORGE_RAY_2.tolist()], "0.05"), (4, SL4_RAYS, "0.03")],
    ids=["n3", "n4"],
)
def test_a_cold_forge_loads_no_scipy(tmp_path, monkeypatch, n, rays, epsilon):
    # the report's cone distances are closed-form for a target of at most n rays
    monkeypatch.chdir(tmp_path)
    Path("rays.json").write_text(json.dumps({"rays": rays}))
    argv = ["forge", "--n", str(n), "--rays", "rays.json", "--epsilon", epsilon, "--seed", "7", "--out"]
    (cold,) = _cold_run(tmp_path, argv + ["cold.json"])[1:]
    assert cold["scipy"] == []
    code, out = run_cli(argv + ["warm.json"])
    assert (cold["code"], cold["out"]) == (code, out.replace("warm", "cold")) and code == 0
    for suffix in (".json", ".summary.txt"):
        assert Path(f"cold{suffix}").read_bytes() == Path(f"warm{suffix}").read_bytes()


def test_a_cold_hull_at_n_4_loads_nnls(tmp_path, monkeypatch):
    # the 3-D chart's hull tests candidates against more rays than coordinates
    monkeypatch.chdir(tmp_path)
    Path("rays.json").write_text(json.dumps({"rays": SL4_RAYS}))
    argv = ["forge", "--n", "4", "--rays", "rays.json", "--epsilon", "0.03", "--seed", "7"]
    assert run_cli(argv + ["--out", "sys.json"])[0] == 0
    argv = ["estimate-cone", "--system", "sys.json", "--depth", "5"]
    (cold,) = _cold_run(tmp_path, argv)[1:]
    assert "scipy.optimize" in cold["scipy"]
    assert (cold["code"], cold["out"]) == run_cli(argv)


def test_analytic_certification_loads_null_space(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_matrix(Path("g.json"), np.diag([1e4, 1.0, 1e-4]))
    argv = ["certify", "--matrix", "g.json", "--degree", "1", "--epsilon", "0.1", "--mode", "analytic"]
    (cold,) = _cold_run(tmp_path, argv)[1:]
    assert "scipy.linalg" in cold["scipy"]
    assert "scipy.optimize" not in cold["scipy"]
    assert (cold["code"], cold["out"]) == run_cli(argv)
    assert cold["out"].startswith("certified:")


CONTRACTION_KERNELS = {"sampled_contraction_check", "analytic_contraction_bounds"}


def test_schottky_does_not_decide_contraction():
    # open-semigroup membership calls proximality's one contraction decision
    assert not _imported("schottky.py") & CONTRACTION_KERNELS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_contraction_kernels_are_called_only_by_the_decision(path):
    outside = [
        f"line {call.lineno}: {call.func.id} in {fn.name}"
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and fn.name != "contraction_check"
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in CONTRACTION_KERNELS
    ]
    assert not outside, outside


ACCUMULATORS = {"extend_product", "empty_product"}


def _qualified_functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def test_one_accumulation_loop_per_batch_shape():
    # limits accumulates words in two places only: the prefix-sharing levels
    # of `_classes` and the ragged batch of `Alphabet.accumulate`; a per-word
    # accumulator would be a third
    tree = ast.parse((ROOT / "src" / "limitcone" / "limits.py").read_text())
    callers = {
        name
        for name, fn in _qualified_functions(tree)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in ACCUMULATORS
    }
    assert callers == {"_classes", "Alphabet.accumulate"}


def _functions_holding(predicate):
    """The functions of the package, as module.qualified_name, holding a node
    that satisfies `predicate`."""
    return {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name, fn in _qualified_functions(ast.parse(path.read_text()))
        if any(predicate(node) for node in ast.walk(fn))
    }


def test_one_noise_floor_for_lambda():
    # whether a word's lambda has a direction is decided by one rule
    def floor(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and any(isinstance(c, ast.Constant) and c.value == 1e-9 for c in (node.left, node.right))
        )

    assert _functions_holding(floor) == {"projections.lyapunov_directions"}


def test_one_keep_rule_for_flags():
    # whether a word's flag is resolved, the log gap of a splitting's top two
    # moduli against DEFAULT_PROXIMALITY_FILTER, is decided by one rule,
    # which the limit set and the facets both read
    def log_gap(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log"
            and any(isinstance(a, ast.Attribute) and a.attr in ("top", "second") for a in node.args)
        )

    assert _functions_holding(log_gap) == {"limits._flag_readout"}


def test_limits_reads_flags_as_stacks():
    # facets test general position on whole stacks, not per point and hyperplane
    assert not {"gap", "ProjectiveHyperplane"} & _imported("limits.py")


def test_facets_make_no_point_from_a_vector(sl2_pair, monkeypatch):
    import limitcone as lc
    from limitcone.projgeom import ProjectivePoint

    calls = []
    from_vector = ProjectivePoint.from_vector.__func__

    def counting(cls, v):
        calls.append(len(v))
        return from_vector(cls, v)

    monkeypatch.setattr(ProjectivePoint, "from_vector", classmethod(counting))
    ProjectivePoint.from_vector([1.0, 0.0])
    assert calls == [2]  # the hook counts
    facets = lc.estimate_facets(lc.WordSampler(generators=sl2_pair, kind="group", max_length=4))
    # a facet's points are rows of its batch's stacks, not one point per vector
    assert len(facets) == 160 and calls == [2]


def test_the_cone_builds_no_direction_one_row_at_a_time(forged_semigroup, monkeypatch):
    import limitcone as lc
    from limitcone.projections import ChamberVector

    calls = []
    from_coords = ChamberVector.from_coords.__func__

    def counting(cls, coords):
        calls.append(1)
        return from_coords(cls, coords)

    monkeypatch.setattr(ChamberVector, "from_coords", classmethod(counting))
    ChamberVector.from_coords([1.0, -1.0])
    assert calls == [1]  # the hook counts
    sampler = lc.WordSampler(
        generators=forged_semigroup.generators, max_length=12, count=300, seed=3
    )
    est = lc.estimate_cone(sampler)
    # the directions are one checked stack, not one vector per row
    assert len(est.directions) > 100 and calls == [1]


def test_check_convexity_reads_only_the_words_it_draws():
    tree = ast.parse((ROOT / "src" / "limitcone" / "limits.py").read_text())
    fn = dict(_qualified_functions(tree))["check_convexity"]
    called = {
        call.func.id
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }
    assert "_classes" not in called


def test_the_cone_and_compare_share_one_lambda_readout():
    # mu and lambda of the sampled words are read in `_class_readout` alone,
    # which reads lambda once per conjugacy class
    tree = ast.parse((ROOT / "src" / "limitcone" / "limits.py").read_text())
    functions = dict(_qualified_functions(tree))
    for name in ("estimate_cone", "compare_mu_lambda"):
        called = {
            call.func.id
            for call in ast.walk(functions[name])
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        assert "_class_readout" in called
        assert not called & {"_classes", "product_projection"}


def test_the_separation_factor_is_written_once():
    # the Schottky condition's 6 (times epsilon) is proximality.SEPARATION_FACTOR
    sixes = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 6.0
    ]
    assert len(sixes) == 1 and sixes[0].startswith("proximality.py:"), sixes


def _float_literals(name, value):
    """The lines of a module holding the float literal `value`, and the
    module-level names assigned exactly that literal."""
    tree = ast.parse((ROOT / "src" / "limitcone" / name).read_text())
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == value
    ]
    named = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and node.value.value == value
        for target in node.targets
    }
    return lines, named


@pytest.mark.parametrize(
    "name, names", [("cones.py", {"SLACK"}), ("limits.py", {"MERGE_TOL"}), ("schottky.py", set())]
)
def test_the_cone_slack_is_written_once(name, names):
    # the cone layer decides at cones.SLACK; limits' one other 1e-9 is the point merge's
    lines, named = _float_literals(name, 1e-9)
    assert named == names and len(lines) == len(names), lines


def test_involution_stability_takes_no_tolerance():
    import inspect

    import limitcone as lc

    assert list(inspect.signature(lc.TargetCone.involution_stable).parameters) == ["self"]


def _calls_to(names):
    def call(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names

    return _functions_holding(call)


def test_one_membership_test_reads_nnls_residuals():
    # a residual is compared with a slack in cones.in_cone only; the forge
    # report records the residues of its directions
    assert _calls_to({"nnls"}) == {"cones.cone_distance"}
    assert _calls_to({"cone_distance"}) == {"cones.in_cone", "schottky._forge"}


def test_the_readers_of_rays_share_one_row_rule():
    assert _calls_to({"_unit_rows"}) == {"cones.extreme_ray_indices"}
    finite = _functions_holding(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "isfinite"
    )
    assert {f for f in finite if f.startswith("cones.")} == {"cones._unit_rows"}


def test_the_cone_layer_calls_qhull_once():
    # the candidate extreme rays are the one hull that Qhull builds
    assert _calls_to({"ConvexHull"}) == {"cones._hull_candidates"}


def test_one_chordal_kernel_outside_the_point_merge():
    # proj_distance's one library caller is the pinned point merge (ROADMAP item 4)
    assert _calls_to({"proj_distance"}) == {"limits._merge_points"}
    assert "proj_distance" not in _imported("proximality.py")


def test_a_word_has_one_form():
    # a word is a letter sequence; no per-word product type or lister remains
    import limitcone

    for module in (limitcone, limitcone.limits):
        assert not {"WordProduct", "enumerate_words"} & set(vars(module))


def test_the_cli_builds_its_word_sampler_in_one_place():
    # the word commands share one sampler builder, so how --depth, --seed and
    # --random become words is written once
    tree = ast.parse((ROOT / "src" / "limitcone" / "cli.py").read_text())
    builders = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "WordSampler"
    }
    assert builders == {"_sampler"}


def test_shared_cli_options_are_declared_once():
    tree = ast.parse((ROOT / "src" / "limitcone" / "cli.py").read_text())
    flags = [
        call.args[0].value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "add_argument"
        and isinstance(call.args[0], ast.Constant)
    ]
    for flag in ("--seed", "--system", "--depth", "--mode", "--samples", "--matrix"):
        assert flags.count(flag) == 1, flag


def _raised_in(words):
    """The functions of the package, as module.qualified_name, that raise a
    message holding `words`."""
    return _functions_holding(
        lambda node: isinstance(node, ast.Raise)
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and words in c.value
            for c in ast.walk(node)
        )
    )


@pytest.mark.parametrize(
    "words, where",
    [
        ("epsilon must be in (0, 1)", {"proximality.check_request"}),
        ("sample_count must be >= 1", {"proximality.check_request"}),
        ("seed must be >= 0", {"errors.check_seed"}),
        # contraction_check keeps the else branch of its own mode dispatch
        ("unknown mode", {"proximality.check_request", "proximality.contraction_check"}),
    ],
)
def test_each_request_refusal_is_raised_in_one_function(words, where):
    assert _raised_in(words) == where


def test_the_schottky_pair_rule_is_written_once():
    # the need SEPARATION_FACTOR * max(eps_i, eps_j) of a letter pair
    def need(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.left, ast.Name)
            and node.left.id == "SEPARATION_FACTOR"
            and isinstance(node.right, ast.Call)
            and isinstance(node.right.func, ast.Name)
            and node.right.func.id == "max"
        )

    assert _functions_holding(need) == {"proximality.check_separation"}


def test_simple_dominance_is_refused_by_its_two_readers():
    # eigen_splittings' mask read by top_eigendata, the exact spectrum by
    # _certify_factored; realness follows from the gap, so no branch refuses it
    assert _raised_in("is not simple") == {
        "proximality.top_eigendata",
        "proximality._certify_factored",
    }
    assert not _raised_in("not real")


def test_the_cli_reads_refuted_off_the_failure():
    # whether a verdict refutes is the failure's `refuted`, not a type test
    tree = ast.parse((ROOT / "src" / "limitcone" / "cli.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "ContractionUnverified" not in named | _imported("cli.py")


MODE_NAMES = {"analytic", "sampled"}


def _mode_collections(path):
    """Line numbers of list, tuple and set literals in a module that name a mode."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set))
        and any(isinstance(e, ast.Constant) and e.value in MODE_NAMES for e in node.elts)
    ]


def test_the_modes_are_listed_once():
    listed = {path.name: _mode_collections(path) for path in SOURCES}
    assert {name for name, lines in listed.items() if lines} == {"proximality.py"}
    assert len(listed["proximality.py"]) == 1  # MODES


def test_the_cli_spells_no_sample_count():
    from limitcone.proximality import DEFAULT_SAMPLE_COUNT

    counts = [
        node.lineno
        for node in ast.walk(ast.parse((ROOT / "src" / "limitcone" / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and node.value == DEFAULT_SAMPLE_COUNT
    ]
    assert not counts, counts


CERTIFICATION_FAILURES = {"NotProximal", "SeparationViolated", "ContractionUnverified"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_certification_failures_are_caught_as_one_type(path):
    # every certification failure is a CertificationFailure; a tuple that
    # lists them one by one drifts when a new condition is added
    tuples = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Tuple)
        and any(isinstance(e, ast.Name) and e.id in CERTIFICATION_FAILURES for e in node.elts)
    ]
    assert not tuples, tuples


def test_mistyped_marker_fails_collection(tmp_path):
    # a mistyped `slow` would otherwise let a long test into the fast suite
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_typo.py").write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_typo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'slwo' not found" in proc.stdout


def test_one_owner_of_conjugacy_classes():
    # which word stands for a class, and the prefix that carries its flags,
    # are decided in `limits._classes` alone; the readers read its map
    def classes(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_cyclic_classes"
        )

    assert _functions_holding(classes) == {"limits._classes"}


def test_one_rule_picks_class_representatives(sl2_pair, monkeypatch):
    # every word list, enumerated level by level or drawn or supplied, has
    # its representatives picked by `_first_shortest`; the enumeration's
    # rank arithmetic `_level_rows` is gone
    import limitcone as lc
    from limitcone import limits

    assert not hasattr(limits, "_level_rows")
    calls = []
    first_shortest = limits._first_shortest

    def counting(*args):
        calls.append(len(args[0]))
        return first_shortest(*args)

    monkeypatch.setattr(limits, "_first_shortest", counting)
    sampler = lc.WordSampler(generators=sl2_pair, kind="group", max_length=4)
    limits._class_readout(sampler)
    # one call, over the whole enumerated list at once
    assert calls == [sampler.expected_word_count()]


def test_both_sides_read_eig_once_per_class(monkeypatch):
    # the limit set and the facets split the class representatives' products
    # alone, forward, and their transposes, backward; every other word's flag
    # is carried by its prefix or its suffix.  The keep rule stays in
    # `limits._flag_readout` (test_one_keep_rule_for_flags).
    import limitcone as lc
    from limitcone import limits

    rays = np.array([(3, 1, -1, -3), (5, 1, -2, -4), (4, 2, -2, -4)], dtype=float)
    cone = lc.TargetCone.from_rays(list(rays / np.linalg.norm(rays, axis=1)[:, None]))
    gens = lc.forge_semigroup(4, cone, 0.03, seed=21).generators
    stacks = []
    eigen_splittings = limits.eigen_splittings

    def capture(stack):
        stacks.append(np.array(stack))
        return eigen_splittings(stack)

    monkeypatch.setattr(limits, "eigen_splittings", capture)
    for sampler in (
        lc.WordSampler(generators=gens, max_length=7),
        lc.WordSampler(generators=gens, max_length=12, count=500, seed=3),
    ):
        words = sampler.words()
        reps = len(np.unique(limits._class_readout(sampler)[3]))
        if sampler.count == 0:
            assert (reps, len(words)) == (540, 3279)
        read = {}
        for side in ("forward", "backward"):
            for supplied in (None, words):
                stacks.clear()
                lc.estimate_limit_set(sampler, side=side, words=supplied)
                # one call per batch and degree, on the representatives alone
                assert sum(map(len, stacks)) == 3 * reps < 3 * len(words)
                read[side, supplied is None] = list(stacks)
        # one path: the backward side reads the forward side's stacks, transposed
        for fresh in (True, False):
            forward, backward = read["forward", fresh], read["backward", fresh]
            assert len(forward) == len(backward)
            assert all(np.array_equal(b, f.transpose(0, 2, 1)) for f, b in zip(forward, backward))
        stacks.clear()
        lc.estimate_facets(sampler)
        assert sum(map(len, stacks)) == 2 * 3 * reps
