"""The benchmark's workloads: inputs made from a seed, the timed stage sequence,
and tolerance-based correctness oracles.

Stages run in-process through `limitcone.cli.run` where a CLI command exists,
and through the public API otherwise (open-semigroup membership has no
command).  Every command runs with relative paths from the iteration's work
directory, so output files, manifests included, do not depend on where the
checkout lives and their digests compare across checkouts.
"""

import hashlib
import io
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import limitcone as lc
from limitcone import cli

from bench_clock import SpeedClock
from bench_trace import Tracer, word_count

STAGES = ("forge", "certify", "cone", "limit_set", "compare")
WORD_STAGES = ("cone", "limit_set", "compare")
ORACLE_DEG = 2.0  # criterion 7: recovered rays within 2 degrees
INVARIANCE_TOL = 0.05  # criterion 9: letter images of the cloud within 0.05
MEMBERSHIP_EPS = 0.05  # the corpus is built inside G^0.05 of the identity frame
CERTIFY_EPS = 0.1  # criterion 10 certifies the products at epsilon 0.1

SIZES = {
    "full": {
        "sl2-group-limit-set": {"depth": 7},
        # at epsilon 0.05 these rays fail to forge (SeparationUnachievable)
        # on about one seed in six; at 0.03 on none of 1,204 tried
        "sl4-forge-cone": {"depth": 7, "epsilon": 0.03},
        "sl3-sampled-certify": {
            "epsilon": 0.05, "depth": 24, "random": 2000, "pairs": 100, "samples": 10_000,
        },
    },
    # for the benchmark's own smoke tests
    "tiny": {
        "sl2-group-limit-set": {"depth": 3},
        "sl4-forge-cone": {"depth": 3, "epsilon": 0.03},
        "sl3-sampled-certify": {
            "epsilon": 0.05, "depth": 6, "random": 60, "pairs": 2, "samples": 500,
        },
    },
}


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _angles_deg(a, b):
    """Pairwise angles in degrees between the unit rows of a and of b."""
    return np.degrees(np.arccos(np.clip(_unit(a) @ _unit(b).T, -1.0, 1.0)))


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc))


@contextmanager
def _cwd(path):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


class Pipeline:
    """One iteration of a workload: stage times, operations and their failures."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.clock = SpeedClock()
        self.ops = []  # (stage, reference seconds, work seconds)
        self.stage_s = {}  # reference seconds per stage, filled by `close`
        self.stage_wall_s = {}  # work seconds (wall minus sampling) per stage
        self.words = defaultdict(int)
        self.attempted = 0
        self.failures = []
        self.info = {}
        self.transcript = []

    def fail(self, what):
        self.failures.append(what)

    def check(self, ok, what):
        """A correctness oracle: one attempted operation, failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def timed(self, stage, fn, *args, **kwargs):
        """Run fn on `stage`'s clock; returns (result, exception)."""
        self.attempted += 1
        ref, work = self.clock.read()
        try:
            return fn(*args, **kwargs), None
        except Exception as e:  # a raising call is a failed operation, recorded by the caller
            return None, e
        finally:
            ref_end, work_end = self.clock.read()
            self.ops.append((stage, ref_end - ref, work_end - work))

    def close(self):
        """Total the stage times, in work seconds and in reference seconds."""
        ref, work = defaultdict(float), defaultdict(float)
        for stage, ref_s, work_s in self.ops:
            ref[stage] += ref_s
            work[stage] += work_s
        self.stage_s, self.stage_wall_s = dict(ref), dict(work)

    def cli(self, stage, argv, expect=(0,), words=0):
        """Run one CLI command; an exit code outside `expect` is a failure."""
        buf = io.StringIO()
        code, exc = self.timed(stage, cli.run, argv, out=buf)
        self.words[stage] += words
        text = buf.getvalue()
        self.transcript.append("$ limitcone " + " ".join(argv) + "\n" + text)
        if exc is not None:
            self.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        elif code not in expect:
            self.fail(f"{' '.join(argv)}: exit {code}, expected {expect}")
        return code, text

    def digests(self, inputs):
        """SHA-256 of every file the CLI wrote, and of the captured CLI stdout."""
        (self.dir / "stdout.txt").write_text("".join(self.transcript))
        skip = set(inputs)
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.dir.iterdir())
            if p.is_file() and p.name not in skip
        }


def _hull_oracle(pipe, hull_csv, targets):
    """Each target ray is recovered by a hull ray within 2 degrees.

    Hull rays outside the target cone are expected: the limit cone holds the
    directions of products, which can leave the generators' cone; their
    largest angle to the nearest target is recorded as `cone_error_deg`.
    """
    try:
        hull = _read_csv(hull_csv)
    except (OSError, ValueError) as e:
        pipe.check(False, f"unreadable hull {hull_csv}: {e}")
        return
    ang = _angles_deg(hull, targets)
    pipe.info["cone_error_deg"] = float(ang.min(axis=1).max())
    pipe.info["hull_rays"] = int(hull.shape[0])
    worst = float(ang.min(axis=0).max())
    pipe.check(worst <= ORACLE_DEG, f"a target ray is {worst:.3f} deg from every hull ray")


class SL2GroupLimitSet:
    """The SL(2) reference pair as a group; point dedup dominates."""

    name = "sl2-group-limit-set"

    def __init__(self, seed, size):
        self.seed, self.depth = seed, size["depth"]

    def prepare(self):
        g1 = np.diag([10.0, 0.1])
        c = s = np.sqrt(0.5)
        r = np.array([[c, -s], [s, c]])
        g2 = r @ g1 @ r.T
        self.letters = [g1, g2, np.linalg.inv(g1), np.linalg.inv(g2)]
        _write_json("system.json", {"generators": [g1.tolist(), g2.tolist()], "kind": "group"})
        return ["system.json"]

    def stages(self, pipe):
        words = word_count(2, "group", self.depth)
        common = ["--system", "system.json", "--depth", str(self.depth), "--seed", str(self.seed)]
        for side in ("fwd", "bwd"):
            pipe.cli("limit_set", ["limit-set", *common, "--side", side, "--out", side], words=words)
        _, self.cone_out = pipe.cli("cone", ["estimate-cone", *common, "--out", "cone"], words=words)
        pipe.cli("compare", ["compare", *common], words=words)

    def check(self, pipe):
        pipe.check(self.cone_out.strip() == "hull_dim 1", f"estimate-cone printed {self.cone_out!r}")
        try:
            cloud = _unit(_read_csv("fwd.deg1.csv"))
        except (OSError, ValueError) as e:
            pipe.check(False, f"unreadable forward cloud: {e}")
            return
        pipe.info["forward_points"] = int(cloud.shape[0])
        worst = 0.0
        for m in self.letters:
            img = _unit(cloud @ m.T)
            # chordal distance sqrt(2 - 2|<u, v>|) to the nearest cloud point
            near = np.abs(img @ cloud.T).max(axis=1)
            worst = max(worst, float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * near)).max()))
        pipe.info["invariance_distance"] = worst
        pipe.check(worst <= INVARIANCE_TOL, f"forward cloud moved {worst:.4f} under a letter")


class SL4ForgeCone:
    """A forged SL(4) semigroup on three rays; compounds and the 3-D hull dominate."""

    name = "sl4-forge-cone"
    RAYS = ((3, 1, -1, -3), (5, 1, -2, -4), (4, 2, -2, -4))

    def __init__(self, seed, size):
        self.seed, self.depth, self.eps = seed, size["depth"], size["epsilon"]

    def prepare(self):
        self.targets = _unit(self.RAYS)
        _write_json("rays.json", {"rays": self.targets.tolist()})
        return ["rays.json"]

    def stages(self, pipe):
        # no `certify-schottky` of the forged system: re-certifying it from the
        # stored matrix refutes it on some seeds (README, "Forge failure modes")
        s, d = str(self.seed), str(self.depth)
        words = word_count(len(self.RAYS), "semigroup", self.depth)
        pipe.cli("forge", ["forge", "--n", "4", "--rays", "rays.json", "--epsilon", str(self.eps),
                           "--seed", s, "--out", "system.json"])
        common = ["--system", "system.json", "--depth", d, "--seed", s]
        pipe.cli("cone", ["estimate-cone", *common, "--out", "cone"], words=words)
        pipe.cli("compare", ["compare", *common], words=words)
        pipe.cli("limit_set", ["limit-set", *common, "--side", "fwd", "--out", "fwd"], words=words)

    def check(self, pipe):
        _hull_oracle(pipe, "cone.rays.csv", self.targets)


def strongly_contracting_element(rng) -> lc.GroupElement:
    """A random SL(3) element deep inside G^0.05 of the identity frame.

    The construction of acceptance criterion 10: log-gaps of at least 6.8 per
    degree and a rotation of a few milliradians off the standard flag.
    """
    gap1 = rng.uniform(6.8, 8.5)
    gap2 = rng.uniform(6.8, 8.5)
    d = np.array([gap1 + gap2, gap2, 0.0])
    d -= d.mean()
    a = rng.normal(0.0, 0.004, (3, 3))
    q = expm((a - a.T) / 2.0)
    return lc.GroupElement.from_unimodular(q @ np.diag(np.exp(d)) @ q.T)


class SL3SampledCertify:
    """A forged SL(3) semigroup sampled by long random words, then a certification corpus."""

    name = "sl3-sampled-certify"
    RAYS = ((2.0, -0.5, -1.5), (1.5, 0.5, -2.0))  # the forge cone of the test suite
    MODES = ("sampled", "analytic")

    def __init__(self, seed, size):
        self.seed = seed
        self.eps, self.depth, self.random = size["epsilon"], size["depth"], size["random"]
        self.pairs, self.samples = size["pairs"], size["samples"]

    def prepare(self):
        self.targets = _unit(self.RAYS)
        _write_json("rays.json", {"rays": self.targets.tolist()})
        rng = np.random.default_rng(self.seed)
        self.frame = lc.FacetFrame.identity(3)
        self.corpus = []  # per pair: (g1, g2, g1 g2, g2 g1) and the products' files
        inputs = ["rays.json"]
        for i in range(self.pairs):
            g1 = strongly_contracting_element(rng)
            g2 = strongly_contracting_element(rng)
            elems = (g1, g2, g1 @ g2, g2 @ g1)
            files = []
            for tag, p in zip("ab", elems[2:]):
                name = f"p{i:03d}{tag}.json"
                _write_json(name, {"n": 3, "entries": p.entries.tolist()})
                files.append(name)
            self.corpus.append((elems, files))
            inputs += files
        return inputs

    def stages(self, pipe):
        s = str(self.seed)
        pipe.cli("forge", ["forge", "--n", "3", "--rays", "rays.json", "--epsilon", str(self.eps),
                           "--seed", s, "--out", "system.json"])
        pipe.cli("cone", ["estimate-cone", "--system", "system.json", "--depth", str(self.depth),
                          "--random", str(self.random), "--seed", s, "--out", "cone"],
                 words=self.random)
        self.decisions = defaultdict(int)  # (mode, verdict) -> count
        for mode in self.MODES:
            # sampled mode must certify; analytic mode may be inconclusive (2), never refute
            expect = (0,) if mode == "sampled" else (0, 2)
            for elems, files in self.corpus:
                for g in elems:
                    self._membership(pipe, mode, g)
                for name in files:
                    for k in ("1", "2"):
                        code, _ = pipe.cli("certify", [
                            "certify", "--matrix", name, "--degree", k, "--epsilon", str(CERTIFY_EPS),
                            "--mode", mode, "--samples", str(self.samples), "--seed", s,
                        ], expect=expect)
                        self.decisions[mode, {0: "proved", 1: "refuted", 2: "inconclusive"}.get(code, "error")] += 1

    def _membership(self, pipe, mode, g):
        ev, exc = pipe.timed(
            "certify", lc.in_open_semigroup, g, self.frame, MEMBERSHIP_EPS,
            mode=mode, samples=self.samples, seed=self.seed,
        )
        if exc is None:
            verdict = "proved" if ev.accepted else "refuted"
        elif isinstance(exc, lc.ContractionUnverified):
            verdict = "refuted" if exc.refuted else "inconclusive"
        else:
            verdict = "error"
        self.decisions[mode, verdict] += 1
        if verdict in ("refuted", "error") or (mode == "sampled" and verdict != "proved"):
            pipe.fail(f"{mode} membership of a corpus element: {verdict} ({exc or ev.reason})")

    def check(self, pipe):
        _hull_oracle(pipe, "cone.rays.csv", self.targets)
        analytic = sum(v for (mode, _), v in self.decisions.items() if mode == "analytic")
        pipe.info["proved_share"] = self.decisions["analytic", "proved"] / max(1, analytic)
        pipe.info["decisions"] = {f"{m}.{v}": c for (m, v), c in sorted(self.decisions.items())}


WORKLOADS = {w.name: w for w in (SL2GroupLimitSet, SL4ForgeCone, SL3SampledCertify)}


def run_iteration(workload, workdir: Path, trace=False):
    """Prepare inputs in a fresh `workdir`, run the stages, then check the outputs.

    Returns the Pipeline, the output digests, and the Tracer when `trace`.
    """
    workdir.mkdir(parents=True)
    pipe = Pipeline(workdir)
    tracer = Tracer(clock=pipe.clock.now) if trace else None
    with _cwd(workdir):
        inputs = workload.prepare()
        with pipe.clock:
            if tracer is None:
                workload.stages(pipe)
            else:
                with tracer:
                    workload.stages(pipe)
        pipe.close()
        workload.check(pipe)
    return pipe, pipe.digests(inputs), tracer
