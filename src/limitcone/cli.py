"""Command-line front end: file I/O, dispatch, and deterministic run manifests.

Exit codes: 0 success/certified, 1 refuted/false, 2 inconclusive,
3 usage or I/O error (a negative --seed among them).  All randomness flows
through --seed (default 0) and all emitted reals carry 12 significant digits,
so reruns with identical inputs are byte-identical.
"""

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CertificationFailure, InvalidInput, LimitConeError
from .limits import WordSampler, compare_mu_lambda, estimate_cone, estimate_limit_set
from .projgeom import GroupElement
from .projections import (
    cartan_projection,
    iterated_cartan,
    jordan_projection,
    opposition_involution,
    regularity_gaps,
)
from .proximality import DEFAULT_SAMPLE_COUNT, MODES, certify_eps_proximal
from .schottky import TargetCone, forge_group, forge_semigroup, verify_schottky

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
# entries of a factored generator in a system file must agree with its
# factors within this tolerance, relative to the largest entry
FACTOR_TOL = 1e-9


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _NonNegative(argparse.Action):
    """Store an option's value, refusing a negative one (a seed)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be >= 0, got {value}")
        setattr(namespace, self.dest, value)


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, (list, tuple)):
        return [_round12(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    return obj


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command, inputs, seed, outputs):
    digests = {str(p): _sha256(Path(p)) for p in inputs}
    manifest = {
        "command": command,
        "inputs": digests,
        "seed": seed,
        "version": f"limitcone {__version__}",
        "outputs": [str(o) for o in outputs],
    }
    for out in outputs:
        Path(str(out) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


def _read_doc(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path}: expected a JSON object")
    return doc


def _floats(value, what, ndim=None) -> np.ndarray:
    """A file value as a float array of `ndim` dimensions, when given.

    Malformed contents (ragged lists, non-numbers) raise InvalidInput.
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"{what}: {e}") from e
    if ndim is not None and a.ndim != ndim:
        raise InvalidInput(f"{what}: expected {('a number', 'a list of numbers')[ndim]}")
    return a


def load_matrix(path) -> GroupElement:
    doc = _read_doc(path)
    entries = _floats(doc["entries"], f"{path}: entries")
    if "n" in doc and entries.shape[:1] != (float(_floats(doc["n"], f"{path}: n", 0)),):
        raise UsageError(f"{path}: declared n does not match the entries")
    return GroupElement.from_matrix(entries)


def _factored_generator(path, i, entries, factors) -> GroupElement:
    """Generator i rebuilt from its factors, checked against its entries."""
    what = f"{path}: generator {i}"
    if not isinstance(factors, dict):
        raise InvalidInput(f"{what}: factors must be an object")
    g = GroupElement.from_factors(
        _floats(factors["rotation"], f"{what} rotation"),
        _floats(factors["ray"], f"{what} ray"),
        float(_floats(factors["power"], f"{what} power", 0)),
    )
    if entries.shape != g.entries.shape or not (
        np.abs(entries - g.entries).max() <= FACTOR_TOL * np.abs(g.entries).max()
    ):
        raise InvalidInput(f"{what}: entries disagree with the factors beyond {FACTOR_TOL}")
    return g


def load_system(path):
    doc = _read_doc(path)
    if not isinstance(doc["generators"], list):
        raise InvalidInput(f"{path}: generators must be a list of matrices")
    entries = [_floats(g, f"{path}: generator {i}") for i, g in enumerate(doc["generators"])]
    factors = doc.get("factors")
    if factors is None:
        gens = [GroupElement.from_matrix(e) for e in entries]
    elif isinstance(factors, list) and len(factors) == len(entries):
        gens = [
            _factored_generator(path, i, e, f) for i, (e, f) in enumerate(zip(entries, factors))
        ]
    else:
        raise InvalidInput(f"{path}: factors must be a list with one entry per generator")
    kind = doc.get("kind", "semigroup")
    eps = _floats(doc.get("epsilons", [0.1] * len(gens)), f"{path}: epsilons", 1)
    return gens, kind, eps.tolist()


def dump_system(path, generators, kind, epsilons, extra=None):
    # generator entries keep full precision: certification consumes them, and
    # at Schottky condition numbers truncated digits would not re-certify;
    # factored generators also keep their factors, which give their exact
    # exterior powers
    doc = {
        "generators": [g.entries.tolist() for g in generators],
        "kind": kind,
        "epsilons": _round12(list(epsilons)),
    }
    if all(g.factors is not None for g in generators):
        doc["factors"] = [
            {"rotation": q.tolist(), "ray": r.tolist(), "power": s}
            for q, r, s in (g.factors for g in generators)
        ]
    if extra:
        doc.update(_round12(extra))
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _print_row(label, values, out):
    print(label + "," + ",".join(fmt(v) for v in values), file=out)


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(fmt(x) for x in r) for r in rows) + "\n")


def _cmd_project(args, out):
    g = load_matrix(args.matrix)
    mu = cartan_projection(g)
    lam = (
        iterated_cartan(g, args.iterate) if args.iterate else jordan_projection(g)
    )
    _print_row("mu", mu.coords, out)
    _print_row("lambda", lam.coords, out)
    _print_row("iota_lambda", opposition_involution(lam).coords, out)
    _print_row("gaps", regularity_gaps(g), out)
    return EXIT_OK


def _failed_verdict(e, out) -> int:
    """Print the verdict on a certification failure and return its exit code."""
    print(f"{'refuted' if e.refuted else 'inconclusive'}: {e}", file=out)
    return EXIT_REFUTED if e.refuted else EXIT_INCONCLUSIVE


def _cmd_certify(args, out):
    g = load_matrix(args.matrix)
    try:
        cert = certify_eps_proximal(
            g,
            args.degree,
            args.epsilon,
            mode=args.mode,
            sample_count=args.samples,
            seed=args.seed,
        )
    except CertificationFailure as e:
        return _failed_verdict(e, out)
    # sampled mode leaves the Lipschitz condition unchecked
    lipschitz = "unchecked" if cert.lipschitz_bound is None else fmt(cert.lipschitz_bound)
    print(
        f"certified: degree {args.degree} epsilon {fmt(cert.epsilon)} "
        f"gap {fmt(cert.gap_value)} lipschitz {lipschitz} mode {cert.mode}",
        file=out,
    )
    return EXIT_OK


def _cmd_certify_schottky(args, out):
    gens, kind, eps = load_system(args.system)
    if args.kind:
        kind = args.kind
    if args.epsilon is not None:
        eps = [args.epsilon] * len(gens)
    try:
        system = verify_schottky(
            gens, kind=kind, epsilons=eps, mode=args.mode, samples=args.samples, seed=args.seed
        )
    except CertificationFailure as e:
        return _failed_verdict(e, out)
    modes = sorted({cert.mode for cert in system.eigendata.values()})
    print(
        f"certified: {kind} with {system.t} generators, "
        f"min separation {fmt(system.min_separation)}, "
        f"mode {'+'.join(modes)}",
        file=out,
    )
    return EXIT_OK


def _cmd_forge(args, out):
    doc = _read_doc(args.rays)
    if not isinstance(doc["rays"], list):
        raise InvalidInput(f"{args.rays}: rays must be a list of vectors")
    cone = TargetCone.from_rays(
        [_floats(r, f"{args.rays}: ray {i}") for i, r in enumerate(doc["rays"])],
        margin=float(_floats(doc.get("margin", 0.05), f"{args.rays}: margin", 0)),
    )
    forge = forge_group if args.group else forge_semigroup
    system = forge(args.n, cone, args.epsilon, seed=args.seed)
    out_path = args.out
    dump_system(
        out_path,
        system.generators,
        system.kind,
        system.epsilons,
        extra={"forge_report": system.forge_report},
    )
    summary = Path(out_path).with_suffix(".summary.txt")
    lines = [
        f"certified {system.kind} with {system.t} generators in SL({system.n})",
        f"epsilon {fmt(args.epsilon)}",
        f"powers {system.forge_report['powers']}",
        f"max word-direction distance to cone "
        f"{fmt(system.forge_report['max_direction_distance'])} "
        f"over {system.forge_report['word_count']} words of length <= "
        f"{system.forge_report['word_depth']}",
    ]
    summary.write_text("\n".join(lines) + "\n")
    _write_manifest("forge", [args.rays], args.seed, [out_path, summary])
    print(f"wrote {out_path}", file=out)
    return EXIT_OK


def _sampler(args) -> WordSampler:
    """The words of the --system file up to --depth: all of them, or --random drawn ones."""
    gens, kind, _ = load_system(args.system)
    return WordSampler(
        generators=tuple(gens),
        kind=kind,
        max_length=args.depth,
        seed=args.seed,
        count=getattr(args, "random", 0),  # only estimate-cone has --random
    )


def _cmd_estimate_cone(args, out):
    est = estimate_cone(_sampler(args))
    prefix = Path(args.out)
    rays_csv = prefix.with_suffix(".rays.csv")
    dirs_csv = prefix.with_suffix(".directions.csv")
    summary_json = prefix.with_suffix(".summary.json")
    _write_csv(rays_csv, (r.coords for r in est.hull_rays))
    _write_csv(dirs_csv, (d.coords for d in est.directions))
    summary = {
        "hull_dim": est.hull_dim,
        "rays": [_round12(r.coords) for r in est.hull_rays],
        "max_mu_lambda_gap": _round12(max(est.per_word_mu_lambda_gap)),
    }
    summary_json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        "estimate-cone", [args.system], args.seed, [rays_csv, dirs_csv, summary_json]
    )
    print(f"hull_dim {est.hull_dim}", file=out)
    return EXIT_OK


def _cmd_limit_set(args, out):
    sampler = _sampler(args)
    side = {"fwd": "forward", "bwd": "backward"}[args.side]
    sample = estimate_limit_set(sampler, side=side)
    prefix = Path(args.out)
    outputs = []
    for k in range(1, sampler.n):
        path = prefix.with_suffix(f".deg{k}.csv")
        _write_csv(path, (p.rep for p in sample.cloud(k)))
        outputs.append(path)
    _write_manifest("limit-set", [args.system], args.seed, outputs)
    print(
        f"{side} limit set: "
        + ", ".join(f"deg {k}: {len(sample.cloud(k))} points" for k in range(1, sampler.n)),
        file=out,
    )
    return EXIT_OK


def _cmd_compare(args, out):
    gaps = compare_mu_lambda(_sampler(args))
    for length, g in enumerate(gaps, start=1):
        _print_row(f"length_{length}", [g], out)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    p = _Parser(prog="limitcone")
    p.add_argument("--version", action="version", version=f"limitcone {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # an option that several commands share is declared once, in a parent
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, action=_NonNegative)
    matrix = _Parser(add_help=False)
    matrix.add_argument("--matrix", required=True)
    system = _Parser(add_help=False)
    system.add_argument("--system", required=True)
    certifying = _Parser(add_help=False, parents=[seeded])
    certifying.add_argument("--mode", choices=MODES, default="sampled")
    certifying.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT)
    words = _Parser(add_help=False, parents=[system, seeded])
    words.add_argument("--depth", type=int, required=True)

    sp = sub.add_parser("project", parents=[matrix])
    sp.add_argument("--iterate", type=int, default=0)
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("certify", parents=[matrix, certifying])
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("certify-schottky", parents=[system, certifying])
    sp.add_argument("--kind", choices=["semigroup", "group"])
    sp.add_argument("--epsilon", type=float)
    sp.set_defaults(func=_cmd_certify_schottky)

    sp = sub.add_parser("forge", parents=[seeded])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rays", required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--group", action="store_true")
    sp.add_argument("--out", default="system.json")
    sp.set_defaults(func=_cmd_forge)

    sp = sub.add_parser("estimate-cone", parents=[words])
    sp.add_argument("--random", type=int, default=0)
    sp.add_argument("--out", default="cone")
    sp.set_defaults(func=_cmd_estimate_cone)

    sp = sub.add_parser("limit-set", parents=[words])
    sp.add_argument("--side", choices=["fwd", "bwd"], required=True)
    sp.add_argument("--out", default="limitset")
    sp.set_defaults(func=_cmd_limit_set)

    sp = sub.add_parser("compare", parents=[words])
    sp.set_defaults(func=_cmd_compare)

    return p


def run(argv, out=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LimitConeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
