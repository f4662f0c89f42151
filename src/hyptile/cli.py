"""Command-line front end.

One job per invocation: parse flags, load the subshift spec document,
dispatch, and write a single artifact (SVG, JSON, or CSV).  Every
artifact embeds the canonical config and package version, outputs are
byte-identical for identical configs, stochastic commands require a
seed, and failures exit nonzero with a one-line error JSON on stderr
after removing any temporary file (artifacts are written via rename,
so a crash never leaves a partial file at the target path).
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .geometry import (ColourWindow, TileSet, generate_patch, patch_size,
                       scale_range)
from .ktheory import (
    CylinderFunction,
    cech_cohomology,
    gap_label_to_json,
    gap_labels,
    group_to_json,
    k_groups,
)
from .render import svg_render
from .subshift import (
    Periodic,
    SubshiftSpec,
    Substitution,
    alphabet,
    language,
    measure_vector,
    parse_spec,
    spec_to_json,
)

COMMANDS = ("render", "patch", "kgroups", "cech", "gaplabels", "measures",
            "hullcheck", "cocycle")
_STOCHASTIC = ("hullcheck", "cocycle")
_PATCHED = ("render", "patch")  # the commands that read --radius


class JobConfig(namedtuple("JobConfig",
                           "command spec radius nmax samples seed out")):
    __slots__ = ()

    def document(self) -> dict:
        doc = {"command": self.command, "spec": spec_to_json(self.spec),
               "version": __version__}
        if self.command in _PATCHED:
            doc["radius"] = self.radius
        if self.nmax is not None:
            doc["nmax"] = self.nmax
        if self.command in _STOCHASTIC:
            doc["samples"] = self.samples
            doc["seed"] = self.seed
        return doc


_NMAX_DEFAULT = {"kgroups": 8, "cech": 8, "gaplabels": 6, "measures": 4}


class UsageError(ValueError):
    """A malformed command line: reported as a structured error, exit 1."""


# flag: (type, default, help); the command may stand anywhere among them
_FLAGS = {
    "--spec": (str, None, "subshift spec document (JSON), required"),
    "--radius": (float, 3.0, "hyperbolic patch radius (render, patch)"),
    "--nmax": (int, None,
               "truncation level (kgroups, cech, gaplabels, measures)"),
    "--samples": (int, 100_000,
                  "Monte-Carlo sample count (hullcheck, cocycle)"),
    "--seed": (int, None, "RNG seed, required for stochastic commands"),
    "--out": (str, None, "artifact path (default: stdout)"),
}


def _help() -> str:
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(f"{flag} {flag[2:].upper()}", text)
             for flag, (_, _, text) in _FLAGS.items()]
    return "\n".join([
        "usage: hyptile COMMAND --spec SPEC [--flag VALUE ...]", "",
        "Pentagon tilings of the half-plane: figures, K-theoretic group "
        "reports,", "measures, and seeded Monte-Carlo checks.", "",
        "commands: " + ", ".join(COMMANDS), "",
        "options (--flag VALUE or --flag=VALUE; a repeated flag's last "
        "value wins):",
        *(f"  {name:<19}{text}" for name, text in rows)]) + "\n"


def parse_args(argv=None) -> SimpleNamespace:
    """Read a command line: one command among the flags of _FLAGS.

    The command may stand anywhere.  A flag is its full name, written
    ``--flag value`` or ``--flag=value``; its value is the next arg
    unless that starts with "--", and the last of a repeated flag wins.
    -h or --help prints the help and exits 0.  Any other malformed line
    raises UsageError: the first fault from the left, then missing
    arguments, then unrecognized ones.
    """
    args = iter(sys.argv[1:] if argv is None else argv)
    values = {flag[2:]: default for flag, (_, default, _) in _FLAGS.items()}
    command, extras = None, []
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_help())
            raise SystemExit(0)
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            if arg.startswith("--") or command is not None:
                extras.append(arg)
            elif arg not in COMMANDS:
                raise UsageError(
                    f"argument command: invalid choice: {arg!r} (choose "
                    f"from {', '.join(map(repr, COMMANDS))})")
            else:
                command = arg
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"argument {flag}: expected one argument")
        convert = _FLAGS[flag][0]
        try:
            values[flag[2:]] = convert(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {convert.__name__} "
                             f"value: {value!r}") from None
    missing = [name for name, v in (("command", command),
                                    ("--spec", values["spec"])) if v is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **values)


def load_config(args: SimpleNamespace) -> JobConfig:
    with open(args.spec, encoding="utf-8") as fh:
        spec = parse_spec(json.load(fh))
    # each flag is checked only where it is read
    if args.command in _STOCHASTIC:
        if args.seed is None:
            raise ValueError(f"--seed is required for {args.command} "
                             "(stochastic output must be reproducible)")
        if args.seed < 0:
            raise ValueError("--seed must be >= 0")
        if args.samples < 2:
            raise ValueError("--samples must be at least 2")
    if args.command in _PATCHED:
        if not math.isfinite(args.radius):
            raise ValueError("--radius must be finite")
        if args.radius < 0:
            raise ValueError("--radius must be >= 0")
    nmax = None  # commands without a truncation level ignore --nmax
    if args.command in _NMAX_DEFAULT:
        nmax = _NMAX_DEFAULT[args.command] if args.nmax is None else args.nmax
        if nmax < (2 if args.command in ("kgroups", "cech") else 1):
            raise ValueError("--nmax too small")
    return JobConfig(args.command, spec, args.radius, nmax,
                     args.samples, args.seed, args.out)


# -- artifact helpers -----------------------------------------------------

def _dump(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n", byte for byte,
    for a non-empty doc with str keys.

    An indent sends json to its pure-Python encoder, so a list of
    records that share their str keys and hold only ints (patch's tiles)
    is written from one row template instead.  Every other value is
    json's own text, indented one level: a JSON text holds no raw
    newline inside a string.
    """
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {_value(doc[key])}"
                              for key in sorted(doc)) + "\n}\n"


def _value(v) -> str:
    if (type(v) is list and v
            and all(type(r) is dict and r.keys() == v[0].keys() for r in v)
            and all(type(key) is str for key in v[0])):
        keys = sorted(v[0])
        cells = tuple(r[key] for r in v for key in keys)
        if set(map(type, cells)) == {int}:
            row = ",\n".join(
                f"      {json.dumps(key).replace('%', '%%')}: %d"
                for key in keys)
            rows = ",\n".join([f"    {{\n{row}\n    }}"] * len(v))
            return f"[\n{rows % cells}\n  ]"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  ")


def _atomic_write(path: str, text: str):
    """text into path by a rename, so a failed write leaves the old file.

    The file gets the mode a plain open(path, "w") would leave it: an
    existing target's own, else 0o666 less the umask, which the kernel
    applies when it creates the temporary file (mkstemp would give 0o600).
    """
    target = os.path.abspath(path)
    try:
        mode = os.stat(target).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    while True:
        tmp = os.path.join(os.path.dirname(target),
                           f".hyptile-tmp-{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: JobConfig, text: str):
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(cfg.out, text)


# -- per-command runners --------------------------------------------------

def _colour_window(spec: SubshiftSpec, radius: float) -> ColourWindow:
    """Letters w[-hw..hw] wide enough to colour every scale in the patch."""
    ks = scale_range(radius)
    hw = max(abs(ks.start), abs(ks.stop - 1))
    letters = alphabet(spec)
    if isinstance(spec, Periodic):
        p = len(spec.word)
        word = "".join(spec.word[j % p] for j in range(-hw, hw + 1))
        return ColourWindow(word, -hw, letters)
    if isinstance(spec, Substitution):
        return ColourWindow(language(spec, 2 * hw + 1)[0], -hw, letters)
    window = ColourWindow(spec.left + spec.right, -len(spec.left), letters)
    window.get(-hw), window.get(hw)  # fail early if too narrow
    return window


def _coloured_patch(cfg: JobConfig) -> TileSet:
    # refuse an oversized patch first: its colour window alone could be
    # too long to build
    patch_size(cfg.radius)
    colouring = _colour_window(cfg.spec, cfg.radius)
    return generate_patch(cfg.radius, colouring=colouring)


def _run_render(cfg: JobConfig) -> str:
    ts = _coloured_patch(cfg)
    return svg_render(ts, config=json.dumps(cfg.document(), sort_keys=True))


def _run_patch(cfg: JobConfig) -> str:
    ts = _coloured_patch(cfg)
    tiles = [{"k": t.k, "n": t.n, "colour": t.colour} for t in ts.tiles]
    return _dump({"config": cfg.document(), "count": len(tiles),
                  "tiles": tiles})


def _flatten_k0(co_half, inv_z) -> dict:
    return {
        "rank": co_half.rank + inv_z.rank,
        "torsion": list(co_half.torsion) + list(inv_z.torsion),
        "stabilized": co_half.stabilized and inv_z.stabilized,
        "summands": [group_to_json(co_half), group_to_json(inv_z)],
    }


def _run_kgroups(cfg: JobConfig) -> str:
    kg = k_groups(cfg.spec, cfg.nmax)
    co_half, inv_z = kg["K0"]
    return _dump({"config": cfg.document(),
                  "K0": _flatten_k0(co_half, inv_z),
                  "K1": group_to_json(kg["K1"])})


def _run_cech(cfg: JobConfig) -> str:
    ch = cech_cohomology(cfg.spec, cfg.nmax)
    return _dump({"config": cfg.document(),
                  **{name: group_to_json(g) for name, g in ch.items()}})


def _run_gaplabels(cfg: JobConfig) -> str:
    return _dump({"config": cfg.document(),
                  "gap_labels": gap_label_to_json(gap_labels(cfg.spec,
                                                             cfg.nmax))})


def _run_measures(cfg: JobConfig) -> str:
    lines = ["# hyptile measures",
             "# config: " + json.dumps(cfg.document(), sort_keys=True),
             "word,length,measure,float"]
    for n in range(1, cfg.nmax + 1):
        mv = measure_vector(cfg.spec, n)
        for w in sorted(mv):
            v = mv[w]
            shown = str(v) if isinstance(v, Fraction) else "algebraic"
            lines.append(f"{w},{n},{shown},{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


# numpy and the hull sampler are imported by the sampler commands alone,
# so the other commands start without them

def _default_functions(spec: SubshiftSpec) -> list:
    from .hull import BumpProfile, TestFunction
    first2 = language(spec, 2)[0]
    return [
        TestFunction.word_indicator(first2),
        TestFunction(word_part=CylinderFunction.of("Z", 0, {first2: 1}),
                     t_bump=BumpProfile("bump3", 0.5, 0.45),
                     s_bump=BumpProfile("bump3", 0.5, 0.45)),
    ]


def _random_group_elements(seed: int, count: int) -> list[tuple[float, float]]:
    """count elements z -> a z + b, log2(a) in [-1.5, 1.5) and b in [-3, 3),
    from the seed's stream 1, in plain floats on every CPU."""
    from .hull import _uniforms
    u = _uniforms(seed, 1, 2 * count)
    return [(2.0 ** (-1.5 + 3.0 * u[i]), -3.0 + 6.0 * u[count + i])
            for i in range(count)]


def _run_hullcheck(cfg: JobConfig) -> str:
    from .hull import (LazySample, TestFunction, first_word_control,
                       hullcheck_reports)
    gs = _random_group_elements(cfg.seed, 8)
    sample = LazySample(cfg.spec, cfg.samples, cfg.seed)
    first = language(cfg.spec, 1)[0]
    p_first = float(measure_vector(cfg.spec, 1)[first])
    # one pass over one sample for every check; the negative control is
    # the same sample with every row reading the first window
    f0, f1 = _default_functions(cfg.spec)
    freq_omega, freq_word, (inv0, inv1, biased), harmonic = hullcheck_reports(
        sample, [(f0, None), (f1, None), (f0, first_word_control)], gs,
        TestFunction.bump(0.5, 0.45, 0.5, 0.45), first, cfg.seed)
    marginals = {
        "omega_mod4_is1": {
            "statistic": freq_omega, "expected": 0.25,
            "pass": abs(freq_omega - 0.25)
            <= 3 * math.sqrt(0.25 * 0.75 / cfg.samples)},
        "first_letter": {
            "statistic": freq_word, "expected": p_first,
            "pass": abs(freq_word - p_first)
            <= 3 * math.sqrt(p_first * (1 - p_first) / cfg.samples)},
    }
    reports = {"invariance_0": inv0, "invariance_1": inv1,
               "harmonicity": harmonic}
    control = {"detected": not biased["pass"], "report": biased}
    ok = (all(m["pass"] for m in marginals.values())
          and all(r["pass"] for r in reports.values())
          and control["detected"])
    return _dump({"config": cfg.document(), "pass": ok,
                  "marginals": marginals, "checks": reports,
                  "negative_control": control})


def _run_cocycle(cfg: JobConfig) -> str:
    from .hull import LazySample, TestFunction, _uniforms, tau_reports
    u = iter(_uniforms(cfg.seed, 2, 24))
    fgs = [(TestFunction.bump(*_bump_params(u)),
            TestFunction.bump(*_bump_params(u))) for _ in range(3)]
    fgs.append((TestFunction.bump(0.5, 0.45, 0.5, 0.45),
                TestFunction.constant()))
    *pairs, with_one = tau_reports(
        LazySample(cfg.spec, cfg.samples, cfg.seed), fgs, cfg.seed)
    ok = with_one["pass"] and all(r["pass"] for r in pairs)
    return _dump({"config": cfg.document(), "pass": ok,
                  "tau_with_one": with_one, "pairs": pairs})


def _bump_params(u) -> tuple[float, float, float, float]:
    """A bump's centres and widths from the next four uniforms of u."""
    def one():
        c = 0.35 + 0.3 * next(u)
        w = 0.2 + (min(c, 1 - c) - 0.02 - 0.2) * next(u)
        return c, w
    ct, wt = one()
    cs, ws = one()
    return ct, wt, cs, ws


_RUNNERS = {
    "render": _run_render,
    "patch": _run_patch,
    "kgroups": _run_kgroups,
    "cech": _run_cech,
    "gaplabels": _run_gaplabels,
    "measures": _run_measures,
    "hullcheck": _run_hullcheck,
    "cocycle": _run_cocycle,
}


def run(cfg: JobConfig) -> int:
    _emit(cfg, _RUNNERS[cfg.command](cfg))
    return 0


def main(argv=None) -> int:
    try:
        return run(load_config(parse_args(argv)))
    except Exception as exc:  # structured error, no partial artifacts
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
