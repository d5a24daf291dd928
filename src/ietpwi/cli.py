"""Command-line pipeline: induct, accelerate, analyze, sample, build, verify.

Each command accepts only the options ``COMMANDS`` lists for it, and
``--config FILE`` (JSON; flags override it, and a command ignores the keys
it does not read).  ``--seed`` makes output bit-reproducible.  Malformed
input, an unlisted option included, ends in exit code 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import pi, tau
from typing import Optional, Sequence

from . import breaking, catalog, pwi as pwi_mod, rauzy, spectral, verify
from .errors import IetPwiError, InvalidInput, RauzyUndefined
from .iet import IETState, Lengths, Permutation, build_iet


@dataclass
class RunConfig:
    """Everything needed to reproduce a run."""

    perm: str = "4 3 2 1"
    # the catalog exchange's lengths rounded to double: rounder decimals such
    # as 0.43, 0.34, 0.12, 0.11 lie near a rational exchange and tie early
    lengths: list = field(default_factory=lambda: [
        0.42766821540768707, 0.3382612127177164, 0.11964992384533628, 0.1144206480292602])
    theta: Optional[list] = None
    levels: int = 12
    zorich_steps: int = 1000
    delta: float = 0.5
    seed: int = 0
    deep_levels: Optional[int] = None
    out: Optional[str] = None
    json_output: bool = False
    use_catalog: bool = False

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            names = [f.name for f in fields(cls)]
            for key, value in _read_config(args.config).items():
                if key not in names:
                    raise InvalidInput(f"unknown config key {key!r}; the keys are "
                                       f"{', '.join(names)}")
                setattr(cfg, key, value)
        for key in ("perm", "levels", "zorich_steps", "delta", "seed",
                    "deep_levels", "out", "json_output", "use_catalog"):
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, key, value)
        if getattr(args, "lengths", None):
            cfg.lengths = [part for part in args.lengths.split(",")]
        if getattr(args, "theta", None):
            try:
                cfg.theta = [float(p) for p in args.theta.split(",")]
            except ValueError:
                raise InvalidInput(f"--theta entries must be numbers: {args.theta!r}") from None
        for key, flag, low in (("levels", "--steps", 0), ("deep_levels", "--deep-levels", 0),
                               ("zorich_steps", "--zorich-steps", 1), ("seed", "--seed", 0)):
            value = getattr(cfg, key)
            if value is not None and (not _is_instance(value, int) or value < low):
                raise InvalidInput(f"{flag} must be an integer >= {low}, got {value!r}")
        if not _is_instance(cfg.delta, (int, float)) or not 0 < cfg.delta < pi:
            raise InvalidInput(f"--delta must lie in (0, pi), got {cfg.delta!r}")
        if not isinstance(cfg.perm, (str, dict)):
            raise InvalidInput(f"perm must be a monodromy string or a JSON object, "
                               f"got {cfg.perm!r}")
        if not _is_list_of(cfg.lengths, (int, float, str)):
            raise InvalidInput(f"lengths must be a list of numbers or fractions, "
                               f"got {cfg.lengths!r}")
        # NaN, infinities and integers beyond double range fail the bound
        if cfg.theta is not None and not (_is_list_of(cfg.theta, (int, float)) and all(
                abs(v) <= sys.float_info.max for v in cfg.theta)):
            raise InvalidInput(f"theta must be a list of finite numbers, got {cfg.theta!r}")
        for key in ("use_catalog", "json_output"):
            if not isinstance(getattr(cfg, key), bool):
                raise InvalidInput(f"{key} must be true or false, got {getattr(cfg, key)!r}")
        if cfg.out is not None and not isinstance(cfg.out, str):
            raise InvalidInput(f"out must be a path, got {cfg.out!r}")
        return cfg

    def deep(self, default: int) -> int:
        """The configured deep level (0 included), else ``default``."""
        return default if self.deep_levels is None else self.deep_levels

    def build(self) -> IETState:
        if self.use_catalog:
            return catalog.symmetric4_self_inducing().iet
        return build_iet(Permutation.from_json(self.perm),
                         Lengths.from_values(self.lengths))


def _is_instance(value, types) -> bool:
    """``isinstance``, except that a bool (a JSON ``true``) is not a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _is_list_of(value, types) -> bool:
    """Whether ``value`` is a list of ``types`` instances, bools excluded."""
    return isinstance(value, list) and all(_is_instance(v, types) for v in value)


def _read_config(path: str) -> dict:
    """The JSON object held by the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read config file {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InvalidInput(f"config file {path!r} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInput(f"config file {path!r} must hold a JSON object")
    return data


def _emit(cfg: RunConfig, text: str, payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True) if cfg.json_output else text)


def _write(path: Optional[str], default_name: str, content: str) -> str:
    target = path or default_name
    try:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise InvalidInput(f"cannot write {target!r}: {exc.strerror}") from None
    return target


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_induct(cfg: RunConfig) -> int:
    iet = cfg.build()
    trace = rauzy.rauzy_iterate(iet, cfg.levels)
    buf = io.StringIO()
    trace.to_jsonl(buf)
    if cfg.out:
        _write(cfg.out, "trace.jsonl", buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if trace.error is not None:
        print(f"stopped early after {trace.n_steps} steps: {trace.error}", file=sys.stderr)
        return 1
    return 0


def cmd_zorich(cfg: RunConfig) -> int:
    iet = cfg.build()
    trace = rauzy.zorich_iterate(iet, cfg.levels)
    payload = {
        "blocks": trace.zorich_lengths,
        "acceleration_partial_sums": trace.acceleration_partial_sums(),
        "steps": trace.n_steps,
        "error": trace.error,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0 if trace.error is None else 1


def cmd_rauzy_graph(cfg: RunConfig) -> int:
    graph = rauzy.rauzy_class(Permutation.from_json(cfg.perm))
    dot = graph.to_dot()
    if cfg.out:
        target = _write(cfg.out, "rauzy.dot", dot)
        _emit(cfg, f"wrote {target} ({graph.size} vertices)",
              {"vertices": graph.size, "path": target})
    else:
        print(dot)
    return 0


def cmd_lyapunov(cfg: RunConfig) -> int:
    iet = cfg.build()
    estimate = spectral.lyapunov_spectrum(iet, cfg.zorich_steps)
    payload = {
        "exponents": [float(v) for v in estimate.exponents],
        "errors": [float(v) for v in estimate.errors],
        "steps": estimate.steps_used,
        "symmetric_defects": [float(v) for v in estimate.symmetric_defects()],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


#: cap on the float frame's blocks; it stops at its rounding floor first (114 blocks by default)
FRAME_BLOCKS = 1000


def _stable_frame(cfg: RunConfig, iet: IETState):
    if cfg.use_catalog:
        return catalog.symmetric4_self_inducing().stable_frame_exact()
    return spectral.stable_subspace(iet, FRAME_BLOCKS)


def cmd_sample_theta(cfg: RunConfig) -> int:
    iet = cfg.build()
    trace = rauzy.rauzy_iterate(iet, spectral.N_CHECK)
    frame = _stable_frame(cfg, iet)
    sample = spectral.sample_theta(frame, cfg.delta, cfg.seed,
                                   upsilon=iet.upsilon, trace=trace)
    payload = {
        "theta": [float(t) for t in sample.theta],
        "delta": sample.delta,
        "attempts": sample.attempts,
        "exclusions": sample.exclusion_report,
        "seed": cfg.seed,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _require_levels(trace: rauzy.InductionTrace, command: str, levels: int) -> None:
    """Raise ``RauzyUndefined`` naming the step where ``trace`` stopped short of ``levels``."""
    if trace.n_steps < levels:
        raise RauzyUndefined(f"the induction is undefined at step {trace.n_steps}; "
                             f"{command} needs {levels} levels")


def _sampled_curves(cfg: RunConfig, iet: IETState, trace: rauzy.InductionTrace, depth: int,
                    keep: int = 0):
    """Rotation vector, its origin, its push over the trace, curves and increments to ``depth``.

    The vector is the configured one, or is sampled with the halving policy:
    starting at the configured radius, the radius is halved until the curve
    at the sampling depth (``--deep-levels``, else ``max(--steps, 25)``) passes
    the injectivity test (double-precision orientation, 1e-14 relative
    collinearity tolerance).  Each vector tried is pushed once over the whole
    trace (a sampled one continues the push that admitted it), and the
    curves of the one kept are continued from that push.  The
    levels are built one at a time and only some curves are kept:
    ``curves[n]`` is the level-``n`` curve for ``n <= keep`` and
    ``curves[-1]`` the level-``depth`` one; ``increments[n]`` is
    ``sup |curve_{n+1} - curve_n|`` for every ``n < depth``.
    """
    if cfg.theta is not None:
        theta, origin = list(cfg.theta), {"source": "config"}
        seq = breaking.theta_sequence(trace, theta, trace.n_steps)
        curves, increments = [breaking.PLCurve.identity(iet.total)], []
    else:
        frame = _stable_frame(cfg, iet)
        delta = cfg.delta
        sampling = cfg.deep(max(cfg.levels, 25))
        for _ in range(10):
            sample = spectral.sample_theta(frame, delta, cfg.seed,
                                           upsilon=iet.upsilon, trace=trace)
            seq = sample.pushed
            seq.extend(trace, trace.n_steps)
            curves, increments = [breaking.PLCurve.identity(iet.total)], []
            # a sampling depth beyond ``depth`` keeps every level up to ``depth``
            _continue(trace, seq, curves, increments, sampling,
                      keep if sampling <= depth else depth)
            if verify.injectivity(curves[-1])[0]:
                break
            delta /= 2.0
        else:
            raise IetPwiError("no injective sample found by the halving policy")
        theta = sample.v
        origin = {"source": "sampled", "delta": delta, "attempts": sample.attempts}
        del curves[depth + 1:], increments[depth:]
    _continue(trace, seq, curves, increments, depth, keep)
    return theta, origin, seq, curves, increments


def _continue(trace: rauzy.InductionTrace, seq: breaking.ThetaSeq, curves: list,
              increments: list, depth: int, keep: int) -> None:
    """Continue ``curves`` to level ``depth``, keeping levels ``0..keep`` and the last.

    ``curves[-1]`` is the level-``len(increments)`` curve; each new level's
    increment is appended to ``increments``.
    """
    for curve in breaking.curve_levels(trace, seq, curves[-1], len(increments), depth):
        if len(increments) > keep:
            curves.pop()
        curves.append(curve)
        increments.append(curve.increment)


def cmd_curve(cfg: RunConfig) -> int:
    iet = cfg.build()
    depth = cfg.levels
    sampling = depth if cfg.theta is not None else cfg.deep(max(depth, 25))
    trace = rauzy.rauzy_iterate(iet, max(sampling, depth, spectral.N_CHECK))
    _require_levels(trace, "curve", max(sampling, depth))
    _, origin, _, curves, _ = _sampled_curves(cfg, iet, trace, depth)
    curve = curves[-1]
    base = cfg.out or "curve"
    svg_path = _write(None, f"{base}_level{depth}.svg", curve.to_svg())
    csv_path = _write(None, f"{base}_level{depth}.csv", curve.to_csv())
    payload = {"svg": svg_path, "csv": csv_path, "segments": curve.n_segments,
               "theta_source": origin}
    _emit(cfg, f"wrote {svg_path} and {csv_path} ({curve.n_segments} segments)",
          payload)
    return 0


def cmd_pwi(cfg: RunConfig) -> int:
    iet = cfg.build()
    depth = cfg.deep(max(cfg.levels, 25))
    trace = rauzy.rauzy_iterate(iet, max(depth, spectral.N_CHECK))
    _require_levels(trace, "pwi", depth)
    theta, origin, _, curves, _ = _sampled_curves(cfg, iet, trace, depth)
    curve = curves[-1]
    theta_float = [float(t) % tau for t in theta]
    adapted = pwi_mod.adapted_pwi(curve, iet, theta_float)
    start = complex(curve.evaluate(iet.total / 3.0))
    orbit, itinerary = pwi_mod.iterate(adapted, start, cfg.levels * 10)
    csv_path = _write(cfg.out, "orbit.csv", pwi_mod.orbit_to_csv(orbit, itinerary))
    payload = {"orbit_csv": csv_path, "pwi": adapted.to_json(), "theta_source": origin}
    _emit(cfg, f"wrote {csv_path}", payload)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    # the convergence checks compare at least two increments: levels 0 to 2
    if cfg.deep(2) < 2:
        raise InvalidInput(f"verify needs --deep-levels >= 2, got {cfg.deep_levels}")
    iet = cfg.build()
    # 200 levels, or the sampling depth where that is deeper
    trace = rauzy.rauzy_iterate(iet, max(cfg.deep(cfg.levels), 200))
    _require_levels(trace, "verify", 2)
    deep = min(cfg.deep(max(2 * cfg.levels, 45)), trace.n_steps)
    depth = min(cfg.levels, deep)
    # the quasi suite reads levels 0 to depth, the rest only the deepest
    theta, origin, seq, curves, increments = _sampled_curves(cfg, iet, trace, deep, depth)

    report = verify.quasi_embedding_suite(trace, curves, seq, depth)
    conv = verify.convergence_report(increments, curves[-1], seq, trace)
    report.checks.extend(conv.checks)

    injective, witness = verify.injectivity(curves[-1])
    report.add("injectivity", 0.0 if injective else 1.0, 0.5,
               meta={"witness": list(witness) if witness else None})

    summ = spectral.summability_check(seq)
    report.add("summability", 0.0 if summ.summable else 1.0, 0.5,
               meta={"horizon": summ.horizon, "final_term": summ.final_term,
                     "total": summ.total, "strict_decays": summ.decays,
                     "ratio_to_initial": summ.ratio_to_initial})

    theta_float = [float(t) % tau for t in theta]
    adapted = pwi_mod.adapted_pwi(curves[-1], iet, theta_float)
    defect = verify.embedding_defect(curves[-1], adapted, iet)
    report.add("embedding_defect", defect, 1e-6, n=deep)

    if cfg.json_output:
        print(report.to_json())
    else:
        print(report.summary())
        print(f"theta source: {origin}")
    return 0 if report.all_pass else 1


#: argparse's keywords for each command option, by flag
OPTIONS = {
    "perm": dict(help='monodromy string, e.g. "4 3 2 1", or JSON'),
    "lambda": dict(dest="lengths", help="comma-separated lengths; fractions like 43/100 allowed"),
    "theta": dict(help="comma-separated rotation coordinates"),
    "steps": dict(dest="levels", type=int, help="induction levels"),
    "zorich-steps": dict(type=int, help="Zorich blocks the growth rates average over"),
    "delta": dict(type=float, help="sampling radius start value"),
    "seed": dict(type=int, help="random seed"),
    "deep-levels": dict(type=int, help="level of the limit-proxy curve"),
    "out": dict(help="output path"),
    "json": dict(dest="json_output", action="store_true", default=None,
                 help="machine-readable output only"),
    "catalog": dict(dest="use_catalog", action="store_true", default=None,
                    help="use the built-in self-inducing 4-symbol exchange"),
}

#: each command's handler and the options it reads, the only ones it accepts
COMMANDS = {
    "induct": (cmd_induct, "perm lambda steps out catalog"),
    "zorich": (cmd_zorich, "perm lambda steps catalog"),
    "rauzy-graph": (cmd_rauzy_graph, "perm out json"),
    "lyapunov": (cmd_lyapunov, "perm lambda zorich-steps catalog"),
    "sample-theta": (cmd_sample_theta, "perm lambda delta seed catalog"),
    "curve": (cmd_curve, "perm lambda theta steps delta seed deep-levels out json catalog"),
    "pwi": (cmd_pwi, "perm lambda theta steps delta seed deep-levels out json catalog"),
    "verify": (cmd_verify, "perm lambda theta steps delta seed deep-levels json catalog"),
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, a pure function of ``COMMANDS`` and ``OPTIONS``, built once."""
    parser = argparse.ArgumentParser(
        prog="ietpwi",
        description="interval exchange renormalization, invariant curves and "
                    "piecewise isometry embeddings")
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        command = sub.add_parser(name)
        for option in options.split():
            command.add_argument(f"--{option}", **OPTIONS[option])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = COMMANDS[args.command][0](RunConfig.from_args(args))
        # a reader that closed the pipe must show up here, not at exit
        sys.stdout.flush()
        return status
    except IetPwiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
