"""Command line interface: JSON in, JSON out.

Exit codes: 0 success, 2 not in convex order, 3 parse/validation error,
a file that cannot be read, decoded as UTF-8 or written and click's own
usage errors among them (a missing or unknown option, a value that does
not parse, an unknown or missing command).  Errors are reported as one
JSON object on stderr.  ``_Commands`` decides every exit code but that
of a ``convex_order: false`` answer.  No option or environment variable
sets a tolerance (README, "Tolerances").
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import coupling as coupling_mod
from . import fixtures, geometry, measures, paving, pwl
from .errors import InvalidInput, MotError, NotInConvexOrder

EXIT_ORDER = 2
EXIT_PARSE = 3


def _fail(exc: Exception, code: int):
    message = exc.format_message() if isinstance(exc, click.ClickException) else str(exc)
    payload = {"error": type(exc).__name__, "message": message}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Commands(click.Group):
    """The command group, and the one place that turns an error into an
    exit code and one JSON object on stderr: NotInConvexOrder exits 2;
    a usage error (raised while the group or a command parses its
    arguments, so 3 and not click's 2), any other MotError and a file
    that cannot be read, decoded as UTF-8, parsed or written exit 3.
    Any other exception is a bug and propagates."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _fail(exc, EXIT_PARSE)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NotInConvexOrder as exc:
            _fail(exc, EXIT_ORDER)
        except (click.UsageError, MotError, OSError, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            _fail(exc, EXIT_PARSE)


# with no arguments, "Missing command." is a usage error like any other
@click.group(cls=_Commands, no_args_is_help=False)
def main():
    """Structural decomposition of discrete martingale optimal transport."""


@main.command()
@click.argument("family", type=click.Choice(fixtures.FAMILIES))
@click.option("--k", type=int, default=None, help="column count for discrete_k/mixed_k")
@click.option("--grid", type=int, default=None, help="grid size for continuous/gaussian families")
@click.option("--mu", "mu_out", required=True, help="output path for the first measure")
@click.option("--nu", "nu_out", required=True, help="output path for the second measure")
def example(family, k, grid, mu_out, nu_out):
    """Write a benchmark (mu, nu) pair as JSON files, both or neither."""
    params = {key: v for key, v in (("k", k), ("grid", grid)) if v is not None}
    mu, nu = fixtures.make(family, **params)
    _emit(mu.to_json(), mu_out)
    try:
        _emit(nu.to_json(), nu_out)
    except OSError:
        os.remove(mu_out)
        raise


def _pair_command(name: str):
    """Declare the command ``name`` on a pair of measure files.

    The command takes ``--mu``, ``--nu`` and ``--out`` and loads both
    measures; the decorated function takes them (and the command's own
    options, declared below this decorator) and returns the JSON payload,
    which is emitted.  A payload that answers ``convex_order`` false
    exits 2 once emitted.
    """

    def decorate(fn):
        # wraps also carries over the options declared on fn
        @main.command(name)
        @click.option("--mu", "mu_file", required=True)
        @click.option("--nu", "nu_file", required=True)
        @click.option("--out", default=None)
        @functools.wraps(fn)
        def run(mu_file, nu_file, out, **options):
            mu = measures.DiscreteMeasure.from_json(_load_json(mu_file))
            nu = measures.DiscreteMeasure.from_json(_load_json(nu_file))
            payload = fn(mu, nu, **options)
            _emit(payload, out)
            if payload.get("convex_order") is False:
                sys.exit(EXIT_ORDER)

        return run

    return decorate


@_pair_command("check-order")
def check_order(mu, nu):
    """Decide whether mu precedes nu in convex order."""
    return {"convex_order": bool(measures.check_convex_order(mu, nu))}


@_pair_command("couple")
def couple(mu, nu):
    """Compute one feasible martingale coupling."""
    return coupling_mod.find_coupling(mu, nu).to_json()


@_pair_command("polar")
@click.option("--no-martingale", is_flag=True, help="drop the martingale rows (plain transports)")
def polar(mu, nu, no_martingale):
    """Matrix of maximal pair masses over all couplings."""
    matrix = coupling_mod.polar_matrix(mu, nu, martingale=not no_martingale)
    return {
        "mu_support": mu.points.tolist(),
        "nu_support": nu.points.tolist(),
        "max_mass": matrix.tolist(),
    }


@_pair_command("pave")
def pave(mu, nu):
    """Compute the convex paving of the instance."""
    return paving.compute_paving(mu, nu).to_json()


@_pair_command("potential")
def potential_cmd(mu, nu):
    """Breakpoints of u_nu - u_mu and the domain intervals (1-D only)."""
    bps, diff, intervals = measures._potential_domain(mu, nu)
    return {
        "breakpoints": bps.tolist(),
        "values": diff.tolist(),
        "domain": [[a, b] for a, b in intervals],
    }


@main.command("affine-component")
@click.option("--phi", "phi_file", required=True, help="PWL convex function JSON")
@click.option("--point", required=True, help="comma-separated coordinates")
@click.option("--box", "box_file", required=True, help='bounding box JSON {"vertices": [...]}')
@click.option("--out", default=None)
def affine_component_cmd(phi_file, point, box_file, out):
    """Affine-behaviour component of phi at a point, clipped to a box."""
    phi_data = _load_json(phi_file)
    box_data = _load_json(box_file)
    if not (isinstance(box_data, dict) and "vertices" in box_data):
        raise InvalidInput('box JSON must be an object {"vertices": [...]}')
    phi = pwl.PwlConvex.from_json(phi_data)
    x = geometry.as_point(point.split(","))
    box = geometry.Polytope(box_data["vertices"])
    face = pwl.affine_component(phi, x, box)
    _emit(
        {
            "ambient_dim": face.ambient_dim,
            "vertices": face.vertices.tolist(),
            "affine_dim": face.affine_dim,
        },
        out,
    )


if __name__ == "__main__":
    main()
