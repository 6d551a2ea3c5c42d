"""Command line interface: JSON in, JSON out.

Exit codes: 0 success, 2 not in convex order, 3 parse/validation error.
Errors are reported as one JSON object on stderr.  ``potential --tol``
or ``MOT_TOL`` overrides the strict-positivity tolerance of its domain
decision, a fraction of total mass times extent (README, "Tolerances");
one that does not parse, is not finite or is negative exits 3.
"""

from __future__ import annotations

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
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(exc, EXIT_PARSE)


def _load_measure(path: str) -> measures.DiscreteMeasure:
    data = _load_json(path)
    try:
        return measures.DiscreteMeasure.from_json(data)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)


def _tol(tol: float | None) -> float | None:
    if tol is not None:
        return tol
    env = os.environ.get("MOT_TOL")
    if not env:
        return None
    try:
        return float(env)
    except ValueError:
        raise InvalidInput(f"MOT_TOL is not a number: {env!r}") from None


@click.group()
def main():
    """Structural decomposition of discrete martingale optimal transport."""


@main.command()
@click.argument("family", type=click.Choice(fixtures.FAMILIES))
@click.option("--k", type=int, default=None, help="column count for discrete_k/mixed_k")
@click.option("--grid", type=int, default=None, help="grid size for continuous/gaussian families")
@click.option("--mu", "mu_out", required=True, help="output path for the first measure")
@click.option("--nu", "nu_out", required=True, help="output path for the second measure")
def example(family, k, grid, mu_out, nu_out):
    """Write a benchmark (mu, nu) pair as JSON files."""
    params = {}
    if k is not None:
        params["k"] = k
    if grid is not None:
        params["grid"] = grid
    try:
        mu, nu = fixtures.make(family, **params)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit(mu.to_json(), mu_out)
    _emit(nu.to_json(), nu_out)


@main.command("check-order")
@click.option("--mu", "mu_file", required=True)
@click.option("--nu", "nu_file", required=True)
@click.option("--out", default=None)
def check_order(mu_file, nu_file, out):
    """Decide whether mu precedes nu in convex order."""
    mu = _load_measure(mu_file)
    nu = _load_measure(nu_file)
    try:
        ok = measures.check_convex_order(mu, nu)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit({"convex_order": bool(ok)}, out)
    if not ok:
        sys.exit(EXIT_ORDER)


@main.command()
@click.option("--mu", "mu_file", required=True)
@click.option("--nu", "nu_file", required=True)
@click.option("--out", default=None)
def couple(mu_file, nu_file, out):
    """Compute one feasible martingale coupling."""
    mu = _load_measure(mu_file)
    nu = _load_measure(nu_file)
    try:
        c = coupling_mod.find_coupling(mu, nu)
    except NotInConvexOrder as exc:
        _fail(exc, EXIT_ORDER)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit(c.to_json(), out)


@main.command()
@click.option("--mu", "mu_file", required=True)
@click.option("--nu", "nu_file", required=True)
@click.option("--out", default=None)
@click.option("--no-martingale", is_flag=True, help="drop the martingale rows (plain transports)")
def polar(mu_file, nu_file, out, no_martingale):
    """Matrix of maximal pair masses over all couplings."""
    mu = _load_measure(mu_file)
    nu = _load_measure(nu_file)
    try:
        matrix = coupling_mod.polar_matrix(mu, nu, martingale=not no_martingale)
    except NotInConvexOrder as exc:
        _fail(exc, EXIT_ORDER)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit(
        {
            "mu_support": mu.points.tolist(),
            "nu_support": nu.points.tolist(),
            "max_mass": matrix.tolist(),
        },
        out,
    )


@main.command()
@click.option("--mu", "mu_file", required=True)
@click.option("--nu", "nu_file", required=True)
@click.option("--out", default=None)
def pave(mu_file, nu_file, out):
    """Compute the convex paving of the instance."""
    mu = _load_measure(mu_file)
    nu = _load_measure(nu_file)
    try:
        p = paving.compute_paving(mu, nu)
    except NotInConvexOrder as exc:
        _fail(exc, EXIT_ORDER)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit(p.to_json(), out)


@main.command("potential")
@click.option("--mu", "mu_file", required=True)
@click.option("--nu", "nu_file", required=True)
@click.option("--out", default=None)
@click.option("--tol", type=float, default=None)
def potential_cmd(mu_file, nu_file, out, tol):
    """Breakpoints of u_nu - u_mu and the domain intervals (1-D only)."""
    mu = _load_measure(mu_file)
    nu = _load_measure(nu_file)
    try:
        bps, diff, intervals = measures._potential_domain(mu, nu, _tol(tol))
    except NotInConvexOrder as exc:
        _fail(exc, EXIT_ORDER)
    except MotError as exc:
        _fail(exc, EXIT_PARSE)
    _emit(
        {
            "breakpoints": bps.tolist(),
            "values": diff.tolist(),
            "domain": [[a, b] for a, b in intervals],
        },
        out,
    )


@main.command("affine-component")
@click.option("--phi", "phi_file", required=True, help="PWL convex function JSON")
@click.option("--point", required=True, help="comma-separated coordinates")
@click.option("--box", "box_file", required=True, help='bounding box JSON {"vertices": [...]}')
@click.option("--out", default=None)
def affine_component_cmd(phi_file, point, box_file, out):
    """Affine-behaviour component of phi at a point, clipped to a box."""
    phi_data = _load_json(phi_file)
    box_data = _load_json(box_file)
    try:
        phi = pwl.PwlConvex.from_json(phi_data)
        x = [float(t) for t in point.split(",")]
        box = geometry.Polytope(box_data["vertices"])
        face = pwl.affine_component(phi, x, box)
    except (MotError, KeyError, ValueError) as exc:
        _fail(exc, EXIT_PARSE)
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
