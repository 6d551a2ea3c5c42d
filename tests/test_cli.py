"""Command line interface: JSON round-trips and exit codes."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from mot import compute_paving, fixtures
from mot.coupling import polar_matrix
from mot.cli import main
from mot.errors import InvalidParameter
from mot.measures import DiscreteMeasure


@pytest.fixture()
def runner():
    return CliRunner()


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _measure_files(runner, tmp_path, family="discrete_k", **flags):
    mu_f = str(tmp_path / "mu.json")
    nu_f = str(tmp_path / "nu.json")
    args = ["example", family, "--mu", mu_f, "--nu", nu_f]
    for key, val in flags.items():
        args += [f"--{key}", str(val)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return mu_f, nu_f


def test_example_round_trip(runner, tmp_path):
    mu_f, nu_f = _measure_files(runner, tmp_path, k=2)
    with open(mu_f) as fh:
        data = json.load(fh)
    mu = DiscreteMeasure.from_json(data)
    assert mu.n_atoms == 2
    assert np.allclose(mu.weights, [0.5, 0.5])
    # serialization round-trips bit-exactly
    assert mu.to_json() == data


@pytest.mark.parametrize(
    "family, grid, n_mu, n_nu", [("continuous_grid", 3, 3, 6), ("gaussian_grid", 3, 9, 25)]
)
def test_example_grid_families(runner, tmp_path, family, grid, n_mu, n_nu):
    mu_f, nu_f = _measure_files(runner, tmp_path, family=family, grid=grid)
    for path, n_atoms in ((mu_f, n_mu), (nu_f, n_nu)):
        with open(path) as fh:
            assert DiscreteMeasure.from_json(json.load(fh)).n_atoms == n_atoms


def test_example_mixed_k3_center_weight(runner, tmp_path):
    mu_f, _ = _measure_files(runner, tmp_path, family="mixed_k", k=3)
    with open(mu_f) as fh:
        mu = DiscreteMeasure.from_json(json.load(fh))
    center = [w for p, w in zip(mu.points, mu.weights) if abs(p[0] - 0.5) <= 1e-12]
    assert len(center) == 1
    assert abs(center[0] - 2.0 / 3.0) <= 1e-12


def test_check_order_success(runner, tmp_path):
    mu_f, nu_f = _measure_files(runner, tmp_path, k=2)
    result = runner.invoke(main, ["check-order", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 0
    assert json.loads(result.output)["convex_order"] is True


def test_check_order_failure_exit_code(runner, tmp_path):
    mu_f = str(tmp_path / "mu.json")
    nu_f = str(tmp_path / "nu.json")
    _write(mu_f, {"dim": 1, "atoms": [{"point": [-1.0], "weight": 0.5},
                                      {"point": [1.0], "weight": 0.5}]})
    _write(nu_f, {"dim": 1, "atoms": [{"point": [0.0], "weight": 1.0}]})
    result = runner.invoke(main, ["check-order", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 2


def test_couple_output(runner, tmp_path):
    mu_f, nu_f = _measure_files(runner, tmp_path, k=2)
    out_f = str(tmp_path / "coupling.json")
    result = runner.invoke(
        main, ["couple", "--mu", mu_f, "--nu", nu_f, "--out", out_f]
    )
    assert result.exit_code == 0
    with open(out_f) as fh:
        data = json.load(fh)
    matrix = np.array(data["matrix"])
    assert matrix.shape == (2, 4)
    assert abs(matrix.sum() - 1.0) <= 1e-9


def test_polar_matrix_values(runner, tmp_path):
    mu_f, nu_f = _measure_files(runner, tmp_path, k=2)
    result = runner.invoke(main, ["polar", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 0
    data = json.loads(result.output)
    matrix = np.array(data["max_mass"])
    mu_x = np.array(data["mu_support"])[:, 0]
    nu_x = np.array(data["nu_support"])[:, 0]
    same_col = np.abs(mu_x[:, None] - nu_x[None, :]) <= 1e-12
    assert np.allclose(matrix[same_col], 0.25, atol=1e-7)
    assert np.all(matrix[~same_col] <= 1e-8)


def test_pave_mixed_k3(runner, tmp_path):
    mu_f, nu_f = _measure_files(runner, tmp_path, family="mixed_k", k=3)
    result = runner.invoke(main, ["pave", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["cells"]) == 3
    assert data["singletons"] == []


def test_pave_writes_one_line_of_json(runner, tmp_path):
    """``--out`` gets compact JSON on one line, which loads to the
    paving's own JSON."""
    mu_f, nu_f = _measure_files(runner, tmp_path, family="mixed_k", k=3)
    out_f = str(tmp_path / "paving.json")
    result = runner.invoke(main, ["pave", "--mu", mu_f, "--nu", nu_f, "--out", out_f])
    assert result.exit_code == 0
    with open(out_f) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    mu, nu = fixtures.mixed_k(3)
    assert json.loads(lines[0]) == compute_paving(mu, nu).to_json()


def test_pave_identical_measures(runner, tmp_path):
    m_f = str(tmp_path / "m.json")
    _write(m_f, {"dim": 1, "atoms": [{"point": [t], "weight": 1 / 3}
                                     for t in (-1.0, 0.0, 1.0)]})
    result = runner.invoke(main, ["pave", "--mu", m_f, "--nu", m_f])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["cells"] == []
    assert sorted(data["singletons"]) == [0, 1, 2]


def test_pave_not_in_order_exit_code(runner, tmp_path):
    mu_f = str(tmp_path / "mu.json")
    nu_f = str(tmp_path / "nu.json")
    _write(mu_f, {"dim": 1, "atoms": [{"point": [-1.0], "weight": 0.5},
                                      {"point": [1.0], "weight": 0.5}]})
    _write(nu_f, {"dim": 1, "atoms": [{"point": [0.0], "weight": 1.0}]})
    result = runner.invoke(main, ["pave", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 2


def test_potential_command(runner, tmp_path):
    mu_f = str(tmp_path / "mu.json")
    nu_f = str(tmp_path / "nu.json")
    _write(mu_f, {"dim": 1, "atoms": [{"point": [0.0], "weight": 1.0}]})
    _write(nu_f, {"dim": 1, "atoms": [{"point": [-1.0], "weight": 0.5},
                                      {"point": [1.0], "weight": 0.5}]})
    result = runner.invoke(main, ["potential", "--mu", mu_f, "--nu", nu_f])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["domain"]) == 1
    a, b = data["domain"][0]
    assert abs(a + 1.0) <= 1e-9 and abs(b - 1.0) <= 1e-9
    at_zero = dict(zip(data["breakpoints"], data["values"]))
    assert abs(at_zero[0.0] - 1.0) <= 1e-9


def test_affine_component_command(runner, tmp_path):
    phi_f = str(tmp_path / "phi.json")
    box_f = str(tmp_path / "box.json")
    _write(phi_f, {"dim": 1, "pieces": [{"gradient": [1.0], "offset": 0.0},
                                        {"gradient": [-1.0], "offset": 0.0}]})
    _write(box_f, {"vertices": [[-2.0], [2.0]]})
    result = runner.invoke(
        main,
        ["affine-component", "--phi", phi_f, "--point", "-1.0", "--box", box_f],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["affine_dim"] == 1
    xs = sorted(v[0] for v in data["vertices"])
    assert abs(xs[0] + 2.0) <= 1e-9 and abs(xs[1]) <= 1e-9
    # a box that is not a JSON object or has no vertices, a dimension
    # that is not a number, or a point that is not numbers exits 3
    bad_phi = {"dim": "x", "pieces": [{"gradient": [1.0], "offset": 0.0}]}
    good_phi = {"dim": 1, "pieces": [{"gradient": [1.0], "offset": 0.0}]}
    cases = [
        (good_phi, [[0.0], [1.0]], "0.5"),
        (good_phi, {"corners": [[0.0], [1.0]]}, "0.5"),
        (bad_phi, {"vertices": [[0.0], [1.0]]}, "0.5"),
        (good_phi, {"vertices": [[0.0], [1.0]]}, "a"),
    ]
    for phi, box, point in cases:
        _write(phi_f, phi)
        _write(box_f, box)
        result = runner.invoke(
            main, ["affine-component", "--phi", phi_f, "--point", point, "--box", box_f]
        )
        assert result.exit_code == 3, (phi, box, point, result.output)
        assert json.loads(result.output)["error"] == "InvalidInput"


def test_parse_error_exit_code(runner, tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    result = runner.invoke(main, ["check-order", "--mu", bad, "--nu", bad])
    assert result.exit_code == 3
    err = json.loads(result.stderr)
    assert "error" in err and "message" in err


def test_invalid_measure_exit_code(runner, tmp_path):
    """A measure with a negative weight, a dimension that is not a
    number, ragged points or a weight that is not a number exits 3 with
    a JSON error, from check-order and from pave."""
    bad = str(tmp_path / "bad.json")
    payloads = [
        {"dim": 1, "atoms": [{"point": [0.0], "weight": -1.0}]},
        {"dim": "x", "atoms": [{"point": [0.0], "weight": 1.0}]},
        {"dim": 2, "atoms": [{"point": [0, 1], "weight": 0.5}, {"point": [0], "weight": 0.5}]},
        {"dim": 1, "atoms": [{"point": [0.0], "weight": "heavy"}]},
    ]
    for payload in payloads:
        _write(bad, payload)
        for command in ("check-order", "pave"):
            result = runner.invoke(main, [command, "--mu", bad, "--nu", bad])
            assert result.exit_code == 3, (payload, command, result.output)
            assert json.loads(result.output)["error"] == "InvalidInput"


def test_invalid_example_parameter(runner, tmp_path):
    for family, flag, value in (
        ("discrete_k", "--k", "1"),
        ("gaussian_grid", "--grid", "4"),
        ("continuous_grid", "--grid", "0"),
        # a size flag the family does not read
        ("discrete_k", "--grid", "7"),
        ("gaussian_grid", "--k", "7"),
    ):
        result = runner.invoke(
            main,
            ["example", family, flag, value,
             "--mu", str(tmp_path / "a.json"), "--nu", str(tmp_path / "b.json")],
        )
        assert result.exit_code == 3, (family, result.output)
        assert json.loads(result.output)["error"] == "InvalidParameter"
    with pytest.raises(InvalidParameter, match="unknown example family"):
        fixtures.make("uniform_k")


def test_usage_error_exit_code(runner, tmp_path):
    """click's own usage errors exit 3 with one JSON object, as any other
    input error does, and not 2, the exit code of "not in convex order":
    an unknown option (the removed ``--tol`` among them), a missing
    option, a value that does not parse, an unknown command and no
    command at all.  ``--help`` still exits 0."""
    mu_f, nu_f = _measure_files(runner, tmp_path)
    out = ["--mu", str(tmp_path / "a.json"), "--nu", str(tmp_path / "b.json")]
    cases = [
        (["potential", "--mu", mu_f, "--nu", nu_f, "--tol", "1e-6"], "No such option '--tol'"),
        (["pave", "--mu", mu_f, "--bogus"], "No such option '--bogus'"),
        (["pave", "--mu", mu_f], "Missing option '--nu'."),
        (["example", "discrete_k", "--k", "x", *out], "'x' is not a valid integer"),
        (["example", "uniform_k", *out], "'uniform_k' is not one of"),
        (["bogus"], "No such command 'bogus'."),
        ([], "Missing command."),
        (["--bogus"], "No such option '--bogus'"),
    ]
    for args, message in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 3, (args, result.output)
        error = json.loads(result.output)
        assert set(error) == {"error", "message"}
        assert message in error["message"], (args, error)
    for args in (["--help"], ["pave", "--help"]):
        assert runner.invoke(main, args).exit_code == 0


def _inputs(tmp_path):
    """A 1-D pair in convex order, |y| and the box [-2, 2]: every command
    exits 0 on these."""
    paths = {k: str(tmp_path / f"{k}.json") for k in ("mu", "nu", "phi", "box")}
    _write(paths["mu"], {"dim": 1, "atoms": [{"point": [-1.0], "weight": 0.5},
                                             {"point": [1.0], "weight": 0.5}]})
    _write(paths["nu"], {"dim": 1, "atoms": [{"point": [-2.0], "weight": 0.25},
                                             {"point": [0.0], "weight": 0.5},
                                             {"point": [2.0], "weight": 0.25}]})
    _write(paths["phi"], {"dim": 1, "pieces": [{"gradient": [1.0], "offset": 0.0},
                                               {"gradient": [-1.0], "offset": 0.0}]})
    _write(paths["box"], {"vertices": [[-2.0], [2.0]]})
    return paths


PAIR_COMMANDS = ("check-order", "couple", "polar", "pave", "potential")


def _command_args(tmp_path, paths, out, missing_input=None):
    """Each command's arguments, with ``out`` as its output path (both of
    example's) and, if given, ``missing_input`` in place of that input."""
    files = dict(paths)
    if missing_input is not None:
        files[missing_input] = str(tmp_path / "nowhere.json")
    cases = {"example": ["example", "discrete_k", "--k", "2", "--mu", out, "--nu", out]}
    for command in PAIR_COMMANDS:
        cases[command] = [command, "--mu", files["mu"], "--nu", files["nu"], "--out", out]
    cases["affine-component"] = ["affine-component", "--phi", files["phi"], "--point", "1.0",
                                 "--box", files["box"], "--out", out]
    return cases


def _assert_file_not_found(result, args, kind="FileNotFoundError"):
    assert result.exit_code == 3, (args, result.output)
    error = json.loads(result.stderr)
    assert set(error) == {"error", "message"}, (args, error)
    assert error["error"] == kind, (args, error)


@pytest.mark.parametrize("command", ["example", *PAIR_COMMANDS, "affine-component"])
def test_unwritable_output_exit_code(runner, tmp_path, command):
    """An output path in a missing directory exits 3 with one JSON object
    on stderr, as a file that cannot be read does, not with a traceback;
    the same call with a writable path exits 0."""
    paths = _inputs(tmp_path)
    missing = str(tmp_path / "missing" / "out.json")
    args = _command_args(tmp_path, paths, missing)[command]
    _assert_file_not_found(runner.invoke(main, args), args)
    args = _command_args(tmp_path, paths, str(tmp_path / "out.json"))[command]
    assert runner.invoke(main, args).exit_code == 0, args


@pytest.mark.parametrize(
    "command, missing_input",
    [*((c, k) for c in PAIR_COMMANDS for k in ("mu", "nu")),
     ("affine-component", "phi"), ("affine-component", "box")],
)
def test_missing_input_exit_code(runner, tmp_path, command, missing_input):
    paths = _inputs(tmp_path)
    args = _command_args(tmp_path, paths, str(tmp_path / "out.json"), missing_input)[command]
    _assert_file_not_found(runner.invoke(main, args), args)
    assert not os.path.exists(tmp_path / "out.json")
    # an input that is not UTF-8 exits 3 too, not with a traceback
    with open(paths[missing_input], "wb") as fh:
        fh.write(b"\xff\xfe")
    args = _command_args(tmp_path, paths, str(tmp_path / "out.json"))[command]
    _assert_file_not_found(runner.invoke(main, args), args, "UnicodeDecodeError")
    assert not os.path.exists(tmp_path / "out.json")


def test_example_writes_both_files_or_neither(runner, tmp_path):
    """With ``--nu`` in a missing directory, ``example`` exits 3 and
    leaves no ``--mu`` file behind."""
    mu_f = tmp_path / "mu.json"
    args = ["example", "discrete_k", "--k", "2",
            "--mu", str(mu_f), "--nu", str(tmp_path / "missing" / "nu.json")]
    _assert_file_not_found(runner.invoke(main, args), args)
    assert not mu_f.exists()


def test_polar_without_martingale_rows(runner, tmp_path):
    """``--no-martingale`` drops the martingale rows: on discrete_k(2)
    every pair can carry a quarter of the mass by some plain transport,
    while a martingale coupling carries none across columns."""
    mu_f, nu_f = _measure_files(runner, tmp_path, k=2)
    mu, nu = fixtures.discrete_k(2)
    plain = runner.invoke(main, ["polar", "--mu", mu_f, "--nu", nu_f, "--no-martingale"])
    assert plain.exit_code == 0
    max_mass = json.loads(plain.output)["max_mass"]
    assert max_mass == polar_matrix(mu, nu, martingale=False).tolist()
    assert np.allclose(max_mass, 0.25, rtol=0, atol=1e-9)
    martingale = json.loads(runner.invoke(main, ["polar", "--mu", mu_f, "--nu", nu_f]).output)
    mu_x = np.array(martingale["mu_support"])[:, 0]
    nu_x = np.array(martingale["nu_support"])[:, 0]
    cross = np.abs(mu_x[:, None] - nu_x[None, :]) > 1e-12
    assert cross.any() and np.all(np.array(martingale["max_mass"])[cross] == 0.0)
