import argparse
import pathlib
import re

import numpy as np
import pytest

from wgconvect import cli
from wgconvect import postproc
from wgconvect import problems

CAVITY_INI = """\
[physics]
pr = 0.71
ra = 1000.0

[domain]
rect = 0 1 0 1

[bc]
left = dirichlet 1
right = dirichlet 0
bottom = insulated
top = insulated
"""


def run(argv):
    return cli.main([str(a) for a in argv])


def manufactured_config(tmp_path):
    path = tmp_path / "manufactured.ini"
    path.write_text("[physics]\npr = 1\nra = 10\n"
                    "[domain]\nrect = -1 1 0 1\nfluid_rect = 0 1 0 1\n"
                    "[exact]\n"
                    "u1 = -x**2*(x-1)**2*y*(y-1)*(2*y-1)\n"
                    "u2 = y**2*(y-1)**2*x*(x-1)*(2*x-1)\n"
                    "p = x**6 - y**6\n"
                    "T = (x-1)*(x+1)*y*(y-1)\n")
    return path


# ----------------------------------------------------------------- parsing


def test_mesh_parsing():
    assert cli._parse_mesh("8x4") == (8, 4)
    assert cli._parse_mesh("40X40") == (40, 40)
    with pytest.raises(ValueError):
        cli._parse_mesh("8by4")
    with pytest.raises(ValueError):
        cli._parse_mesh("0x4")
    assert cli._parse_mesh_sequence("8x4,16x8") == [(8, 4), (16, 8)]
    with pytest.raises(ValueError):
        cli._parse_mesh_sequence("8x4")
    with pytest.raises(ValueError):
        cli._parse_mesh_sequence("8x4,12x6")


def test_flags_override_config(tmp_path):
    path = tmp_path / "prob.ini"
    path.write_text(CAVITY_INI + "[method]\nk = 1\nvariant = wg1\n"
                    "[solver]\ntol = 1e-6\nmax_iter = 7\n")
    args = cli.build_parser().parse_args(
        ["solve", "--config", str(path), "--variant", "wg3", "--tol",
         "1e-4"])
    problem, params, sopts = cli._load_problem(args)
    assert params.variant == "WG-III"
    assert params.degree == 1                 # from the config
    assert sopts["tol"] == 1e-4               # flag wins
    assert sopts["max_iter"] == 7             # config survives


# ------------------------------------------------------------ subcommands


def test_converge_writes_csv_with_healthy_orders(tmp_path):
    out = tmp_path / "out"
    assert run(["converge", "--meshes", "8x4,16x8", "-o", out]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    last = lines[2].split(",")
    n = len(header)
    orders = {h: v for h, v in zip(header, last)}
    assert float(orders["order_grad_u"]) >= 0.9
    assert float(orders["order_l2_u"]) >= 1.8
    assert float(orders["div_h"]) < 1e-10


def test_divergence_is_diagnosed_once_per_mesh(tmp_path, monkeypatch):
    calls = []
    diagnostic = postproc.divergence_diagnostic

    def counting(fields, *args, **kwargs):
        calls.append(fields.mesh.n_elems)
        return diagnostic(fields, *args, **kwargs)

    monkeypatch.setattr(postproc, "divergence_diagnostic", counting)
    assert run(["converge", "--meshes", "4x2,8x4", "-o",
                tmp_path / "conv"]) == 0
    assert calls == [16, 64]
    calls.clear()
    assert run(["solve", "--config", manufactured_config(tmp_path),
                "--mesh", "4x2", "-o", tmp_path / "solve"]) == 0
    assert calls == [16]


def test_blas_threads_default_to_one_and_user_settings_win():
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for env, expect in (({}, ["1", "1", "1"]),
                        ({"WGCONVECT_THREADS": "2"}, ["2", "2", "2"]),
                        ({"WGCONVECT_THREADS": "2",
                          "OPENBLAS_NUM_THREADS": "3"}, ["2", "3", "2"])):
        cli._pin_blas_threads(env)
        assert [env[v] for v in names] == expect


def test_converge_rejects_problem_without_exact(tmp_path, capsys):
    path = tmp_path / "cavity.ini"
    path.write_text(CAVITY_INI)
    assert run(["converge", "--config", path, "--meshes", "4x4,8x8",
                "-o", tmp_path / "out"]) == 2
    assert "exact solution" in capsys.readouterr().err


def test_converge_rejects_non_halving_sequence(tmp_path):
    assert run(["converge", "--meshes", "8x4,12x6",
                "-o", tmp_path / "out"]) == 2


def test_converge_leaves_orders_undefined_where_an_error_vanishes(
        tmp_path, capsys):
    # Ra = 0 and a flow at rest, which the scheme reproduces exactly: the
    # three flow errors are zero on every mesh and have no order
    config = tmp_path / "rest.ini"
    text = ("[physics]\npr = 1\nra = 0\n[domain]\nrect = 0 1 0 1\n"
            "[exact]\nu1 = 0\nu2 = 0\np = 0\nT = %s\n")
    out = tmp_path / "out"
    argv = ["converge", "--config", config, "--meshes", "4x4,8x8", "-o", out]
    # x(x-1)y is not zero on the top wall, whose data is the default 0
    config.write_text(text % "x*(x-1)*y")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "wall top" in err
    assert not out.exists()

    config.write_text(text % "x*(x-1)*y*(y-1)")
    assert run(argv) == 0
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("8x8 ")][0].split()
    assert row[1:7] == ["0.0000E+00", "(-)"] * 3
    assert "(-)" not in row[7:]
    lines = (out / "convergence.csv").read_text().splitlines()
    cells = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert [cells["order_" + c] for c in ("grad_u", "l2_u", "l2_p")] \
        == ["", "", ""]
    assert float(cells["order_grad_t"]) > 0.9
    assert float(cells["order_l2_t"]) > 1.9


def test_cavity_pure_conduction_gives_unit_nusselt(tmp_path):
    out = tmp_path / "out"
    assert run(["cavity", "--ra", "0", "--mesh", "6x6", "-o", out]) == 0
    lines = (out / "cavity.csv").read_text().splitlines()
    vals = lines[1].split(",")
    header = lines[0].split(",")
    row = dict(zip(header, vals))
    assert float(row["nu_bar"]) == pytest.approx(1.0, abs=1e-12)
    assert float(row["u1_max"]) == pytest.approx(0.0, abs=1e-12)
    assert (out / "fields.vtk").read_text().startswith("# vtk DataFile")
    assert (out / "trace.csv").exists()


def test_cavity_above_1e3_is_one_solve(tmp_path, capsys):
    # no decade ramp: one relaxed solve from rest at the asked Ra
    out = tmp_path / "out"
    assert run(["cavity", "--ra", "2e3", "--mesh", "8x8", "-o", out]) == 0
    text = capsys.readouterr().out
    assert "Ra=2000: converged" in text
    assert "Ra=1000:" not in text


def test_cavity_has_no_ramp_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["cavity", "--ra", "2e3", "--mesh", "4x4", "--ramp",
             "-o", tmp_path / "out"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --ramp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_cavity_above_1e3_takes_newton_steps(tmp_path, capsys):
    # plain Picard stalls here and stops unconverged after 100 steps; the
    # solve command takes the relaxed solve, as cavity does, and a config
    # of the cavity at Ra = 1e4 solves to the cavity command's fields
    path = tmp_path / "cavity.ini"
    path.write_text(CAVITY_INI.replace("ra = 1000.0", "ra = 1e4"))
    assert run(["solve", "--config", path, "--mesh", "8x8",
                "-o", tmp_path / "solve"]) == 0
    assert "converged in 7 iterations" in capsys.readouterr().out
    assert run(["cavity", "--ra", "1e4", "--mesh", "8x8",
                "-o", tmp_path / "cavity"]) == 0
    assert ((tmp_path / "solve" / "fields.vtk").read_bytes()
            == (tmp_path / "cavity" / "fields.vtk").read_bytes())


def test_solve_requires_a_problem_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["solve", "--mesh", "4x2", "-o", tmp_path / "out"])
    assert exit_.value.code == 2
    assert ("the following arguments are required: --config"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_solve_rejects_unknown_problem(tmp_path, capsys):
    # a config file is the one way to name the problem of a solve
    with pytest.raises(SystemExit) as exit_:
        run(["solve", "--config", manufactured_config(tmp_path),
             "--problem", "vortex", "-o", tmp_path / "out"])
    assert exit_.value.code == 2
    assert ("unrecognized arguments: --problem vortex"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,flag", [
    (["converge", "--problem", "cavity", "--meshes", "4x2,8x4"],
     "--problem cavity"),
    (["solve", "--config", "{config}", "--ra", "1e5", "--mesh", "4x2"],
     "--ra 1e5"),
])
def test_commands_reject_flags_their_problem_does_not_take(
        tmp_path, capsys, argv, flag):
    # converge solves the built-in manufactured problem or a --config,
    # and a solve's Ra is its config's: neither flag may be ignored
    config = manufactured_config(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        run([a.format(config=config) for a in argv]
            + ["-o", tmp_path / "out"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--tol", "nan", "tol"), ("--tol", "inf", "tol"),
    ("--ra", "nan", "Ra"), ("--ra", "inf", "Ra"),
])
def test_cavity_rejects_non_finite_numbers(tmp_path, capsys, flag, value,
                                           named):
    assert run(["cavity", flag, value, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be " % named)
    assert "finite, got %s" % value in err


@pytest.mark.parametrize("command", ["converge", "cavity", "solve"])
@pytest.mark.parametrize("flag,value", [("--tol", "nan"),
                                        ("--max-iter", "0")])
def test_rejected_solver_value_leaves_no_output_directory(tmp_path, capsys,
                                                          command, flag,
                                                          value):
    # tol and max_iter are checked by the solver, after the command's own
    # checks; the output directory is made only by the first file written
    extra = {"converge": ["--meshes", "2x1,4x2"],
             "cavity": ["--mesh", "4x4"],
             "solve": ["--config", manufactured_config(tmp_path),
                       "--mesh", "4x2"]}[command]
    assert run([command, flag, value, "-o", tmp_path / "out"] + extra) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_solve_rejects_nonpositive_prandtl(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[physics]\npr = -1\nra = 10\n"
                    "[domain]\nrect = 0 1 0 1\n")
    assert run(["solve", "--config", path, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    assert "Pr must be positive" in capsys.readouterr().err


def test_solve_rejects_incomplete_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[physics]\npr = 1\nra = 10\n")
    assert run(["solve", "--config", path, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[domain]" in err


def test_solve_rejects_incomplete_exact_section(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    text = manufactured_config(tmp_path).read_text()
    path.write_text(text.replace("T = (x-1)*(x+1)*y*(y-1)\n", ""))
    assert run(["solve", "--config", path, "--mesh", "4x2",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "[exact] needs 'T'" in err


def test_solve_rejects_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CAVITY_INI + "[solver]\ntolerance = 1e-3\n")
    assert run(["solve", "--config", path, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown key 'tolerance' in [solver]" in err
    assert not (tmp_path / "out").exists()


def test_solve_rejects_non_polynomial_exact_field(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(manufactured_config(tmp_path).read_text().replace(
        "p = x**6 - y**6", "p = sin(x)*y"))
    assert run(["solve", "--config", path, "--mesh", "4x2",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "exact field p = sin(x)*y is not a polynomial in x and y" in err


def test_solve_rejects_non_polynomial_wall_temperature(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CAVITY_INI.replace("left = dirichlet 1",
                                       "left = dirichlet sin(y)"))
    assert run(["solve", "--config", path, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "wall left temperature = sin(y) is not a polynomial" in err
    assert not (tmp_path / "out").exists()


def test_solve_rejects_ramp_that_stops_below_ra(tmp_path, capsys):
    # the ramp's last stage is the solve: a ramp ending at 1e3 would
    # solve an ra = 1e4 config at Ra = 1e3
    path = tmp_path / "ramp.ini"
    path.write_text(CAVITY_INI.replace("ra = 1000.0", "ra = 1e4")
                    + "[solver]\nramp = 1e3\n")
    assert run(["solve", "--config", path, "--mesh", "4x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "ramp ends at Ra = 1000, not at [physics] ra = 10000" in err
    assert not (tmp_path / "out").exists()


def test_single_stage_ramp_runs_with_exact_section(tmp_path):
    # a one-stage ramp at the config's own ra is a relaxed solve of it
    config = manufactured_config(tmp_path)
    config.write_text(config.read_text() + "[solver]\nramp = 10\n")
    assert run(["solve", "--config", config, "--mesh", "8x4",
                "-o", tmp_path / "out"]) == 0


def test_ramp_reaches_a_rayleigh_number_the_direct_solve_does_not(
        tmp_path, capsys):
    # the conjugate domain at Ra = 1e6 on 8x4: a direct solve from rest
    # stalls within its 100 steps, while the ramp converges in 9
    path = tmp_path / "conjugate.ini"
    path.write_text(CAVITY_INI.replace("ra = 1000.0", "ra = 1e6")
                    .replace("rect = 0 1 0 1",
                             "rect = -1 1 0 1\nfluid_rect = 0 1 0 1")
                    + "[solver]\nramp = 1e3 1e4 1e5 1e6\n")
    assert run(["solve", "--config", path, "--mesh", "8x4",
                "-o", tmp_path / "out"]) == 0
    assert capsys.readouterr().out.startswith("converged in ")


def test_solve_rejects_multistage_ramp_with_exact_section(tmp_path, capsys):
    config = manufactured_config(tmp_path)
    config.write_text(config.read_text() + "[solver]\nramp = 1 10\n")
    assert run(["solve", "--config", config, "--mesh", "8x4",
                "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "[solver] ramp of 2 stages" in err and "[exact]" in err
    assert not (tmp_path / "out").exists()


def test_solve_reports_nonconvergence_with_exit_one(tmp_path):
    assert run(["solve", "--config", manufactured_config(tmp_path),
                "--mesh", "4x2", "--tol", "1e-14", "--max-iter", "1",
                "-o", tmp_path / "out"]) == 1


def test_solve_matches_converge_single_mesh_row(tmp_path):
    config = manufactured_config(tmp_path)
    out_s = tmp_path / "solve"
    out_c = tmp_path / "conv"
    assert run(["solve", "--config", config, "--mesh", "8x4",
                "-o", out_s]) == 0
    assert run(["converge", "--config", config, "--meshes", "8x4,16x8",
                "-o", out_c]) == 0
    solve_row = (out_s / "errors.csv").read_text().splitlines()[1]
    conv_row = (out_c / "convergence.csv").read_text().splitlines()[1]
    assert solve_row == conv_row


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    config = manufactured_config(tmp_path)
    for out in (a, b):
        assert run(["solve", "--config", config, "--mesh", "4x2",
                    "-o", out]) == 0
    assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
    assert (a / "fields.vtk").read_bytes() == (b / "fields.vtk").read_bytes()


def test_readme_names_every_config_key():
    # configparser lowercases keys, so [exact] T is read as t
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    named = {w.lower() for quoted in re.findall(r"`([^`]+)`", section)
             for w in re.findall(r"\w+", quoted)}
    for name, keys in problems.CONFIG_SCHEMA.items():
        assert "`[%s]`" % name in section
        for key in keys:
            assert key.lower() in named, (name, key)


def test_readme_names_every_command_line_flag():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][-a-z]*", section))
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, parser in commands.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    assert flag in named, (command, flag)
