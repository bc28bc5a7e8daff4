"""Tests for grids, CSV/SVG emitters, and the command-line interface."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading

import pytest

from htbounds.bounds import (
    Constant,
    Exponential,
    Linear,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    phase_transition_converse,
    renyi_achievability_at_threshold,
    renyi_converse,
    smoothing_out_bound,
    threshold_for_rate,
)
from htbounds.cli import DEFAULT_N, cli_main
from htbounds.distributions import BernoulliPair, GaussianPair, parse_pair
from htbounds.experiments import (
    CANONICAL_BOUNDS,
    ConfigError,
    ExperimentGrid,
    GridCell,
    GridRow,
    GridTable,
    bounds_for,
    emit_csv,
    emit_svg,
    run_grid,
)
from htbounds.numerics import DomainError
from htbounds.oracle import np_exact_bernoulli, np_exact_discrete_bruteforce, np_exact_gaussian

GOLDEN = pathlib.Path(__file__).parent / "golden"


def small_grid(**kw):
    defaults = dict(
        pair_spec="gaussian:2,0.05",
        regime=Constant(0.01),
        n_values=(100, 200, 300),
        bounds=("renyi_converse", "fano", "np_exact"),
    )
    defaults.update(kw)
    return ExperimentGrid(**defaults)


def direct_cells(pair, regime, n, names):
    """The named columns' cells at n from direct library calls, by name.

    The phase columns run at the row's rate, achievability is the
    threshold test at the phase bound's order for that rate, and the
    oracle takes log eps for Gaussian and Bernoulli pairs but linear eps
    for brute force.  A DomainError is an empty cell.
    """
    eps, log_eps = eps_at(regime, n)
    rate = regime.c if isinstance(regime, Exponential) else -log_eps / n

    def achievability():
        lam = phase_transition_achievability(pair, n, rate).optimizer
        tau = threshold_for_rate(pair, n, rate, lam)
        return renyi_achievability_at_threshold(pair, n, tau, -math.inf)

    def np_exact():
        if isinstance(pair, GaussianPair):
            r = np_exact_gaussian(pair, n, log_eps)
        elif isinstance(pair, BernoulliPair):
            r = np_exact_bernoulli(pair, n, log_eps)
        else:
            r = np_exact_discrete_bruteforce(pair, n, eps)
        return GridCell(r.beta, r.threshold, True)

    calls = {
        "renyi_converse": lambda: renyi_converse(pair, n, log_eps),
        "achievability": achievability,
        "phase_converse": lambda: phase_transition_converse(pair, n, rate),
        "phase_achievability": lambda: phase_transition_achievability(pair, n, rate),
        "fano": lambda: fano_bound(pair, n, log_eps),
        "hellinger": lambda: hellinger_bound(pair, n, log_eps),
        "berry_esseen": lambda: berry_esseen_bound(pair, n, log_eps),
        "smoothing_out": lambda: smoothing_out_bound(pair, n, log_eps),
        "np_exact": np_exact,
    }
    cells = {}
    for name in names:
        try:
            r = calls[name]()
        except DomainError:
            cells[name] = GridCell(None, None, False)
        else:
            cells[name] = GridCell(r.value, r.optimizer, r.valid)
    return cells


class TestExperimentGrid:
    def test_bounds_reordered_to_canonical(self):
        g = small_grid(bounds=("np_exact", "fano", "renyi_converse"))
        assert g.bounds == ("renyi_converse", "fano", "np_exact")

    def test_unknown_bound_rejected(self):
        with pytest.raises(ConfigError):
            small_grid(bounds=("renyi_converse", "chernoff"))

    def test_n_values_validation(self):
        with pytest.raises(ConfigError):
            small_grid(n_values=())
        with pytest.raises(ConfigError):
            small_grid(n_values=(10, 10, 20))
        with pytest.raises(ConfigError):
            small_grid(n_values=(30, 20))
        with pytest.raises(ConfigError):
            small_grid(n_values=(0, 5))


class TestRunGrid:
    def test_rows_ordered_and_cells_match_direct_calls(self):
        table = run_grid(small_grid())
        assert [r.n for r in table.rows] == [100, 200, 300]
        pair = parse_pair("gaussian:2,0.05")
        row = table.rows[1]
        direct_r = renyi_converse(pair, 200, math.log(0.01))
        direct_f = fano_bound(pair, 200, math.log(0.01))
        assert row.cells[0].value == pytest.approx(direct_r.value, rel=1e-14)
        assert row.cells[1].value == pytest.approx(direct_f.value, rel=1e-14)
        assert row.cells[2].valid  # np_exact

    @pytest.mark.parametrize(
        "spec", ["bernoulli:0.3,0.7", "gaussian:0,1", "discrete:0.2,0.3,0.5|0.5,0.3,0.2"]
    )
    def test_every_column_matches_direct_calls(self, spec):
        pair = parse_pair(spec)
        names = bounds_for(pair)
        assert ("smoothing_out" in names) == isinstance(pair, GaussianPair)
        seen = set()
        for regime in (Constant(0.01), Linear(), Exponential(0.02)):
            table = run_grid(ExperimentGrid(spec, regime, (4, 8, 12), names))
            assert table.bounds == names
            for row in table.rows:
                direct = direct_cells(pair, regime, row.n, names)
                for name, cell in zip(names, row.cells):
                    assert cell == direct[name], (name, regime, row.n)
                    if cell.value is not None:
                        seen.add(name)
        assert seen == set(names)  # every column was compared on a value

    def test_out_of_regime_cells_are_empty(self):
        # Supercritical exponential rate: achievability columns undefined.
        table = run_grid(
            small_grid(
                regime=Exponential(0.025),
                bounds=("achievability", "phase_achievability", "renyi_converse"),
            )
        )
        assert table.bounds == ("renyi_converse", "achievability", "phase_achievability")
        for row in table.rows:
            assert row.cells[0].value is not None
            assert row.cells[1].value is None
            assert row.cells[2].value is None

    def test_smoothing_needs_gaussian(self):
        with pytest.raises(ConfigError):
            run_grid(small_grid(pair_spec="bernoulli:0.5,0.51", bounds=("smoothing_out",)))

    def test_linear_regime_needs_n_at_least_two(self):
        with pytest.raises(ConfigError):
            run_grid(small_grid(regime=Linear(), n_values=(1, 2, 3)))

    def test_np_exact_discrete_size_precheck(self):
        with pytest.raises(ConfigError):
            run_grid(
                small_grid(
                    pair_spec="discrete:0.2,0.3,0.5|0.5,0.3,0.2",
                    n_values=(2, 20),
                    bounds=("np_exact",),
                )
            )

    def test_np_exact_discrete_small_ok(self):
        table = run_grid(
            small_grid(
                pair_spec="discrete:0.2,0.3,0.5|0.5,0.3,0.2",
                n_values=(2, 4),
                bounds=("np_exact",),
            )
        )
        assert all(0.0 < row.cells[0].value < 1.0 for row in table.rows)

    def test_cells_run_on_callers_thread_in_n_order(self, monkeypatch):
        seen = []

        def recording_fano(pair, n, log_eps):
            seen.append((threading.get_ident(), n))
            return fano_bound(pair, n, log_eps)

        monkeypatch.setattr("htbounds.experiments.fano_bound", recording_fano)
        grid = small_grid(n_values=tuple(range(50, 551, 50)))
        run_grid(grid)
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        assert [n for _, n in seen] == list(grid.n_values)


class TestEmitCsv:
    def test_header_and_shape(self, tmp_path):
        table = run_grid(small_grid())
        path = tmp_path / "out.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "n,eps,log_eps,renyi_converse_value,renyi_converse_optimizer,renyi_converse_valid,"
            "fano_value,fano_optimizer,fano_valid,np_exact_value,np_exact_optimizer,np_exact_valid"
        )
        assert len(lines) == 1 + 3
        assert path.read_text().endswith("\n")

    def test_float_roundtrip_and_empties(self, tmp_path):
        table = run_grid(
            small_grid(regime=Exponential(0.025), bounds=("achievability", "renyi_converse"))
        )
        path = tmp_path / "out.csv"
        emit_csv(table, str(path))
        rows = [ln.split(",") for ln in path.read_text().splitlines()]
        # canonical order puts renyi_converse first, achievability second;
        # achievability is out of regime: empty value/optimizer, valid false
        assert rows[1][6] == "" and rows[1][7] == "" and rows[1][8] == "false"
        # renyi value round-trips through repr precision
        assert float(rows[1][3]) == table.rows[0].cells[0].value

    def test_identical_tables_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_grid(small_grid()), str(a))
        emit_csv(run_grid(small_grid()), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv(GridTable("x", ("fano",), ()), str(tmp_path / "e.csv"))


class TestEmitSvg:
    def test_structure(self, tmp_path):
        table = run_grid(small_grid())
        path = tmp_path / "out.svg"
        emit_svg(table, str(path), title="demo")
        text = path.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert 'version="1.1"' in text
        for b in table.bounds:
            assert f'data-bound="{b}"' in text
        assert ">demo<" in text

    def test_all_empty_series_noted_in_legend(self, tmp_path):
        table = run_grid(
            small_grid(regime=Exponential(0.025), bounds=("achievability", "renyi_converse"))
        )
        path = tmp_path / "out.svg"
        emit_svg(table, str(path))
        text = path.read_text()
        assert "achievability (no valid points)" in text
        assert 'data-bound="achievability"' not in text  # nothing plottable

    def test_log_scale_drops_zeros(self, tmp_path):
        # berry_esseen is 0.0 at small n; those points must vanish from
        # the log-scale curve but stay on the linear one.
        table = run_grid(
            small_grid(
                n_values=(50, 5000, 10000, 20000),
                bounds=("berry_esseen",),
            )
        )
        lin, log = tmp_path / "lin.svg", tmp_path / "log.svg"
        emit_svg(table, str(lin), log_y=False)
        emit_svg(table, str(log), log_y=True)

        def points_of(path):
            m = re.search(r'data-bound="berry_esseen"[^/]*points="([^"]*)"', path.read_text())
            return m.group(1).split() if m else []

        assert len(points_of(lin)) == 4
        assert len(points_of(log)) == 3
        assert "zeros omitted" in log.read_text()

    def test_needs_two_rows(self, tmp_path):
        table = run_grid(small_grid(n_values=(100,)))
        with pytest.raises(ConfigError):
            emit_svg(table, str(tmp_path / "x.svg"))


class TestGolden:
    # fig1 is Bernoulli, so it pins the discrete Renyi path that fig2's
    # Gaussian pair never reaches.
    @pytest.mark.parametrize("table", ["fig1_exponential", "fig2_exponential"])
    def test_reproduce_matches_pinned_csv(self, table, tmp_path):
        figure = table.split("_")[0]
        assert cli_main(["reproduce", figure, "--outdir", str(tmp_path)]) == 0
        got = (tmp_path / f"{table}.csv").read_bytes()
        assert got == (GOLDEN / f"{table}.csv").read_bytes()


# One case per `bound --bound` choice: pair, flags, and the library call
# that the command line must reproduce at n = 100.
BOUND_CASES = [
    ("renyi_converse", "bernoulli:0.5,0.6", [],
     lambda p: renyi_converse(p, 100, math.log(0.01))),
    ("achievability", "bernoulli:0.5,0.6", ["--tau", "0.5", "--log-alpha", "-5"],
     lambda p: renyi_achievability_at_threshold(p, 100, 0.5, -5.0)),
    ("phase_converse", "bernoulli:0.5,0.6", ["--c", "0.05"],
     lambda p: phase_transition_converse(p, 100, 0.05)),
    ("phase_achievability", "bernoulli:0.5,0.6", ["--c", "0.01"],
     lambda p: phase_transition_achievability(p, 100, 0.01)),
    ("fano", "bernoulli:0.5,0.6", ["--log-eps", "-3"],
     lambda p: fano_bound(p, 100, -3.0)),
    ("hellinger", "bernoulli:0.5,0.6", ["--eps", "0.05"],
     lambda p: hellinger_bound(p, 100, math.log(0.05))),
    ("berry_esseen", "bernoulli:0.5,0.6", ["--delta-param", "0.1"],
     lambda p: berry_esseen_bound(p, 100, math.log(0.01), delta_param=0.1)),
    ("smoothing_out", "gaussian:2,0.1", ["--t-param", "0.3"],
     lambda p: smoothing_out_bound(p, 100, math.log(0.01), t_param=0.3)),
]


class TestCli:
    def test_bound_subcommand_json(self, capsys):
        code = cli_main(
            ["bound", "--pair", "bernoulli:0.5,0.51", "--bound", "renyi_converse",
             "--n", "1000", "--eps", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        pair = parse_pair("bernoulli:0.5,0.51")
        direct = renyi_converse(pair, 1000, math.log(0.01))
        assert payload["value"] == pytest.approx(direct.value, rel=1e-14)
        assert payload["valid"] is True

    @pytest.mark.parametrize("bound, spec, flags, call", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
    def test_bound_choice_matches_library(self, capsys, bound, spec, flags, call):
        argv = ["bound", "--pair", spec, "--bound", bound, "--n", "100", *flags]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        direct = call(parse_pair(spec))
        assert payload["bound"] == bound
        assert payload["value"] == direct.value
        assert payload["optimizer"] == direct.optimizer

    def test_bound_cases_cover_every_choice(self):
        assert [c[0] for c in BOUND_CASES] == [b for b in CANONICAL_BOUNDS if b != "np_exact"]

    @pytest.mark.parametrize("extra", [["--lam", "1.5"], ["--log-eps", "-3"]])
    def test_bound_rejects_lam_and_a_second_budget(self, capsys, extra):
        # --lam is not a bound option; --eps and --log-eps set the same budget
        argv = ["bound", "--pair", "bernoulli:0.5,0.6", "--bound", "renyi_converse",
                "--n", "100", "--eps", "0.01", *extra]
        assert cli_main(argv) == 2

    def test_bound_requires_tau_for_achievability(self, capsys):
        code = cli_main(
            ["bound", "--pair", "bernoulli:0.5,0.51", "--bound", "achievability", "--n", "100"]
        )
        assert code == 2

    def test_samplesize_prints_ceils(self, capsys):
        code = cli_main(
            ["samplesize", "--pair", "gaussian:2,0.05", "--eps", "0.01", "--delta", "0.01",
             "--lam", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ceil 1835" in out

    def test_samplesize_skips_pensia_out_of_range(self, capsys):
        code = cli_main(
            ["samplesize", "--pair", "gaussian:2,0.05", "--eps", "0.6", "--delta", "0.01"]
        )
        assert code == 0
        assert "pensia: skipped" in capsys.readouterr().out

    def test_sweep_writes_files(self, tmp_path, capsys):
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        code = cli_main(
            ["sweep", "--pair", "gaussian:2,0.05", "--n-min", "100", "--n-max", "400",
             "--n-step", "100", "--bounds", "renyi_converse,np_exact",
             "--csv", str(csv), "--svg", str(svg)]
        )
        assert code == 0
        assert csv.exists() and svg.exists()

    def test_sweep_default_bounds_fit_the_pair(self, tmp_path, capsys):
        # with no --bounds the Gaussian-only smoothing bound is dropped
        # for other families instead of erroring out
        csv = tmp_path / "b.csv"
        code = cli_main(
            ["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", "50", "--n-max",
             "150", "--n-step", "50", "--csv", str(csv)]
        )
        assert code == 0
        header = csv.read_text().splitlines()[0]
        assert "smoothing_out_value" not in header
        assert "renyi_converse_value" in header and "np_exact_value" in header
        code = cli_main(
            ["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", "50", "--n-max",
             "150", "--n-step", "50", "--bounds", "smoothing_out", "--csv", str(csv)]
        )
        assert code == 2
        assert "Gaussian" in capsys.readouterr().err

    def test_bad_pair_exits_two(self, capsys):
        code = cli_main(["bound", "--pair", "cauchy:0,1", "--bound", "fano", "--n", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_path_exits_three(self, capsys):
        code = cli_main(
            ["sweep", "--pair", "gaussian:2,0.05", "--n-min", "100", "--n-max", "200",
             "--n-step", "100", "--bounds", "fano", "--csv", "/nonexistent/dir/x.csv"]
        )
        assert code == 3

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0
        assert cli_main(["sweep", "--help"]) == 0

    def test_unknown_subcommand_exits_two(self):
        assert cli_main(["frobnicate"]) == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "htbounds", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")},
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout

    def test_default_n_shape(self):
        assert DEFAULT_N[0] == 10
        assert DEFAULT_N[-1] == 2000
        assert all(a < b for a, b in zip(DEFAULT_N, DEFAULT_N[1:]))
        assert 400 in DEFAULT_N

    def test_reproduce_appf_names(self, tmp_path):
        # appF runs four pairs x three regimes; just check the file fanout
        # for one cheap subset via fig2 (full appF is exercised in demos).
        assert cli_main(["reproduce", "fig2", "--outdir", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "fig2_constant.csv", "fig2_constant.svg",
            "fig2_exponential.csv", "fig2_exponential.svg",
            "fig2_linear.csv", "fig2_linear.svg",
        ]
