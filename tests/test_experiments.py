"""Tests for grids, CSV/SVG emitters, and the command-line interface."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import pytest

import htbounds.bounds
import htbounds.numerics
from htbounds.bounds import (
    BoundKind,
    BoundResult,
    Constant,
    Exponential,
    Linear,
    berry_esseen_bound,
    eps_at,
    fano_bound,
    hellinger_bound,
    phase_transition_achievability,
    renyi_achievability_at_threshold,
    renyi_converse,
    smoothing_out_bound,
)
from htbounds.cli import DEFAULT_N, cli_main
from htbounds.distributions import (
    BernoulliPair,
    Direction,
    GaussianPair,
    kl_divergence,
    parse_pair,
)
from htbounds.experiments import (
    CANONICAL_BOUNDS,
    ExperimentGrid,
    GridRow,
    GridTable,
    bounds_for,
    emit_csv,
    emit_svg,
    run_grid,
)
from htbounds.numerics import DomainError
from htbounds.oracle import np_exact_bernoulli, np_exact_discrete, np_exact_gaussian

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

    This is the one table that says which library call computes each
    column: a new registry entry adds its row here.  Every call takes the
    row's log eps; achievability is phase_achievability's call again, and
    phase_converse, which has no public function, is the bounds module's
    branch-one cell.  A DomainError is an empty cell: None.
    """
    log_eps = eps_at(regime, n)[1]

    def np_exact():
        if isinstance(pair, GaussianPair):
            r = np_exact_gaussian(pair, n, log_eps)
        elif isinstance(pair, BernoulliPair):
            r = np_exact_bernoulli(pair, n, log_eps)
        else:
            r = np_exact_discrete(pair, n, log_eps)
        return BoundResult(r.log_beta, r.threshold, BoundKind.EXACT_BETA)

    calls = {
        "renyi_converse": lambda: renyi_converse(pair, n, log_eps),
        "achievability": lambda: phase_transition_achievability(pair, n, log_eps),
        "phase_converse": lambda: htbounds.bounds._phase_converse(pair, n, log_eps),
        "phase_achievability": lambda: phase_transition_achievability(pair, n, log_eps),
        "fano": lambda: fano_bound(pair, n, log_eps),
        "hellinger": lambda: hellinger_bound(pair, n, log_eps),
        "berry_esseen": lambda: berry_esseen_bound(pair, n, log_eps),
        "smoothing_out": lambda: smoothing_out_bound(pair, n, log_eps),
        "np_exact": np_exact,
    }
    cells = {}
    for name in names:
        try:
            cells[name] = calls[name]()
        except DomainError:
            cells[name] = None
    return cells


class TestExperimentGrid:
    def test_bounds_reordered_to_canonical(self):
        g = small_grid(bounds=("np_exact", "fano", "renyi_converse"))
        assert g.bounds == ("renyi_converse", "fano", "np_exact")

    def test_unknown_bound_rejected(self):
        with pytest.raises(DomainError):
            small_grid(bounds=("renyi_converse", "chernoff"))

    def test_empty_bound_selection_rejected(self):
        # a table of n, eps and log_eps alone answers nothing
        with pytest.raises(DomainError, match="select at least one bound"):
            small_grid(bounds=())

    @pytest.mark.parametrize(
        "spec", ["bernoulli:0.3,0.7", "discrete:0.2,0.3,0.5|0.5,0.3,0.2", "gaussian:0,1"]
    )
    def test_default_bounds_are_those_of_the_pair(self, spec):
        grid = ExperimentGrid(spec, Constant(0.01), (20, 40))
        assert grid.bounds == bounds_for(parse_pair(spec))
        table = run_grid(grid)
        assert table.bounds == grid.bounds
        assert all(len(row.cells) == len(grid.bounds) for row in table.rows)

    def test_n_values_validation(self):
        with pytest.raises(DomainError):
            small_grid(n_values=())
        with pytest.raises(DomainError):
            small_grid(n_values=(10, 10, 20))
        with pytest.raises(DomainError):
            small_grid(n_values=(30, 20))
        with pytest.raises(DomainError):
            small_grid(n_values=(0, 5))
        # every bound rejects a fractional n, so a row may not truncate it
        with pytest.raises(DomainError, match="n must be an integer"):
            small_grid(n_values=(10.7, 20.2))
        with pytest.raises(DomainError, match="n must be an integer"):
            small_grid(n_values=("x",))

    def test_unparsable_pair_spec_is_a_domain_error(self):
        # bounds=None parses the pair to select its bounds
        with pytest.raises(DomainError, match="bad number 'x'"):
            ExperimentGrid("bernoulli:x,0.6", Constant(0.01), (10, 20))


class TestRunGrid:
    def test_rows_ordered_and_cells_match_direct_calls(self):
        table = run_grid(small_grid())
        assert [r.n for r in table.rows] == [100, 200, 300]
        pair = parse_pair("gaussian:2,0.05")
        row = table.rows[1]
        direct_r = renyi_converse(pair, 200, math.log(0.01))
        direct_f = fano_bound(pair, 200, math.log(0.01))
        assert row.cells[0].value == pytest.approx(direct_r.value, rel=1e-14, abs=0.0)
        assert row.cells[1].value == pytest.approx(direct_f.value, rel=1e-14, abs=0.0)
        # the oracle cell carries the oracle's log beta, and its threshold as optimizer
        exact = np_exact_gaussian(pair, 200, math.log(0.01))
        assert row.cells[2] == BoundResult(exact.log_beta, exact.threshold, BoundKind.EXACT_BETA)
        assert row.cells[2].valid
        assert row.cells[2].kind.value == "exact_beta"

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
                    if cell is not None:
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
            assert row.cells[0] is not None
            assert row.cells[1] is None
            assert row.cells[2] is None

    def test_near_critical_achievability_is_the_phase_cell(self):
        # c = (1 - 1e-9) D(P1||P0): the column is the phase cell, valid at the
        # order 0.9999999995 (the threshold bound at this cell's own tau is
        # TestRenyiAchievabilityAtThreshold's near-critical case)
        spec = "bernoulli:0.5,0.51"
        c = (1.0 - 1e-9) * kl_divergence(parse_pair(spec), Direction.REVERSE)
        grid = ExperimentGrid(spec, Exponential(c), (2000,), ("achievability", "phase_achievability"))
        ach, phase = run_grid(grid).rows[0].cells
        assert ach == phase
        assert ach.valid
        assert ach.log_value == pytest.approx(-9.998e-20, rel=1e-4, abs=0.0)
        assert ach.optimizer == pytest.approx(0.9999999995, rel=1e-12, abs=0.0)

    def test_smoothing_needs_gaussian(self):
        with pytest.raises(DomainError):
            run_grid(small_grid(pair_spec="bernoulli:0.5,0.51", bounds=("smoothing_out",)))

    def test_linear_regime_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            run_grid(small_grid(regime=Linear(), n_values=(1, 2, 3)))

    def test_np_exact_past_the_type_ceiling_is_empty(self):
        # K = 3 at n = 2235 has more than 2.5e6 types: that one cell is empty,
        # like any other the library cannot answer, and the rest is computed
        table = run_grid(
            small_grid(
                pair_spec="discrete:0.2,0.3,0.5|0.5,0.3,0.2",
                n_values=(2, 2235),
                bounds=("renyi_converse", "np_exact"),
            )
        )
        (conv2, exact2), (conv_big, exact_big) = (row.cells for row in table.rows)
        assert exact2.valid and 0.0 < exact2.value < 1.0
        assert exact_big is None
        assert conv2 is not None and conv_big is not None

    def test_np_exact_non_positive_beta_is_not_valid(self, tmp_path):
        # eps one ulp below 1: the rejected P1 mass rounds to 1 or above, so
        # the Bernoulli oracle's log beta is -inf; the cell prints 0, not valid
        table = run_grid(ExperimentGrid("bernoulli:0.5,0.6", Constant(0.9999999999999999), (10,),
                                        ("np_exact",)))
        cell = table.rows[0].cells[0]
        assert cell.value == 0.0
        assert cell.log_value == -math.inf and not cell.valid
        path = tmp_path / "neg.csv"
        emit_csv(table, str(path))
        assert path.read_text().splitlines()[1].endswith(",0,0,false")

    def test_np_exact_discrete_small_ok(self):
        table = run_grid(
            small_grid(
                pair_spec="discrete:0.2,0.3,0.5|0.5,0.3,0.2",
                n_values=(2, 4, 300),
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
        # achievability is out of regime: a None cell, written ",,false"
        assert table.rows[0].cells[1] is None
        assert rows[1][6:9] == ["", "", "false"]
        # renyi value round-trips through repr precision
        assert float(rows[1][3]) == table.rows[0].cells[0].value

    def test_identical_tables_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_grid(small_grid()), str(a))
        emit_csv(run_grid(small_grid()), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_csv(GridTable(("fano",), ()), str(tmp_path / "e.csv"))


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

    def test_title_markup_is_escaped(self, tmp_path):
        # the raw bytes escape &, < and >; quotes stay raw in element text,
        # as html.escape(title, quote=False) left them
        for title, raw in (("P0 < P1 & D > c", "P0 &lt; P1 &amp; D &gt; c"),
                           ("P0 \"1\" & P1 '2'", "P0 \"1\" &amp; P1 '2'")):
            path = tmp_path / "out.svg"
            emit_svg(run_grid(small_grid()), str(path), title=title)
            assert f">{raw}</text>" in path.read_text()
            root = ET.parse(path).getroot()
            texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
            assert texts[0] == title

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

    def test_log_scale_draws_values_below_the_float_range(self, tmp_path):
        # At c = 0.05 renyi_converse's value underflows to 0 at n = 10,500
        # and 20,000 (log -10,216.5 at n = 20,000), but its log is finite,
        # so the log-scale curve keeps all three points.
        table = run_grid(ExperimentGrid("bernoulli:0.5,0.9", Exponential(0.05),
                                        (1000, 10500, 20000), ("renyi_converse",)))
        low = table.rows[-1].cells[0]
        assert low.value == 0.0 and low.log_value == pytest.approx(-10216.5, abs=0.05)
        path = tmp_path / "log.svg"
        emit_svg(table, str(path), log_y=True)
        text = path.read_text()
        m = re.search(r'data-bound="renyi_converse"[^/]*points="([^"]*)"', text)
        assert m and len(m.group(1).split()) == 3
        assert ">1e-4000<" in text  # the axis reaches log10 beta = -4,437

    def test_isolated_point_is_a_circle(self, tmp_path):
        # A valid value with no valid neighbour has no line to be part of.
        values = (None, 0.25, None, 0.5, 0.75)
        cells = (None if v is None else BoundResult(math.log(v), None, BoundKind.LOWER_BETA)
                 for v in values)
        rows = tuple(GridRow(n, 0.01, math.log(0.01), (cell,))
                     for n, cell in zip(range(10, 60, 10), cells))
        path = tmp_path / "out.svg"
        emit_svg(GridTable(("fano",), rows), str(path))
        text = path.read_text()
        assert text.count("<circle") == 1
        assert text.count('<circle data-bound="fano"') == 1
        assert text.count('<polyline data-bound="fano"') == 1
        assert "(no valid points)" not in text

    def test_flat_table_is_widened_about_its_value(self, tmp_path, capsys):
        # every Fano value is 1 (its log is above 0), so the y range is
        # widened to [0.5, 1.5] before padding and the curve is drawn mid-plot
        svg = tmp_path / "flat.svg"
        assert cli_main(["sweep", "--pair", "bernoulli:0.5,0.51", "--bounds", "fano", "--eps",
                         "0.9", "--n-min", "1", "--n-max", "3", "--n-step", "1",
                         "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert 'points="70.00,265.00 360.00,265.00 650.00,265.00"' in text
        labels = re.findall(r'text-anchor="end">([^<]*)<', text)
        assert labels == ["0.6", "0.8", "1", "1.2", "1.4"]

    def test_needs_two_rows(self, tmp_path):
        table = run_grid(small_grid(n_values=(100,)))
        with pytest.raises(DomainError):
            emit_svg(table, str(tmp_path / "x.svg"))


def _table(path):
    # a CSV table as its header and rows, each a list of strings
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


def test_reproduce_pairs_need_no_grid_search(reproduced):
    # Every bound the fig1 and fig2 tables plot is a closed form, a root or
    # an oracle; there is no grid maximizer left, and each cell has a value.
    assert not any(hasattr(m, "maximize_scalar") for m in (htbounds.numerics, htbounds.bounds))
    paths = sorted(reproduced.glob("fig[12]_*.csv"))
    assert len(paths) == 6
    for path in paths:
        header, rows = _table(path)
        assert [int(row[0]) for row in rows] == list(DEFAULT_N)
        empty = [(row[0], col) for row in rows for col, v in zip(header, row)
                 if col.endswith("_value") and v == ""]
        assert not empty, (path.name, empty)


def test_reproduce_values_are_probabilities(reproduced):
    # Every value of the 18 tables is a probability: no beta is printed
    # below 0 or above 1, and none is NaN.  An empty cell has no value.
    paths = sorted(reproduced.glob("*.csv"))
    assert len(paths) == 18
    bad = []
    for path in paths:
        header, rows = _table(path)
        bad += [(path.name, row[0], col, v) for row in rows for col, v in zip(header, row)
                if col.endswith("_value") and v and not 0.0 <= float(v) <= 1.0]
    assert not bad, bad[:10]


class TestGolden:
    # fig1 is a Bernoulli pair and the other two tables Gaussian ones.  The
    # Gaussian renyi_converse cells are branch one in fig2_exponential and
    # branch two in 56 of the 65 rows of appF_gaussian30_constant.  The SVGs
    # pin the plot writer, with a log-y axis (fig1_exponential) and a linear
    # one (fig2_constant).
    @pytest.mark.parametrize("table", ["fig1_exponential", "fig2_exponential",
                                       "appF_gaussian30_constant",
                                       "fig1_exponential.svg", "fig2_constant.svg"])
    def test_reproduce_matches_pinned_csv(self, table, reproduced):
        name = table if table.endswith(".svg") else f"{table}.csv"
        assert (reproduced / name).read_bytes() == (GOLDEN / name).read_bytes()


class TestGcFreeze:
    # Each case runs in a fresh interpreter: cli_main freezes whatever the
    # process holds, so in this one it would count pytest's objects too.
    @staticmethod
    def _run(code, *args):
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, check=True)
        return proc.stdout.splitlines()[-1]

    def test_cli_freezes_the_import_heap(self, tmp_path):
        code = ("import gc, sys\nfrom htbounds.cli import cli_main\n"
                "assert cli_main(['reproduce', 'fig2', '--outdir', sys.argv[1]]) == 0\n"
                "print(gc.get_freeze_count())")
        assert int(self._run(code, str(tmp_path))) > 10_000
        got = (tmp_path / "fig2_exponential.csv").read_bytes()
        assert got == (GOLDEN / "fig2_exponential.csv").read_bytes()

    def test_import_leaves_the_collector_alone(self):
        code = "import gc, htbounds\nprint(gc.get_freeze_count(), gc.isenabled())"
        assert self._run(code) == "0 True"


# Each `bound` budget flag, the sweep regime it matches at n = 100, and the log eps both take.
_BUDGETS = {
    "eps": (["--eps", "0.05"], Constant(0.05), math.log(0.05)),
    "log_eps": (["--log-eps", "-3"], Constant(math.exp(-3.0)), -3.0),
    "exp_rate": (["--exp-rate", "0.002"], Exponential(0.002), -0.002 * 100),
}


class TestCli:
    def test_threshold_matches_library(self, capsys):
        # the threshold test is its own command: its inputs are not a sweep cell's
        argv = ["threshold", "--pair", "bernoulli:0.5,0.6", "--n", "100", "--tau", "0.5",
                "--log-alpha", "-5"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        direct = renyi_achievability_at_threshold(parse_pair("bernoulli:0.5,0.6"), 100, 0.5, -5.0)
        assert payload["bound"] == "threshold"
        assert payload["value"] == direct.value
        assert payload["optimizer"] == direct.optimizer

    @pytest.mark.parametrize("budget", _BUDGETS)
    @pytest.mark.parametrize("bound", CANONICAL_BOUNDS)
    def test_bound_prints_the_sweep_cell(self, capsys, bound, budget):
        # every registry choice prints the cell of a one-row sweep at the same
        # budget, bit for bit, and exits 2 exactly where that cell is empty
        # (test_every_column_matches_direct_calls ties each cell to its library
        # call); at this pair's D(P1||P0) = 0.005, either the phase converse or
        # the two achievability columns are out of regime
        spec, (flags, regime, log_eps) = "gaussian:2,0.1", _BUDGETS[budget]
        row = run_grid(ExperimentGrid(spec, regime, (100,), (bound,))).rows[0]
        assert row.log_eps == log_eps
        code = cli_main(["bound", "--pair", spec, "--bound", bound, "--n", "100", *flags])
        out, err = capsys.readouterr()
        cell = row.cells[0]
        if cell is None:
            assert code == 2 and err.startswith("error: ")
            return
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["bound"] == bound
        assert (payload["value"], float(payload["log_value"]), payload["optimizer"],
                payload["kind"], payload["valid"]) == (cell.value, cell.log_value, cell.optimizer,
                                                       cell.kind.value, cell.valid)

    @pytest.mark.parametrize("spec, argv_tail, call", [
        ("bernoulli:0.5,0.6", ["--n", "2000", "--bound", "hellinger", "--eps", "0.5"],
         lambda p: hellinger_bound(p, 2000, math.log(0.5))),
        ("bernoulli:0.5,0.7", ["--n", "100", "--bound", "renyi_converse", "--log-eps", "-174"],
         lambda p: renyi_converse(p, 100, -174.0)),
    ], ids=["log_value_minus_inf", "optimizer_inf"])
    def test_bound_json_is_strict_with_infinities(self, capsys, spec, argv_tail, call):
        # JSON has no infinities; they are written as the strings "inf" and
        # "-inf", so a strict parser reads the line and float() restores them.
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        assert cli_main(["bound", "--pair", spec, *argv_tail]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line, parse_constant=refuse)
        direct = call(parse_pair(spec))
        assert float(payload["log_value"]) == direct.log_value
        optimizer = payload["optimizer"]
        assert (optimizer is None if direct.optimizer is None
                else float(optimizer) == direct.optimizer)
        assert math.isinf(direct.log_value) or math.isinf(direct.optimizer)

    @pytest.mark.parametrize("eps", ["0", "-1", "1.5"])
    def test_bound_eps_outside_unit_interval_exits_two(self, capsys, eps):
        argv = ["bound", "--pair", "bernoulli:0.5,0.6", "--bound", "fano", "--n", "100",
                f"--eps={eps}"]
        assert cli_main(argv) == 2
        assert f"error: eps must lie in (0, 1), got {float(eps)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--lam", "1.5"], ["--log-eps", "-3"],
                                       ["--exp-rate", "0.01"]])
    def test_bound_rejects_lam_and_a_second_budget(self, capsys, extra):
        # --lam is not a bound option; --eps, --log-eps and --exp-rate set the same budget
        argv = ["bound", "--pair", "bernoulli:0.5,0.6", "--bound", "renyi_converse",
                "--n", "100", "--eps", "0.01", *extra]
        assert cli_main(argv) == 2

    @pytest.mark.parametrize("command", [
        ["bound", "--bound", "renyi_converse", "--log-eps=-1e6"],
        ["threshold", "--tau=-2.5e1"],
    ], ids=["log_eps", "tau"])
    def test_bound_negative_exponent_values(self, capsys, command):
        # argparse reads "-1e6" after a space as an option; "=" keeps it a value
        assert cli_main([command[0], "--pair", "gaussian:0,1", "--n", "10", *command[1:]]) == 0

    def test_bound_requires_tau_for_threshold(self, capsys):
        code = cli_main(["threshold", "--pair", "bernoulli:0.5,0.51", "--n", "100"])
        assert code == 2
        assert "error: the following arguments are required: --tau" in capsys.readouterr().err

    def test_sweep_zero_n_step_exits_two(self, capsys):
        code = cli_main(["sweep", "--pair", "gaussian:2,0.05", "--n-min", "100", "--n-max",
                         "200", "--n-step", "0", "--bounds", "fano"])
        assert code == 2
        assert "need 1 <= n-min <= n-max and n-step >= 1" in capsys.readouterr().err

    def test_samplesize_prints_ceils(self, capsys):
        code = cli_main(
            ["samplesize", "--pair", "gaussian:2,0.05", "--eps", "0.01", "--delta", "0.01",
             "--lam", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ceil 1835" in out

    @pytest.mark.parametrize("extra", [["--lam", "2"], []])
    def test_samplesize_identical_pair_exits_two(self, capsys, extra):
        code = cli_main(["samplesize", "--pair", "discrete:0.5,0.5|0.5,0.5",
                         "--eps", "0.1", "--delta", "0.1", *extra])
        assert code == 2
        assert "requires distinct distributions" in capsys.readouterr().err

    def test_samplesize_skips_pensia_out_of_range(self, capsys):
        code = cli_main(
            ["samplesize", "--pair", "gaussian:2,0.05", "--eps", "0.6", "--delta", "0.01"]
        )
        assert code == 0
        # the reason is the library's own domain message
        assert "pensia: skipped (eps must lie in (0, 0.5), got 0.6)" in capsys.readouterr().out

    def test_samplesize_order_past_psi_overflow(self, capsys):
        # psi(1e307) = 1e307^2 1e-304 / 2 overflows, D_lambda = 500 does not
        code = cli_main(["samplesize", "--pair", "gaussian:0,1e-152", "--eps=1e-300",
                         "--delta=1e-300", "--lam=1e307"])
        assert code == 0
        r = json.loads(capsys.readouterr().out.splitlines()[1])
        assert r["valid"] and r["value"] == 1.3815510557964272

    def test_sweep_writes_files(self, tmp_path, capsys):
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        code = cli_main(
            ["sweep", "--pair", "gaussian:2,0.05", "--n-min", "100", "--n-max", "400",
             "--n-step", "100", "--bounds", "renyi_converse,np_exact",
             "--csv", str(csv), "--svg", str(svg)]
        )
        assert code == 0
        assert csv.exists() and svg.exists()

    def test_sweep_past_the_type_ceiling_empties_one_cell(self, tmp_path, capsys):
        csv = tmp_path / "k3.csv"
        code = cli_main(
            ["sweep", "--pair", "discrete:0.2,0.3,0.5|0.5,0.3,0.2", "--n-min", "2",
             "--n-max", "2235", "--n-step", "2233", "--bounds", "renyi_converse,np_exact",
             "--csv", str(csv)]
        )
        assert code == 0
        small, big = (line.split(",") for line in csv.read_text().splitlines()[1:])
        # n, eps, log_eps, then value, optimizer, valid for each bound
        assert small[0] == "2" and small[6] != "" and small[8] == "true"
        assert big[0] == "2235" and big[3] != "" and big[6:] == ["", "", "false"]

    def test_sweep_far_past_the_type_ceiling_empties_one_cell(self, tmp_path):
        # K = 17 at n = 10^300: the type count has 4,787 digits, more than
        # Python formats, and the refusal that empties the cell prints none
        csv, n = tmp_path / "k17.csv", str(10**300)
        spec = ("discrete:" + ",".join([repr(1 / 17)] * 17) + "|"
                + ",".join(["0.03125"] * 16) + ",0.5")
        assert cli_main(["sweep", "--pair", spec, "--n-min", n, "--n-max", n,
                         "--bounds", "renyi_converse,np_exact", "--csv", str(csv)]) == 0
        (row,) = (line.split(",") for line in csv.read_text().splitlines()[1:])
        assert row[0] == n and row[3] != "" and row[6:] == ["", "", "false"]

    def test_sweep_past_the_bernoulli_type_ceiling_empties_one_cell(self, tmp_path, capsys):
        csv = tmp_path / "b.csv"
        code = cli_main(
            ["sweep", "--pair", "bernoulli:0.5,0.51", "--n-min", "2500000", "--n-max",
             "2500000", "--bounds", "renyi_converse,np_exact", "--csv", str(csv)]
        )
        assert code == 0
        (row,) = (line.split(",") for line in csv.read_text().splitlines()[1:])
        assert row[0] == "2500000" and row[3] != "" and row[6:] == ["", "", "false"]

    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_sweep_empty_bound_selection_exits_two(self, tmp_path, capsys, selection):
        csv = tmp_path / "empty.csv"
        code = cli_main(["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", "50", "--n-max",
                         "150", "--n-step", "50", f"--bounds={selection}", "--csv", str(csv)])
        assert code == 2
        assert "error: select at least one bound" in capsys.readouterr().err
        assert not csv.exists()

    def test_sweep_that_cannot_plot_writes_nothing(self, tmp_path, capsys):
        # a one-row table has no plot, and --log-y and --title style a plot that
        # only --svg asks for, so the sweep exits 2 and leaves no CSV either
        csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
        head = ["sweep", "--pair", "bernoulli:0.5,0.6", "--n-min", "10", "--csv", str(csv)]
        for tail, message in [
            (["--n-max", "10", "--svg", str(svg)], "plot needs at least two rows"),
            (["--n-max", "20", "--title", "x", "--log-y"],
             "--log-y and --title apply only with --svg"),
        ]:
            assert cli_main([*head, *tail]) == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert not csv.exists() and not svg.exists()

    def test_sweep_summary_prints_logs_beside_values(self, capsys):
        # at eps = e^-1000 every value underflows to 0; the logs still tell the cells apart
        pair, n, log_eps = parse_pair("bernoulli:0.5,0.9"), 20000, -0.05 * 20000
        code = cli_main(["sweep", "--pair", "bernoulli:0.5,0.9", "--exp-rate", "0.05",
                         "--n-min", "20000", "--n-max", "20000",
                         "--bounds", "renyi_converse,phase_converse,phase_achievability"])
        assert code == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head == f"n=20000 eps=0  (log {log_eps:.9g})"
        converse = renyi_converse(pair, n, log_eps)
        phase = phase_transition_achievability(pair, n, log_eps)
        assert converse.log_value < -10000.0 and phase.log_value < -4000.0
        assert lines == [
            f"  renyi_converse: 0  (log {converse.log_value:.9g})",
            "  phase_converse: -",
            f"  phase_achievability: 0  (log {phase.log_value:.9g})",
        ]

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

    @pytest.mark.parametrize("delta", ["1e-300", "1e300"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--n-min", "10", "--n-max", "20"],
        ["samplesize", "--eps", "0.1", "--delta", "0.1"],
        *(["bound", "--bound", bound, "--n", "10"] for bound in CANONICAL_BOUNDS),
        ["threshold", "--n", "10", "--tau", "0.5"],
    ], ids=lambda argv: argv[2] if argv[0] == "bound" else argv[0])
    def test_gaussian_separation_out_of_float_range_exits_two(self, capsys, command, delta):
        # (delta / sigma)^2 underflows to 0 (1e-300) or overflows (1e300)
        argv = [command[0], "--pair", f"gaussian:0,{delta}", *command[1:]]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "error: GaussianPair requires (delta / sigma)^2 in the float range" in err
        assert "Traceback" not in err

    def test_hellinger_far_gaussian_pair_is_degenerate(self, tmp_path, capsys):
        # 1 - H^2 = e^{-d^2/8} rounds to 0 beyond |delta/sigma| = 17.3, so the
        # bound reads log(1 - H^2) = -d^2/8 from the kernel, not log1p(-H^2)
        argv = ["bound", "--pair", "gaussian:0,20", "--bound", "hellinger", "--n", "10"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (payload["value"], payload["valid"]) == (0.0, False)
        csv = tmp_path / "far.csv"
        assert cli_main(["sweep", "--pair", "gaussian:0,20", "--n-min", "10", "--n-max", "20",
                         "--n-step", "10", "--csv", str(csv)]) == 0
        assert "hellinger_value" in csv.read_text().splitlines()[0]

    def test_berry_esseen_third_moment_out_of_float_range(self, capsys):
        # E|Z - EZ|^3 = d^3 sqrt(8/pi) overflows past |delta/sigma| = 5.6e102
        # while d^2 is in range; the bound uses only the constant 6 sqrt(8/pi)
        argv = ["bound", "--pair", "gaussian:0,1e103", "--bound", "berry_esseen", "--n", "10"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["bound"] == "berry_esseen"

    @pytest.mark.parametrize("spec", ["bernoulli:1e-300,0.5", "bernoulli:0.5,1e-300",
                                      "discrete:1e-300,1|1e-200,1"])
    def test_berry_esseen_llr_variance_below_normal_range(self, capsys, spec):
        # Var^{3/2} underflows to 0 on the first and last pair, whose
        # Berry-Esseen constant is about 6e150; the second pair's is 6.
        # Either way n = 10 leaves the slack interval empty: vacuous.
        argv = ["bound", "--pair", spec, "--bound", "berry_esseen", "--n", "10"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (payload["value"], payload["valid"]) == (0.0, False)

    def test_berry_esseen_where_its_argument_rounds_to_one(self, capsys):
        # at n = 10^40, 1 - eps - (B + Delta)/sqrt(n) rounds to 1; its complement
        # eps + (B + Delta)/sqrt(n) does not, so Q^{-1} is taken on that
        argv = ["bound", "--pair", "gaussian:0,1", "--bound", "berry_esseen", "--eps", "1e-20",
                "--n", str(10**40)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["valid"] is True
        assert payload["log_value"] == pytest.approx(-5e39, rel=1e-15, abs=0.0)

    def test_berry_esseen_scale_past_float_range(self, capsys):
        # n V = 2060e306 overflows; sqrt(n) sqrt(V) does not, so the
        # objective is -inf (n D overflows too), not -inf + inf = nan
        argv = ["bound", "--pair", "gaussian:0,1e153", "--bound", "berry_esseen",
                "--n", "2060", "--eps", "1e-163"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (payload["value"], payload["valid"]) == (0.0, False)

    def test_phase_converse_where_exp_rounds_to_one(self, capsys):
        # identical pair: the exponent is -n c = -1e-247, whose exp rounds to
        # 1, so log(1 - e^g) is log(-expm1(g)), not log1p(-1)
        argv = ["bound", "--pair", "discrete:0.1,0.9|0.1,0.9", "--bound", "phase_converse",
                "--n", "1000", "--exp-rate", "1e-250"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["value"] == pytest.approx(1e-247, rel=1e-12, abs=0.0)

    def test_bound_above_one_prints_one(self, capsys):
        # Fano's log is log(e^{-n D} / 2 / (1 - eps)) = +1.589 at eps = 0.9:
        # beta >= 1 is printed, the log keeps the bound's own, and a bound on
        # a probability above 1 is not valid
        argv = ["--pair", "bernoulli:0.5,0.6", "--bound", "fano", "--n", "1", "--eps", "0.9"]
        assert cli_main(["bound", *argv]) == 0
        text, json_line = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(json_line)
        assert payload["value"] == 1.0
        assert payload["log_value"] == pytest.approx(1.589026915173973, rel=1e-12, abs=0.0)
        assert payload["valid"] is False and text.endswith("[degenerate]")

    def test_phase_achievability_at_a_tiny_rate_is_valid_and_sound(self, capsys):
        # c = 1e-14 below D(P1||P0) = 6.7e-14, at n = 1: the exponent is
        # 5.5286e-14, the bound's own expression n (psi(l) - (l - 1) c) / l
        # at its optimum by 60-digit golden section.  The log is rounded up
        # from it by less than its own size and stays at or below 0 (it was
        # +1.2e-14 while the rate form kept a rounding bound of its own)
        argv = ["--pair", "bernoulli:1e-13,1e-14", "--bound", "phase_achievability", "--n", "1",
                "--exp-rate", "1e-14"]
        assert cli_main(["bound", *argv]) == 0
        text, json_line = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(json_line)
        assert payload["valid"] is True and not text.endswith("[degenerate]")
        assert -5.5285995506544845e-14 <= payload["log_value"] <= 0.0

    def test_threshold_above_n_kl_takes_the_order_one_end(self, capsys):
        # tau = 500 is above n D(P1||P0) = 2.0: the order is the end l = 1,
        # where the bound is 1 - alpha e^tau, log 0 at alpha = 0, and valid
        # (the order 1 - 1e-9 gives log +4.98e-7, which is not valid)
        argv = ["--pair", "bernoulli:0.5,0.6", "--n", "100", "--tau", "500"]
        assert cli_main(["threshold", *argv]) == 0
        text, json_line = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(json_line)
        assert (payload["value"], payload["log_value"], payload["optimizer"]) == (1.0, 0.0, 1.0)
        assert payload["valid"] is True and not text.endswith("[degenerate]")

    def test_threshold_within_rounding_of_n_kl_takes_the_order_one_end(self, capsys):
        # tau within 1e-13 relative of n D(P1||P0) = 0.40002667093425: the
        # root 0.99999999999995 gives log -2.8e-27 rounded up to +3.6e-27,
        # not valid, so the bound is the end l = 1, where psi(1) = 0 exactly
        argv = ["--pair", "bernoulli:0.5,0.51", "--n", "2000", "--tau", "0.40002667093421035"]
        assert cli_main(["threshold", *argv]) == 0
        text, json_line = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(json_line)
        assert (payload["value"], payload["log_value"], payload["optimizer"]) == (1.0, 0.0, 1.0)
        assert payload["valid"] is True and not text.endswith("[degenerate]")

    def test_samplesize_below_one_keeps_its_log(self, capsys):
        # eps = delta = 0.4 at a wide separation: the Renyi bound is below one
        # sample, printed as 1 and not valid, with its own negative log; the
        # Pensia bound's premise fails there (0.0558 > 0.0204), so it is skipped
        code = cli_main(["samplesize", "--pair", "gaussian:0,5", "--eps", "0.4",
                         "--delta", "0.4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[1])
        assert (payload["value"], payload["valid"]) == (1.0, False)
        assert payload["log_value"] == pytest.approx(-5.35915247828568, rel=1e-12, abs=0.0)
        assert lines[2].startswith("pensia: skipped")

    @pytest.mark.parametrize("argv, tagged", [
        (["--pair", "gaussian:0,5", "--eps", "0.4", "--delta", "0.4"], True),
        (["--pair", "gaussian:2,0.05", "--eps", "0.01", "--delta", "0.01", "--lam", "2"], False),
    ], ids=["below_one", "readme"])
    def test_samplesize_tags_invalid_results(self, capsys, argv, tagged):
        # each text line carries the tag exactly where its JSON line is not valid
        assert cli_main(["samplesize", *argv]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        pairs = [(lines[0], lines[1])]
        if tagged:  # below one sample, the Pensia bound's premise fails
            assert lines[2].startswith("pensia: skipped")
        else:
            pairs.append((lines[2], lines[3]))
        for text, json_line in pairs:
            assert json.loads(json_line)["valid"] is not tagged
            assert text.endswith("  [degenerate]") is tagged, text

    def test_samplesize_order_at_branch_one_end(self, capsys):
        # the crossing lies just below where branch one turns vacuous; its
        # order is the l = inf limit: printed as inf and written to JSON as "inf"
        code = cli_main(["samplesize", "--pair", "bernoulli:0.1,1e-14",
                         "--eps", "0.36787944117144233", "--delta", "1.5428112031918877e-13"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("order inf)")
        assert json.loads(lines[1])["optimizer"] == "inf"

    @pytest.mark.parametrize("argv", [
        ["bound", "--bound", "smoothing_out", "--pair", "gaussian:2,0.1", "--t-param", "0.3"],
        ["bound", "--bound", "berry_esseen", "--pair", "bernoulli:0.5,0.6", "--delta-param", "0.1"],
        ["bound", "--bound", "renyi_converse", "--pair", "bernoulli:0.5,0.6", "--tau", "5"],
        ["bound", "--bound", "renyi_converse", "--pair", "bernoulli:0.5,0.6", "--log-alpha=-3"],
        ["threshold", "--pair", "bernoulli:0.5,0.6", "--tau", "0.5", "--eps", "0.01"],
        ["threshold", "--pair", "bernoulli:0.5,0.6", "--tau", "0.5", "--exp-rate", "0.3"],
    ], ids=["t_param", "delta_param", "bound_tau", "bound_log_alpha", "threshold_eps",
            "threshold_exp_rate"])
    def test_bound_parameter_flags_exit_two(self, capsys, argv):
        # a baseline is evaluated at its best parameter only, as in a sweep; the
        # threshold test takes no budget, and a sweep cell no threshold
        assert cli_main([*argv, "--n", "100"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_samplesize_infinite(self, capsys):
        # (delta/sigma)^2 = 1e-320 is subnormal but in range: n is infinite,
        # printed as inf and written to JSON as the string "inf"
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        code = cli_main(["samplesize", "--pair", "gaussian:0,1e-160", "--eps", "0.1",
                         "--delta", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "(ceil inf," in lines[0] and "(ceil inf," in lines[2]
        for line in (lines[1], lines[3]):
            assert float(json.loads(line, parse_constant=refuse)["value"]) == math.inf

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

    def test_reproduce_appf_names(self, reproduced):
        # appF runs four pairs x three regimes, a table and a plot each
        names = sorted(p.name for p in reproduced.glob("appF_*"))
        assert names == [
            f"appF_{pair}_{regime}.{ext}"
            for pair in ("bernoulli10", "bernoulli20", "gaussian10", "gaussian30")
            for regime in ("constant", "exponential", "linear")
            for ext in ("csv", "svg")
        ]
