"""Build the comparison figures straight from the library API.

Sweeps a Gaussian pair under the exponentially decaying Type I regime,
writes the table as CSV and the plot as SVG into ./figure_out (or a
directory given on the command line).
"""

import pathlib
import sys

from htbounds import (
    Direction,
    ExperimentGrid,
    Exponential,
    emit_csv,
    emit_svg,
    kl_divergence,
    parse_pair,
    run_grid,
)

outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "figure_out")
outdir.mkdir(parents=True, exist_ok=True)

spec = "gaussian:2,0.05"
c = 20.0 * kl_divergence(parse_pair(spec), Direction.REVERSE)

grid = ExperimentGrid(
    pair_spec=spec,
    regime=Exponential(c),
    n_values=tuple(range(10, 801, 10)),
    bounds=(
        "renyi_converse",
        "fano",
        "hellinger",
        "berry_esseen",
        "smoothing_out",
        "np_exact",
    ),
)
table = run_grid(grid)

emit_csv(table, str(outdir / "comparison.csv"))
emit_svg(table, str(outdir / "comparison.svg"), title=f"{spec}, eps = exp(-{c:.4g} n)")
emit_svg(
    table,
    str(outdir / "comparison_log.svg"),
    log_y=True,
    title=f"{spec}, log scale",
)

for row in table.rows[::16]:
    cells = ", ".join(
        f"{name}=-" if cell is None else f"{name}={cell.value:.4g}"
        for name, cell in zip(table.bounds, row.cells)
    )
    print(f"n={row.n:4d}: {cells}")
print(f"\nwrote {outdir}/comparison.csv and two SVG plots")
